type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
  let skip_ws () =
    while
      !pos < len
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if
      !pos + String.length word <= len
      && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' ->
          Buffer.add_char b '\n';
          advance ()
        | Some 't' ->
          Buffer.add_char b '\t';
          advance ()
        | Some 'r' ->
          Buffer.add_char b '\r';
          advance ()
        | Some 'b' ->
          Buffer.add_char b '\b';
          advance ()
        | Some 'f' ->
          Buffer.add_char b '\012';
          advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > len then fail "truncated \\u escape";
          let code =
            (hex_digit text.[!pos] lsl 12)
            lor (hex_digit text.[!pos + 1] lsl 8)
            lor (hex_digit text.[!pos + 2] lsl 4)
            lor hex_digit text.[!pos + 3]
          in
          pos := !pos + 4;
          (match Uchar.of_int code with
          | u -> Buffer.add_utf_8_uchar b u
          | exception Invalid_argument _ -> Buffer.add_char b '?')
        | Some c ->
          Buffer.add_char b c;
          advance ()
        | None -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      &&
      match text.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let parse_result text =
  match parse text with v -> Ok v | exception Failure msg -> Error msg

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* emission                                                            *)
(* ------------------------------------------------------------------ *)

(* Bytes [run, i) of [s] need no escape and are copied in one slice when
   an escaped byte or [stop] ends the run. *)
let rec escape_from b s stop run i =
  if i = stop then Buffer.add_subbytes b s run (i - run)
  else
    match Bytes.get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_subbytes b s run (i - run);
      Buffer.add_char b '\\';
      (match c with
      | '\n' -> Buffer.add_char b 'n'
      | '\r' -> Buffer.add_char b 'r'
      | '\t' -> Buffer.add_char b 't'
      | '"' | '\\' -> Buffer.add_char b c
      | c ->
        Buffer.add_string b "u00";
        Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char b "0123456789abcdef".[Char.code c land 15]);
      escape_from b s stop (i + 1) (i + 1)
    | _ -> escape_from b s stop run (i + 1)

let add_escaped b s pos len = escape_from b s (pos + len) pos pos

let str s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_char b '"';
  add_escaped b (Bytes.unsafe_of_string s) 0 (String.length s);
  Buffer.add_char b '"';
  Buffer.contents b

(* the C formatter behind [Printf.sprintf "%.6f"], without the format
   interpreter's allocations: same bytes, one string *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no number for NaN or an infinity *)
let num f = if Float.is_finite f then format_float "%.6f" f else "null"
let int = string_of_int

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

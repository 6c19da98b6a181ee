(* check_links PATH: verify every relative markdown link and anchor
   resolves.

   PATH is a directory, walked for *.md files (skipping _build, .git and
   _opam), or one file to check whatever its suffix. For each inline
   link [text](target) outside fenced code, a relative target must exist
   on disk, resolved against the linking file's directory. External
   links (http://, https://, mailto:) are skipped. An anchor - the
   #fragment of a link to a .md file, or a pure #anchor into the linking
   file itself - must name one of that file's headings outside fenced
   code, under GitHub's slug rule: lowercase; keep only letters, digits,
   spaces, '-' and '_' (ASCII ones: other bytes are dropped); each space
   becomes '-'; a repeated heading gets -1, -2, ...

   Exit 0 when every link resolves, 1 with one line per broken link or
   anchor otherwise. CI runs this after the build so documentation moves,
   renames and heading rewrites cannot silently orphan cross-references;
   [dune runtest] runs it on a fixture with one bad anchor. *)

let skip_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let rec walk dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then
        if List.mem entry skip_dirs then acc else walk path acc
      else if Filename.check_suffix entry ".md" then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* [f lineno line] on each line of [path] outside fenced code *)
let iter_prose path f =
  let in_code = ref false in
  List.iteri
    (fun i line ->
      if String.starts_with ~prefix:"```" (String.trim line) then
        in_code := not !in_code
      else if not !in_code then f (i + 1) line)
    (String.split_on_char '\n'
       (In_channel.with_open_text path In_channel.input_all))

(* the text of an ATX heading line ("## Title") *)
let heading_text line =
  let line = String.trim line in
  let n = String.length line in
  let rec hashes i = if i < n && line.[i] = '#' then hashes (i + 1) else i in
  let h = hashes 0 in
  if h >= 1 && h <= 6 && (h = n || line.[h] = ' ') then
    Some (String.sub line h (n - h))
  else None

let slug text =
  let b = Buffer.create (String.length text) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9' | '-' | '_') as c -> Buffer.add_char b c
      | ' ' -> Buffer.add_char b '-'
      | _ -> ())
    (String.trim text);
  Buffer.contents b

let anchors path =
  let seen = Hashtbl.create 16 and acc = ref [] in
  iter_prose path (fun _ line ->
      Option.iter
        (fun text ->
          let s = slug text in
          let k = Option.value (Hashtbl.find_opt seen s) ~default:0 in
          Hashtbl.replace seen s (k + 1);
          acc := (if k = 0 then s else Printf.sprintf "%s-%d" s k) :: !acc)
        (heading_text line));
  !acc

(* targets of [text](target) links in one line, left to right *)
let link_targets line =
  let n = String.length line in
  let rec go i acc =
    if i + 1 >= n then List.rev acc
    else if line.[i] = ']' && line.[i + 1] = '(' then
      match String.index_from_opt line (i + 2) ')' with
      | None -> List.rev acc
      | Some close ->
        let target = String.sub line (i + 2) (close - i - 2) in
        go (close + 1) (target :: acc)
    else go (i + 1) acc
  in
  go 0 []

let external_link t =
  String.starts_with ~prefix:"http://" t
  || String.starts_with ~prefix:"https://" t
  || String.starts_with ~prefix:"mailto:" t

(* what is wrong with [target] as a link from [path], if anything *)
let fault path target =
  let file, anchor =
    match String.index_opt target '#' with
    | Some i ->
      ( String.sub target 0 i,
        String.sub target (i + 1) (String.length target - i - 1) )
    | None -> (target, "")
  in
  let resolved =
    if file = "" then path else Filename.concat (Filename.dirname path) file
  in
  if not (Sys.file_exists resolved) then Some "broken link"
  else if
    anchor <> ""
    && (file = "" || Filename.check_suffix resolved ".md")
    && not (List.mem anchor (anchors resolved))
  then Some "broken anchor"
  else None

let check_file path broken =
  iter_prose path (fun lineno line ->
      List.iter
        (fun target ->
          let target = String.trim target in
          if (not (external_link target)) && target <> "" then
            Option.iter
              (fun what ->
                broken :=
                  Printf.sprintf "%s:%d: %s -> %s" path lineno what target
                  :: !broken)
              (fault path target))
        (link_targets line))

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files =
    if Sys.is_directory root then List.sort compare (walk root []) else [ root ]
  in
  let broken = ref [] in
  List.iter (fun f -> check_file f broken) files;
  match List.rev !broken with
  | [] ->
    Printf.printf
      "check_links: %d markdown file(s), all relative links and anchors ok\n"
      (List.length files)
  | problems ->
    List.iter prerr_endline problems;
    Printf.eprintf "check_links: %d broken link(s)\n" (List.length problems);
    exit 1

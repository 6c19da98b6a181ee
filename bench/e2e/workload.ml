(* The three course workloads: fixed parameters, plus the seeded
   generators that make every upload and every arrival time. Inputs are
   made here from the stdlib generator, so a change to the program
   (Mooc.Trace, Vc_util.Rng) cannot shift them. *)

type kind = Hit_replay | Project_miss | Durable_restart

type t = {
  name : string;
  kind : kind;
  rate : float;  (** offered load of the open loop, requests/s *)
  seed : int;  (** default seed *)
}

let hit_replay = { name = "hit-replay"; kind = Hit_replay; rate = 1500.; seed = 1 }
let project_miss =
  { name = "project-miss"; kind = Project_miss; rate = 250.; seed = 2 }
let durable_restart =
  { name = "durable-restart"; kind = Durable_restart; rate = 1500.; seed = 3 }

let all = [ hit_replay; project_miss; durable_restart ]
let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* uploads                                                             *)
(* ------------------------------------------------------------------ *)

(* the Trace.default_mix proportions, restated so they cannot drift *)
let mix =
  [| ("minisat", 0.30); ("sis", 0.25); ("kbdd", 0.20); ("espresso", 0.15);
     ("axb", 0.10) |]

let tools = Array.map fst mix
let sessions = 20_000

let pick_tool st =
  let r = Random.State.float st 1.0 in
  let rec go i acc =
    let acc = acc +. snd mix.(i) in
    if r < acc || i = Array.length mix - 1 then fst mix.(i) else go (i + 1) acc
  in
  go 0 0.0

let int = Random.State.int
let letters n = Array.init n (fun i -> String.make 1 (Char.chr (97 + i)))

let cnf st ~vars ~clauses =
  let b = Buffer.create (clauses * 12) in
  Printf.bprintf b "p cnf %d %d" vars clauses;
  for _ = 1 to clauses do
    let rec pick acc =
      if List.length acc = 3 then acc
      else
        let v = 1 + int st vars in
        pick (if List.mem v acc then acc else v :: acc)
    in
    Buffer.add_char b '\n';
    List.iter
      (fun v -> Printf.bprintf b "%d " (if Random.State.bool st then v else -v))
      (pick []);
    Buffer.add_char b '0'
  done;
  Buffer.contents b

let kbdd st ~vars ~terms =
  let names = letters vars in
  let lit () = (if Random.State.bool st then "" else "!") ^ names.(int st vars) in
  let term () = String.concat " & " (List.init (2 + int st 3) (fun _ -> lit ())) in
  Printf.sprintf "boolean %s\nf = %s\nsatcount f\nsize f"
    (String.concat " " (Array.to_list names))
    (String.concat " | " (List.init terms (fun _ -> term ())))

(* a cube over [n] inputs with at least two literals *)
let rec cube st n =
  let c = String.init n (fun _ -> match int st 4 with 0 -> '0' | 1 -> '1' | _ -> '-') in
  if n - List.length (String.split_on_char '-' c) + 1 >= 2 then c else cube st n

let distinct_cubes st ~inputs ~rows =
  let seen = Hashtbl.create rows in
  let rec go acc k =
    if k = rows then List.rev acc
    else
      let c = cube st inputs in
      if Hashtbl.mem seen c then go acc k
      else (Hashtbl.add seen c (); go (c :: acc) (k + 1))
  in
  go [] 0

let pla st ~inputs ~rows =
  Printf.sprintf ".i %d\n.o 1\n%s\n.e" inputs
    (String.concat "\n"
       (List.map (fun c -> c ^ " 1") (distinct_cubes st ~inputs ~rows)))

let blif st ~inputs ~cubes =
  let names = String.concat " " (Array.to_list (letters inputs)) in
  Printf.sprintf
    ".model p\n.inputs %s\n.outputs x\n.names %s x\n%s\n.end\n\
     %%script\nsweep\nsimplify\nprint_stats"
    names names
    (String.concat "\n"
       (List.map (fun c -> c ^ " 1") (distinct_cubes st ~inputs ~rows:cubes)))

(* symmetric and strictly diagonally dominant, so cg converges *)
let axb st ~n =
  let a = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if int st 4 = 0 then begin
        let v = int st 3 - 1 in
        a.(i).(j) <- v;
        a.(j).(i) <- v
      end
    done;
    a.(i).(i) <- n + 1 + int st 9
  done;
  let row xs = String.concat " " (List.map string_of_int xs) in
  Printf.sprintf "n %d\nmethod cg\n%s\nrhs %s" n
    (String.concat "\n"
       (Array.to_list (Array.map (fun r -> "row " ^ row (Array.to_list r)) a)))
    (row (List.init n (fun _ -> 1 + int st 9)))

(* homework-sized uploads: Trace.input_of scale *)
let small st = function
  | "minisat" -> cnf st ~vars:8 ~clauses:20
  | "kbdd" -> kbdd st ~vars:6 ~terms:2
  | "espresso" -> pla st ~inputs:4 ~rows:(3 + int st 4)
  | "sis" -> blif st ~inputs:4 ~cubes:2
  | _ -> axb st ~n:2

(* project-sized uploads: each runs its kernel for ~0.3-1.3 ms *)
let project st = function
  | "minisat" -> cnf st ~vars:60 ~clauses:240
  | "kbdd" -> kbdd st ~vars:16 ~terms:16
  | "espresso" -> pla st ~inputs:8 ~rows:24
  | "sis" -> blif st ~inputs:8 ~cubes:16
  | _ -> axb st ~n:60

(* [n] pairwise-distinct (tool, upload) pairs *)
let distinct n gen =
  let seen = Hashtbl.create n in
  let out = Array.make n ("", "") in
  let k = ref 0 in
  while !k < n do
    let x = gen () in
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      out.(!k) <- x;
      incr k
    end
  done;
  out

(* ------------------------------------------------------------------ *)
(* wire rendering (dot-stuffing, SMTP-style)                           *)
(* ------------------------------------------------------------------ *)

(* [text] as the protocol carries it: each line, a leading "." doubled,
   then a "." line - the same bytes for an upload and a reply body *)
let stuff_lines text =
  let b = Buffer.create (String.length text + 16) in
  if text <> "" then
    List.iter
      (fun l ->
        if String.length l > 0 && l.[0] = '.' then Buffer.add_char b '.';
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      (String.split_on_char '\n' text);
  Buffer.add_string b ".\n";
  Buffer.contents b

(* the inverse: the text a host reads back from [stuff_lines text] *)
let unstuff_lines wire =
  let rec go acc = function
    | [] | "." :: _ -> List.rev acc
    | l :: rest ->
      let l =
        if String.starts_with ~prefix:".." l then String.sub l 1 (String.length l - 1)
        else l
      in
      go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' wire))

(* ------------------------------------------------------------------ *)
(* request plans                                                       *)
(* ------------------------------------------------------------------ *)

type phase = {
  pick : int array;  (** input index per request *)
  session : int array;  (** session number per request *)
  at : float array;  (** scheduled send offset, s (empty for closed loops) *)
}

type plan = {
  inputs : (string * string) array;  (** (tool, dot-stuffed upload) *)
  prefill : phase;  (** inputs a prep host writes to the spill dir *)
  prime : phase;  (** sent once, closed loop, before the warm-up *)
  warm : phase;
  measured : phase;
  closed : phase;
}

(* exactly [n] Poisson arrivals over [0, span): exponential gaps,
   rescaled so the (n+1)-th arrival lands on [span] *)
let arrivals st ~n ~span =
  let gap () = -.log (1.0 -. Random.State.float st 1.0) in
  let s = Array.make (n + 1) 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n do
    acc := !acc +. gap ();
    s.(i) <- !acc
  done;
  Array.init n (fun i -> span *. s.(i) /. s.(n))

(* Zipf over ranks 0..n-1, exponent [s]: inverse-CDF sampling *)
let zipf ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
    cdf.(r) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

let durable_inputs = 4096
let zipf_s = 1.0

(* the closed loop is sized for this much more than the open rate *)
let closed_headroom = function
  | Hit_replay | Durable_restart -> 12.0
  | Project_miss -> 6.0

(* [rate] overrides the workload's own (the sweep); [closed] is the
   closed-loop length the plan must cover *)
let plan ?rate w ~seed ~warmup ~duration ~closed =
  let rate = Option.value rate ~default:w.rate in
  let st = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let count span = int_of_float (Float.round (rate *. span)) in
  let n_warm = count warmup and n_meas = count duration in
  let n_closed = int_of_float (Float.ceil (rate *. closed_headroom w.kind *. closed)) in
  let sessions_of n = Array.init n (fun _ -> int st sessions) in
  let inputs, draw, prime, prefill =
    match w.kind with
    | Hit_replay ->
      (* 40 uploads per tool, 80% of requests to the first 4; 200 in
         all stay under every 32-entry shard of the memory cache *)
      let per_tool = 40 in
      let inputs =
        Array.concat
          (Array.to_list
             (Array.map
                (fun tool -> distinct per_tool (fun () -> (tool, small st tool)))
                tools))
      in
      let draw _ =
        let tool = pick_tool st in
        let t = Option.get (Array.find_index (( = ) tool) tools) in
        let v = if Random.State.float st 1.0 < 0.8 then int st 4 else int st per_tool in
        (t * per_tool) + v
      in
      (inputs, draw, Array.init (Array.length inputs) Fun.id, [||])
    | Project_miss ->
      let total = n_warm + n_meas + n_closed in
      (distinct total (fun () -> let t = pick_tool st in (t, project st t)), Fun.id, [||], [||])
    | Durable_restart ->
      (* ranks in generation order; a seeded 1/8 of them is left out of
         the prefill so the serving host still executes and writes
         through *)
      let inputs =
        distinct durable_inputs (fun () ->
            let t = pick_tool st in
            (t, small st t))
      in
      let z = zipf ~n:durable_inputs ~s:zipf_s in
      let prefill =
        Array.of_list (List.filter (fun _ -> int st 8 <> 0) (List.init durable_inputs Fun.id))
      in
      (inputs, (fun _ -> z st), [||], prefill)
  in
  (* project-miss draws consume fresh inputs in order, so number the
     draws across phases *)
  let next = ref 0 in
  let draws n = Array.init n (fun _ -> let k = !next in incr next; draw k) in
  let closed_phase pick = { pick; session = sessions_of (Array.length pick); at = [||] } in
  let open_phase n span =
    let pick = draws n in
    { pick; session = sessions_of n; at = arrivals st ~n ~span }
  in
  let warm = open_phase n_warm warmup in
  let measured = open_phase n_meas duration in
  {
    inputs = Array.map (fun (tool, raw) -> (tool, stuff_lines raw)) inputs;
    prefill = closed_phase prefill;
    prime = closed_phase prime;
    warm;
    measured;
    closed = closed_phase (draws n_closed);
  }

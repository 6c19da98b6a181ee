(* vcbench: end-to-end and per-layer performance of the portal host on
   three course workloads. See README.md.

     vcbench run [-workload NAME] [-seed N] [-trace DIR] [-out FILE.json]
     vcbench json -workload NAME -seed N -seconds S -trace 0|1
     vcbench compare A.json... -- B.json...
     vcbench sweep [-workload NAME]
     vcbench parity VCSERVE_EXE VCSERVE_OUT VCBENCH_OUT
     vcbench smoke BENCHMARK.json
     vcbench serve ...            (the host; started by the commands above) *)

open Client
module B = Bench
module W = Workload
module Json = Vc_util.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("vcbench: " ^ s);
      exit 2)
    fmt

(* "-flag v" and "--flag v" alike; BENCHMARK.json's command is given
   the latter *)
let options args =
  let norm a =
    if String.length a > 2 && String.starts_with ~prefix:"--" a then
      String.sub a 1 (String.length a - 1)
    else a
  in
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest when String.length k > 1 && k.[0] = '-' -> go ((norm k, v) :: acc) rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go [] args

let opt o k = List.assoc_opt k o
let float_opt o k d = match opt o k with Some v -> float_of_string v | None -> d
let int_opt o k d = match opt o k with Some v -> int_of_string v | None -> d

let workloads o =
  match opt o "-workload" with
  | None | Some "all" -> W.all
  | Some n -> (
    match W.find n with Some w -> [ w ] | None -> die "unknown workload %S" n)

let exe = Sys.executable_name
let work = "_vcbench"

(* measured seconds of a run: BENCHMARK.json's run_seconds *)
let seconds = 30.0

(* ------------------------------------------------------------------ *)
(* runs                                                                *)
(* ------------------------------------------------------------------ *)

let metric (r : B.result) name =
  match List.find_opt (fun (m : B.metric) -> m.B.name = name) (r.B.e2e @ r.B.tail) with
  | Some m -> m.B.value
  | None -> 0.0

(* Untraced, one run gives the end-to-end metrics. Traced, an untraced
   run plus a closed loop comes first: its end-to-end metrics and tail
   readings stand, a traced run of the same shape gives the per-layer
   ones, and the difference between the two is the tracing overhead. *)
let run_one ?(work = work) ~seed ~shape ?(closed = 5.0) ?trace_dir w =
  match trace_dir with
  | None -> B.run ~exe ~work ~seed ~shape w
  | Some tdir ->
    let base = B.run ~exe ~work ~seed ~shape:{ shape with B.closed } w in
    let tr = B.run ~exe ~work ~trace_dir:tdir ~seed ~shape w in
    let over name = 100.0 *. B.ratio (metric tr name -. metric base name) (metric base name) in
    {
      tr with
      B.e2e = base.B.e2e;
      layers =
        tr.B.layers @ base.B.tail
        @ List.map
            (fun (name, of_) -> { B.name; value = over of_; unit_ = "%" })
            [
              ("trace.overhead_cpu_pct", "proc.cpu_us_per_req");
              ("trace.overhead_p50_pct", "client.latency_p50_ms");
            ];
      samples = base.B.samples;
      steal = Float.max base.B.steal tr.B.steal;
      attempted = base.B.attempted + tr.B.attempted;
      failed = base.B.failed + tr.B.failed;
    }

(* an untraced run shows its tail readings; a traced one has them among
   its layers *)
let shown (r : B.result) = r.B.e2e @ if r.B.layers = [] then r.B.tail else r.B.layers

let lines (r : B.result) =
  List.map
    (fun (m : B.metric) ->
      let extra =
        if m.B.name <> "client.latency_p99_ms" then ""
        else
          let n = r.B.samples in
          Printf.sprintf "  (n=%d, %d beyond p99)" n
            (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))
      in
      Printf.sprintf "%s %s %.6g %s%s" r.B.workload m.B.name m.B.value m.B.unit_ extra)
    (shown r)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  Json.obj
    (List.map
       (fun (m : B.metric) ->
         (m.B.name, Json.obj [ ("value", num m.B.value); ("unit", Json.str m.B.unit_) ]))
       ms)

let cmd_run args =
  let o = options args in
  let shape = B.shape seconds in
  let results =
    List.map
      (fun (w : W.t) ->
        let seed = int_opt o "-seed" w.W.seed in
        let trace_dir = Option.map (fun d -> d / w.W.name) (opt o "-trace") in
        let r = run_one ~seed ~shape ?trace_dir w in
        List.iter print_endline (lines r);
        Printf.printf "%s attempted %d failed %d steal %.2f%%\n%!" r.B.workload
          r.B.attempted r.B.failed (100.0 *. r.B.steal);
        (seed, r))
      (workloads o)
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (Json.obj
               [
                 ( "results",
                   Json.obj
                     (List.map
                        (fun (seed, (r : B.result)) ->
                          ( r.B.workload,
                            Json.obj
                              [
                                ("seed", Json.int seed);
                                ("attempted", Json.int r.B.attempted);
                                ("failed", Json.int r.B.failed);
                                ("metrics", metrics_json (shown r));
                              ] ))
                        results) );
               ]);
          output_char oc '\n'))
    (opt o "-out");
  if List.exists (fun (_, (r : B.result)) -> r.B.failed > 0) results then exit 1

(* the BENCHMARK.json contract: one JSON object as the last stdout line *)
let cmd_json args =
  let o = options args in
  let w =
    match Option.bind (opt o "-workload") W.find with
    | Some w -> w
    | None ->
      die "json needs -workload %s"
        (String.concat "|" (List.map (fun w -> w.W.name) W.all))
  in
  let seconds = float_opt o "-seconds" seconds in
  let traced = int_opt o "-trace" 0 = 1 in
  let seed = int_opt o "-seed" w.W.seed in
  (* a traced run is two runs, untraced and traced, so each gets half
     the time; both halves have the same shape, so their difference is
     the tracing overhead *)
  let r =
    if traced then
      let half = { (B.shape (seconds /. 2.0)) with B.setups = 1 } in
      run_one ~seed ~shape:half ~trace_dir:(work / "trace" / w.W.name) w
    else run_one ~seed ~shape:(B.shape seconds) w
  in
  Printf.eprintf "%s steal %.2f%%\n%!" w.W.name (100.0 *. r.B.steal);
  List.iter prerr_endline (lines r);
  let correct = r.B.failed = 0 in
  Printf.printf "%s\n%!"
    (Json.obj
       [
         ("correct", string_of_bool correct);
         ("attempted", Json.int r.B.attempted);
         ("failed", Json.int r.B.failed);
         ("metrics", metrics_json (if traced then r.B.layers else r.B.e2e));
       ]);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let member_exn k j =
  match Json.member k j with Some v -> v | None -> die "missing %S" k

let str_exn k j = Option.get (Json.to_str (member_exn k j))

(* name, better, bound of each end-to-end metric *)
let e2e_spec file =
  match member_exn "end_to_end" (Json.parse (read_file file)) with
  | Json.Arr l ->
    List.map
      (fun m ->
        (str_exn "name" m, str_exn "better" m, Option.get (Json.to_num (member_exn "bound" m))))
      l
  | _ -> die "%s: end_to_end is not a list" file

(* Python's statistics.quantiles(data, n=4) (the exclusive method) *)
let quartiles xs =
  let a = B.sorted (Array.of_list xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Stdlib.( / ) (i * m) 4 and delta = (i * m) mod 4 in
      let j = max 1 (min (n - 1) j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let cmd_compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "compare: expected A.json... -- B.json..."
  in
  let a_files, b_files = split [] args in
  let spec = e2e_spec "BENCHMARK.json" in
  let load files =
    List.map (fun f -> member_exn "results" (Json.parse (read_file f))) files
  in
  let a = load a_files and b = load b_files in
  let values side wl name =
    List.filter_map
      (fun res ->
        Option.bind (Json.member wl res) (fun r ->
            Option.bind (Json.member "metrics" r) (fun ms ->
                Option.bind (Json.member name ms) (fun m ->
                    Option.bind (Json.member "value" m) Json.to_num))))
      side
  in
  let worse = ref false in
  Printf.printf "%-16s %-22s %28s %28s %8s  %s\n" "workload" "metric" "A median [q1 q3]"
    "B median [q1 q3]" "change" "verdict";
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (name, better, bound) ->
          match (values a w.W.name name, values b w.W.name name) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let a1, am, a3 = quartiles va and b1, bm, b3 = quartiles vb in
            (* B's gain over A, as a share of A: positive is better *)
            let gain_of b a =
              let c = B.ratio (b -. a) a in
              if better = "lower" then -.c else c
            in
            let change = B.ratio (bm -. am) am in
            let spread = Float.max (B.ratio (a3 -. a1) am) (B.ratio (b3 -. b1) bm) in
            let gain = gain_of bm am in
            (* when every B run beats, or trails, every A run by more than
               the bound, the runs do not overlap and the verdict holds
               whatever the spread *)
            let every p = List.for_all (fun b -> List.for_all (fun a -> p (gain_of b a)) va) vb in
            let verdict =
              if every (fun g -> g < -.bound) then (worse := true; "worse")
              else if every (fun g -> g > bound) then "better"
              else if spread > bound then "unresolved"
              else if gain < -.bound then (worse := true; "worse")
              else if gain > bound then "better"
              else "within bound"
            in
            Printf.printf "%-16s %-22s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %+7.1f%%  %s\n"
              w.W.name name am a1 a3 bm b1 b3 (100.0 *. change) verdict)
        spec)
    W.all;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let rates = function
  | W.Hit_replay | W.Durable_restart -> [ 1000.; 1500.; 3000.; 6000.; 9000.; 12000.; 15000. ]
  | W.Project_miss -> [ 100.; 250.; 500.; 750.; 1000. ]

(* the p99 latency limit of the sweep *)
let limit = 50.0

(* p99 against offered rate, up to the first rate past the limit: the
   knee is the highest rate that meets it *)
let cmd_sweep args =
  let o = options args in
  let shape = { (B.shape 5.0) with B.setups = 1 } in
  Printf.printf "%-16s %8s %10s %10s  %s\n%!" "workload" "rate" "p50_ms" "p99_ms" "limit";
  List.iter
    (fun (w : W.t) ->
      let rec go knee = function
        | [] -> knee
        | rate :: rest ->
          let r = B.run ~exe ~work ~rate ~seed:w.W.seed ~shape w in
          let p99 = metric r "client.latency_p99_ms" in
          let ok = p99 <= limit && r.B.failed = 0 in
          Printf.printf "%-16s %8.0f %10.3f %10.3f  %s\n%!" w.W.name rate
            (metric r "client.latency_p50_ms") p99 (if ok then "met" else "missed");
          if ok then go (Some rate) rest else knee
      in
      match go None (rates w.W.kind) with
      | Some k -> Printf.printf "%-16s knee %.0f rps (p99 <= %.0f ms)\n%!" w.W.name k limit
      | None -> Printf.printf "%-16s no rate meets p99 <= %.0f ms\n%!" w.W.name limit)
    (workloads o)

(* ------------------------------------------------------------------ *)
(* parity with bin/vcserve                                             *)
(* ------------------------------------------------------------------ *)

(* 20 requests: all five tools, cache hits (an alias among them), a
   runaway upload, HELLO/PING, LIST, SESSION, a traced request, and
   the error paths; SHUTDOWN last *)
let parity_script () =
  let st = Random.State.make [| 2014 |] in
  let up tool = W.stuff_lines (W.small st tool) in
  let kbdd = up "kbdd" and espresso = up "espresso" and sis = up "sis" in
  let minisat = up "minisat" and axb = up "axb" in
  let runaway =
    W.stuff_lines (String.concat "\n" (List.init 2001 (Printf.sprintf "# %d")))
  in
  [
    "HELLO 2\n"; "PING\n";
    "TOOL kbdd\n" ^ kbdd; "TOOL espresso\n" ^ espresso; "TOOL sis\n" ^ sis;
    "TOOL minisat\n" ^ minisat; "TOOL axb\n" ^ axb;
    "TOOL minisat\n" ^ minisat; "TOOL kbdd\n" ^ runaway; "LIST\n";
    "TOOL sat\n" ^ minisat; "SESSION s1\n"; "TOOL espresso\n" ^ espresso;
    "TOOL axb s2 TRACE 00c0ffee00c0ffee\n" ^ W.stuff_lines (W.project st "axb");
    "TOOL nosuch\n" ^ kbdd; "TOOL kbdd TRACE XYZ\n" ^ kbdd;
    "TOOL sis\n" ^ W.stuff_lines (W.project st "sis"); "PING\n"; "BOGUS\n"; "SHUTDOWN\n";
  ]

let transcript port =
  let c = connect port in
  let b = Buffer.create 4096 in
  List.iter
    (fun req ->
      send c req "";
      recv c;
      Buffer.add_subbytes b c.inb 0 c.len)
    (parity_script ());
  close c;
  Buffer.contents b

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* vcserve announces "vcserve: listening on 127.0.0.1:PORT (...)" on
   stderr *)
let vcserve_port log =
  let marker = "listening on 127.0.0.1:" in
  let deadline = now () +. 30.0 in
  let rec poll () =
    let text = try read_file log with Sys_error _ -> "" in
    match find_sub text marker with
    | Some i ->
      let j = i + String.length marker in
      let k = ref j in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      int_of_string (String.sub text j (!k - j))
    | None when now () < deadline -> Unix.sleepf 0.01; poll ()
    | None -> die "vcserve did not announce its port (%s)" log
  in
  poll ()

let cmd_parity = function
  | [ vcserve; out_vcserve; out_vcbench ] ->
    let log = "parity_vcserve.log" in
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process vcserve [| vcserve; "-listen"; "0" |] Unix.stdin Unix.stdout fd
    in
    Unix.close fd;
    let reference =
      let h = { pid; port = 0; alive = true } in
      B.guard h (fun () ->
          let t = transcript (vcserve_port log) in
          h.alive <- false;
          if not (wait_exit pid) then die "vcserve did not exit after SHUTDOWN";
          t)
    in
    let h = spawn ~exe ~log:"parity_vcbench.log" ~env:(host_env ~events_dir:None)
        [ "-stats"; "parity_stats.json" ] in
    let ours =
      B.guard h (fun () ->
          let t = transcript h.port in
          h.alive <- false;
          if not (wait_exit h.pid) then die "vcbench serve did not exit after SHUTDOWN";
          t)
    in
    Out_channel.with_open_bin out_vcserve (fun oc -> output_string oc reference);
    Out_channel.with_open_bin out_vcbench (fun oc -> output_string oc ours);
    if reference <> ours then die "replies differ: diff %s %s" out_vcserve out_vcbench
  | _ -> die "usage: vcbench parity VCSERVE_EXE VCSERVE_OUT VCBENCH_OUT"

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

let names_units file key =
  match member_exn key (Json.parse (read_file file)) with
  | Json.Arr l -> List.map (fun m -> (str_exn "name" m, str_exn "unit" m)) l
  | _ -> die "%s: %s is not a list" file key

(* Shape, never values: every BENCHMARK.json metric printed with its
   unit, no failed request, and in the traced run spans from every
   layer joined by one id per request, with no runtime event lost. *)
let cmd_smoke = function
  | [ bench ] ->
    let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt in
    let wl =
      match member_exn "workloads" (Json.parse (read_file bench)) with
      | Json.Arr l -> List.map (str_exn "name") l
      | _ -> []
    in
    if wl <> List.map (fun w -> w.W.name) W.all then fail "workload names differ";
    let printed r =
      List.map
        (fun l ->
          match String.split_on_char ' ' l with
          | _ :: name :: _ :: u :: _ -> (name, u)
          | _ -> fail "malformed line %S" l)
        (lines r)
    in
    let expect r key =
      let got = printed r in
      List.iter
        (fun (name, unit_) ->
          if not (List.mem (name, unit_) got) then
            fail "%s: %s %s not printed" r.B.workload name unit_)
        (names_units bench key);
      if r.B.failed > 0 then fail "%s: %d failed requests" r.B.workload r.B.failed
    in
    let shape = { (B.shape 1.0) with B.setups = 3 } in
    let work = "_vcbench_smoke" in
    List.iter (fun w -> expect (run_one ~work ~seed:w.W.seed ~shape w) "end_to_end") W.all;
    let w = W.hit_replay in
    let r = run_one ~work ~seed:w.W.seed ~shape ~closed:0.5 ~trace_dir:(work / "trace") w in
    expect r "per_layer";
    (match r.B.check with
    | None -> fail "traced run has no trace check"
    | Some c ->
      if c.B.joined <> c.B.requests then
        fail "%d of %d requests joined" c.B.joined c.B.requests;
      if c.B.orphans > 0 then fail "%d exec spans without a request" c.B.orphans;
      if c.B.negative > 0 then fail "%d requests with a negative self time" c.B.negative;
      if c.B.lost > 0 then fail "%d runtime events lost" c.B.lost;
      if c.B.sum_gap_pct > 2.0 then
        fail "self times miss the request time by %.2f%%" c.B.sum_gap_pct;
      List.iter
        (fun prefix ->
          if not (List.exists (String.starts_with ~prefix) c.B.layers) then
            fail "no %s span" prefix)
        [ "client.request"; "server.submit"; "exec." ]);
    rm_rf work;
    print_endline "smoke: ok"
  | _ -> die "usage: vcbench smoke BENCHMARK.json"

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> Host.main args
  | _ :: "run" :: args -> cmd_run args
  | _ :: "json" :: args -> cmd_json args
  | _ :: "compare" :: args -> cmd_compare args
  | _ :: "sweep" :: args -> cmd_sweep args
  | _ :: "parity" :: args -> cmd_parity args
  | _ :: "smoke" :: args -> cmd_smoke args
  | _ ->
    prerr_endline
      "usage: vcbench run|json|compare|sweep|parity|smoke|serve ... (see README.md)";
    exit 2

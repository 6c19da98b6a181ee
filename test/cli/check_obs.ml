(* check_obs: validate the machine-readable observability outputs the
   CLI golden tests produce (span JSON, journal JSONL, QoR reports,
   --stats text). Exits non-zero with a message on the first violation,
   so a dune (run ...) action can gate on it. *)

module Json = Vc_util.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("check_obs: " ^ s); exit 1) fmt

let read file =
  try In_channel.with_open_text file In_channel.input_all
  with Sys_error msg -> die "%s" msg

let parse file text =
  match Json.parse_result text with
  | Ok v -> v
  | Error msg -> die "%s: %s" file msg

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let jsonl_events file =
  read file
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (parse file)

(* FILE must contain NEEDLE (used on captured --stats stderr). *)
let check_contains file needle =
  if not (contains (read file) needle) then
    die "%s: expected to find %S" file needle

let flow_stages = [ "synthesis"; "mapping"; "placement"; "routing"; "timing" ]

(* FILE must be a `vcstat spans --format json` dump of a flow journal:
   exactly the five flow/<stage> spans, in flow order, each with a
   non-negative duration. *)
let check_trace file =
  let spans =
    match Json.member "spans" (parse file (read file)) with
    | Some (Json.Arr l) -> l
    | _ -> die "%s: no spans array" file
  in
  if List.length spans <> List.length flow_stages then
    die "%s: expected %d spans, found %d" file (List.length flow_stages)
      (List.length spans);
  List.iter2
    (fun stage sp ->
      if Option.bind (Json.member "name" sp) Json.to_str <> Some ("flow/" ^ stage)
      then die "%s: expected span flow/%s here" file stage;
      match Json.member "duration_s" sp with
      | Some (Json.Num d) when d >= 0.0 -> ()
      | _ -> die "%s: bad duration_s for flow/%s" file stage)
    flow_stages spans

(* Every line of FILE must decode as a journal event (empty file is
   fine). *)
let check_jsonl file =
  String.split_on_char '\n' (read file)
  |> List.iteri (fun i line ->
         if line <> "" then
           match Vc_util.Journal_query.parse_line line with
           | Ok _ -> ()
           | Error msg -> die "%s:%d: %s" file (i + 1) msg)

(* FILE must be a flow journal: each stage is one stage.end event with a
   numeric latency_s >= 0, and no stage.begin appears. *)
let check_journal file =
  let events = jsonl_events file in
  if events = [] then die "%s: journal is empty" file;
  let named name =
    List.filter_map
      (fun e ->
        match (Json.member "event" e, Json.member "attrs" e) with
        | Some (Json.Str ev), Some attrs when ev = name -> Some attrs
        | _ -> None)
      events
  in
  if named "stage.begin" <> [] then die "%s: unexpected stage.begin" file;
  let ends = named "stage.end" in
  List.iter
    (fun s ->
      match
        List.filter
          (fun a -> Option.bind (Json.member "stage" a) Json.to_str = Some s)
          ends
      with
      | [ a ] -> (
        match
          Option.bind (Json.member "latency_s" a) (fun l ->
              Option.bind (Json.to_str l) float_of_string_opt)
        with
        | Some l when l >= 0.0 -> ()
        | _ -> die "%s: bad latency_s on stage.end for %s" file s)
      | l -> die "%s: %d stage.end events for %s" file (List.length l) s)
    flow_stages;
  (* sequence numbers must be strictly increasing *)
  let seqs =
    List.filter_map (fun e -> Option.bind (Json.member "seq" e) Json.to_num) events
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | [ _ ] | [] -> true
  in
  if not (monotone seqs) then die "%s: seq numbers not increasing" file

(* FILE must be a flow QoR report: the five stages in order, each with a
   non-negative latency and a non-empty metrics object. *)
let check_qor file =
  let j = parse file (read file) in
  (match Json.member "total_latency_s" j with
  | Some (Json.Num t) when t >= 0.0 -> ()
  | _ -> die "%s: bad total_latency_s" file);
  let stages =
    match Json.member "stages" j with
    | Some (Json.Arr l) -> l
    | _ -> die "%s: no stages array" file
  in
  if List.length stages <> List.length flow_stages then
    die "%s: expected %d stages, found %d" file (List.length flow_stages)
      (List.length stages);
  List.iter2
    (fun name s ->
      (match Json.member "stage" s with
      | Some (Json.Str n) when n = name -> ()
      | _ -> die "%s: stage out of order, expected %s" file name);
      (match Json.member "latency_s" s with
      | Some (Json.Num l) when l >= 0.0 -> ()
      | _ -> die "%s: %s: bad latency_s" file name);
      match Json.member "metrics" s with
      | Some (Json.Obj (_ :: _)) -> ()
      | _ -> die "%s: %s: empty metrics" file name)
    flow_stages stages

(* FILE must be a journal with at least one event from COMPONENT. *)
let check_component file component =
  let found =
    List.exists
      (fun e ->
        match Json.member "component" e with
        | Some (Json.Str c) -> c = component
        | _ -> false)
      (jsonl_events file)
  in
  if not found then die "%s: no event from component %S" file component

(* FILE must be a `vcstat summary --format json` document over a
   non-empty journal: positive event total, per-component counts, and
   p50/p90/p99 latency fields under latency.all. *)
let check_vcstat_summary file =
  let j = parse file (read file) in
  (match Json.member "events" j with
  | Some (Json.Num n) when n > 0.0 -> ()
  | _ -> die "%s: bad or zero \"events\"" file);
  (match Json.member "error_rate" j with
  | Some (Json.Num r) when r >= 0.0 && r <= 1.0 -> ()
  | _ -> die "%s: bad \"error_rate\"" file);
  (match Json.member "by_component" j with
  | Some (Json.Obj ((_ :: _) as fields)) ->
    List.iter
      (fun (k, v) ->
        match v with
        | Json.Num n when n > 0.0 -> ()
        | _ -> die "%s: by_component.%s is not a positive count" file k)
      fields
  | _ -> die "%s: no per-component counts" file);
  match Json.member "latency" j with
  | Some lat -> (
    match Json.member "all" lat with
    | Some all ->
      List.iter
        (fun field ->
          match Json.member field all with
          | Some (Json.Num v) when v >= 0.0 -> ()
          | _ -> die "%s: latency.all.%s missing or negative" file field)
        [ "p50_s"; "p90_s"; "p99_s" ]
    | None -> die "%s: no latency.all object" file)
  | None -> die "%s: no latency object" file

(* FILE must be a `vcload -report` document from a clean replay: at
   least one request, no rejections or transport errors, and the full
   latency percentile surface under latency.all. *)
let check_vcload_report file =
  let j = parse file (read file) in
  (match Json.member "total" j with
  | Some (Json.Num n) when n > 0.0 -> ()
  | _ -> die "%s: bad or zero \"total\"" file);
  List.iter
    (fun field ->
      match Json.member field j with
      | Some (Json.Num 0.0) -> ()
      | _ -> die "%s: %S must be 0 in a clean replay" file field)
    [ "rejected"; "errors" ];
  (match Json.member "shed_rate" j with
  | Some (Json.Num r) when r >= 0.0 && r <= 1.0 -> ()
  | _ -> die "%s: bad \"shed_rate\"" file);
  match Json.member "latency" j with
  | Some lat -> (
    match Json.member "all" lat with
    | Some all ->
      List.iter
        (fun field ->
          match Json.member field all with
          | Some (Json.Num v) when v >= 0.0 -> ()
          | _ -> die "%s: latency.all.%s missing or negative" file field)
        [ "p50_s"; "p90_s"; "p99_s"; "max_s" ]
    | None -> die "%s: no latency.all object" file)
  | None -> die "%s: no latency object" file

(* FILE must be a `vcstat request --format json` document from a real
   client+server join: at least one matched request, >= 99% of client
   requests matched by trace id, and a per-phase breakdown carrying the
   queue/cache/execute/reply/wire phases with well-formed percentile
   fields. *)
let check_vcstat_request file =
  let j = parse file (read file) in
  (match Json.member "client_requests" j with
  | Some (Json.Num n) when n > 0.0 -> ()
  | _ -> die "%s: bad or zero \"client_requests\"" file);
  (match Json.member "matched" j with
  | Some (Json.Num n) when n > 0.0 -> ()
  | _ -> die "%s: bad or zero \"matched\"" file);
  (match Json.member "match_rate" j with
  | Some (Json.Num r) when r >= 0.99 && r <= 1.0 -> ()
  | Some (Json.Num r) -> die "%s: match_rate %.4f below the 0.99 floor" file r
  | _ -> die "%s: bad \"match_rate\"" file);
  (match Json.member "phases" j with
  | Some phases ->
    List.iter
      (fun phase ->
        match Json.member phase phases with
        | Some st ->
          List.iter
            (fun field ->
              match Json.member field st with
              | Some (Json.Num v) when v >= 0.0 -> ()
              | _ ->
                die "%s: phases.%s.%s missing or negative" file phase field)
            [ "count"; "p50_s"; "p90_s"; "p99_s"; "max_s" ]
        | None -> die "%s: no phases.%s breakdown" file phase)
      [ "queue"; "cache"; "execute"; "reply"; "wire" ]
  | None -> die "%s: no phases object" file);
  match Json.member "slowest" j with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> die "%s: no slowest timelines" file

(* FILE must be a server journal in which each request wrote each fact
   once: no request.admitted or request.dequeued event (the reply's
   phase timeline carries the queue wait), and per trace id at most one
   request.replied and at most one portal submission. At least one
   request.replied must be present, so an empty journal checks
   nothing. *)
let check_request_events file =
  let seen = Hashtbl.create 1024 and replies = ref 0 in
  List.iter
    (fun e ->
      let name =
        Option.value ~default:"" (Option.bind (Json.member "event" e) Json.to_str)
      in
      let trace =
        Option.bind
          (Option.bind (Json.member "attrs" e) (Json.member "trace_id"))
          Json.to_str
      in
      match (name, trace) with
      | ("request.admitted" | "request.dequeued"), _ ->
        die "%s: a %s event; the reply's timeline carries it" file name
      | ("request.replied" | "submission"), Some id ->
        if name = "request.replied" then incr replies;
        if Hashtbl.mem seen (name, id) then
          die "%s: trace %s has more than one %s event" file id name;
        Hashtbl.add seen (name, id) ()
      | _ -> ())
    (jsonl_events file);
  if !replies = 0 then die "%s: no request.replied event" file

(* FILE must be a `vcstat funnel --format json` document with the six
   Fig. 8 stages in order, counts bounded by the first stage. *)
let check_vcstat_funnel file =
  let j = parse file (read file) in
  let stages =
    match Json.member "funnel" j with
    | Some (Json.Arr l) -> l
    | _ -> die "%s: no funnel array" file
  in
  let expected =
    [ "registered"; "watched_video"; "did_homework"; "tried_software";
      "took_final"; "certificates" ]
  in
  if List.length stages <> List.length expected then
    die "%s: expected %d funnel stages, found %d" file (List.length expected)
      (List.length stages);
  let first = ref 0.0 in
  List.iter2
    (fun name s ->
      (match Json.member "stage" s with
      | Some (Json.Str n) when n = name -> ()
      | _ -> die "%s: funnel stage out of order, expected %s" file name);
      match Json.member "count" s with
      | Some (Json.Num c) when c >= 0.0 ->
        if !first = 0.0 then first := c
        else if c > !first then
          die "%s: stage %s count exceeds registered" file name
      | _ -> die "%s: %s: bad count" file name)
    expected stages

(* FILE must be a `vcstat summary --format json` document whose seq
   object reports zero gaps - the lost-segment detector: over the union
   of a run's rotated journal segments the writer's sequence numbers
   are contiguous, so a positive gap count means a segment went
   missing. *)
let check_seq_gaps file =
  let j = parse file (read file) in
  match Json.member "seq" j with
  | Some seq -> (
    (match Json.member "distinct" seq with
    | Some (Json.Num n) when n > 0.0 -> ()
    | _ -> die "%s: seq.distinct missing or zero" file);
    match Json.member "gaps" seq with
    | Some (Json.Num 0.0) -> ()
    | Some (Json.Num g) -> die "%s: %.0f missing journal seq(s)" file g
    | _ -> die "%s: no seq.gaps field" file)
  | None -> die "%s: no seq object" file

(* FILE must be a journal whose timestamps never go back along its
   sequence numbers: the journal numbers events in the order they were
   emitted, and stamps each as it is emitted. Names the first pair of
   events, in seq order, whose ts decreases. *)
let check_seq_order file =
  let load =
    try Vc_util.Journal_query.load_file file with Sys_error msg -> die "%s" msg
  in
  (match load.malformed with
  | (line, msg) :: _ -> die "%s:%d: %s" file line msg
  | [] -> ());
  let rec go = function
    | a :: (b :: _ as rest) ->
      if b.Vc_util.Journal.ev_ts < a.ev_ts then
        die "%s: seq %d has ts %.6f, %.6f s before seq %d's %.6f" file
          b.ev_seq b.ev_ts (a.ev_ts -. b.ev_ts) a.ev_seq a.ev_ts;
      go rest
    | [ _ ] | [] -> ()
  in
  go
    (List.stable_sort
       (fun a b -> compare a.Vc_util.Journal.ev_seq b.ev_seq)
       load.events)

(* FILE must be a /varz snapshot from a live, sampled vcserve: valid
   JSON, a telemetry object, and the console's load-bearing series -
   qps with >= 3 points, the queue/reply phase p99s with >= 2, and slot
   utilization: some server.worker.<w>.util series with >= 2 points,
   every util value in [0, 1] and at least one above 0. *)
let check_varz file =
  let j = parse file (read file) in
  (match Json.member "telemetry" j with
  | Some (Json.Obj _) -> ()
  | _ -> die "%s: no telemetry object" file);
  let series name =
    match Option.bind (Json.member "series" j) (Json.member name) with
    | Some (Json.Arr pts) -> pts
    | _ -> die "%s: no series %S" file name
  in
  let require name floor =
    let n = List.length (series name) in
    if n < floor then die "%s: series %S has %d point(s), need >= %d" file name n floor
  in
  require "server.qps" 3;
  require "server.phase.queue.p99_ms" 2;
  require "server.phase.reply.p99_ms" 2;
  List.iter
    (fun p ->
      match p with
      | Json.Arr [ Json.Num ts; Json.Num v ] ->
        if ts <= 0.0 || v < 0.0 then die "%s: bad qps point" file
      | _ -> die "%s: malformed series point" file)
    (series "server.qps");
  let utils =
    match Json.member "series" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (name, _) ->
          if
            String.starts_with ~prefix:"server.worker." name
            && String.ends_with ~suffix:".util" name
          then
            Some
              (List.map
                 (function
                   | Json.Arr [ Json.Num _; Json.Num v ] ->
                     if v < 0.0 || v > 1.0 then
                       die "%s: %s value %g outside [0, 1]" file name v;
                     v
                   | _ -> die "%s: malformed series point" file)
                 (series name))
          else None)
        fields
    | _ -> die "%s: no series object" file
  in
  if not (List.exists (fun vs -> List.compare_length_with vs 2 >= 0) utils)
  then die "%s: no server.worker.<w>.util series with >= 2 points" file;
  if not (List.exists (List.exists (fun v -> v > 0.0)) utils) then
    die "%s: no server.worker.<w>.util value above 0" file

(* FILE must be a `vctop -once` snapshot captured mid-replay: a qps row
   whose max is positive over >= 3 ticks, a queue_depth row with a
   positive high-water mark, at least one phase row with >= 3 ticks,
   and a `worker <w> util` row. *)
let check_vctop file =
  let lines = String.split_on_char '\n' (read file) in
  let tokens l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let field toks key =
    let rec go = function
      | k :: v :: _ when k = key -> float_of_string_opt v
      | _ :: rest -> go rest
      | [] -> None
    in
    go toks
  in
  let row prefix =
    List.find_opt (fun l -> String.starts_with ~prefix l) lines
    |> Option.map tokens
  in
  (match row "qps" with
  | None -> die "%s: no qps row" file
  | Some toks ->
    (match field toks "max" with
    | Some v when v > 0.0 -> ()
    | _ -> die "%s: qps max is not positive" file);
    (match field toks "ticks" with
    | Some n when n >= 3.0 -> ()
    | _ -> die "%s: qps row has fewer than 3 ticks" file));
  (match row "queue_depth" with
  | None -> die "%s: no queue_depth row" file
  | Some toks -> (
    match field toks "hwm" with
    | Some v when v > 0.0 -> ()
    | _ -> die "%s: queue_depth high-water mark is not positive" file));
  let phase_ok =
    List.exists
      (fun l ->
        String.starts_with ~prefix:"phase " l
        &&
        let toks = tokens l in
        (match field toks "p99" with Some v -> v >= 0.0 | None -> false)
        && match field toks "ticks" with Some n -> n >= 3.0 | None -> false)
      lines
  in
  if not phase_ok then die "%s: no phase row with p99 and >= 3 ticks" file;
  let util_ok =
    List.exists
      (fun l ->
        match tokens l with
        | "worker" :: _ :: "util" :: v :: _ -> float_of_string_opt v <> None
        | _ -> false)
      lines
  in
  if not util_ok then die "%s: no worker <w> util row" file

(* FILE must be a `vcstat flame` SVG over a sampled server journal:
   well-formed framing, at least one frame rectangle, and root frames
   covering >= 95%% of sampled ticks (the flamegraph metadata
   comment). *)
let check_flame file =
  let text = read file in
  if not (String.starts_with ~prefix:"<svg" text) then
    die "%s: does not start with <svg" file;
  if not (contains text "</svg>") then die "%s: unterminated svg" file;
  if not (contains text "<rect") then die "%s: no frame rectangles" file;
  let meta_re = "<!-- flamegraph samples=" in
  if not (contains text meta_re) then die "%s: no flamegraph metadata" file;
  (* parse "samples=N root_samples=N ticks=T" out of the comment *)
  let int_after key =
    let kl = String.length key and tl = String.length text in
    let rec find i =
      if i + kl > tl then die "%s: no %s in metadata" file key
      else if String.sub text i kl = key then i + kl
      else find (i + 1)
    in
    let start = find 0 in
    let rec stop i =
      if i < tl && text.[i] >= '0' && text.[i] <= '9' then stop (i + 1) else i
    in
    let e = stop start in
    if e = start then die "%s: empty %s in metadata" file key;
    int_of_string (String.sub text start (e - start))
  in
  let root_samples = int_after "root_samples=" in
  let ticks = int_after "ticks=" in
  if ticks <= 0 then die "%s: flamegraph has no sampled ticks" file;
  if root_samples <= 0 then die "%s: flamegraph has no root samples" file;
  if float_of_int root_samples < 0.95 *. float_of_int ticks then
    die "%s: root frames cover %d sample(s) over %d tick(s), below 95%%" file
      root_samples ticks

let () =
  match Array.to_list Sys.argv with
  | [ _; "contains"; file; needle ] -> check_contains file needle
  | [ _; "trace"; file ] -> check_trace file
  | [ _; "jsonl"; file ] -> check_jsonl file
  | [ _; "journal"; file ] -> check_journal file
  | [ _; "qor"; file ] -> check_qor file
  | [ _; "component"; file; name ] -> check_component file name
  | [ _; "vcstat-summary"; file ] -> check_vcstat_summary file
  | [ _; "seq-gaps"; file ] -> check_seq_gaps file
  | [ _; "seq-order"; file ] -> check_seq_order file
  | [ _; "vcstat-funnel"; file ] -> check_vcstat_funnel file
  | [ _; "vcstat-request"; file ] -> check_vcstat_request file
  | [ _; "request-events"; file ] -> check_request_events file
  | [ _; "vcload-report"; file ] -> check_vcload_report file
  | [ _; "varz"; file ] -> check_varz file
  | [ _; "vctop"; file ] -> check_vctop file
  | [ _; "flame"; file ] -> check_flame file
  | _ ->
    prerr_endline
      "usage: check_obs {contains FILE NEEDLE | trace FILE | jsonl FILE | \
       journal FILE | qor FILE | component FILE NAME | vcstat-summary FILE \
       | seq-gaps FILE | seq-order FILE | vcstat-funnel FILE \
       | vcstat-request FILE | request-events FILE | vcload-report FILE \
       | varz FILE | vctop FILE | flame FILE}";
    exit 2

(* Offline analytics over journal JSONL files - the read side of
   Journal.open_jsonl. Everything here is pure over decoded event lists
   so bin/vcstat stays a thin argument-parsing shell and the test suite
   can drive the analytics directly. *)

type load = {
  events : Journal.event list;  (** Decoded events, file order. *)
  malformed : (int * string) list;  (** 1-based line number, error. *)
}

let severity_of_string = function
  | "DEBUG" -> Some Journal.Debug
  | "INFO" -> Some Journal.Info
  | "WARN" -> Some Journal.Warn
  | "ERROR" -> Some Journal.Error
  | _ -> None

let parse_line line =
  match Json.parse_result line with
  | Error e -> Error e
  | Ok j -> (
    let str_field name =
      match Option.bind (Json.member name j) Json.to_str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "missing string field %S" name)
    in
    let num_field name =
      match Option.bind (Json.member name j) Json.to_num with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "missing numeric field %S" name)
    in
    let ( let* ) = Result.bind in
    let* seq = num_field "seq" in
    let* ts =
      (* a non-finite clock reading is written as [null] *)
      if Json.member "ts" j = Some Json.Null then Ok Float.nan
      else num_field "ts"
    in
    let* sev_s = str_field "severity" in
    let* component = str_field "component" in
    let* name = str_field "event" in
    match severity_of_string sev_s with
    | None -> Error (Printf.sprintf "unknown severity %S" sev_s)
    | Some severity ->
      let attrs =
        match Json.member "attrs" j with
        | Some (Json.Obj fields) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
            fields
        | _ -> []
      in
      Ok
        {
          Journal.ev_seq = int_of_float seq;
          ev_ts = ts;
          ev_severity = severity;
          ev_component = component;
          ev_name = name;
          ev_attrs = attrs;
        })

let load_file file =
  In_channel.with_open_text file (fun ic ->
      let events = ref [] and malformed = ref [] and lineno = ref 0 in
      (try
         while true do
           match In_channel.input_line ic with
           | None -> raise Exit
           | Some line ->
             incr lineno;
             if String.trim line <> "" then begin
               match parse_line line with
               | Ok e -> events := e :: !events
               | Error msg -> malformed := (!lineno, msg) :: !malformed
             end
         done
       with Exit -> ());
      { events = List.rev !events; malformed = List.rev !malformed })

let load_files files =
  List.fold_left
    (fun acc file ->
      let l = load_file file in
      { events = acc.events @ l.events; malformed = acc.malformed @ l.malformed })
    { events = []; malformed = [] }
    files

(* ------------------------------------------------------------------ *)
(* segment-set expansion                                               *)
(* ------------------------------------------------------------------ *)

(* Tiny in-process glob: '*' matches any run (possibly empty), '?' one
   character - enough for "journal.*.jsonl" without shell quoting
   games. Applied to the basename only. *)
let glob_match pat name =
  let pl = String.length pat and nl = String.length name in
  let rec go pi ni =
    if pi = pl then ni = nl
    else
      match pat.[pi] with
      | '*' -> go (pi + 1) ni || (ni < nl && go pi (ni + 1))
      | '?' -> ni < nl && go (pi + 1) (ni + 1)
      | c -> ni < nl && name.[ni] = c && go (pi + 1) (ni + 1)
  in
  go 0 0

let segment_set file =
  let n = Journal.next_segment_index file in
  List.filter Sys.file_exists
    (List.init n (fun i -> Journal.segment_path file i))

let expand_segments args =
  List.concat_map
    (fun arg ->
      if String.exists (fun c -> c = '*' || c = '?') arg then begin
        let dir = Filename.dirname arg and pat = Filename.basename arg in
        match Sys.readdir dir with
        | exception Sys_error _ -> [ arg ]
        | entries -> (
          match
            Array.to_list entries
            |> List.filter (glob_match pat)
            |> List.sort compare
            |> List.map (Filename.concat dir)
          with
          | [] -> [ arg ] (* keep it: load_file reports the miss *)
          | l -> l)
      end
      else if Sys.file_exists arg then [ arg ]
      else
        (* a rotated journal is named by its base file; expand it to
           the segment set the writer actually produced *)
        match segment_set arg with [] -> [ arg ] | segs -> segs)
    args

(* ------------------------------------------------------------------ *)
(* summary                                                             *)
(* ------------------------------------------------------------------ *)

let latency_of (e : Journal.event) =
  Option.bind (List.assoc_opt "latency_s" e.Journal.ev_attrs) float_of_string_opt

type latency_stats = {
  l_count : int;
  l_mean_s : float;
  l_p50_s : float;
  l_p90_s : float;
  l_p99_s : float;
  l_max_s : float;
}

let latency_stats_of samples =
  match samples with
  | [] -> None
  | _ ->
    Some
      {
        l_count = List.length samples;
        l_mean_s = Stats.mean samples;
        l_p50_s = Stats.percentile samples 50.0;
        l_p90_s = Stats.percentile samples 90.0;
        l_p99_s = Stats.percentile samples 99.0;
        l_max_s = Stats.maximum samples;
      }

type summary = {
  s_total : int;
  s_by_component : (string * int) list;  (** Sorted by name. *)
  s_by_event : (string * int) list;  (** [component.event], sorted. *)
  s_by_severity : (string * int) list;  (** Only present severities. *)
  s_errors : int;
  s_error_rate : float;  (** ERROR events / total (0 when empty). *)
  s_seq_min : int;  (** 0 when there are no events. *)
  s_seq_max : int;
  s_seq_distinct : int;  (** Distinct sequence numbers seen. *)
  s_seq_gaps : int;  (** Missing seqs within [min..max]; 0 = no loss. *)
  s_latency : latency_stats option;  (** Over every latency-bearing event. *)
  s_latency_by_event : (string * latency_stats) list;
  s_latency_by_outcome : (string * latency_stats) list;
  s_slowest : (Journal.event * float) list;  (** Slowest first. *)
}

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_counts tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let event_key (e : Journal.event) =
  e.Journal.ev_component ^ "." ^ e.Journal.ev_name

let summarize ?(top = 5) events =
  let by_component = Hashtbl.create 16
  and by_event = Hashtbl.create 16
  and by_severity = Hashtbl.create 4
  and by_event_latency : (string, float list ref) Hashtbl.t = Hashtbl.create 16
  and by_outcome_latency : (string, float list ref) Hashtbl.t =
    Hashtbl.create 8
  and seqs = Hashtbl.create 1024
  and latencies = ref []
  and timed = ref []
  and errors = ref 0 in
  let push tbl key l =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := l :: !r
    | None -> Hashtbl.add tbl key (ref [ l ])
  in
  List.iter
    (fun (e : Journal.event) ->
      bump by_component e.Journal.ev_component;
      bump by_event (event_key e);
      bump by_severity (Journal.severity_to_string e.Journal.ev_severity);
      Hashtbl.replace seqs e.Journal.ev_seq ();
      if e.Journal.ev_severity = Journal.Error then incr errors;
      match latency_of e with
      | None -> ()
      | Some l ->
        latencies := l :: !latencies;
        timed := (e, l) :: !timed;
        push by_event_latency (event_key e) l;
        (* submission/replay events carry an "outcome" attribute
           (executed / cache_hit / rejected) - the split an operator
           needs to see whether shed traffic hides a slow tail *)
        (match List.assoc_opt "outcome" e.Journal.ev_attrs with
        | Some outcome -> push by_outcome_latency outcome l
        | None -> ()))
    events;
  let total = List.length events in
  let slowest =
    let sorted =
      List.stable_sort (fun (_, a) (_, b) -> compare b a) (List.rev !timed)
    in
    List.filteri (fun i _ -> i < top) sorted
  in
  (* Writers assign seqs contiguously, and a restart starts over at 1,
     so over any union of segments the distinct seqs should tile
     [min..max] exactly; a shortfall means a flushed segment (or a
     slice of one) is missing from the set - the "no lost journal
     segments" invariant the crash-recovery smoke checks. *)
  let seq_min, seq_max =
    Hashtbl.fold
      (fun s () (lo, hi) -> (min lo s, max hi s))
      seqs
      (max_int, min_int)
  in
  let seq_distinct = Hashtbl.length seqs in
  let seq_min = if seq_distinct = 0 then 0 else seq_min in
  let seq_max = if seq_distinct = 0 then 0 else seq_max in
  {
    s_total = total;
    s_by_component = sorted_counts by_component;
    s_by_event = sorted_counts by_event;
    s_by_severity = sorted_counts by_severity;
    s_errors = !errors;
    s_error_rate = (if total = 0 then 0.0 else float_of_int !errors /. float_of_int total);
    s_seq_min = seq_min;
    s_seq_max = seq_max;
    s_seq_distinct = seq_distinct;
    s_seq_gaps =
      (if seq_distinct = 0 then 0 else seq_max - seq_min + 1 - seq_distinct);
    s_latency = latency_stats_of !latencies;
    s_latency_by_event =
      List.sort compare
        (Hashtbl.fold
           (fun k r acc ->
             match latency_stats_of !r with
             | Some s -> (k, s) :: acc
             | None -> acc)
           by_event_latency []);
    s_latency_by_outcome =
      List.sort compare
        (Hashtbl.fold
           (fun k r acc ->
             match latency_stats_of !r with
             | Some s -> (k, s) :: acc
             | None -> acc)
           by_outcome_latency []);
    s_slowest = slowest;
  }

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

type qspan = { q_name : string; q_start_s : float; q_duration_s : float }

(* One span model: a timed region is one event that carries its
   duration - an "*.end" or "*.error" event with a numeric latency_s
   (flow's stage.end and stage.error). The span ends at the event's
   timestamp. *)
let spans_of events =
  let span (e : Journal.event) =
    let name = e.Journal.ev_name in
    let closes suffix =
      String.length name > String.length suffix
      && String.ends_with ~suffix name
    in
    if not (closes ".end" || closes ".error") then None
    else
      latency_of e
      |> Option.map (fun latency ->
             let duration = Float.max 0.0 latency in
             let label =
               match List.assoc_opt "stage" e.Journal.ev_attrs with
               | Some s -> s
               | None -> String.sub name 0 (String.rindex name '.')
             in
             {
               q_name = e.Journal.ev_component ^ "/" ^ label;
               q_start_s = e.Journal.ev_ts -. duration;
               q_duration_s = duration;
             })
  in
  List.filter_map span events
  |> List.stable_sort (fun a b -> compare a.q_start_s b.q_start_s)

(* ------------------------------------------------------------------ *)
(* funnel                                                              *)
(* ------------------------------------------------------------------ *)

type funnel_stage = { f_stage : string; f_count : int }

(* Mooc.Cohort.simulate emits one "funnel.stage" event per funnel level,
   in order, with "stage" and "count" attributes. *)
let funnel_of events =
  List.filter_map
    (fun (e : Journal.event) ->
      if e.Journal.ev_name <> "funnel.stage" then None
      else
        match
          ( List.assoc_opt "stage" e.Journal.ev_attrs,
            Option.bind
              (List.assoc_opt "count" e.Journal.ev_attrs)
              int_of_string_opt )
        with
        | Some stage, Some count -> Some { f_stage = stage; f_count = count }
        | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* request timelines (trace-id join)                                   *)
(* ------------------------------------------------------------------ *)

type request_timeline = {
  rt_trace : string;
  rt_tool : string option;
  rt_session : string option;
  rt_outcome : string option;
  rt_client_s : float option;
  rt_server_s : float option;
  rt_wire_s : float option;
  rt_phases : (string * float) list;
  rt_client : bool;
  rt_server : bool;
}

type request_join = {
  rj_timelines : request_timeline list;
  rj_client_total : int;
  rj_server_total : int;
  rj_matched : int;
  rj_match_rate : float;
}

(* The canonical phase order for reports: the server-side request
   phases first (what request.replied events carry), then the derived
   end-to-end rows. Unknown phases sort after these, alphabetically. *)
let phase_order = [ "queue"; "cache"; "execute"; "reply"; "server"; "wire"; "client" ]

let phase_rank name =
  let rec go i = function
    | [] -> List.length phase_order
    | p :: rest -> if p = name then i else go (i + 1) rest
  in
  go 0 phase_order

(* Join client- and server-side events by their trace_id attr. The
   client side is a vcload "replay.request" event; the server side is a
   "request.replied" event (phase.* attrs) or, for requests shed at
   admission, a "job.rejected.*" event. Events may come from one
   combined list or from load_files over both journals - only the attrs
   matter. *)
let join_requests events =
  let tbl : (string, request_timeline ref) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let slot trace =
    match Hashtbl.find_opt tbl trace with
    | Some r -> r
    | None ->
      let r =
        ref
          {
            rt_trace = trace;
            rt_tool = None;
            rt_session = None;
            rt_outcome = None;
            rt_client_s = None;
            rt_server_s = None;
            rt_wire_s = None;
            rt_phases = [];
            rt_client = false;
            rt_server = false;
          }
      in
      Hashtbl.add tbl trace r;
      order := r :: !order;
      r
  in
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.iter
    (fun (e : Journal.event) ->
      match List.assoc_opt "trace_id" e.Journal.ev_attrs with
      | None -> ()
      | Some trace ->
        let attr k = List.assoc_opt k e.Journal.ev_attrs in
        let fattr k = Option.bind (attr k) float_of_string_opt in
        let r = slot trace in
        let keep old fresh = if fresh = None then old else fresh in
        if e.Journal.ev_component = "vcload"
           && e.Journal.ev_name = "replay.request"
        then
          r :=
            {
              !r with
              rt_client = true;
              rt_client_s = keep !r.rt_client_s (fattr "latency_s");
              rt_tool = keep !r.rt_tool (attr "tool");
              rt_outcome = keep !r.rt_outcome (attr "outcome");
            }
        else if e.Journal.ev_name = "request.replied" then begin
          let phases =
            List.filter_map
              (fun (k, v) ->
                if starts_with ~prefix:"phase." k then
                  Option.map
                    (fun d ->
                      (String.sub k 6 (String.length k - 6), d))
                    (float_of_string_opt v)
                else None)
              e.Journal.ev_attrs
          in
          r :=
            {
              !r with
              rt_server = true;
              rt_server_s = keep !r.rt_server_s (fattr "total_s");
              rt_phases = (if phases = [] then !r.rt_phases else phases);
              rt_tool = keep !r.rt_tool (attr "tool");
              rt_session = keep !r.rt_session (attr "session");
              (* the server's outcome wins: it distinguishes reject
                 labels the client only sees as a status line *)
              rt_outcome =
                (match attr "outcome" with
                | Some o -> Some o
                | None -> !r.rt_outcome);
            }
        end
        else if
          e.Journal.ev_component = "server"
          && starts_with ~prefix:"job.rejected." e.Journal.ev_name
        then
          r :=
            {
              !r with
              rt_server = true;
              rt_tool = keep !r.rt_tool (attr "tool");
              rt_session = keep !r.rt_session (attr "session");
              rt_outcome = Some "rejected";
            })
    events;
  let timelines =
    List.rev_map
      (fun r ->
        let t = !r in
        let wire =
          match (t.rt_client_s, t.rt_server_s) with
          | Some c, Some s -> Some (Float.max 0.0 (c -. s))
          | _ -> None
        in
        { t with rt_wire_s = wire })
      !order
  in
  let count p = List.length (List.filter p timelines) in
  let clients = count (fun t -> t.rt_client) in
  let servers = count (fun t -> t.rt_server) in
  let matched = count (fun t -> t.rt_client && t.rt_server) in
  {
    rj_timelines = timelines;
    rj_client_total = clients;
    rj_server_total = servers;
    rj_matched = matched;
    rj_match_rate =
      (if clients = 0 then 1.0
       else float_of_int matched /. float_of_int clients);
  }

let phase_breakdown join =
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let push name v =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add tbl name (ref [ v ])
  in
  List.iter
    (fun t ->
      List.iter (fun (name, d) -> push name d) t.rt_phases;
      Option.iter (push "server") t.rt_server_s;
      Option.iter (push "wire") t.rt_wire_s;
      Option.iter (push "client") t.rt_client_s)
    join.rj_timelines;
  Hashtbl.fold
    (fun name r acc ->
      match latency_stats_of !r with
      | Some s -> (name, s) :: acc
      | None -> acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) ->
         compare (phase_rank a, a) (phase_rank b, b))

(* ------------------------------------------------------------------ *)
(* renderers: text                                                     *)
(* ------------------------------------------------------------------ *)

let ms v = v *. 1e3

let render_latency_line name (s : latency_stats) =
  Printf.sprintf "  %-28s %6d %9.3f %9.3f %9.3f %9.3f\n" name s.l_count
    (ms s.l_p50_s) (ms s.l_p90_s) (ms s.l_p99_s) (ms s.l_max_s)

let render_summary s =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "events: %d   errors: %d (%.2f%%)\n" s.s_total s.s_errors
       (100.0 *. s.s_error_rate));
  if s.s_seq_distinct > 0 then
    Buffer.add_string b
      (Printf.sprintf "seq: %d..%d   distinct: %d   gaps: %d\n" s.s_seq_min
         s.s_seq_max s.s_seq_distinct s.s_seq_gaps);
  if s.s_by_component <> [] then begin
    Buffer.add_string b "by component:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %6d\n" k v))
      s.s_by_component
  end;
  if s.s_by_event <> [] then begin
    Buffer.add_string b "by event:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %6d\n" k v))
      s.s_by_event
  end;
  if s.s_by_severity <> [] then begin
    Buffer.add_string b "by severity:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %6d\n" k v))
      s.s_by_severity
  end;
  (match s.s_latency with
  | None -> ()
  | Some all ->
    Buffer.add_string b
      "latency (count / p50 ms / p90 ms / p99 ms / max ms):\n";
    Buffer.add_string b (render_latency_line "(all)" all);
    List.iter
      (fun (k, st) -> Buffer.add_string b (render_latency_line k st))
      s.s_latency_by_event);
  if s.s_latency_by_outcome <> [] then begin
    Buffer.add_string b
      "latency by outcome (count / p50 ms / p90 ms / p99 ms / max ms):\n";
    List.iter
      (fun (k, st) -> Buffer.add_string b (render_latency_line k st))
      s.s_latency_by_outcome
  end;
  if s.s_slowest <> [] then begin
    Buffer.add_string b "slowest events:\n";
    List.iter
      (fun ((e : Journal.event), l) ->
        Buffer.add_string b
          (Printf.sprintf "  %9.3f ms  [%d] %s%s\n" (ms l) e.Journal.ev_seq
             (event_key e)
             (match List.assoc_opt "stage" e.Journal.ev_attrs with
             | Some st -> " stage=" ^ st
             | None -> (
               match List.assoc_opt "tool" e.Journal.ev_attrs with
               | Some t -> " tool=" ^ t
               | None -> ""))))
      s.s_slowest
  end;
  Buffer.contents b

let render_spans spans =
  let b = Buffer.create 1024 in
  let total =
    List.fold_left (fun acc sp -> acc +. sp.q_duration_s) 0.0 spans
  in
  List.iter
    (fun sp ->
      Buffer.add_string b
        (Printf.sprintf "%-30s %9.3f ms  %s\n" sp.q_name (ms sp.q_duration_s)
           (Stats.bar ~width:40 sp.q_duration_s (Float.max total 1e-12))))
    spans;
  if spans <> [] then
    Buffer.add_string b (Printf.sprintf "total: %.3f ms over %d span(s)\n"
                           (ms total) (List.length spans));
  Buffer.contents b

let render_funnel stages =
  let b = Buffer.create 512 in
  let first = match stages with s :: _ -> max 1 s.f_count | [] -> 1 in
  List.iteri
    (fun i s ->
      let prev =
        if i = 0 then s.f_count else (List.nth stages (i - 1)).f_count
      in
      let pct base v =
        if base <= 0 then 0.0 else 100.0 *. float_of_int v /. float_of_int base
      in
      Buffer.add_string b
        (Printf.sprintf "  %-18s %7d  %5.1f%% of start  %5.1f%% of prev  %s\n"
           s.f_stage s.f_count
           (pct first s.f_count)
           (pct (max 1 prev) s.f_count)
           (Stats.bar ~width:40 (float_of_int s.f_count) (float_of_int first))))
    stages;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* renderers: JSON                                                     *)
(* ------------------------------------------------------------------ *)

let latency_json (s : latency_stats) =
  Json.obj
    [
      ("count", Json.int s.l_count);
      ("mean_s", Json.num s.l_mean_s);
      ("p50_s", Json.num s.l_p50_s);
      ("p90_s", Json.num s.l_p90_s);
      ("p99_s", Json.num s.l_p99_s);
      ("max_s", Json.num s.l_max_s);
    ]

let summary_to_json s =
  let counts kvs = Json.obj (List.map (fun (k, v) -> (k, Json.int v)) kvs) in
  Json.obj
    [
      ("events", Json.int s.s_total);
      ("errors", Json.int s.s_errors);
      ("error_rate", Json.num s.s_error_rate);
      ( "seq",
        Json.obj
          [
            ("min", Json.int s.s_seq_min);
            ("max", Json.int s.s_seq_max);
            ("distinct", Json.int s.s_seq_distinct);
            ("gaps", Json.int s.s_seq_gaps);
          ] );
      ("by_component", counts s.s_by_component);
      ("by_event", counts s.s_by_event);
      ("by_severity", counts s.s_by_severity);
      ( "latency",
        match s.s_latency with
        | Some all ->
          Json.obj
            (("all", latency_json all)
            :: List.map (fun (k, st) -> (k, latency_json st)) s.s_latency_by_event
            )
        | None -> Json.obj [] );
      ( "latency_by_outcome",
        Json.obj
          (List.map
             (fun (k, st) -> (k, latency_json st))
             s.s_latency_by_outcome) );
      ( "slowest",
        Json.arr
          (List.map
             (fun ((e : Journal.event), l) ->
               Json.obj
                 [
                   ("seq", Json.int e.Journal.ev_seq);
                   ("event", Json.str (event_key e));
                   ("latency_s", Json.num l);
                 ])
             s.s_slowest) );
    ]

let spans_to_json spans =
  let span_json sp =
    Json.obj
      [
        ("name", Json.str sp.q_name);
        ("start_s", Json.num sp.q_start_s);
        ("duration_s", Json.num sp.q_duration_s);
      ]
  in
  Json.obj [ ("spans", Json.arr (List.map span_json spans)) ]

let funnel_to_json stages =
  Json.obj
    [
      ( "funnel",
        Json.arr
          (List.map
             (fun s ->
               Json.obj
                 [
                   ("stage", Json.str s.f_stage); ("count", Json.int s.f_count);
                 ])
             stages) );
    ]

(* ------------------------------------------------------------------ *)
(* renderers: request timelines                                        *)
(* ------------------------------------------------------------------ *)

let slowest_timelines ?(top = 5) join =
  let latency t =
    match (t.rt_client_s, t.rt_server_s) with
    | Some c, _ -> c
    | None, Some s -> s
    | None, None -> 0.0
  in
  let sorted =
    List.stable_sort
      (fun a b -> compare (latency b) (latency a))
      join.rj_timelines
  in
  List.filteri (fun i _ -> i < top) sorted

let render_requests ?(top = 5) join =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "requests: %d client, %d server, %d matched (%.2f%% of client)\n"
       join.rj_client_total join.rj_server_total join.rj_matched
       (100.0 *. join.rj_match_rate));
  (match phase_breakdown join with
  | [] -> ()
  | phases ->
    Buffer.add_string b
      "per-phase latency (count / p50 ms / p90 ms / p99 ms / max ms):\n";
    List.iter
      (fun (name, st) -> Buffer.add_string b (render_latency_line name st))
      phases);
  (match slowest_timelines ~top join with
  | [] -> ()
  | slow ->
    Buffer.add_string b "slowest requests:\n";
    List.iter
      (fun t ->
        let opt f = function Some v -> f v | None -> "-" in
        Buffer.add_string b
          (Printf.sprintf "  %s  %-10s %-10s client %s  server %s  wire %s"
             t.rt_trace
             (Option.value ~default:"-" t.rt_tool)
             (Option.value ~default:"-" t.rt_outcome)
             (opt (fun v -> Printf.sprintf "%.3f ms" (ms v)) t.rt_client_s)
             (opt (fun v -> Printf.sprintf "%.3f ms" (ms v)) t.rt_server_s)
             (opt (fun v -> Printf.sprintf "%.3f ms" (ms v)) t.rt_wire_s));
        if t.rt_phases <> [] then
          Buffer.add_string b
            (Printf.sprintf "  (%s)"
               (String.concat " + "
                  (List.map
                     (fun (n, d) -> Printf.sprintf "%s %.3f ms" n (ms d))
                     t.rt_phases)));
        Buffer.add_char b '\n')
      slow);
  Buffer.contents b

let requests_to_json ?(top = 5) join =
  let opt_num = function Some v -> Json.num v | None -> "null" in
  Json.obj
    [
      ("client_requests", Json.int join.rj_client_total);
      ("server_requests", Json.int join.rj_server_total);
      ("matched", Json.int join.rj_matched);
      ("match_rate", Json.num join.rj_match_rate);
      ( "phases",
        Json.obj
          (List.map
             (fun (name, st) -> (name, latency_json st))
             (phase_breakdown join)) );
      ( "slowest",
        Json.arr
          (List.map
             (fun t ->
               Json.obj
                 [
                   ("trace_id", Json.str t.rt_trace);
                   ( "tool",
                     match t.rt_tool with
                     | Some s -> Json.str s
                     | None -> "null" );
                   ( "outcome",
                     match t.rt_outcome with
                     | Some s -> Json.str s
                     | None -> "null" );
                   ("client_s", opt_num t.rt_client_s);
                   ("server_s", opt_num t.rt_server_s);
                   ("wire_s", opt_num t.rt_wire_s);
                   ( "phases",
                     Json.obj
                       (List.map
                          (fun (n, d) -> (n, Json.num d))
                          t.rt_phases) );
                 ])
             (slowest_timelines ~top join)) );
    ]

(* ------------------------------------------------------------------ *)
(* continuous-profile samples                                          *)
(* ------------------------------------------------------------------ *)

let profile_folded events =
  let tick_set = Hashtbl.create 64 in
  let agg : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.event) ->
      if e.Journal.ev_component = "profile" && e.Journal.ev_name = "sample"
      then begin
        (match List.assoc_opt "tick" e.Journal.ev_attrs with
        | Some t -> Hashtbl.replace tick_set t ()
        | None -> ());
        match
          ( List.assoc_opt "stack" e.Journal.ev_attrs,
            Option.bind
              (List.assoc_opt "count" e.Journal.ev_attrs)
              int_of_string_opt )
        with
        | Some stack, Some count ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt agg stack) in
          Hashtbl.replace agg stack (prev + count)
        | _ -> ()
      end)
    events;
  let folded =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
    |> List.sort (fun (ka, ca) (kb, cb) ->
           match compare cb ca with 0 -> compare ka kb | c -> c)
  in
  (Hashtbl.length tick_set, folded)

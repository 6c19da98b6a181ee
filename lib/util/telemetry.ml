(* Global instrumentation state: one slot per metric name, shared by
   every domain. A counter is an [int Atomic.t], a gauge a [float
   Atomic.t], a timer one fixed-size histogram under its own mutex. Each
   kind keeps its slots in an immutable name map held in one [Atomic.t]:
   the first use of a name replaces the map by compare-and-set, and every
   later use finds its slot without a lock ([find_slot] below).

   Domain safety: a counter bump is one [Atomic.fetch_and_add], a gauge
   write one [Atomic.set], and a timer observation holds that timer's
   mutex for one bucket increment. Readers read the slots directly, a
   timer's under its mutex. [mu] guards only the probe registry. Nothing
   in this module calls back out while holding a lock, so telemetry
   locks are always innermost.

   [reset] empties every map; it assumes the quiescence any
   exact-counting reader needs anyway (a writer that raced it may land
   its update in a slot that was already dropped). *)

let set_clock = Clock.set
let now = Clock.now

let mu = Mutex.create ()
let locked f = Mutex.protect mu f

(* ------------------------------------------------------------------ *)
(* shared slots                                                        *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

(* The slot of [name] in [slots]; on first use it is made by [make arg]
   and published by compare-and-set, retrying if another first use
   replaced the map meanwhile. [make] and [arg] come apart so that no
   caller builds a closure. *)
let rec find_slot slots make arg name =
  let m = Atomic.get slots in
  (* [find], not [find_opt]: the hit path allocates nothing *)
  match Smap.find name m with
  | s -> s
  | exception Not_found ->
    let s = make arg in
    if Atomic.compare_and_set slots m (Smap.add name s m) then s
    else find_slot slots make arg name

(* Every slot's value, sorted by name *)
let read_all slots read =
  Smap.bindings (Atomic.get slots) |> List.map (fun (k, s) -> (k, read s))

(* ------------------------------------------------------------------ *)
(* timers: log-bucketed histograms                                     *)
(* ------------------------------------------------------------------ *)

(* One fixed-size histogram per timer, DDSketch-style (Masson et al.,
   VLDB 2019): bucket k holds (gamma^(k-1), gamma^k] with gamma =
   (1 + a) / (1 - a), so its representative 2 gamma^k / (gamma + 1) is
   within relative error a of every value in it. Slot 0 is the zero
   bucket (<= [lo], negative, NaN), the last slot the overflow bucket.
   Sum, sum of squares and max are exact; histograms subtract
   bucket-wise. *)

type hist = {
  counts : int array; (* n_slots *)
  stats : float array; (* sum; sum of squares; max *)
}

let rel_error = 0.01
let gamma = (1.0 +. rel_error) /. (1.0 -. rel_error)
let ln_gamma = Float.log gamma
let lo = 1e-7 (* 100 ns: below the clock's resolution *)
let hi = 1e6 (* 11.6 days; larger values are clamped to it *)
let bucket_of v = int_of_float (Float.ceil (Float.log v /. ln_gamma))
let k_lo = bucket_of lo
let n_slots = bucket_of hi - k_lo + 3
let overflow = n_slots - 1

let slot v =
  if v > lo then if v <= hi then bucket_of v - k_lo + 1 else overflow else 0

let representative s =
  if s = 0 then 0.0
  else 2.0 *. Float.pow gamma (float_of_int (s - 1 + k_lo)) /. (gamma +. 1.0)

let new_hist () = { counts = Array.make n_slots 0; stats = Array.make 3 0.0 }

(* No allocation, and it cannot raise: callers hold the timer's mutex
   around it without [Mutex.protect] *)
let record h v =
  let s = slot v in
  h.counts.(s) <- h.counts.(s) + 1;
  let v = if v >= 0.0 then Float.min v hi else 0.0 in
  let st = h.stats in
  st.(0) <- st.(0) +. v;
  st.(1) <- st.(1) +. (v *. v);
  if v > st.(2) then st.(2) <- v

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

let counter_slots : int Atomic.t Smap.t Atomic.t = Atomic.make Smap.empty

let incr ?(by = 1) name =
  ignore (Atomic.fetch_and_add (find_slot counter_slots Atomic.make 0 name) by)

let counter name =
  match Smap.find_opt name (Atomic.get counter_slots) with
  | Some a -> Atomic.get a
  | None -> 0

let counters () = read_all counter_slots Atomic.get

(* ------------------------------------------------------------------ *)
(* timers                                                              *)
(* ------------------------------------------------------------------ *)

type timer_summary = {
  count : int;
  total_s : float;
  mean_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
  max_s : float;
  stddev_s : float;
}

let summarize h =
  let count = Array.fold_left ( + ) 0 h.counts in
  if count <= 0 then None
  else
    let n = float_of_int count and total_s = h.stats.(0) in
    let mean_s = total_s /. n and max_s = h.stats.(2) in
    let var = (h.stats.(1) /. n) -. (mean_s *. mean_s) in
    (* nearest rank, as Stats.percentile *)
    let percentile p =
      let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. n))) in
      let rec go s seen =
        let seen = seen + h.counts.(s) in
        if seen >= rank || s = overflow then Float.min (representative s) max_s
        else go (s + 1) seen
      in
      go 0 0
    in
    Some
      {
        count;
        total_s;
        mean_s;
        p50_s = percentile 50.0;
        p90_s = percentile 90.0;
        p99_s = percentile 99.0;
        max_s;
        stddev_s = sqrt (Float.max 0.0 var);
      }

type timer = { t_mu : Mutex.t; t_hist : hist }

let timer_slots : timer Smap.t Atomic.t = Atomic.make Smap.empty
let new_timer () = { t_mu = Mutex.create (); t_hist = new_hist () }

let observe name v =
  let t = find_slot timer_slots new_timer () name in
  Mutex.lock t.t_mu;
  record t.t_hist v;
  Mutex.unlock t.t_mu

type snapshot = hist

let copy { t_mu; t_hist = h } =
  Mutex.protect t_mu (fun () ->
      { counts = Array.copy h.counts; stats = Array.copy h.stats })

let snapshots () = read_all timer_slots copy

let snapshot name =
  Option.map copy (Smap.find_opt name (Atomic.get timer_slots))

let window ?prev cur =
  match prev with
  | Some p when Array.for_all2 ( <= ) p.counts cur.counts ->
    let counts = Array.map2 ( - ) cur.counts p.counts in
    (* a max does not subtract: take the window's top bucket instead *)
    let rec top s = if s = 0 || counts.(s) > 0 then s else top (s - 1) in
    summarize
      {
        counts;
        stats =
          [|
            cur.stats.(0) -. p.stats.(0);
            cur.stats.(1) -. p.stats.(1);
            Float.min (representative (top overflow)) cur.stats.(2);
          |];
      }
  | _ -> summarize cur (* no previous snapshot, or a reset came between *)

let timer name = Option.bind (snapshot name) summarize

let timers () =
  List.filter_map
    (fun (k, h) -> Option.map (fun s -> (k, s)) (summarize h))
    (snapshots ())

(* ------------------------------------------------------------------ *)
(* Prometheus buckets                                                  *)
(* ------------------------------------------------------------------ *)

type hist_summary = {
  buckets : (float * int) list; (* (upper bound, cumulative count) *)
  hist_sum : float;
  hist_count : int;
}

(* Latency-oriented: the portal tools answer in microseconds to tens of
   milliseconds; the full flow runs for seconds on big designs. *)
let default_buckets =
  [
    1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2;
    5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  ]

(* Each fine bucket is counted under the first bound at or above its
   representative - the same value the percentiles report. *)
let fold_buckets h =
  let s = ref 0 and cum = ref 0 in
  let buckets =
    List.map
      (fun le ->
        while !s < n_slots && representative !s <= le do
          cum := !cum + h.counts.(!s);
          Stdlib.incr s
        done;
        (le, !cum))
      default_buckets
  in
  let hist_count = Array.fold_left ( + ) 0 h.counts in
  { buckets; hist_sum = h.stats.(0); hist_count }

let histogram name = Option.map fold_buckets (snapshot name)
let histograms () = List.map (fun (k, h) -> (k, fold_buckets h)) (snapshots ())

(* ------------------------------------------------------------------ *)
(* gauges                                                              *)
(* ------------------------------------------------------------------ *)

(* The last write wins across domains. A new slot starts at [v] itself,
   so no reader sees a value that was never set. *)
let gauge_slots : float Atomic.t Smap.t Atomic.t = Atomic.make Smap.empty
let set_gauge name v = Atomic.set (find_slot gauge_slots Atomic.make v name) v

let gauge name =
  Option.map Atomic.get (Smap.find_opt name (Atomic.get gauge_slots))

let gauges () = read_all gauge_slots Atomic.get

(* The clock is wall time, not monotonic: an NTP step mid-measurement can
   make [now () -. t0] negative, so computed durations clamp at zero. *)
let elapsed_since t0 = Float.max 0.0 (now () -. t0)

let time name f =
  let t0 = now () in
  match f () with
  | v ->
    observe name (elapsed_since t0);
    v
  | exception e ->
    observe name (elapsed_since t0);
    raise e

(* ------------------------------------------------------------------ *)
(* probes                                                              *)
(* ------------------------------------------------------------------ *)

let probe_tbl : (string, unit -> (string * int) list) Hashtbl.t =
  Hashtbl.create 16

let register_probe name f =
  locked (fun () -> Hashtbl.replace probe_tbl name f)

(* Snapshot the registry under the lock, but read each probe outside it:
   probe thunks belong to other subsystems and must be free to take
   their own locks. *)
let probes () =
  locked (fun () -> Hashtbl.fold (fun k f acc -> (k, f) :: acc) probe_tbl [])
  |> List.map (fun (k, f) -> (k, f ()))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* renderers                                                           *)
(* ------------------------------------------------------------------ *)

let report () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "== telemetry report ==\n";
  (* a section is omitted when it has no rows *)
  let section title row rows =
    if rows <> [] then begin
      Buffer.add_string b title;
      List.iter (fun r -> Buffer.add_string b (row r)) rows
    end
  in
  section "counters:\n"
    (fun (k, v) -> Printf.sprintf "  %-40s %10d\n" k v)
    (counters ());
  section "gauges:\n"
    (fun (k, v) -> Printf.sprintf "  %-40s %10g\n" k v)
    (gauges ());
  section
    "timers (count / total ms / mean ms / p50 ms / p90 ms / p99 ms / max \
     ms / stddev ms):\n"
    (fun (k, s) ->
      Printf.sprintf "  %-40s %6d %9.2f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n"
        k s.count (1e3 *. s.total_s) (1e3 *. s.mean_s) (1e3 *. s.p50_s)
        (1e3 *. s.p90_s) (1e3 *. s.p99_s) (1e3 *. s.max_s)
        (1e3 *. s.stddev_s))
    (timers ());
  section "kernel probes:\n"
    (fun (name, kvs) ->
      String.concat ""
        (Printf.sprintf "  %s:\n" name
        :: List.map (fun (k, v) -> Printf.sprintf "    %-36s %10d\n" k v) kvs))
    (probes ());
  Buffer.contents b

(* JSON text is built through the shared Vc_util.Json emitters, so the
   layer stays free of third-party dependencies. *)
let jfloat = Json.num
let jobj = Json.obj
let jarr = Json.arr

let summary_json s =
  jobj
    [
      ("count", string_of_int s.count);
      ("total_s", jfloat s.total_s);
      ("mean_s", jfloat s.mean_s);
      ("p50_s", jfloat s.p50_s);
      ("p90_s", jfloat s.p90_s);
      ("p99_s", jfloat s.p99_s);
      ("max_s", jfloat s.max_s);
      ("stddev_s", jfloat s.stddev_s);
    ]

let hist_json h =
  jobj
    [
      ( "buckets",
        jarr
          (List.map
             (fun (le, c) ->
               jobj [ ("le", jfloat le); ("cumulative", string_of_int c) ])
             h.buckets) );
      ("sum", jfloat h.hist_sum);
      ("count", string_of_int h.hist_count);
    ]

let to_json () =
  jobj
    [
      ( "counters",
        jobj (List.map (fun (k, v) -> (k, string_of_int v)) (counters ())) );
      ("gauges", jobj (List.map (fun (k, v) -> (k, jfloat v)) (gauges ())));
      ("timers", jobj (List.map (fun (k, s) -> (k, summary_json s)) (timers ())));
      ( "histograms",
        jobj (List.map (fun (k, h) -> (k, hist_json h)) (histograms ())) );
      ( "probes",
        jobj
          (List.map
             (fun (name, kvs) ->
               (name, jobj (List.map (fun (k, v) -> (k, string_of_int v)) kvs)))
             (probes ())) );
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Exposition format 0.0.4: one family per metric, HELP/TYPE comments,
   histogram families with _bucket{le=...}/_sum/_count series. Metric
   names come from the dotted telemetry names with a vc_ prefix. *)

let prom_name s =
  "vc_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      s

(* %.9g keeps full useful precision while rendering round bucket bounds
   as short, stable le labels (0.0001, not 0.000100000) *)
let prom_float f = Printf.sprintf "%.9g" f

let to_prometheus () =
  let b = Buffer.create 4096 in
  let family name typ help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun (k, v) ->
      let n = prom_name k ^ "_total" in
      family n "counter" (Printf.sprintf "Telemetry counter %s." k);
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    (counters ());
  List.iter
    (fun (probe, kvs) ->
      List.iter
        (fun (k, v) ->
          let n = prom_name (probe ^ "." ^ k) ^ "_total" in
          family n "counter"
            (Printf.sprintf "Kernel probe %s, cumulative %s." probe k);
          Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
        kvs)
    (probes ());
  let n = "vc_journal_events_total" in
  family n "counter" "Structured journal events emitted since start.";
  Buffer.add_string b (Printf.sprintf "%s %d\n" n (Journal.event_count ()));
  List.iter
    (fun (k, v) ->
      let n = prom_name k in
      family n "gauge" (Printf.sprintf "Telemetry gauge %s." k);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (prom_float v)))
    (gauges ());
  List.iter
    (fun (k, h) ->
      let n = prom_name k ^ "_seconds" in
      family n "histogram" (Printf.sprintf "Histogram %s (seconds)." k);
      List.iter
        (fun (le, c) ->
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float le) c))
        h.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.hist_count);
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (prom_float h.hist_sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.hist_count))
    (histograms ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* control / CLI                                                       *)
(* ------------------------------------------------------------------ *)

let reset () =
  Atomic.set counter_slots Smap.empty;
  Atomic.set timer_slots Smap.empty;
  Atomic.set gauge_slots Smap.empty

type cli_options = {
  cli_argv : string array;
  cli_stats : bool;
  cli_journal : string option;
  cli_journal_segments : int option;
  cli_metrics_port : int option;
}

let cli_parse argv =
  let stats = ref false
  and journal = ref None
  and journal_segments = ref None
  and metrics_port = ref None in
  let missing flag what =
    Printf.eprintf "error: %s requires a %s argument\n" flag what;
    exit 2
  in
  let rec strip acc = function
    | [] -> List.rev acc
    | "--stats" :: rest ->
      stats := true;
      strip acc rest
    | [ "--journal" ] -> missing "--journal" "FILE"
    | "--journal" :: file :: rest ->
      journal := Some file;
      strip acc rest
    | [ "--journal-segments" ] -> missing "--journal-segments" "BYTES"
    | "--journal-segments" :: bytes :: rest -> begin
      match int_of_string_opt bytes with
      | Some n when n >= 1 ->
        journal_segments := Some n;
        strip acc rest
      | Some _ | None ->
        Printf.eprintf "error: --journal-segments: bad byte count %S\n" bytes;
        exit 2
    end
    | [ "--metrics-port" ] -> missing "--metrics-port" "PORT"
    | "--metrics-port" :: port :: rest -> begin
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 ->
        metrics_port := Some p;
        strip acc rest
      | Some _ | None ->
        Printf.eprintf "error: --metrics-port: bad port %S (0-65535)\n" port;
        exit 2
    end
    | a :: rest -> strip (a :: acc) rest
  in
  match Array.to_list argv with
  | [] ->
    {
      cli_argv = argv;
      cli_stats = false;
      cli_journal = None;
      cli_journal_segments = None;
      cli_metrics_port = None;
    }
  | prog :: args ->
    let kept = strip [] args in
    {
      cli_argv = Array.of_list (prog :: kept);
      cli_stats = !stats;
      cli_journal = !journal;
      cli_journal_segments = !journal_segments;
      cli_metrics_port = !metrics_port;
    }

let cli ?(server = false) argv =
  let o = cli_parse argv in
  (* Registered before the stats hook: at_exit runs LIFO, and the
     serving loop must be the last thing the process does - it keeps the
     tool alive answering /metrics until the operator kills it. With
     [server:true] the exporter instead serves live from a background
     domain for the whole run (vcserve and vcload need /varz answered
     while they work) and shuts down cleanly at exit. *)
  (match o.cli_metrics_port with
  | Some port ->
    let srv =
      Metrics_server.start ~port
        ~on_request:(fun _path -> incr "metrics.http_requests")
        ~metrics:(fun () -> to_prometheus ())
        ()
    in
    set_gauge "metrics.port" (float_of_int (Metrics_server.port srv));
    if server then begin
      let d = Domain.spawn (fun () -> Metrics_server.serve srv) in
      at_exit (fun () ->
          Metrics_server.stop srv;
          Domain.join d)
    end
    else at_exit (fun () -> Metrics_server.serve_forever srv)
  | None -> ());
  Journal.install_crash_handler ();
  if o.cli_stats then at_exit (fun () -> prerr_string (report ()));
  (match o.cli_journal with
  | Some file -> Journal.open_jsonl ?segment_bytes:o.cli_journal_segments file
  | None -> ());
  o.cli_argv

(* Global instrumentation state, sharded per domain for multicore
   scaling. Every domain owns a private cell of counters and timer
   histograms (reached through [Domain.DLS]); the renderers merge all
   cells lazily on the way out. Gauges are not sharded: each name is one
   shared atomic slot, written lock-free and emptied by [reset] (see the
   gauges section).

   Domain safety: the per-job fast path is lock-free for the owning
   domain - a counter bump is one [Atomic.fetch_and_add] on a cell the
   owner already created, a timer observation is a bucket increment on
   arrays only the owner writes. The only lock a writer can touch is
   its own cell mutex, taken once per (domain, metric-name) pair when
   the name is first seen - structurally growing the cell's hashtable
   must not race with a renderer walking it. Renderers take each cell's
   mutex in turn while folding, all under the global mutex [mu], which
   also guards the cell registry and the probe registry (touched at
   registration, retirement and render time, never per job). Lock
   ordering: [mu] before a cell mutex, never the reverse, and nothing in
   this module calls back out, so telemetry locks are always innermost.

   [reset] empties every registered cell; it assumes the quiescence any
   exact-counting reader needs anyway (domains that raced a reset may
   leave a stray count behind). A spawned domain's cell is retired when
   the domain exits: its counts are folded into the [retired] cell, which
   stays registered, and the cell leaves the registry - one step under
   [mu], so a renderer sees the counts exactly once. That keeps "spawn
   domains, join them, then read the totals" exact ([Domain.join] returns
   after the domain's exit hooks), while a server that runs one domain
   per connection keeps only its live domains' cells. *)

let set_clock = Clock.set
let now = Clock.now

let mu = Mutex.create ()
let locked f = Mutex.protect mu f

(* ------------------------------------------------------------------ *)
(* timers: log-bucketed histograms                                     *)
(* ------------------------------------------------------------------ *)

(* One fixed-size histogram per (timer, domain), DDSketch-style (Masson
   et al., VLDB 2019): bucket k holds (gamma^(k-1), gamma^k] with gamma =
   (1 + a) / (1 - a), so its representative 2 gamma^k / (gamma + 1) is
   within relative error a of every value in it. Slot 0 is the zero
   bucket (<= [lo], negative, NaN), the last slot the overflow bucket.
   Sum, sum of squares and max are exact; histograms merge and subtract
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

(* The owner's write: no allocation, no lock *)
let record h v =
  let s = slot v in
  h.counts.(s) <- h.counts.(s) + 1;
  let v = if v >= 0.0 then Float.min v hi else 0.0 in
  let st = h.stats in
  st.(0) <- st.(0) +. v;
  st.(1) <- st.(1) +. (v *. v);
  if v > st.(2) then st.(2) <- v

let merge_into acc h =
  Array.iteri (fun i c -> acc.counts.(i) <- acc.counts.(i) + c) h.counts;
  acc.stats.(0) <- acc.stats.(0) +. h.stats.(0);
  acc.stats.(1) <- acc.stats.(1) +. h.stats.(1);
  acc.stats.(2) <- Float.max acc.stats.(2) h.stats.(2)

(* ------------------------------------------------------------------ *)
(* per-domain cells                                                    *)
(* ------------------------------------------------------------------ *)

type cells = {
  c_mu : Mutex.t; (* guards structural growth of the tables below *)
  c_counters : (string, int Atomic.t) Hashtbl.t;
  c_timers : (string, hist) Hashtbl.t;
}

let new_cells () =
  {
    c_mu = Mutex.create ();
    c_counters = Hashtbl.create 32;
    c_timers = Hashtbl.create 32;
  }

(* The totals of every exited domain; registered for good *)
let retired = new_cells ()

(* Registry of the live domains' cells and [retired], newest first.
   Guarded by [mu]. *)
let all_cells : cells list ref = ref [ retired ]

(* Move [src]'s entries into [dst], combining names both hold *)
let absorb dst src combine =
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt dst k with
      | Some d -> combine d v
      | None -> Hashtbl.add dst k v)
    src

(* Runs on the exiting domain, the only writer of [c] *)
let retire c =
  locked (fun () ->
      Mutex.protect retired.c_mu (fun () ->
          absorb retired.c_counters c.c_counters (fun d a ->
              ignore (Atomic.fetch_and_add d (Atomic.get a)));
          absorb retired.c_timers c.c_timers merge_into);
      all_cells := List.filter (( != ) c) !all_cells)

let cells_key : cells Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = new_cells () in
      locked (fun () -> all_cells := c :: !all_cells);
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () -> retire c);
      c)

let my_cells () = Domain.DLS.get cells_key

(* Fold over every cell with its mutex held - the renderer-side half of
   the structural-growth discipline described in the header - and with
   [mu] held, so a cell being retired is seen exactly once. *)
let fold_cells f init =
  locked (fun () ->
      List.fold_left
        (fun acc c -> Mutex.protect c.c_mu (fun () -> f acc c))
        init !all_cells)

(* The one merge path of every metric kind: fold the named entries of
   one table of every cell ([only] keeps a single name), sorted by name. *)
let merged table ~init ~add ?only () =
  let tbl = Hashtbl.create 64 in
  fold_cells
    (fun () c ->
      Hashtbl.iter
        (fun k v ->
          if only = None || only = Some k then
            let acc =
              match Hashtbl.find_opt tbl k with Some a -> a | None -> init ()
            in
            Hashtbl.replace tbl k (add acc v))
        (table c))
    ();
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) name =
  let c = my_cells () in
  (* only the owner adds names to its cell, so the unlocked lookup never
     races a structural change; the add takes the (uncontended) cell
     mutex to stay ordered against a concurrently merging renderer *)
  match Hashtbl.find_opt c.c_counters name with
  | Some a -> ignore (Atomic.fetch_and_add a by)
  | None ->
    Mutex.protect c.c_mu (fun () ->
        Hashtbl.add c.c_counters name (Atomic.make by))

let merged_counters =
  merged (fun c -> c.c_counters) ~init:(fun () -> 0) ~add:(fun n a ->
      n + Atomic.get a)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (merged_counters ~only:name ()))

let counters () = merged_counters ()

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

let observe name v =
  let c = my_cells () in
  (* [find], not [find_opt]: the hit path allocates nothing *)
  match Hashtbl.find c.c_timers name with
  | h -> record h v
  | exception Not_found ->
    let h = new_hist () in
    record h v;
    Mutex.protect c.c_mu (fun () -> Hashtbl.add c.c_timers name h)

type snapshot = hist

let snapshots =
  merged (fun c -> c.c_timers) ~init:new_hist ~add:(fun acc h ->
      merge_into acc h;
      acc)

let snapshot name = List.assoc_opt name (snapshots ~only:name ())

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

module Smap = Map.Make (String)

(* One shared slot per name, so the last write wins across domains. The
   name map is replaced by compare-and-set when a name is first set;
   every later write is one [Atomic.set] on its slot, with no lock. *)
let gauge_slots : float Atomic.t Smap.t Atomic.t = Atomic.make Smap.empty

let rec set_gauge name v =
  let m = Atomic.get gauge_slots in
  (* [find], not [find_opt]: the hit path allocates nothing *)
  match Smap.find name m with
  | slot -> Atomic.set slot v
  | exception Not_found ->
    let m' = Smap.add name (Atomic.make v) m in
    if not (Atomic.compare_and_set gauge_slots m m') then set_gauge name v

let gauge name =
  Option.map Atomic.get (Smap.find_opt name (Atomic.get gauge_slots))

let gauges () =
  Smap.bindings (Atomic.get gauge_slots)
  |> List.map (fun (k, slot) -> (k, Atomic.get slot))

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
  fold_cells
    (fun () c ->
      Hashtbl.reset c.c_counters;
      Hashtbl.reset c.c_timers)
    ();
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

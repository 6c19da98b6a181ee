(* Fixed-capacity time series: one table of rings under one mutex. The
   background sampler is the only writer in a running host, so the lock
   is uncontended; readers copy a ring out under it.

   On top of the store sits [Sampler]: a background domain that, every
   [interval] seconds, snapshots selected telemetry counters / gauges /
   timer percentiles and derives rates from counter deltas (qps, shed
   rate, cache hit-rate, per-slot utilization). Each tick also drives
   the continuous profiler (Profile.tick). The sampler registers the
   [GET /varz] and [GET /profile] routes on Metrics_server, so any
   binary running one serves the live console that vctop polls. *)

type point = { p_ts : float; p_value : float }

let default_capacity = 240

(* ------------------------------------------------------------------ *)
(* the series store                                                    *)
(* ------------------------------------------------------------------ *)

type ring = {
  r_data : point array; (* [default_capacity]-sized circular buffer *)
  mutable r_next : int; (* next write slot *)
  mutable r_len : int;
}

let mu = Mutex.create ()
let rings : (string, ring) Hashtbl.t = Hashtbl.create 32

let record ?ts name value =
  let ts = match ts with Some t -> t | None -> Clock.now () in
  Mutex.protect mu (fun () ->
      let ring =
        match Hashtbl.find_opt rings name with
        | Some r -> r
        | None ->
          let r =
            {
              r_data =
                Array.make default_capacity { p_ts = 0.0; p_value = 0.0 };
              r_next = 0;
              r_len = 0;
            }
          in
          Hashtbl.add rings name r;
          r
      in
      ring.r_data.(ring.r_next) <- { p_ts = ts; p_value = value };
      ring.r_next <- (ring.r_next + 1) mod default_capacity;
      ring.r_len <- min (ring.r_len + 1) default_capacity)

(* a caller may pass its own timestamps, so order by them, not by
   arrival *)
let points name =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt rings name with
      | Some r ->
        let cap = default_capacity in
        List.init r.r_len (fun i ->
            r.r_data.((r.r_next - r.r_len + i + cap) mod cap))
      | None -> [])
  |> List.stable_sort (fun a b -> compare a.p_ts b.p_ts)

let last name =
  match List.rev (points name) with [] -> None | p :: _ -> Some p

let names () =
  Mutex.protect mu (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) rings [])
  |> List.sort compare

let reset () = Mutex.protect mu (fun () -> Hashtbl.reset rings)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let series_json name =
  Json.arr
    (List.map
       (fun p -> Json.arr [ Json.num p.p_ts; Json.num p.p_value ])
       (points name))

let to_json () =
  Json.obj (List.map (fun n -> (n, series_json n)) (names ()))

let varz_json () =
  Json.obj
    [
      ("now", Json.num (Clock.now ()));
      ("telemetry", Telemetry.to_json ());
      ("series", to_json ());
      ( "profile",
        Json.obj
          [
            ("ticks", string_of_int (Profile.ticks ()));
            ("samples", string_of_int (Profile.samples ()));
            ("stacks", string_of_int (List.length (Profile.folded ())));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* sampler                                                             *)
(* ------------------------------------------------------------------ *)

(* the -sample-interval default; <= 0 disables the sampler *)
let default_interval () = 0.5

type source =
  | Gauge of string  (** series name = gauge name *)
  | Rate of { counters : string list; series : string }
      (** per-second rate of the summed counter deltas since last tick;
          a trailing ["*"] in a counter name is a prefix wildcard *)
  | Ratio of { num : string list; den : string list; series : string }
      (** delta(num)/delta(den) since last tick; skipped while the
          denominator is idle *)
  | Percentiles of string
      (** timer -> [name.p50_ms] and [name.p99_ms] series over the
          observations since the previous tick *)
  | Utilization of { prefix : string; suffix : string }
      (** every counter [prefix*suffix] of busy nanoseconds -> a
          [<base>.util] series: busy seconds per second *)

let server_sources =
  [
    Gauge "server.queue_depth";
    Gauge "server.queue_depth.hwm";
    Gauge "portal.cache.size";
    Rate { counters = [ "server.submitted" ]; series = "server.qps" };
    Ratio
      {
        num = [ "server.outcome.rejected.*" ];
        den = [ "server.submitted" ];
        series = "server.shed_rate";
      };
    Ratio
      {
        num = [ "portal.cache.hits" ];
        den = [ "portal.cache.hits"; "portal.cache.misses" ];
        series = "portal.cache.hit_rate";
      };
    Percentiles "server.phase.queue";
    Percentiles "server.phase.cache";
    Percentiles "server.phase.execute";
    Percentiles "server.phase.reply";
    Utilization { prefix = "server.worker."; suffix = ".busy_ns" };
  ]

let client_sources =
  [
    Rate
      {
        counters = [ "vcload.executed"; "vcload.cache_hit"; "vcload.rejected" ];
        series = "vcload.qps";
      };
    Ratio
      {
        num = [ "vcload.rejected" ];
        den = [ "vcload.executed"; "vcload.cache_hit"; "vcload.rejected" ];
        series = "vcload.shed_rate";
      };
  ]

type sampler = {
  sp_interval : float;
  sp_sources : source list;
  sp_prev : (string, float) Hashtbl.t; (* last counter/total snapshots *)
  sp_hists : (string, Telemetry.snapshot) Hashtbl.t; (* last timer snapshots *)
  mutable sp_last_ts : float;
  sp_stop : bool Atomic.t;
  mutable sp_domain : unit Domain.t option;
}

let matches pat name =
  let n = String.length pat in
  if n > 0 && pat.[n - 1] = '*' then
    String.starts_with ~prefix:(String.sub pat 0 (n - 1)) name
  else pat = name

let sum_counters counts pats =
  List.fold_left
    (fun acc (name, v) ->
      if List.exists (fun p -> matches p name) pats then acc + v else acc)
    0 counts

(* snapshot keys cannot collide with series names: '#' never appears in
   a metric name *)
let snap_delta t key cur =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.sp_prev key) in
  Hashtbl.replace t.sp_prev key cur;
  cur -. prev

let sample_sources t ~now ~dt =
  let counts = Telemetry.counters () in
  List.iter
    (fun src ->
      match src with
      | Gauge g -> (
        match Telemetry.gauge g with
        | Some v -> record ~ts:now g v
        | None -> ())
      | Rate { counters; series } ->
        let d = snap_delta t (series ^ "#n") (float_of_int (sum_counters counts counters)) in
        if dt > 0.0 then record ~ts:now series (Float.max 0.0 d /. dt)
      | Ratio { num; den; series } ->
        let dn = snap_delta t (series ^ "#n") (float_of_int (sum_counters counts num)) in
        let dd = snap_delta t (series ^ "#d") (float_of_int (sum_counters counts den)) in
        if dd > 0.0 then record ~ts:now series (Float.max 0.0 dn /. dd)
      | Percentiles name -> (
        match Telemetry.snapshot name with
        | None -> Hashtbl.remove t.sp_hists name
        | Some cur -> (
          let prev = Hashtbl.find_opt t.sp_hists name in
          Hashtbl.replace t.sp_hists name cur;
          match Telemetry.window ?prev cur with
          | None -> ()
          | Some s ->
            record ~ts:now (name ^ ".p50_ms") (1e3 *. s.Telemetry.p50_s);
            record ~ts:now (name ^ ".p99_ms") (1e3 *. s.Telemetry.p99_s)))
      | Utilization { prefix; suffix } ->
        List.iter
          (fun (name, ns) ->
            if
              String.starts_with ~prefix name
              && String.ends_with ~suffix name
              && String.length name > String.length prefix + String.length suffix
            then begin
              let d = snap_delta t (name ^ "#u") (float_of_int ns) in
              if dt > 0.0 then
                let base =
                  String.sub name 0 (String.length name - String.length suffix)
                in
                record ~ts:now (base ^ ".util")
                  (Float.min 1.0 (Float.max 0.0 d *. 1e-9 /. dt))
            end)
          counts)
    t.sp_sources

let tick t =
  let now = Clock.now () in
  let dt = now -. t.sp_last_ts in
  sample_sources t ~now ~dt;
  Profile.tick ();
  t.sp_last_ts <- now

let register_routes () =
  Metrics_server.register_route "/varz" (fun () ->
      {
        Metrics_server.rp_status = "200 OK";
        rp_content_type = "application/json";
        rp_body = varz_json () ^ "\n";
      });
  Metrics_server.register_route "/profile" (fun () ->
      {
        Metrics_server.rp_status = "200 OK";
        rp_content_type = "text/plain";
        rp_body = Profile.to_folded_text (Profile.folded ());
      })

let create ?(sources = server_sources) ~interval () =
  let t =
    {
      sp_interval = interval;
      sp_sources = sources;
      sp_prev = Hashtbl.create 16;
      sp_hists = Hashtbl.create 8;
      sp_last_ts = Clock.now ();
      sp_stop = Atomic.make false;
      sp_domain = None;
    }
  in
  (* prime the delta snapshots so the first tick measures "since the
     sampler started", not "since the process started" *)
  let counts = Telemetry.counters () in
  List.iter
    (fun src ->
      match src with
      | Rate { counters; series } ->
        Hashtbl.replace t.sp_prev (series ^ "#n")
          (float_of_int (sum_counters counts counters))
      | Ratio { num; den; series } ->
        Hashtbl.replace t.sp_prev (series ^ "#n")
          (float_of_int (sum_counters counts num));
        Hashtbl.replace t.sp_prev (series ^ "#d")
          (float_of_int (sum_counters counts den))
      | Percentiles name ->
        Option.iter (Hashtbl.replace t.sp_hists name) (Telemetry.snapshot name)
      | Gauge _ | Utilization _ -> ())
    sources;
  register_routes ();
  t

let start ?sources ~interval () =
  let t = create ?sources ~interval () in
  if interval > 0.0 then begin
    let d =
      Domain.spawn (fun () ->
          (* sleep in short slices so stop is prompt even at long
             intervals *)
          let rec sleep_until deadline =
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining > 0.0 && not (Atomic.get t.sp_stop) then begin
              Unix.sleepf (Float.min remaining 0.1);
              sleep_until deadline
            end
          in
          let rec loop () =
            if not (Atomic.get t.sp_stop) then begin
              sleep_until (Unix.gettimeofday () +. t.sp_interval);
              if not (Atomic.get t.sp_stop) then begin
                tick t;
                loop ()
              end
            end
          in
          loop ())
    in
    t.sp_domain <- Some d
  end;
  t

let stop t =
  Atomic.set t.sp_stop true;
  match t.sp_domain with
  | Some d ->
    t.sp_domain <- None;
    Domain.join d
  | None -> ()

module Sampler = struct
  type t = sampler

  let create = create
  let start = start
  let stop = stop
  let tick = tick
  let interval t = t.sp_interval
end

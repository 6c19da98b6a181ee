(** Fixed-capacity telemetry time series plus the background sampler
    that feeds them - the time dimension of the observability layer.

    The store is one table of {!default_capacity}-point rings, one per
    series, under one mutex: the sampler is its only writer in a
    running host, so the lock is uncontended. Series are created on
    first write, and any domain may {!record}; a ring keeps the newest
    points written to it.

    {!Sampler} is the producer: a background domain that snapshots
    selected counters / gauges / timer percentiles every [interval]
    seconds ([-sample-interval] on [vcserve]/[vcload], [<= 0]
    disables), derives
    rates from counter deltas (qps, shed rate, cache hit-rate,
    per-slot utilization), and drives one {!Profile.tick} per tick.
    Starting a sampler also registers the [GET /varz] (JSON: all
    telemetry + recent series + profile counts) and [GET /profile]
    (folded stacks) routes on {!Metrics_server} - the live surface
    [bin/vctop] polls. *)

type point = { p_ts : float; p_value : float }

val default_capacity : int
(** Points kept per series (240). *)

val record : ?ts:float -> string -> float -> unit
(** Append one point (timestamp defaults to {!Telemetry.now}) to the
    series' ring, evicting its oldest point when full. *)

val points : string -> point list
(** The series' points ordered by timestamp, oldest first. Empty for an
    unknown series. *)

val last : string -> point option
(** Newest point of the series, if any. *)

val names : unit -> string list
(** Every series written so far, sorted. *)

val to_json : unit -> string
(** All series as one JSON object ([{"name": [[ts, value], ...]}]). *)

val varz_json : unit -> string
(** The [GET /varz] document: [now], the full {!Telemetry.to_json}
    snapshot under ["telemetry"], every series under ["series"], and
    the profiler's tick/sample/stack counts under ["profile"]. *)

val reset : unit -> unit
(** Drop every series. Tests only. *)

(** {1 Background sampler} *)

val default_interval : unit -> float
(** [0.5] seconds - the default behind the [-sample-interval] flags. *)

(** What one sampler tick snapshots. Counter names may end in ["*"]
    (prefix wildcard). *)
type source =
  | Gauge of string  (** series name = gauge name *)
  | Rate of { counters : string list; series : string }
      (** per-second rate of the summed counter deltas since the
          previous tick *)
  | Ratio of { num : string list; den : string list; series : string }
      (** delta(num)/delta(den) since the previous tick; no point is
          recorded while the denominator is idle *)
  | Percentiles of string
      (** timer [name] -> [name.p50_ms] / [name.p99_ms] series over the
          observations since the previous tick; an idle tick adds none *)
  | Utilization of { prefix : string; suffix : string }
      (** every counter named [prefix<id>suffix], counting busy
          nanoseconds -> a [prefix<id>.util] series: busy seconds per
          second since the previous tick, clamped to [0, 1]. Read from
          the counter snapshot the tick already takes. Unlike {!Rate},
          which sums its counters into one named series, it makes one
          series per [<id>], so a constant source list covers however
          many execution slots a server has. *)

val server_sources : source list
(** The vcserve console: queue depth (+ high-water mark), cache size,
    qps, shed rate, cache hit-rate, the four [server.phase.*]
    percentile pairs and the utilization of each server execution slot
    ([server.worker.<w>.util], from the [server.worker.<w>.busy_ns]
    counters). *)

val client_sources : source list
(** The vcload side: achieved qps and shed rate from the vcload.*
    outcome counters. *)

module Sampler : sig
  type t

  val create : ?sources:source list -> interval:float -> unit -> t
  (** Build a sampler (default [sources]: {!server_sources}), prime its
      delta snapshots from the current counter values and timer
      histograms, and register the [/varz] and [/profile] routes. No
      domain is spawned - drive it with {!tick} (deterministic tests) or
      use {!start}. *)

  val start : ?sources:source list -> interval:float -> unit -> t
  (** {!create}, then spawn the background domain ticking every
      [interval] seconds of wall time. [interval <= 0] registers the
      routes but never ticks (the [-sample-interval 0] escape hatch). *)

  val tick : t -> unit
  (** Take one sample now (timestamps from {!Telemetry.now}, so a test
      clock gives deterministic series). *)

  val stop : t -> unit
  (** Stop and join the background domain, if any. Prompt (the sleep is
      sliced), idempotent. *)

  val interval : t -> float
end

(** Process-wide instrumentation: named counters, wall-clock timers,
    gauges and pluggable kernel probes, with text, JSON and Prometheus
    renderers.

    This is the observability substrate of the repository (see
    [docs/OBSERVABILITY.md] for a guided tour): [Vc_mooc.Portal] counts
    submissions, cache hits and runaway-guard rejections through it, the
    hot algorithm kernels ([Vc_sat.Solver], [Vc_bdd.Bdd],
    [Vc_route.Maze], [Vc_place.Annealing]) register cumulative-counter
    probes with it, and every binary under [bin/] exposes it through the
    [--stats] flag (see {!cli}). Spans are not kept here: the one span
    model is a journal event that carries its duration (an [*.end] or
    [*.error] event with a [latency_s], such as flow's [stage.end]),
    read by {!Journal_query.spans_of} ([vcstat spans]), and request
    phases go through {!Phase.run}.

    All state is global to the process and {e domain-safe}: each metric
    name is one slot shared by every domain. {!incr} is one atomic
    add, {!set_gauge} one atomic store (the last write wins), and
    {!observe} holds the timer's own mutex for one bucket increment;
    none of them allocates once the name exists. Memory is bounded: a
    timer is one fixed-size histogram, never a list of samples, and a
    domain that exits leaves nothing behind. The read side
    ({!counter}, {!timers}, {!report}, {!to_json}, {!to_prometheus},
    ...) reads the slots directly. See [docs/CONCURRENCY.md] for the
    full model. Everything here is plain OCaml + the [unix] library
    shipped with the compiler - no third-party dependencies. *)

(** {1 Counters} *)

val incr : ?by:int -> string -> unit
(** [incr name] adds [by] (default 1) to the named counter, creating it
    at zero on first use. Counter names are flat strings; the convention
    used across the repo is dotted paths such as
    ["portal.kbdd.submits"]. *)

val counter : string -> int
(** Current value of a counter; [0] if it was never incremented. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Timers}

    A timer is one fixed-size (~12 KB) log-bucketed histogram shared by
    every domain, DDSketch-style: each bucket's representative is within
    {!rel_error} of every value it holds, from 100 ns to 10{^6} s. A
    zero bucket takes smaller, negative and NaN values (reported as 0);
    an overflow bucket takes larger ones, clamped to 10{^6} s. [count],
    [total_s], [mean_s], [max_s] and [stddev_s] are exact; the
    percentiles are the nearest-rank bucket's representative, clamped
    to [max_s] - within {!rel_error} of {!Stats.percentile}. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f ()], records its wall-clock duration on the
    named timer, and returns (or re-raises) [f]'s outcome. *)

val observe : string -> float -> unit
(** Record a duration (seconds): O(1), and no allocation once the name
    exists; holds the timer's mutex for one bucket increment; never
    raises. *)

val rel_error : float
(** Relative error bound of the percentiles: [0.01]. *)

type timer_summary = {
  count : int;
  total_s : float;  (** Sum of all observations, seconds. *)
  mean_s : float;
  p50_s : float;  (** Median, nearest-rank, within {!rel_error}. *)
  p90_s : float;
  p99_s : float;
  max_s : float;
  stddev_s : float;  (** Population standard deviation. *)
}

val timer : string -> timer_summary option
(** Summary of every domain's observations; [None] if nothing was
    recorded. *)

val timers : unit -> (string * timer_summary) list
(** All timers, sorted by name. *)

type snapshot
(** A copy of one timer's histogram. *)

val snapshot : string -> snapshot option

val window : ?prev:snapshot -> snapshot -> timer_summary option
(** [window ~prev cur] summarizes only what was observed between the two
    snapshots (their bucket-wise difference); [None] if nothing was.
    Its [max_s] is the top bucket's representative. If a {!reset} came
    between (a bucket went down), or without [prev], it summarizes
    [cur]. *)

(** {1 Histograms}

    Every timer's fine buckets folded into 19 Prometheus bounds, a
    1-2.5-5 progression from 10 microseconds to 10 seconds. A fine
    bucket counts under the first bound at or above its representative,
    so a value within {!rel_error} of a bound may land on either side. *)

type hist_summary = {
  buckets : (float * int) list;
      (** [(upper_bound, cumulative_count)], as in the exposition. *)
  hist_sum : float;  (** Sum of all observed values, seconds. *)
  hist_count : int;  (** Total observations, including over-range. *)
}

val histogram : string -> hist_summary option
val histograms : unit -> (string * hist_summary) list

(** {1 Gauges}

    A gauge is a named value that can go up or down - queue depths,
    cache occupancy. Unlike counters they are set, not incremented.
    Each name is one slot shared by every domain. *)

val set_gauge : string -> float -> unit
(** Set the named gauge, creating it on first use: lock-free, and the
    last write from any domain wins. *)

val gauge : string -> float option
(** Current value; [None] if never set. *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

(** {1 Kernel probes}

    A probe is a named thunk returning cumulative [(key, value)]
    counters owned by some subsystem - e.g. the SAT solver's total
    decisions/conflicts/restarts. Probes are pulled (not pushed) each
    time a report is rendered, so registering one is free. *)

val register_probe : string -> (unit -> (string * int) list) -> unit
(** Register (or replace) the named probe. The four hot kernels register
    themselves at module-initialization time under ["sat.solver"],
    ["bdd"], ["route.maze"] and ["place.annealing"]. *)

val probes : unit -> (string * (string * int) list) list
(** Current probe readings, sorted by probe name. *)

(** {1 Renderers} *)

val report : unit -> string
(** Human-readable report: counters, gauges, timer summaries
    (milliseconds) and probe readings. Sections with no data are
    omitted; the probe section always appears once any probe is
    registered. *)

val to_json : unit -> string
(** The same data as {!report} as a JSON object with fields
    ["counters"], ["gauges"], ["timers"] (per-timer objects with
    [count], [total_s], [mean_s], [p50_s], [p90_s], [p99_s], [max_s],
    [stddev_s]), ["histograms"] (per-timer [buckets]/[sum]/[count])
    and ["probes"]. Machine-readable; [bench/main.ml] writes it to
    [BENCH_portal.json]. *)

val to_prometheus : unit -> string
(** The current metric state in the Prometheus text exposition format
    (version 0.0.4), as served on [GET /metrics] by
    {!Metrics_server}. Names are the dotted telemetry names with
    non-alphanumerics mapped to [_] and a [vc_] prefix. Counters and
    probe readings become [counter] families suffixed [_total] (plus
    [vc_journal_events_total] from {!Journal.event_count}); gauges
    become [gauge] families; every timer becomes a [histogram] family
    suffixed [_seconds] with cumulative [_bucket{le="..."}] series over
    the {!histograms} bounds, an explicit [+Inf] bucket, [_sum] and
    [_count]. *)

(** {1 Control} *)

val reset : unit -> unit
(** Drop every counter, timer and gauge, whichever domain wrote it.
    Registered probes and the clock survive (their counters live in
    their own modules). Call while other domains are quiescent (between
    test cases, between bench configurations) - a racing writer may
    land an update in a slot that was already dropped. *)

val set_clock : (unit -> float) -> unit
(** Replace the time source (default [Unix.gettimeofday]) - an alias of
    {!Clock.set}, shared with {!Journal} timestamps - used by tests
    that need deterministic durations. The wall clock is not monotonic,
    so computed timer durations clamp negative differences to zero. *)

val now : unit -> float
(** Read the installed clock ({!Clock.now}). *)

(** {1 Command-line integration} *)

val cli : ?server:bool -> string array -> string array
(** [cli Sys.argv] strips [--stats], [--journal FILE],
    [--journal-segments BYTES] and [--metrics-port N] from an argument
    vector and returns the rest (element 0 preserved). If [--stats] was
    present, the process prints {!report} to stderr at exit; if
    [--journal FILE] was present, every {!Journal} event is
    streamed as JSON Lines - to [FILE] (appending), or, when
    [--journal-segments BYTES] was also given, to a rotated
    [FILE.00000.jsonl]-style segment set with [BYTES]-sized segments
    (see {!Journal.open_jsonl}).
    If [--metrics-port N] was present, a {!Metrics_server} is bound on
    [127.0.0.1:N] immediately (port [0] = ephemeral; the bound address
    is announced on stderr) and, after the tool's own work and the
    other at-exit reports finish, the process stays alive serving
    [GET /metrics] ({!to_prometheus}) and [GET /healthz] until killed.
    With [server:true] (vcserve, vcload) the exporter instead serves
    from a background domain for the whole run - [/varz] and [/readyz]
    answer live while the tool works - and stops at exit instead of
    outliving it.
    Scrapes are counted on the ["metrics.http_requests"] counter and
    the bound port is published as the ["metrics.port"] gauge. Also
    installs the {!Journal.install_crash_handler} flight-recorder dump.
    Every binary under [bin/] routes its arguments through this, so the
    flags work uniformly across the toolset. *)

type cli_options = {
  cli_argv : string array;  (** Arguments with the flags stripped. *)
  cli_stats : bool;
  cli_journal : string option;
  cli_journal_segments : int option;
      (** [--journal-segments BYTES]: rotate the journal into
          [BYTES]-sized segments instead of one growing file. *)
  cli_metrics_port : int option;
}

val cli_parse : string array -> cli_options
(** The pure part of {!cli}: strips the flags without installing any
    hook. Exits with code 2 on a [--journal] missing its file
    argument, a [--journal-segments] missing its byte count or given a
    non-positive one, or a [--metrics-port] missing its port or given
    one outside 0-65535. *)

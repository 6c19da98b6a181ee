(** The Fig. 4 architecture: tool portals that consume ASCII text and
    produce ASCII text, with per-participant run history and a runaway
    guard. The five deployed tools mirror the paper's list - kbdd,
    espresso, SIS, miniSAT, and the custom Ax=b solver - each backed by
    this repository's own implementation.

    Submissions are instrumented through {!Vc_util.Telemetry}
    (per-tool submit / execution / rejection counters and latency
    timers) and served through a process-wide content-addressed result
    cache: every tool is a pure function of its input text, so a repeat
    of an identical upload - the dominant MOOC workload - returns the
    cached output in O(1) without re-executing the tool. See
    [docs/OBSERVABILITY.md], [docs/PORTAL.md] and [docs/SERVER.md].

    {b Domain safety}: everything here may be called concurrently from
    the domains that submit to {!Vc_mooc.Server}, which runs each job
    on its submitter. The result cache is one table under one mutex,
    held for a table operation and never for a tool execution or disk
    I/O; a session is one atomic list that {!submit_result} appends to
    lock-free (the server keeps none); cache statistics are
    {!Vc_util.Telemetry} counters, one atomic slot each. Tools are pure
    functions of their input, so a duplicated cache-miss execution in
    two domains is wasted work, never wrong output. See
    [docs/CONCURRENCY.md] for the full model. *)

type tool = {
  tool_name : string;
  description : string;
  max_input_lines : int;  (** Runaway guard: larger uploads are rejected. *)
  execute : string -> string;
}

val kbdd : tool
(** BDD calculator scripts ({!Vc_bdd.Bdd_script}). *)

val espresso : tool
(** PLA in, minimized PLA out ({!Vc_two_level.Espresso}). *)

val sis : tool
(** Input is a BLIF model, then a line containing only [%script], then
    SIS commands ({!Vc_multilevel.Script}); output is the log and the
    optimized BLIF. *)

val minisat : tool
(** DIMACS in; "SATISFIABLE" plus a model line, or "UNSATISFIABLE". *)

val axb : tool
(** Linear systems ({!Vc_linalg.Axb}). *)

val all_tools : tool list

(** {1 Name resolution}

    One resolution path shared by every front end (the [bin/] drivers,
    [vcserve], the bench harness): case-insensitive, surrounding
    whitespace ignored, plus the colloquial aliases ["bdd"] -> [kbdd]
    and ["sat"] -> [minisat]. *)

val canonical_name : string -> string
(** Lowercase, trim and apply aliases; does not check existence. *)

val find_tool : string -> tool option
(** Resolve a user-typed name to a tool; [None] if unknown. *)

val resolve_tool : string -> (tool, string) result
(** Like {!find_tool} but an unknown name comes back as an actionable
    error message listing the available tools and, when the name is
    within edit distance 2 of a tool or alias, a ["did you mean ...?"]
    suggestion. *)

type session
(** One participant's in-process portal state ({!Vc_mooc.Server} keeps
    none): the newest {!history_limit} runs across all tools, held in
    one [Atomic.t] and appended by compare-and-set, so a session may be
    used from several domains at once without a lock. A run holds the
    tool name, the result cache's 16-byte key for the upload and, for a
    rejection only, its reason. The key is the string the cache entry
    holds, so a hit adds no copy. A run never holds the upload or its
    output: {!history} resolves the output through the cache when it is
    read. *)

val create_session : unit -> session

val history_limit : int
(** Runs a session keeps, all tools together: [32]. Each submission
    past it drops the session's oldest run. *)

(** {1 Structured outcomes} *)

type reason =
  | Runaway of string
      (** Input exceeded the tool's [max_input_lines] guard. *)
  | Overloaded of string
      (** The server's submission queue was full (admission control;
          produced by {!Vc_mooc.Server}, never by {!serve}). *)
  | Rate_limited of string
      (** The session exceeded its token-bucket budget (produced by
          {!Vc_mooc.Server}). *)
  | Deadline_exceeded of string
      (** The job waited in queue past its deadline (produced by
          {!Vc_mooc.Server}). *)

type outcome =
  | Executed of string  (** Tool ran; payload is its output. *)
  | Cache_hit of string
      (** Served from the content-addressed cache; byte-identical to
          what execution would have produced. *)
  | Rejected of reason

val reason_message : reason -> string
(** The human-readable message carried by any rejection. *)

val reason_label : reason -> string
(** Stable machine label: ["runaway"], ["overloaded"], ["rate_limited"]
    or ["deadline"] - the vocabulary shared by journal events, telemetry
    counters and the [vcserve] wire protocol. *)

val outcome_output : outcome -> string
(** Collapse an outcome to a display string: the output for
    [Executed] / [Cache_hit], ["error: " ^ message] for [Rejected]. *)

(** {1 Requests}

    The one submission envelope every layer shares. {!Vc_mooc.Server}
    takes it, {!Vc_mooc.Wire}'s protocol engine builds it from a parsed
    [TOOL] line, and [vcfront] forwards it to a backend - one record
    instead of parallel positional signatures, so adding a field is one
    change, not four. *)

type request = {
  req_session : string;
      (** Session id: the server's rate-limit key and the [session] attr
          of its journal events. *)
  req_tool : tool;
  req_input : string;  (** The uploaded text. *)
  req_trace : string option;
      (** Client-supplied trace id (already validated), if any. *)
}

val request : ?trace:string -> session:string -> tool -> string -> request
(** [request ~session tool input] builds the envelope; [?trace] attaches
    a client trace id. *)

val serve : tool -> string -> outcome
(** Run the tool on the uploaded text (never raises; kernel errors come
    back inside [Executed "error: ..."] text), keeping no history: what
    {!Vc_mooc.Server} calls, since nothing reads a server-side history
    back.

    Instrumentation per call, under the tool's name [t]:
    [portal.t.submits] always increments; then exactly one of
    [portal.t.rejected] (runaway guard tripped), [portal.t.cache_hits]
    (identical submission served from the cache, byte-for-byte the same
    output, tool not re-executed) or [portal.t.executions] (tool ran,
    result cached). The cache probe and a real execution are
    {!Vc_util.Phase.run} phases ["cache"] and ["execute"] (with the
    tool's name as a frame inside ["execute"]), so a request installed
    by {!Vc_mooc.Server} gets [cache] and [execute] on its timeline.

    Every submission is timed once: the wall-clock latency goes to the
    [portal.t.latency] histogram and to the one {!Vc_util.Journal} event
    each submission emits (component ["portal"], name ["submission"]),
    which carries the tool name, the content digest, the outcome
    ([executed] / [cache_hit] / [rejected]), that [latency_s], and -
    for rejections - the reason. A
    runaway rejection is emitted at [Error] severity, which the journal
    flushes to its sinks at once; it does not dump the flight recorder,
    so a flood of oversized uploads is not a flood of dumps. *)

val submit_result : session -> tool -> string -> outcome
(** {!serve}, then append the run to the session's history: the
    in-process Fig. 4 portal. The outcome, counters and journal event
    are {!serve}'s. *)

val history : session -> tool -> (string * string option) list
(** The tool's runs among the session's newest {!history_limit} runs,
    oldest first - the "older outputs available by scrolling"
    behaviour. Each run is a pair: its hex content digest, which is the
    [digest] attr of its ["submission"] journal event, and its rendered
    {!outcome_output}. Cache hits and rejections are logged like real
    runs.

    The output is resolved when [history] is called: first from the
    memory cache, then from the disk tier ({!set_cache_dir}). A read
    counts no hit and promotes nothing. The output is [None] once
    neither tier holds the run's result; a rejection always renders its
    ["error: ..."] text. *)

(** {1 Result cache}

    Global across sessions; content-addressed by a digest of
    [tool name + input]. One table under one mutex, bounded by
    {!cache_capacity} and evicting in exact least-recently-used order:
    a hit makes its entry the most recent, and an insert into a full
    cache drops the least recent. Both are O(1). *)

val set_cache_capacity : int -> unit
(** Bound the number of cached results (default 512), evicting the
    least recently used entries down to the new bound. [0] disables
    caching.
    @raise Invalid_argument on negatives. *)

val cache_capacity : unit -> int

val cache_size : unit -> int
(** Number of results currently cached (always [<= cache_capacity ()]).
    The [portal.cache.size] gauge is set to it under the cache lock
    whenever it changes: a miss or disk-tier promotion, {!clear_cache},
    {!set_cache_capacity} and each record a {!set_cache_dir} warm start
    promotes - never on a memory hit. *)

val clear_cache : unit -> unit
(** Drop all cached results. The statistics below are untouched:
    {!Vc_util.Telemetry.reset} zeroes them. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] since the last {!Vc_util.Telemetry.reset}: the
    [portal.cache.hits] and [portal.cache.misses] counters, which
    [/metrics] exports. Each is one atomic slot, so the totals are exact
    without the cache lock; the two are read one after the other, not
    as one snapshot. *)

val cache_evictions : unit -> int
(** Evictions since the last {!Vc_util.Telemetry.reset}: the
    [portal.cache.evictions] counter. *)

(** {1 Disk tier}

    An optional {!Vc_util.Cache_store} under the memory cache
    ([vcserve -cache-dir DIR], or the [VC_CACHE_DIR] environment
    variable). When enabled: every executed result is written through
    to disk the moment it is computed - the tier's only write - and a
    memory miss probes the disk tier (promoting a hit back into the
    memory cache) before re-executing the tool. An entry evicted from
    the memory cache is therefore already on disk. Store I/O always
    happens outside the cache mutex. A store that starts failing mid-run
    (disk full) is dropped with one warning and a [cache.disk_disabled]
    journal event - the portal degrades to memory-only rather than
    failing submissions. *)

val set_cache_dir : string -> unit
(** Open (or create) the spill directory and {e warm-start} in the same
    pass: as the store reads each stored result, in file order, it is
    promoted into the memory cache if the cache has room or already
    holds the key (the latest stored result wins). The remainder stays
    served by the disk probe, so a warm start counts no eviction. From
    then on every executed result is written through to the store. A
    result cached in memory before the call is not copied to disk, so a
    server opens its directory before serving ([vcserve -cache-dir]
    does). While the store is open, {!history} also resolves outputs
    evicted from memory through it. Emits a [cache.warm_start] journal
    event whose attrs are [entries] (the results the store holds),
    [promoted] (those put into memory), [bytes] and [elapsed_s] (the
    time the call took), and sets the [portal.cache.disk_entries] gauge
    to [entries]: the count the store held when it was opened, which
    write-through does not update. A store that cannot be opened
    degrades with one warning and a [cache.disk_error] event instead of
    raising.
    Replaces (and closes) any previously configured store. *)

val cache_dir : unit -> string option
(** The active spill directory, if the disk tier is enabled. *)

val unset_cache_dir : unit -> unit
(** Close and detach the disk tier (the memory cache is untouched) - the
    test hook for simulating a restart. *)

val cache_disk_hits : unit -> int
(** Memory misses served from the disk tier since the last
    {!Vc_util.Telemetry.reset}: the [portal.cache.disk_hits] counter.
    Disk hits also count in {!cache_stats}' hit total. *)

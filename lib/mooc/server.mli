(** The multicore portal service: a pool of OCaml 5 worker domains
    draining a bounded submission queue of {!Portal} jobs, with the
    admission control a MOOC-scale deployment needs - the paper's
    operations story ("the server must survive the homework-deadline
    stampede") turned into code.

    {b Admission control.} A submission is rejected {e immediately} -
    the caller never blocks - when the bounded queue is full
    ({!Portal.Overloaded}) or the session's token bucket is empty
    ({!Portal.Rate_limited}). An admitted job that waits in queue past
    the configured deadline is rejected at dequeue time
    ({!Portal.Deadline_exceeded}) without running the tool - lazy
    expiration: stale work is shed by the worker, not by a timer.
    Oversized inputs keep being rejected inside the portal itself
    ({!Portal.Runaway}). Every rejection path has its own outcome
    constructor, its own [server.outcome.rejected.*] counter and its
    own journal event, so saturation, abuse, staleness and oversized
    uploads are distinguishable on a dashboard.

    {b Observability.} The server maintains the [server.queue_depth]
    gauge, the [server.phase.*] latency histograms ([server.phase.queue]
    is the admission-to-dequeue wait), the [server.submitted] /
    [server.outcome.*] counters, and emits [server.start] /
    [server.stop] / [job.rejected.*] journal events - all exported over
    [/metrics] with the [vc_] prefix (see [docs/SERVER.md] and
    [docs/OBSERVABILITY.md]).

    {b Request tracing.} Every submission gets a {!Vc_util.Trace_ctx}:
    the caller's trace id when one was supplied (the wire layer's
    [TRACE] operand), else a server-minted one. The request's lifecycle
    is journaled as [request.admitted] -> [request.dequeued] ->
    [request.replied] events carrying a [trace_id] attr, with the
    replied event also carrying the per-phase timeline
    ([phase.queue] / [phase.cache] / [phase.execute] / [phase.reply]
    attrs, seconds; cache and execute are the portal's
    {!Vc_util.Phase.run} phases) whose aggregates feed the
    [server.phase.<name>] histograms. [vcstat request] joins these against a [vcload] client
    journal by trace id.

    {b Wake-up discipline.} The queue tracks how many workers are
    blocked idle; each admitted job signals {e one} idle worker
    ([Condition.signal]) instead of broadcasting to all of them, so an
    enqueue under load does not stampede the whole pool through the
    lock. Shutdown broadcasts so every worker observes the stop flag.
    See [docs/CONCURRENCY.md].

    {b Clocking.} All timestamps come from the injectable {!Vc_util.Clock}
    shared with telemetry and the journal, so rate-limit and deadline
    behaviour is unit-testable deterministically. *)

(** {1 Token bucket}

    The per-session rate limiter: a bucket holds up to [burst] tokens,
    refills at [rate] tokens per second, and each submission takes one.
    Exposed for deterministic unit tests; the server manages one bucket
    per session internally. *)

module Token_bucket : sig
  type t

  val create : rate:float -> burst:float -> now:float -> t
  (** A full bucket. [rate] is tokens per second ([0.] means the bucket
      never refills), [burst] the capacity.
      @raise Invalid_argument if [rate < 0.] or [burst <= 0.]. *)

  val try_take : t -> now:float -> bool
  (** Refill according to the elapsed time, then take one token if at
      least one is available. Not thread-safe on its own; the server
      serializes takes under its lock. *)

  val available : t -> now:float -> float
  (** Tokens that would be available at [now], without mutating. *)
end

val deadline_expired : enqueued:float -> deadline_s:float -> now:float -> bool
(** [true] when a job enqueued at [enqueued] has waited [deadline_s] or
    longer at [now] ([deadline_s = infinity] never expires;
    [deadline_s = 0.] always does - the deterministic test hook).
    Negative clock skew counts as zero wait. *)

(** {1 Configuration} *)

type config = {
  workers : int;  (** Worker domains; at least 1. *)
  queue_capacity : int;
      (** Maximum queued (not yet running) jobs; a submission arriving
          on a full queue is rejected [Overloaded] immediately. [0]
          rejects everything - useful in tests. *)
  deadline_s : float;
      (** Maximum queue wait; a job dequeued later than this is
          rejected [Deadline_exceeded] without running.
          [Float.infinity] disables the check. *)
  rate_limit : (float * float) option;
      (** [(rate, burst)] token-bucket parameters applied per session;
          [None] disables rate limiting. *)
}

val default_config : config
(** 4 workers, queue capacity 64, no deadline, no rate limit. *)

(** {1 Lifecycle} *)

type t

val start : ?config:config -> unit -> t
(** Spawn the worker domains and return the running server. Zeroes the
    [server.queue_depth] gauge and emits a [server.start] journal
    event.
    @raise Invalid_argument on [workers < 1] or a negative
    [queue_capacity]. *)

val stop : t -> unit
(** Graceful shutdown: stop admitting, let the workers drain every
    already-queued job, join them, then emit a [server.stop] journal
    event carrying the final outcome counters. Idempotent; subsequent
    {!submit} calls are rejected [Overloaded "server is shutting down"]. *)

(** {1 Submission} *)

val submit : t -> Portal.request -> Portal.outcome
(** Submit one {!Portal.request} (sessions are created on first use
    from [req_session]; each holds a lock-free {!Portal.session}, capped
    at {!Portal.history_limit} runs, plus the rate-limit bucket; the
    session table itself is never evicted). Returns immediately with a
    rejection when rate-limited or the queue is full; otherwise blocks
    until a worker completes the
    job and returns its outcome. Increments [server.submitted] on every
    call and exactly one [server.outcome.*] counter per outcome. Safe
    to call from any number of client domains concurrently.

    [req_trace] is the client-supplied trace id; when absent or invalid
    ({!Vc_util.Trace_ctx.is_valid_id}) the server mints one. Either
    way the request's [request.*] journal events carry it as
    [trace_id]. *)

val session : t -> string -> Portal.session
(** The portal session behind [session_id] (created on first use) -
    gives callers access to {!Portal.history}. The session is shared
    with the workers: a snapshot read while jobs run sees every run
    appended so far, up to the cap. *)

val queue_depth : t -> int
(** Jobs currently queued (admitted, not yet picked up by a worker). *)

(** The multicore portal service: {!Portal} jobs run on the domains
    that submit them, at most [config.workers] at once, behind a
    bounded queue of waiting submissions and the admission control a
    MOOC-scale deployment needs - the paper's operations story ("the
    server must survive the homework-deadline stampede") turned into
    code.

    {b Execution slots.} The server owns no domain. An admitted job
    takes one of [config.workers] execution slots, numbered
    [0 .. workers - 1], and runs on the calling domain (under [vcserve
    -listen], the connection's handler domain); while every slot is
    held, submissions wait in a FIFO. A finishing job hands its slot
    straight to the head waiter, so slots are granted in admission
    order, and it does so even when the job raises.

    {b Admission control.} A submission is rejected {e immediately} -
    the caller never blocks - when the waiting queue is full
    ({!Portal.Overloaded}) or the session's token bucket is empty
    ({!Portal.Rate_limited}). An admitted job that waits for a slot past
    the configured deadline is rejected when it gets one
    ({!Portal.Deadline_exceeded}) without running the tool - lazy
    expiration: stale work is shed by the slot holder, not by a timer.
    Oversized inputs keep being rejected inside the portal itself
    ({!Portal.Runaway}). Every rejection path has its own outcome
    constructor, its own [server.outcome.rejected.*] counter and its
    own journal event, so saturation, abuse, staleness and oversized
    uploads are distinguishable on a dashboard.

    {b Sessions.} The server's only per-session state is a table from
    session id to token bucket, touched only under a [rate_limit]: an
    unlimited server keeps nothing per session, and no server keeps a
    run history ({!submit} calls {!Portal.serve}). When an insert finds
    the table at twice its size after the previous sweep (at least
    1,024 buckets), it first drops every bucket that has refilled to
    [burst]: such a bucket is in the state a new one starts in, so no
    reply changes. A [rate = 0.] bucket never refills, so it is never
    dropped.

    {b Observability.} The server maintains the [server.queue_depth]
    gauge, its [server.queue_depth.hwm] high-water mark and the
    [server.workers.busy] gauge, all three set under the server lock at
    admission and release, the
    [server.phase.*] latency histograms ([server.phase.queue]
    is the admission-to-slot wait), the per-slot
    [server.worker.<w>.busy_ns] counters (nanoseconds the slot spent
    running jobs; the sampler's [server.worker.<w>.util] series reads
    them), the [server.submitted] /
    [server.outcome.*] counters, and emits [server.start] /
    [server.stop] / [job.rejected.*] journal events - all exported over
    [/metrics] with the [vc_] prefix (see [docs/SERVER.md] and
    [docs/OBSERVABILITY.md]).

    {b Request tracing.} Every submission gets a {!Vc_util.Trace_ctx}:
    the caller's trace id when one was supplied (the wire layer's
    [TRACE] operand), else a server-minted one. A request that gets a
    slot journals two events, both carrying that id as a [trace_id]
    attr and both from the submitting domain: the portal's
    [submission] (or [job.rejected.deadline] when its wait ran past the
    deadline) and the server's [request.replied]. The replied event
    carries the tool, the session, the outcome, [total_s] (admission to
    reply) and the per-phase timeline ([phase.queue] / [phase.cache] /
    [phase.execute] / [phase.reply] attrs, seconds; queue is the
    admission-to-slot wait, cache and execute are the portal's
    {!Vc_util.Phase.run} phases), whose aggregates feed the
    [server.phase.<name>] histograms; its timestamp minus [total_s] is
    the admission time. A request shed at admission journals only its
    [job.rejected.*] event. [vcstat request] joins these against a
    [vcload] client journal by trace id.

    {b Hand-off discipline.} A job takes the server lock twice: at
    admission (the session's token under a rate limit, then the queue
    and a slot) and at release; a job that waits takes it once more to
    wait for its slot. A submission that finds a free slot runs
    at once: no other domain is woken and nothing is allocated to carry
    the reply. Only a waiting submission allocates a [Condition], which
    the releasing job signals after storing the slot number in it - one
    wake-up per hand-off, never a broadcast. See [docs/CONCURRENCY.md].

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
      @raise Invalid_argument unless [rate] is finite and [>= 0.] and
      [burst > 0.] (so on NaN too). *)

  val try_take : t -> now:float -> bool
  (** Refill according to the elapsed time, then take one token if at
      least one is available. Not thread-safe on its own; the server
      serializes takes under its lock. *)
end

val deadline_expired : enqueued:float -> deadline_s:float -> now:float -> bool
(** [true] when a job enqueued at [enqueued] has waited [deadline_s] or
    longer at [now] ([deadline_s = infinity] never expires;
    [deadline_s = 0.] always does - the deterministic test hook).
    Negative clock skew counts as zero wait. *)

(** {1 Configuration} *)

type config = {
  workers : int;
      (** Execution slots: the most jobs that run at once, each on the
          domain that submitted it; at least 1. *)
  queue_capacity : int;
      (** Maximum waiting (admitted, not yet running) jobs; a
          submission arriving on a full queue is rejected [Overloaded]
          immediately, even when a slot is free. [0] rejects
          everything - useful in tests. *)
  deadline_s : float;
      (** Maximum wait for a slot; a job that gets its slot later than
          this is rejected [Deadline_exceeded] without running.
          [Float.infinity] disables the check. *)
  rate_limit : (float * float) option;
      (** [(rate, burst)] token-bucket parameters applied per session;
          [None] disables rate limiting, and with it every per-session
          table. Under [rate = 0.] each session id seen keeps its
          bucket for the server's lifetime. *)
}

val default_config : config
(** 4 slots, queue capacity 64, no deadline, no rate limit. *)

(** {1 Lifecycle} *)

type t

val start : ?config:config -> unit -> t
(** Return a running server with every slot free; no domain is
    spawned. Zeroes the [server.queue_depth] gauge and emits a
    [server.start] journal event.
    @raise Invalid_argument on [workers < 1], a negative
    [queue_capacity], or a [rate_limit] whose rate is not finite and
    [>= 0.] or whose burst is not [> 0.] (NaN fails both). *)

val stop : t -> unit
(** Graceful shutdown: stop admitting, wait until every running and
    every waiting job has completed on its submitting domain, then
    emit a [server.stop] journal event carrying the final outcome
    counters. Idempotent: a second call returns at once. Subsequent
    {!submit} calls are rejected [Overloaded "server is shutting down"].
    Must not be called from inside a job. *)

(** {1 Submission} *)

val submit : t -> Portal.request -> Portal.outcome
(** Submit one {!Portal.request}. The job reaches the portal through
    {!Portal.serve}, so the server keeps no run history: [req_session]
    names the session's token bucket (made by its first submission, and
    only under a [rate_limit]) and the [session] attr of the request's
    journal events. Returns immediately with a
    rejection when rate-limited or the queue is full; otherwise runs
    the job on the calling domain once it holds a slot - at once when
    one is free, else after waiting its turn - and returns its outcome.
    An exception raised by the tool propagates to the caller, and the
    slot is released. Increments [server.submitted] on every call and
    exactly one [server.outcome.*] counter per outcome. Safe to call
    from any number of domains concurrently.

    [req_trace] is the client-supplied trace id; when absent or invalid
    ({!Vc_util.Trace_ctx.is_valid_id}) the server mints one. Either
    way the request's journal events carry it as [trace_id]. *)

val queue_depth : t -> int
(** Submissions currently waiting for a slot (admitted, not yet
    running). *)

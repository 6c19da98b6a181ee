(** Request phases: the one primitive that marks a region of request
    work.

    [run name f] pushes [name] on the calling domain's frame stack for
    the duration of [f] - the stack {!Profile} samples into folded
    stacks and flamegraphs - and, when it is the outermost phase of the
    request installed with {!Trace_ctx.with_current}, appends
    [(name, elapsed)] to that request's timeline ({!Trace_ctx.phases}),
    which [Vc_mooc.Server] turns into [server.phase.*] timers and
    [request.replied] attributes. The server marks ["worker"] around
    each job, on the domain that submitted it; the portal marks
    ["cache"], ["execute"] and, inside ["execute"], the tool's name, so
    the profiler folds [worker;cache] and [worker;execute;<tool>] while
    the timeline gets [cache] and [execute]. *)

val run : string -> (unit -> 'a) -> 'a
(** [run name f] runs [f ()] with [name] pushed on this domain's frame
    stack (popped on return or exception). If a request is current and
    no other phase of that request is open on this domain, the elapsed
    {!Clock} time (clamped to [>= 0]) is appended to the request's
    timeline when [f] returns; a phase nested in another phase of the
    same request, a phase outside any request, and a phase whose [f]
    raises add nothing to a timeline. *)

val current_stack : unit -> string list
(** The calling domain's frames, outermost first. *)

val stacks : unit -> string list list
(** The frames of every domain that has run a phase, outermost first -
    read without a lock, so a stack may be one push or pop stale. A
    spawned domain drops out when it exits; the main domain stays. *)

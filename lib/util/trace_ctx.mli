(** Request-scoped trace context - the identity that end-to-end request
    tracing propagates from [vcload] through the [vcserve] wire protocol
    into the portal and its kernels.

    A context is a short hex {e trace id} (minted from {!Rng}, or
    accepted from a client) and a mutable list of named {e phase}
    durations (queue wait, cache probe, kernel
    execution, ...) accumulated while the request is serviced. Every
    journal event on the request's path carries the id as a [trace_id]
    attribute, which is what [vcstat request] joins client and server
    journals on.

    {b Ambient propagation.} Rather than threading the context through
    every signature between the server and the kernels, the server
    installs it with {!with_current} on the domain that submitted the
    request, which also runs it; downstream code reads it back with
    {!current} / {!ambient_attrs}, and {!Phase.run} appends the
    portal's phases to it. The slot is per-domain ([Domain.DLS]), so
    concurrent requests never see each other's context. *)

type t

(** {1 Minting and parsing} *)

val id_length : int
(** Length of a minted id (16 hex chars = 64 bits). *)

val scheme : string
(** Human-readable description of the deterministic minting scheme -
    [vcload] publishes this in its report header so a replay's ids can
    be re-derived after the fact. *)

val mint : Rng.t -> string
(** A fresh [id_length]-char lowercase-hex id from the generator. *)

val mint_deterministic : seed:int -> seq:int -> string
(** The id for submission [seq] of a replay seeded with [seed]:
    {!mint} over [Rng.create ((seed lsl 24) lxor seq)] (the {!scheme}).
    Pure - the same (seed, seq) always yields the same id. *)

val is_valid_id : string -> bool
(** Accept 4-64 lowercase hex chars - what the wire protocol admits as
    a [TRACE] operand. *)

val make : string -> t
(** Wrap an id (not validated) in a fresh context with no phases. *)

val of_id : string -> t option
(** {!make} after {!is_valid_id}; [None] on an invalid id. *)

val id : t -> string

val to_attrs : t -> (string * string) list
(** [[("trace_id", id)]] - the attrs every event on the request path
    carries. *)

(** {1 Phases} *)

val record_phase : t -> string -> float -> unit
(** Append a named duration (clamped [>= 0]) to the context's timeline.
    Not synchronized: every phase of a request is recorded by the one
    domain that submitted the request and runs it. *)

val phases : t -> (string * float) list
(** Recorded phases, oldest first. *)

val phase_total : t -> float
(** Sum of the recorded phase durations. *)

val phase_attrs : t -> (string * string) list
(** One [("phase.<name>", "%.6f")] attr per recorded phase, oldest
    first - the shape [request.replied] journal events carry and
    [vcstat request] parses back. *)

(** {1 Ambient (per-domain) context} *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install [t] as this domain's current context for the duration of
    the callback (restoring the previous one after, exceptions
    included). *)

val current : unit -> t option

val ambient_attrs : unit -> (string * string) list
(** {!to_attrs} of the current context, or [[]] outside any request. *)

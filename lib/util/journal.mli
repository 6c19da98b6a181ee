(** The flow-wide structured event journal: an append-only log of typed
    events (timestamp, severity, component, name, key/value attributes)
    layered on the same injectable {!Clock} as {!Telemetry}.

    Where {!Telemetry} answers "how much / how long", the journal
    answers "what happened, in what order": {!Vc_mooc.Flow} emits
    begin/end events per stage carrying quality-of-result metrics,
    {!Vc_mooc.Portal} emits one event per submission (tool, digest,
    cache hit/miss, latency, rejection reason), {!Vc_mooc.Autograder}
    emits one event per gradable unit, and the place/route/timing/
    synthesis kernels emit completion events with their headline
    numbers. Every binary under [bin/] exposes the stream through the
    [--journal FILE] flag of {!Telemetry.cli}, which installs a JSONL
    sink.

    Two consumers are built in:

    - {b Sinks}: named callbacks invoked on every event - the JSONL
      file sink streams each event as one JSON line.
    - {b Flight recorder}: a bounded in-memory ring buffer of the most
      recent events, dumped to stderr when the process dies on an
      uncaught exception ({!install_crash_handler}, installed by
      {!Telemetry.cli}) - the trailing window of context an operator
      needs.

    Like the rest of the observability layer, all state is
    process-global and {e domain-safe}, but the hot path is buffered
    per domain: {!emit} encodes the event as bytes into the calling
    domain's private buffer (its own uncontended mutex), and batches
    drain to the ring and the sinks under the single sink lock on a
    {e flush} - forced by a full buffer (64 events), by any
    [Warn]/[Error] event, by every read ({!events}, {!event_count},
    {!to_jsonl}) and by sink (de)registration, or explicitly via
    {!flush}. Buffered and recorded events are bytes in reused storage,
    not records, so they hold no pointer into the heap and are never
    promoted; an {!event} record is decoded only for a sink or a
    reader. Sequence numbers are assigned at flush time, so sinks still
    observe a strictly increasing sequence on one serialized channel;
    each domain's events stay in emission order, while interleaving
    {e across} domains is decided at flush time. A sink must never call
    back into {!emit}.
    There are no third-party dependencies. See [docs/CONCURRENCY.md]
    for the full model. *)

(** {1 Events} *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string
(** ["DEBUG"], ["INFO"], ["WARN"], ["ERROR"]. *)

type event = {
  ev_seq : int;
      (** Sequence number, 1-based, monotone per process. Assigned when
          the event is flushed, not when it is emitted. *)
  ev_ts : float;  (** {!Clock.now} at emission. *)
  ev_severity : severity;
  ev_component : string;  (** Subsystem, e.g. ["flow"], ["portal"]. *)
  ev_name : string;  (** Event name, e.g. ["stage.end"]. *)
  ev_attrs : (string * string) list;  (** Key/value attributes. *)
}

val emit :
  ?severity:severity ->
  ?attrs:(string * string) list ->
  component:string ->
  string ->
  unit
(** [emit ~component name] appends an event (default severity [Info])
    to the calling domain's buffer. [Info]/[Debug] events reach the
    flight-recorder ring and the sinks at the next flush; [Warn] and
    [Error] flush immediately. Cheap on the hot path: the event's bytes
    are copied into the domain's reused buffer under its own
    (uncontended) mutex. Once the buffer has grown to fit a batch, an
    event allocates about 2 words (the clock reading) and keeps nothing
    alive, so its attribute strings die young. *)

val flush : unit -> unit
(** Drain every domain's buffer into the ring and the sinks now,
    assigning sequence numbers. Idempotent; called implicitly by every
    read and on sink changes, and at process exit for the
    {!open_jsonl} sink. *)

val events : unit -> event list
(** Current flight-recorder contents, oldest first (at most
    {!ring_capacity} events), decoded into fresh records. *)

val event_count : unit -> int
(** Total events emitted since start/{!clear}, including those already
    rotated out of the ring. *)

val set_ring_capacity : int -> unit
(** Resize the flight-recorder ring (default 256), dropping the oldest
    events if shrinking. Each of the ring's slots keeps one event's
    encoded bytes and reuses its storage: it grows to the largest event
    it has held, and storage that grew past 64 KiB for one large event
    goes back to the default size when the slot is next written. The
    per-domain buffers follow the same rule. @raise Invalid_argument on
    negatives. *)

val ring_capacity : unit -> int

val clear : unit -> unit
(** Empty the ring and reset {!event_count}. Sinks stay registered. *)

(** {1 JSON} *)

val event_to_json : event -> string
(** One event as a JSON object with fields [seq], [ts], [severity],
    [component], [event] and [attrs]. *)

val to_jsonl : unit -> string
(** The ring contents as JSON Lines (one {!event_to_json} per line,
    trailing newline when non-empty). *)

(** {1 Sinks} *)

val add_sink : string -> (event -> unit) -> unit
(** Register (or replace) a named sink called on every subsequent
    {!emit}. A raising sink is dropped after printing a warning to
    stderr, so a full disk cannot take the tool down. *)

val remove_sink : string -> unit
(** Flush, then detach the named sink. An {!open_jsonl} sink's file is
    closed when it is removed, replaced under its name, or detached
    after a failed write. *)

val open_jsonl : ?segment_bytes:int -> string -> unit
(** Install a sink (named ["jsonl:FILE"]) streaming every event to
    [FILE] as JSON Lines, flushed per line. The channel is closed when
    the sink is detached (see {!remove_sink}); one process-exit hook,
    registered by the first [open_jsonl], drains the domain buffers
    and closes every sink still registered. Opens in {e append} mode -
    a crash-restart writing to the same path extends the log and never
    overwrites the pre-crash tail. This is what [--journal FILE]
    installs.

    With [?segment_bytes] the sink rotates instead of writing [FILE]
    itself: events go to the segment files {!segment_path}[ file 0],
    [1], ... ([FILE.00000.jsonl]-style, the numbering inserted before
    the extension), rolling to the next segment once the current one
    reaches [segment_bytes] bytes. Finished segments are flushed and
    [fsync]ed at the roll, so every completed segment survives even
    power loss. A reopen (restart) starts one past the highest segment
    index on disk, never overwriting; [vcstat] expands the base [FILE]
    name back to the whole segment set. This is what
    [--journal-segments BYTES] selects. Both layouts share one sink:
    without [?segment_bytes], [FILE] is a segment that never rolls.

    Degrades instead of failing: if the file cannot be opened, one
    warning goes to stderr and no sink is installed; if a write (or a
    rotation's open) fails mid-run, {!emit}'s sink guard prints one
    warning and detaches the sink - the tool keeps running either way.
    @raise Invalid_argument if [segment_bytes < 1]. *)

val segment_path : string -> int -> string
(** The [idx]-th segment name for a base file: the zero-padded index
    inserted before the extension ([segment_path "j.jsonl" 3] is
    ["j.00003.jsonl"]; an extension-less base gets the index suffixed).
    Shared with {!Journal_query}'s segment-set expansion so writer and
    reader cannot drift. *)

val next_segment_index : string -> int
(** One past the highest segment index existing on disk for the base
    file (0 when none) - where a reopening writer continues. *)

(** {1 Flight recorder} *)

val dump_flight_recorder : ?limit:int -> reason:string -> unit -> unit
(** Format the last [limit] (default 32) ring events plus the [reason]
    and hand the text to the dump printer (stderr unless overridden).
    Called automatically from the crash handler. *)

val set_dump_printer : (string -> unit) -> unit
(** Replace the dump destination (default [prerr_string]) - used by
    tests to capture the flight-recorder output. *)

val install_crash_handler : unit -> unit
(** Chain a [Printexc] uncaught-exception handler that dumps the flight
    recorder before the usual fatal-error report. Idempotent;
    {!Telemetry.cli} calls this for every binary. *)

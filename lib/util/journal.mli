(** The flow-wide structured event journal: an append-only log of typed
    events (timestamp, severity, component, name, key/value attributes)
    layered on the same injectable {!Clock} as {!Telemetry}.

    Where {!Telemetry} answers "how much / how long", the journal
    answers "what happened, in what order": {!Vc_mooc.Flow} emits one
    [stage.end] event per stage carrying its latency and
    quality-of-result metrics,
    {!Vc_mooc.Portal} emits one event per submission (tool, digest,
    cache hit/miss, latency, rejection reason), {!Vc_mooc.Autograder}
    emits one event per gradable unit, and the place/route/timing/
    synthesis kernels emit completion events with their headline
    numbers. Every binary under [bin/] exposes the stream through the
    [--journal FILE] flag of {!Telemetry.cli}, which opens a journal
    file ({!open_jsonl}).

    Events go to two places:

    - {b The journal file}: at most one, written one JSON line per
      event, each line formatted straight from the event's bytes.
    - {b Flight recorder}: an in-memory ring of the newest 256 events,
      the last 32 of them dumped to stderr when the process dies on an
      uncaught exception ({!install_crash_handler}, installed by
      {!Telemetry.cli}) - the trailing window of context an operator
      needs.

    Like the rest of the observability layer, all state is
    process-global and {e domain-safe}. The hot path is one pending
    buffer that every domain shares: {!emit} encodes the event as bytes
    into it under its own small mutex, held only while the clock is
    read and the bytes are copied in, and batches drain to the ring and
    the file under the single journal lock on a {e flush} - forced by a
    full batch (64 events, from any domain), by any [Warn]/[Error]
    event, by every read ({!events}, {!event_count}), by opening or
    closing the file, or explicitly via {!flush}. Pending and recorded
    events are bytes in reused storage, not records, so they hold no
    pointer into the heap and are never promoted; an {!event} record is
    decoded only for a reader. Sequence numbers are assigned at flush
    time, in the order {!emit} appended the events from any domain, so
    the file sees a strictly increasing sequence on one serialized
    channel, and [ts] never decreases along it while {!Clock.now} does
    not.
    There are no third-party dependencies. See [docs/CONCURRENCY.md]
    for the full model. *)

(** {1 Events} *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string
(** ["DEBUG"], ["INFO"], ["WARN"], ["ERROR"]. *)

type event = {
  ev_seq : int;
      (** Sequence number, 1-based, monotone per process. Assigned when
          the event is flushed, in the order {!emit} appended it from any
          domain. *)
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
    to the pending buffer that every domain shares, stamped with
    {!Clock.now} read under that buffer's mutex, so events are
    sequenced in the order [emit] appended them. [Info]/[Debug] events
    reach the flight-recorder ring and the journal file at the next
    flush; [Warn] and [Error] flush immediately. Cheap on the hot path:
    the mutex is held only while the clock is read and the event's
    bytes are copied into the reused buffer. Once the buffer has grown
    to fit a batch, an event allocates about 2 words (the clock
    reading) and keeps nothing alive, so its attribute strings die
    young. If the clock raises, [emit] raises that exception and
    records nothing. *)

val flush : unit -> unit
(** Drain the pending buffer into the ring and the journal file now,
    assigning sequence numbers; each event's line is formatted once,
    into one reused buffer, and flushed to the file. Idempotent; called
    implicitly by every read, by {!open_jsonl} and {!close_jsonl}, and
    at process exit. A domain that exits does not flush: its events
    wait for the next flush like any other. *)

val events : unit -> event list
(** Current flight-recorder contents, oldest first, decoded into fresh
    records. The ring holds the newest 256 events; each of its slots
    keeps one event's encoded bytes and reuses its storage, which grows
    to the largest event it has held. Storage that grew past 64 KiB for
    one large event goes back to the default size when next reused; the
    pending buffer follows the same rule. *)

val event_count : unit -> int
(** Total events emitted since start/{!clear}, including those already
    rotated out of the ring. *)

val clear : unit -> unit
(** Empty the ring, discard the pending events unflushed, and reset
    {!event_count}. The journal file stays open. *)

(** {1 The journal file} *)

val open_jsonl : ?segment_bytes:int -> string -> unit
(** Stream every event to [FILE] as JSON Lines, one line per event,
    flushed per line:
    [{"seq":N,"ts":T,"severity":S,"component":C,"event":E,"attrs":{...}}]
    with [T] as {!Json.num} writes it ([null] for a non-finite clock
    reading) and every string escaped as
    {!Json.str} escapes it. Opens in {e append} mode - a crash-restart
    writing to the same path extends the log and never overwrites the
    pre-crash tail. This is what [--journal FILE] opens.

    At most one journal file is open: [open_jsonl] flushes, then
    replaces and closes any file already open, so events emitted before
    the call go to the old file. One process-exit hook, registered by
    the first [open_jsonl], flushes the pending events and closes the
    file still open.

    With [?segment_bytes] the journal rotates instead of writing [FILE]
    itself: events go to the segment files {!segment_path}[ file 0],
    [1], ... ([FILE.00000.jsonl]-style, the numbering inserted before
    the extension), rolling to the next segment once the current one
    reaches [segment_bytes] bytes. Finished segments are flushed and
    [fsync]ed at the roll, so every completed segment survives even
    power loss. A reopen (restart) starts one past the highest segment
    index on disk, never overwriting; [vcstat] expands the base [FILE]
    name back to the whole segment set. This is what
    [--journal-segments BYTES] selects. Without [?segment_bytes],
    [FILE] is a segment that never rolls.

    Degrades instead of failing: if the file cannot be opened, one
    warning goes to stderr and the journal keeps what it had open; if a
    write (or a roll's open) fails mid-run, the flush prints one warning
    and closes the file - the tool keeps running either way.
    @raise Invalid_argument if [segment_bytes < 1]. *)

val close_jsonl : unit -> unit
(** Flush, then close the journal file, if one is open. Events emitted
    afterwards reach only the ring. *)

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

val dump_flight_recorder : reason:string -> unit -> unit
(** Format the newest 32 ring events plus the [reason] and hand the
    text to the dump printer (stderr unless overridden). Called
    automatically from the crash handler. *)

val set_dump_printer : (string -> unit) -> unit
(** Replace the dump destination (default [prerr_string]) - used by
    tests to capture the flight-recorder output. *)

val install_crash_handler : unit -> unit
(** Chain a [Printexc] uncaught-exception handler that dumps the flight
    recorder before the usual fatal-error report. Idempotent;
    {!Telemetry.cli} calls this for every binary. *)

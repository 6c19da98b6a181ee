(** The durable tier under the portal's content-addressed result cache:
    a keyed append-only spill store on disk, so a restarted server
    warm-starts with the results the previous process computed instead
    of an empty cache - the crash-recovery half of the MOOC operations
    story. The portal writes to it in one place: each executed result
    is {!append}ed when it is computed (write-through); everything else
    only reads.

    A store is a directory of per-lane spill files ([lane-NN.spill]).
    Each {!append} writes one length-prefixed, checksummed binary
    record - [magic, version, key, payload, checksum] - to the lane its
    key hashes to and keeps an in-memory index of the latest record per
    key, so {!find} is one seek and one read of the whole record. The
    key and payload are adjacent in a record and the checksum covers
    that byte range, so it is computed and verified in place.
    Re-appending a key supersedes the earlier record; superseded
    ("dead") bytes accumulate until the lane is {e compacted}
    (automatic once dead bytes exceed both the live bytes and a
    threshold; {!compact} forces it), which copies the live records to
    a temp file and renames it into place.

    {b Opening is one pass.} {!open_store} reads each lane file once,
    front to back, through a bounded buffer, verifying every record's
    checksum as it goes. The caller's [on_record] sees each verified
    record in that same pass - the portal's warm start - so nothing is
    read twice.

    {b Corruption tolerance.} The first truncated or checksum-failing
    record ends a lane's scan, the valid prefix is kept and the file is
    truncated back to it, so a torn write from a killed process costs
    at most the final record and never poisons later appends.

    {b Durability model.} Appends are unbuffered [write(2)] calls: the
    record is in the OS page cache the moment {!append} returns, so it
    survives the {e process} being killed (the kill-a-shard recovery
    test's crash model). It does not call [fsync] per record - a whole-
    machine power loss may lose the tail - which is the deliberate
    price of keeping appends off the submission latency path.

    {b Domain safety.} Each lane has its own mutex held only around its
    table and file operations; operations on different lanes proceed in
    parallel. Safe to call from any number of domains. *)

type t

val open_store :
  ?lanes:int ->
  ?compact_bytes:int ->
  ?on_record:(string -> (unit -> string) -> unit) ->
  string ->
  t
(** Open (creating the directory if needed) and scan the spill files
    under [dir]. [lanes] (default 8) is the spill-file fan-out - the
    value is only used when the directory is empty; an existing store
    reopens with the lane files it has. [compact_bytes] (default
    1 MiB) is the dead-byte threshold past which a lane auto-compacts.

    [on_record key payload] (default: ignore) is called once for every
    record that passes verification, lane by lane and in file order
    within a lane, so a later record for a key comes after an earlier
    one and the last call for a key carries its live payload.
    [payload ()] copies the record's payload out of the scan buffer; it
    is only valid during the call, and a caller that does not want the
    payload pays no copy. A record after a torn or corrupt one is never
    passed.
    @raise Sys_error / Unix.Unix_error when the directory cannot be
    created or a lane file cannot be opened; the lanes already opened
    are closed first, so a failed open holds no descriptor. *)

val dir : t -> string

val lanes : t -> int

val append : t -> key:string -> string -> unit
(** Durably record [key -> data], superseding any earlier record for
    [key]. May trigger an automatic compaction of the lane. Keys and
    payloads are arbitrary bytes (the portal uses raw 16-byte MD5
    digests). *)

val find : t -> string -> string option
(** The latest payload recorded for [key]. Each read re-verifies the
    record: its on-disk key must be [key] and its checksum must hold.
    [None] when absent (or when the record on disk fails verification -
    a damaged record is treated as absent, never returned corrupt). *)

val length : t -> int
(** Number of distinct live keys. *)

val live_bytes : t -> int
(** Bytes occupied by live records across all lanes. *)

val file_bytes : t -> int
(** Total spill-file bytes (live + dead). *)

val compact : t -> int
(** Force-compact every lane; returns the bytes reclaimed. Automatic
    compaction applies the same rewrite per lane when its dead bytes
    exceed both its live bytes and the [compact_bytes] threshold. *)

val close : t -> unit
(** Close the lane files. Further operations raise. *)

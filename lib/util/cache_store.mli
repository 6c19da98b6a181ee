(** The durable tier under the portal's content-addressed result cache:
    a keyed append-only spill store on disk, so a restarted server
    warm-starts with the results the previous process computed instead
    of an empty cache - the crash-recovery half of the MOOC operations
    story. The portal writes to it in one place: each executed result
    is {!append}ed when it is computed (write-through); everything else
    only reads.

    A store is a directory holding one spill file, [store.spill]. Each
    {!append} writes one length-prefixed, checksummed binary record -
    [magic, version, key, payload, checksum] - to it and keeps an
    in-memory index of the latest record per key, so {!find} is one
    seek and one read of the whole record. The key and payload are
    adjacent in a record and the checksum covers that byte range, so it
    is computed and verified in place. Re-appending a key supersedes
    the earlier record; superseded ("dead") bytes accumulate until the
    file is {e compacted}, automatically once dead bytes exceed both
    the live bytes and 1 MiB: the live records are copied to a temp
    file, which is fsynced and renamed into place. The rewrite holds
    the store's lock for its whole length.

    {b Opening is one pass.} {!open_store} reads the spill file once,
    front to back, through a bounded buffer, verifying every record's
    checksum as it goes. The caller's [on_record] sees each verified
    record in that same pass - the portal's warm start - so nothing is
    read twice.

    {b Corruption tolerance.} The first truncated or checksum-failing
    record ends the scan, the valid prefix is kept and the file is
    truncated back to it, so a torn write from a killed process costs
    at most the final record and never poisons later appends.

    {b Durability model.} Appends are unbuffered [write(2)] calls: the
    record is in the OS page cache the moment {!append} returns, so it
    survives the {e process} being killed (the kill-a-shard recovery
    test's crash model). It does not call [fsync] per record - a whole-
    machine power loss may lose the tail - which is the deliberate
    price of keeping appends off the submission latency path.

    {b Domain safety.} One mutex guards the index and the file; every
    operation holds it for one record's [read] or [write] (or a
    compaction). Safe to call from any number of domains. *)

type t

val open_store : ?on_record:(string -> (unit -> string) -> unit) -> string -> t
(** Open (creating the directory and the spill file if needed) and scan
    the store under [dir].

    [on_record key payload] (default: ignore) is called once for every
    record that passes verification, in file order, so a later record
    for a key comes after an earlier one and the last call for a key
    carries its live payload. [payload ()] copies the record's payload
    out of the scan buffer; it is only valid during the call, and a
    caller that does not want the payload pays no copy. A record after
    a torn or corrupt one is never passed.

    A store written by earlier builds as per-lane files
    ([lane-NN.spill]) is folded in: each lane's verified records are
    appended to the spill file and passed to [on_record], after the
    spill file's own records; the spill file is then fsynced and the
    lane file removed. A kill during the fold makes the next open fold
    again, which leaves superseded copies and loses nothing.
    @raise Sys_error / Unix.Unix_error when the directory cannot be
    created or the spill file or a lane cannot be opened or read; a
    failed open holds no descriptor. *)

val dir : t -> string

val append : t -> key:string -> string -> unit
(** Durably record [key -> data], superseding any earlier record for
    [key]. May trigger an automatic compaction. Keys and payloads are
    arbitrary bytes (the portal uses raw 16-byte MD5 digests).
    @raise Invalid_argument on a closed store, including one closed
    while the call waited for the lock. *)

val find : t -> string -> string option
(** The latest payload recorded for [key]. Each read re-verifies the
    record: its on-disk key must be [key] and its checksum must hold.
    [None] when absent (or when the record on disk fails verification -
    a damaged record is treated as absent, never returned corrupt). *)

val length : t -> int
(** Number of distinct live keys. *)

val file_bytes : t -> int
(** Spill-file bytes (live + dead). *)

val close : t -> unit
(** Close the spill file, under the store's lock, so an operation
    racing it either completes first or raises [Invalid_argument];
    none touches the closed descriptor. Idempotent. Further operations
    raise. *)

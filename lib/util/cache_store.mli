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
    key, so {!find} is one seek+read. Re-appending a key supersedes the
    earlier record; superseded ("dead") bytes accumulate until the lane
    is {e compacted} (automatic once dead bytes exceed both the live
    bytes and a threshold; {!compact} forces it), which rewrites the
    live records to a temp file and renames it into place.

    {b Corruption tolerance.} {!open_store} replays each lane file
    record by record; the first truncated or checksum-failing record
    ends the scan, the valid prefix is kept and the file is truncated
    back to it, so a torn write from a killed process costs at most the
    final record and never poisons later appends.

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

val open_store : ?lanes:int -> ?compact_bytes:int -> string -> t
(** Open (creating the directory if needed) and replay the spill files
    under [dir]. [lanes] (default 8) is the spill-file fan-out - the
    value is only used when the directory is empty; an existing store
    reopens with the lane files it has. [compact_bytes] (default
    1 MiB) is the dead-byte threshold past which a lane auto-compacts.
    @raise Sys_error / Unix.Unix_error when the directory cannot be
    created or a lane file cannot be opened. *)

val dir : t -> string

val lanes : t -> int

val append : t -> key:string -> string -> unit
(** Durably record [key -> data], superseding any earlier record for
    [key]. May trigger an automatic compaction of the lane. Keys and
    payloads are arbitrary bytes (the portal uses raw 16-byte MD5
    digests). *)

val find : t -> string -> string option
(** The latest payload recorded for [key], re-verified against its
    checksum on every read; [None] when absent (or when the record on
    disk fails verification - a damaged record is treated as absent,
    never returned corrupt). *)

val length : t -> int
(** Number of distinct live keys. *)

val iter : t -> (string -> string -> unit) -> unit
(** [iter t f] calls [f key payload] for every live entry (unspecified
    order) - the warm-start load loop. Entries failing verification are
    skipped. *)

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

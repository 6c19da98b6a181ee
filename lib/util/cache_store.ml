(* An append-only keyed spill file with an in-memory index - the disk
   tier under the portal result cache.

   Record layout (little-endian lengths):

     offset  size  field
     0       2     magic "VS"
     2       1     format version (1)
     3       1     key length K
     4       4     payload length N (u32le)
     8       K     key bytes
     8+K     N     payload bytes
     8+K+N   4     checksum: first 4 bytes of MD5(key ^ payload)

   Key and payload are adjacent, so the checksum is the MD5 of record
   bytes [8, 8+K+N): it is computed and verified in place, with no
   concatenation and no per-field strings.

   The spill file is a sequence of records; the latest record for a key
   wins. Opening a store scans the file once, front to back, and stops
   at the first record that is truncated or fails its checksum - the
   valid prefix is kept and the file is truncated back to it, so
   appends after a torn write never land behind garbage. Appends are
   raw Unix.write calls (no userland buffering): once append returns
   the record is in the OS page cache and survives the process
   dying. *)

type entry = { e_off : int; e_dlen : int (* record start, payload len *) }

(* [st_mu] guards every mutable field and the descriptor's offset *)
type t = {
  st_dir : string;
  st_path : string;
  st_mu : Mutex.t;
  mutable st_fd : Unix.file_descr;
  st_tbl : (string, entry) Hashtbl.t;
  mutable st_size : int; (* file bytes *)
  mutable st_live : int; (* bytes of live (latest-per-key) records *)
  mutable st_closed : bool;
}

let header_bytes = 8
let trailer_bytes = 4
let record_bytes klen dlen = header_bytes + klen + dlen + trailer_bytes

(* compact once dead bytes exceed both the live bytes and this *)
let compact_threshold = 1 lsl 20

(* magic and format version, at [off] in [b] *)
let header_ok b off =
  Bytes.get b off = 'V'
  && Bytes.get b (off + 1) = 'S'
  && Bytes.get b (off + 2) = '\001'

let payload_len b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff

(* the first [len] bytes of [s] are the bytes at [off] in [b] *)
let bytes_match b off s len =
  let rec go i = i = len || (Bytes.get b (off + i) = s.[i] && go (i + 1)) in
  go 0

(* [len] bytes of key and payload at [off] in [b] are followed by their
   checksum *)
let checksum_ok b ~off ~len =
  bytes_match b (off + len) (Digest.subbytes b off len) trailer_bytes

let encode_record key data =
  let klen = String.length key and dlen = String.length data in
  if klen > 0xff then invalid_arg "Cache_store: key longer than 255 bytes";
  let b = Bytes.create (record_bytes klen dlen) in
  Bytes.blit_string "VS\001" 0 b 0 3;
  Bytes.set b 3 (Char.chr klen);
  Bytes.set_int32_le b 4 (Int32.of_int dlen);
  Bytes.blit_string key 0 b header_bytes klen;
  Bytes.blit_string data 0 b (header_bytes + klen) dlen;
  Bytes.blit_string
    (Digest.subbytes b header_bytes (klen + dlen))
    0 b
    (header_bytes + klen + dlen)
    trailer_bytes;
  b

(* write the [len] bytes at [off] in [b] *)
let write_all fd b off len =
  let rec go off len =
    if len > 0 then
      let n = Unix.write fd b off len in
      go (off + n) (len - n)
  in
  go off len

(* Read exactly [len] bytes at [off]; None on short read. *)
let read_at fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go got =
    if got >= len then Some b
    else
      match Unix.read fd b got (len - got) with
      | 0 -> None
      | n -> go (got + n)
  in
  go 0

(* Call with [st_mu] held, or before [t] is shared: index [key]'s record
   of [dlen] payload bytes, just placed at the end of the file. *)
let index_record t key ~dlen =
  let klen = String.length key in
  (match Hashtbl.find_opt t.st_tbl key with
  | Some prev -> t.st_live <- t.st_live - record_bytes klen prev.e_dlen
  | None -> ());
  Hashtbl.replace t.st_tbl key { e_off = t.st_size; e_dlen = dlen };
  let n = record_bytes klen dlen in
  t.st_size <- t.st_size + n;
  t.st_live <- t.st_live + n

(* ------------------------------------------------------------------ *)
(* open: one scan of the file                                          *)
(* ------------------------------------------------------------------ *)

let scan_chunk = 65536

(* Scan a spill file of [size] bytes once, front to back, passing each
   verified record to [f key b ~off ~dlen] (the record is the bytes at
   [off] in [b], valid only during the call); returns the length of the
   valid prefix. The file is read through one buffer that is refilled
   as records are consumed and grown only to fit a record longer than
   it. A record that is malformed, runs past the end of the file or
   fails its checksum ends the scan at the last good offset. *)
let scan fd ~size f =
  let buf = ref (Bytes.create (min size scan_chunk)) in
  (* buf's bytes [lo, hi) are the file's next unconsumed bytes *)
  let lo = ref 0 and hi = ref 0 in
  (* make [n] bytes available at [lo]; false at end of file *)
  let rec fill n =
    !hi - !lo >= n
    || begin
         if !lo + n > Bytes.length !buf then begin
           let dst = if n > Bytes.length !buf then Bytes.create n else !buf in
           Bytes.blit !buf !lo dst 0 (!hi - !lo);
           hi := !hi - !lo;
           lo := 0;
           buf := dst
         end;
         match Unix.read fd !buf !hi (Bytes.length !buf - !hi) with
         | 0 -> false
         | got ->
           hi := !hi + got;
           fill n
       end
  in
  let rec next valid =
    if valid + header_bytes > size || not (fill header_bytes) then valid
    else if not (header_ok !buf !lo) then valid
    else
      let klen = Char.code (Bytes.get !buf (!lo + 3)) in
      let dlen = payload_len !buf (!lo + 4) in
      let n = record_bytes klen dlen in
      (* a length past the end of the file is a torn record: stop before
         growing the buffer to fit it *)
      if valid + n > size || not (fill n) then valid
      else
        let b = !buf and body = !lo + header_bytes in
        if not (checksum_ok b ~off:body ~len:(klen + dlen)) then valid
        else begin
          f (Bytes.sub_string b body klen) b ~off:!lo ~dlen;
          lo := !lo + n;
          next (valid + n)
        end
  in
  next 0

(* index a verified record, which sits at [st_size] in the spill file,
   and pass it on *)
let take t on_record key b ~off ~dlen =
  index_record t key ~dlen;
  on_record key (fun () ->
      Bytes.sub_string b (off + header_bytes + String.length key) dlen)

(* the per-lane files ([lane-NN.spill]) of a store written by earlier
   builds *)
let is_lane f =
  String.starts_with ~prefix:"lane-" f && Filename.check_suffix f ".spill"

(* Fold a lane into the spill file: its verified records are appended
   and taken, then the spill file is fsynced and the lane removed. A
   kill before the removal only makes the next open fold the lane
   again, leaving superseded copies. *)
let fold_lane t on_record path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.lseek t.st_fd t.st_size Unix.SEEK_SET);
      ignore
        (scan fd ~size:(Unix.fstat fd).Unix.st_size (fun key b ~off ~dlen ->
             write_all t.st_fd b off (record_bytes (String.length key) dlen);
             take t on_record key b ~off ~dlen)));
  Unix.fsync t.st_fd;
  Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store ?(on_record = fun _ _ -> ()) dir =
  mkdir_p dir;
  let path = Filename.concat dir "store.spill" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let t =
    {
      st_dir = dir;
      st_path = path;
      st_mu = Mutex.create ();
      st_fd = fd;
      (* a store of up to 4,096 records indexes without a resize; each
         resize re-hashes every key, and starting at 256 buckets made a
         4,096-record open ~15% slower *)
      st_tbl = Hashtbl.create 2048;
      st_size = 0;
      st_live = 0;
      st_closed = false;
    }
  in
  match
    let size = (Unix.fstat fd).Unix.st_size in
    let valid = scan fd ~size (take t on_record) in
    (* drop any torn tail so future appends follow the last good record *)
    if size > valid then Unix.ftruncate fd valid;
    Sys.readdir dir |> Array.to_list |> List.filter is_lane
    |> List.sort compare
    |> List.iter (fun f -> fold_lane t on_record (Filename.concat dir f))
  with
  | () -> t
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let dir t = t.st_dir

(* Run [f] with [st_mu] held on an open store. [close] sets [st_closed]
   under the same mutex, so [f] never uses a closed descriptor, whose
   number a later open may already have reused. *)
let locked t f =
  Mutex.protect t.st_mu (fun () ->
      if t.st_closed then invalid_arg "Cache_store: closed";
      f ())

(* Call with [st_mu] held: the whole record [e] indexes for [key], in
   one read. None unless it is intact and is [key]'s: its header, its
   on-disk key and its checksum are all checked. *)
let read_record t key e =
  let klen = String.length key and dlen = e.e_dlen in
  match read_at t.st_fd ~off:e.e_off ~len:(record_bytes klen dlen) with
  | Some b
    when header_ok b 0
         && Char.code (Bytes.get b 3) = klen
         && payload_len b 4 = dlen
         && bytes_match b header_bytes key klen
         && checksum_ok b ~off:header_bytes ~len:(klen + dlen) ->
    Some b
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* compaction                                                          *)
(* ------------------------------------------------------------------ *)

(* Call with [st_mu] held: rewrite the live records to a temp file,
   rename it into place and swap descriptors. *)
let compact_locked t =
  let tmp = t.st_path ^ ".tmp" in
  let out = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fresh = Hashtbl.create (Hashtbl.length t.st_tbl) in
  let pos = ref 0 in
  (match
     Hashtbl.iter
       (fun key e ->
         match read_record t key e with
         | Some record ->
           write_all out record 0 (Bytes.length record);
           Hashtbl.replace fresh key { e with e_off = !pos };
           pos := !pos + Bytes.length record
         | None -> () (* damaged record: drop it *))
       t.st_tbl
   with
  | () -> ()
  | exception e ->
    (try Unix.close out with Unix.Unix_error _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Unix.fsync out;
  Unix.close out;
  Unix.rename tmp t.st_path;
  (try Unix.close t.st_fd with Unix.Unix_error _ -> ());
  t.st_fd <- Unix.openfile t.st_path [ Unix.O_RDWR ] 0o644;
  Hashtbl.reset t.st_tbl;
  Hashtbl.iter (fun k v -> Hashtbl.add t.st_tbl k v) fresh;
  t.st_size <- !pos;
  t.st_live <- !pos

(* ------------------------------------------------------------------ *)
(* operations                                                          *)
(* ------------------------------------------------------------------ *)

let append t ~key data =
  let record = encode_record key data in
  locked t (fun () ->
      ignore (Unix.lseek t.st_fd t.st_size Unix.SEEK_SET);
      write_all t.st_fd record 0 (Bytes.length record);
      index_record t key ~dlen:(String.length data);
      let dead = t.st_size - t.st_live in
      if dead > t.st_live && dead > compact_threshold then compact_locked t)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.st_tbl key with
      | Some e ->
        Option.map
          (fun record ->
            Bytes.sub_string record (header_bytes + String.length key) e.e_dlen)
          (read_record t key e)
      | None -> None)

let length t = locked t (fun () -> Hashtbl.length t.st_tbl)
let file_bytes t = locked t (fun () -> t.st_size)

let close t =
  Mutex.protect t.st_mu (fun () ->
      if not t.st_closed then begin
        t.st_closed <- true;
        try Unix.close t.st_fd with Unix.Unix_error _ -> ()
      end)

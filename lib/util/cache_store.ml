(* Append-only keyed spill files with an in-memory index - the disk
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

   A lane file is a sequence of records; the latest record for a key
   wins. Opening a store scans each lane once, front to back, and stops
   at the first record that is truncated or fails its checksum - the
   valid prefix is kept and the file is truncated back to it, so
   appends after a torn write never land behind garbage. Appends are
   raw Unix.write calls (no userland buffering): once append returns
   the record is in the OS page cache and survives the process
   dying. *)

type entry = { e_off : int; e_dlen : int (* record start, payload len *) }

type lane = {
  ln_mu : Mutex.t;
  ln_path : string;
  mutable ln_fd : Unix.file_descr;
  ln_tbl : (string, entry) Hashtbl.t;
  mutable ln_size : int; (* file bytes *)
  mutable ln_live : int; (* bytes of live (latest-per-key) records *)
}

type t = {
  st_dir : string;
  st_lanes : lane array;
  st_compact_bytes : int;
  mutable st_closed : bool;
}

let header_bytes = 8
let trailer_bytes = 4
let record_bytes klen dlen = header_bytes + klen + dlen + trailer_bytes

let lane_path dir i = Filename.concat dir (Printf.sprintf "lane-%02d.spill" i)

let lane_of t key =
  let d = Digest.string key in
  let a = t.st_lanes in
  a.(((Char.code d.[0] lsl 8) lor Char.code d.[1]) mod Array.length a)

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

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

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

(* ------------------------------------------------------------------ *)
(* open: one scan per lane                                             *)
(* ------------------------------------------------------------------ *)

let scan_chunk = 65536

(* Scan one lane file of [size] bytes once, front to back, indexing each
   verified record in [tbl] and passing it to [on_record]; returns
   (valid_bytes, live_bytes). The file is read through one buffer that
   is refilled as records are consumed and grown only to fit a record
   longer than it. A record that is malformed, runs past the end of the
   file or fails its checksum ends the scan at the last good offset. *)
let scan_lane fd ~size tbl on_record =
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
  let rec next valid live =
    if valid + header_bytes > size || not (fill header_bytes) then (valid, live)
    else if not (header_ok !buf !lo) then (valid, live)
    else
      let klen = Char.code (Bytes.get !buf (!lo + 3)) in
      let dlen = payload_len !buf (!lo + 4) in
      let n = record_bytes klen dlen in
      (* a length past the end of the file is a torn record: stop before
         growing the buffer to fit it *)
      if valid + n > size || not (fill n) then (valid, live)
      else
        let b = !buf and body = !lo + header_bytes in
        if not (checksum_ok b ~off:body ~len:(klen + dlen)) then (valid, live)
        else begin
          let key = Bytes.sub_string b body klen in
          let live =
            match Hashtbl.find_opt tbl key with
            | Some prev -> live - record_bytes klen prev.e_dlen
            | None -> live
          in
          Hashtbl.replace tbl key { e_off = valid; e_dlen = dlen };
          on_record key (fun () -> Bytes.sub_string b (body + klen) dlen);
          lo := !lo + n;
          next (valid + n) (live + n)
        end
  in
  next 0 0

let open_lane on_record path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let tbl = Hashtbl.create 256 in
  let valid, live =
    match scan_lane fd ~size tbl on_record with
    | r -> r
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  (* drop any torn tail so future appends follow the last good record *)
  if size > valid then Unix.ftruncate fd valid;
  {
    ln_mu = Mutex.create ();
    ln_path = path;
    ln_fd = fd;
    ln_tbl = tbl;
    ln_size = valid;
    ln_live = live;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_store ?(lanes = 8) ?(compact_bytes = 1 lsl 20)
    ?(on_record = fun _ _ -> ()) dir =
  if lanes < 1 || lanes > 256 then
    invalid_arg "Cache_store.open_store: lanes out of range";
  mkdir_p dir;
  (* an existing store reopens with the lane count it was written with,
     so every old record stays reachable under its original lane *)
  let existing =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           try Scanf.sscanf f "lane-%02d.spill%!" (fun i -> Some i)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let n = match existing with [] -> lanes | l -> 1 + List.fold_left max 0 l in
  (* a lane that fails to open closes the lanes opened before it *)
  let rec open_from i opened =
    if i = n then Array.of_list (List.rev opened)
    else
      match open_lane on_record (lane_path dir i) with
      | ln -> open_from (i + 1) (ln :: opened)
      | exception e ->
        List.iter
          (fun ln -> try Unix.close ln.ln_fd with Unix.Unix_error _ -> ())
          opened;
        raise e
  in
  {
    st_dir = dir;
    st_lanes = open_from 0 [];
    st_compact_bytes = compact_bytes;
    st_closed = false;
  }

let dir t = t.st_dir
let lanes t = Array.length t.st_lanes

let check_open t = if t.st_closed then invalid_arg "Cache_store: closed"

(* Call with the lane mutex held: the whole record [e] indexes for
   [key], in one read. None unless it is intact and is [key]'s: its
   header, its on-disk key and its checksum are all checked. *)
let read_record ln key e =
  let klen = String.length key and dlen = e.e_dlen in
  match read_at ln.ln_fd ~off:e.e_off ~len:(record_bytes klen dlen) with
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

(* Call with the lane mutex held: rewrite the live records to a temp
   file, rename it into place and swap descriptors. *)
let compact_locked ln =
  let tmp = ln.ln_path ^ ".tmp" in
  let out = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fresh = Hashtbl.create (Hashtbl.length ln.ln_tbl) in
  let pos = ref 0 in
  (match
     Hashtbl.iter
       (fun key e ->
         match read_record ln key e with
         | Some record ->
           write_all out record;
           Hashtbl.replace fresh key { e with e_off = !pos };
           pos := !pos + Bytes.length record
         | None -> () (* damaged record: drop it *))
       ln.ln_tbl
   with
  | () -> ()
  | exception e ->
    (try Unix.close out with Unix.Unix_error _ -> ());
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Unix.fsync out;
  Unix.close out;
  Unix.rename tmp ln.ln_path;
  (try Unix.close ln.ln_fd with Unix.Unix_error _ -> ());
  ln.ln_fd <- Unix.openfile ln.ln_path [ Unix.O_RDWR ] 0o644;
  Hashtbl.reset ln.ln_tbl;
  Hashtbl.iter (fun k v -> Hashtbl.add ln.ln_tbl k v) fresh;
  ln.ln_size <- !pos;
  ln.ln_live <- !pos

let maybe_compact_locked t ln =
  let dead = ln.ln_size - ln.ln_live in
  if dead > ln.ln_live && dead > t.st_compact_bytes then compact_locked ln

(* ------------------------------------------------------------------ *)
(* operations                                                          *)
(* ------------------------------------------------------------------ *)

let append t ~key data =
  check_open t;
  let ln = lane_of t key in
  let record = encode_record key data in
  let n = Bytes.length record in
  Mutex.protect ln.ln_mu (fun () ->
      ignore (Unix.lseek ln.ln_fd ln.ln_size Unix.SEEK_SET);
      write_all ln.ln_fd record;
      let klen = String.length key in
      (match Hashtbl.find_opt ln.ln_tbl key with
      | Some prev -> ln.ln_live <- ln.ln_live - record_bytes klen prev.e_dlen
      | None -> ());
      Hashtbl.replace ln.ln_tbl key
        { e_off = ln.ln_size; e_dlen = String.length data };
      ln.ln_size <- ln.ln_size + n;
      ln.ln_live <- ln.ln_live + n;
      maybe_compact_locked t ln)

let find t key =
  check_open t;
  let ln = lane_of t key in
  Mutex.protect ln.ln_mu (fun () ->
      match Hashtbl.find_opt ln.ln_tbl key with
      | Some e ->
        Option.map
          (fun record ->
            Bytes.sub_string record (header_bytes + String.length key) e.e_dlen)
          (read_record ln key e)
      | None -> None)

let length t =
  check_open t;
  Array.fold_left
    (fun acc ln ->
      acc + Mutex.protect ln.ln_mu (fun () -> Hashtbl.length ln.ln_tbl))
    0 t.st_lanes

let live_bytes t =
  check_open t;
  Array.fold_left
    (fun acc ln -> acc + Mutex.protect ln.ln_mu (fun () -> ln.ln_live))
    0 t.st_lanes

let file_bytes t =
  check_open t;
  Array.fold_left
    (fun acc ln -> acc + Mutex.protect ln.ln_mu (fun () -> ln.ln_size))
    0 t.st_lanes

let compact t =
  check_open t;
  Array.fold_left
    (fun acc ln ->
      acc
      + Mutex.protect ln.ln_mu (fun () ->
            let before = ln.ln_size in
            compact_locked ln;
            before - ln.ln_size))
    0 t.st_lanes

let close t =
  if not t.st_closed then begin
    t.st_closed <- true;
    Array.iter
      (fun ln ->
        Mutex.protect ln.ln_mu (fun () ->
            try Unix.close ln.ln_fd with Unix.Unix_error _ -> ()))
      t.st_lanes
  end

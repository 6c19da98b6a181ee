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

   A lane file is a sequence of records; the latest record for a key
   wins. Opening a store replays each lane front to back and stops at
   the first record that is truncated or fails its checksum - the valid
   prefix is kept and the file is truncated back to it, so appends
   after a torn write never land behind garbage. Appends are raw
   Unix.write calls (no userland buffering): once append returns the
   record is in the OS page cache and survives the process dying. *)

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
let checksum key data = String.sub (Digest.string (key ^ data)) 0 trailer_bytes

let lane_path dir i = Filename.concat dir (Printf.sprintf "lane-%02d.spill" i)

let lane_of t key =
  let d = Digest.string key in
  let a = t.st_lanes in
  a.(((Char.code d.[0] lsl 8) lor Char.code d.[1]) mod Array.length a)

let encode_record key data =
  let klen = String.length key and dlen = String.length data in
  if klen > 0xff then invalid_arg "Cache_store: key longer than 255 bytes";
  let b = Buffer.create (record_bytes klen dlen) in
  Buffer.add_string b "VS";
  Buffer.add_char b '\001';
  Buffer.add_char b (Char.chr klen);
  Buffer.add_char b (Char.chr (dlen land 0xff));
  Buffer.add_char b (Char.chr ((dlen lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((dlen lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((dlen lsr 24) land 0xff));
  Buffer.add_string b key;
  Buffer.add_string b data;
  Buffer.add_string b (checksum key data);
  Buffer.contents b

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

(* Read exactly [len] bytes at [off]; None on short read. *)
let read_at fd ~off ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go got =
    if got >= len then Some (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b got (len - got) with
      | 0 -> None
      | n -> go (got + n)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Replay one lane file into [tbl]; returns (valid_bytes, live_bytes).
   Any malformed, truncated or checksum-failing record ends the scan at
   the last good offset. *)
let replay_file ic tbl =
  let live = ref 0 in
  let valid = ref 0 in
  (try
     while true do
       let pos = !valid in
       let header = Bytes.create header_bytes in
       really_input ic header 0 header_bytes;
       if Bytes.get header 0 <> 'V' || Bytes.get header 1 <> 'S' then raise Exit;
       if Bytes.get header 2 <> '\001' then raise Exit;
       let klen = Char.code (Bytes.get header 3) in
       let dlen =
         Char.code (Bytes.get header 4)
         lor (Char.code (Bytes.get header 5) lsl 8)
         lor (Char.code (Bytes.get header 6) lsl 16)
         lor (Char.code (Bytes.get header 7) lsl 24)
       in
       let key = really_input_string ic klen in
       let data = really_input_string ic dlen in
       let sum = really_input_string ic trailer_bytes in
       if sum <> checksum key data then raise Exit;
       (match Hashtbl.find_opt tbl key with
       | Some prev ->
         live := !live - record_bytes klen prev.e_dlen
       | None -> ());
       Hashtbl.replace tbl key { e_off = pos; e_dlen = dlen };
       live := !live + record_bytes klen dlen;
       valid := pos + record_bytes klen dlen
     done
   with End_of_file | Exit -> ());
  (!valid, !live)

let open_lane path =
  let tbl = Hashtbl.create 256 in
  let valid, live =
    if Sys.file_exists path then
      In_channel.with_open_bin path (fun ic -> replay_file ic tbl)
    else (0, 0)
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (* drop any torn tail so future appends follow the last good record *)
  if (Unix.fstat fd).Unix.st_size > valid then Unix.ftruncate fd valid;
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

let open_store ?(lanes = 8) ?(compact_bytes = 1 lsl 20) dir =
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
  {
    st_dir = dir;
    st_lanes = Array.init n (fun i -> open_lane (lane_path dir i));
    st_compact_bytes = compact_bytes;
    st_closed = false;
  }

let dir t = t.st_dir
let lanes t = Array.length t.st_lanes

let check_open t = if t.st_closed then invalid_arg "Cache_store: closed"

let read_verified ln key e =
  let klen = String.length key in
  match
    read_at ln.ln_fd
      ~off:(e.e_off + header_bytes + klen)
      ~len:(e.e_dlen + trailer_bytes)
  with
  | Some blob ->
    let data = String.sub blob 0 e.e_dlen in
    if String.sub blob e.e_dlen trailer_bytes = checksum key data then
      Some data
    else None
  | None -> None

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
         match read_verified ln key e with
         | Some data ->
           write_all out (encode_record key data);
           Hashtbl.replace fresh key { e_off = !pos; e_dlen = e.e_dlen };
           pos := !pos + record_bytes (String.length key) e.e_dlen
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
  Mutex.protect ln.ln_mu (fun () ->
      let record = encode_record key data in
      ignore (Unix.lseek ln.ln_fd ln.ln_size Unix.SEEK_SET);
      write_all ln.ln_fd record;
      let klen = String.length key in
      (match Hashtbl.find_opt ln.ln_tbl key with
      | Some prev -> ln.ln_live <- ln.ln_live - record_bytes klen prev.e_dlen
      | None -> ());
      Hashtbl.replace ln.ln_tbl key
        { e_off = ln.ln_size; e_dlen = String.length data };
      ln.ln_size <- ln.ln_size + String.length record;
      ln.ln_live <- ln.ln_live + String.length record;
      maybe_compact_locked t ln)

let find t key =
  check_open t;
  let ln = lane_of t key in
  Mutex.protect ln.ln_mu (fun () ->
      match Hashtbl.find_opt ln.ln_tbl key with
      | Some e -> read_verified ln key e
      | None -> None)

let length t =
  check_open t;
  Array.fold_left
    (fun acc ln ->
      acc + Mutex.protect ln.ln_mu (fun () -> Hashtbl.length ln.ln_tbl))
    0 t.st_lanes

let iter t f =
  check_open t;
  Array.iter
    (fun ln ->
      (* snapshot the index under the lock, read outside per entry
         re-acquiring it - [f] may call back into the store *)
      let entries =
        Mutex.protect ln.ln_mu (fun () ->
            Hashtbl.fold (fun k e acc -> (k, e) :: acc) ln.ln_tbl [])
      in
      List.iter
        (fun (key, e) ->
          match Mutex.protect ln.ln_mu (fun () -> read_verified ln key e) with
          | Some data -> f key data
          | None -> ())
        entries)
    t.st_lanes

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

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "DEBUG"
  | Info -> "INFO"
  | Warn -> "WARN"
  | Error -> "ERROR"

type event = {
  ev_seq : int;
  ev_ts : float;
  ev_severity : severity;
  ev_component : string;
  ev_name : string;
  ev_attrs : (string * string) list;
}

(* Domain safety: [emit] encodes into one pending byte buffer that
   every domain shares, under its own small mutex [pending_mu], held
   only while the clock is read and the event's bytes are copied in. A
   flush - forced by a full batch, any Warn/Error, every read
   ([events], [event_count]) and opening or closing the journal file -
   runs under the global mutex [mu]: it swaps the pending buffer for the
   spare under [pending_mu], then, outside it, assigns the monotone
   sequence numbers, copies each event into a ring slot and writes its
   line to the journal file. Events are therefore sequenced in the
   order [emit] appended them, from any domain, and since the clock is
   read under [pending_mu], [ts] never decreases along [seq] while the
   clock does not. The file sees that sequence on one serialized
   channel and is never written under [pending_mu]. Lock ordering:
   [mu] before [pending_mu], never the reverse - [emit] releases
   [pending_mu] before calling [flush]. *)
let mu = Mutex.create ()

let locked f = Mutex.protect mu f

(* ------------------------------------------------------------------ *)
(* events as bytes                                                     *)
(* ------------------------------------------------------------------ *)

(* Between [emit] and its readers an event is bytes, not a record: the
   bits of [ts] (8 bytes), the severity (1 byte), the component and the
   name, the attribute count, then each key and value. Every string and
   the count take a 4-byte length prefix. The pending buffer and the
   ring slots reuse their storage, so a buffered or recorded event holds
   no pointer into the heap: the strings handed to [emit] die young
   instead of being promoted, and a record is decoded only for a
   reader. *)

let severity_code = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let severity_of_code = function
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

(* a length as 4 unsigned bytes; [set_int32_le] is inlined, so its
   [int32] is never boxed *)
let set_len b pos n = Bytes.set_int32_le b pos (Int32.of_int n)
let get_len b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffff_ffff

let rec attrs_size n = function
  | [] -> n
  | (k, v) :: rest -> attrs_size (n + 8 + String.length k + String.length v) rest

let encoded_size component name attrs =
  attrs_size (21 + String.length component + String.length name) attrs

let put_string b pos s =
  let n = String.length s in
  set_len b pos n;
  Bytes.blit_string s 0 b (pos + 4) n;
  pos + 4 + n

let rec put_attrs b pos = function
  | [] -> ()
  | (k, v) :: rest -> put_attrs b (put_string b (put_string b pos k) v) rest

(* Write one event at [pos]; [b] has [encoded_size] bytes of room there. *)
let encode b pos ts severity component name attrs =
  Bytes.set_int64_le b pos (Int64.bits_of_float ts);
  Bytes.set_uint8 b (pos + 8) (severity_code severity);
  let pos = put_string b (put_string b (pos + 9) component) name in
  set_len b pos (List.length attrs);
  put_attrs b (pos + 4) attrs

let decode seq b pos =
  let str p = Bytes.sub_string b (p + 4) (get_len b p) in
  let next p = p + 4 + get_len b p in
  let rec attrs n p =
    if n = 0 then []
    else
      let v = next p in
      let kv = (str p, str v) in
      kv :: attrs (n - 1) (next v)
  in
  let name = next (pos + 9) in
  let count = next name in
  {
    ev_seq = seq;
    ev_ts = Int64.float_of_bits (Bytes.get_int64_le b pos);
    ev_severity = severity_of_code (Bytes.get_uint8 b (pos + 8));
    ev_component = str (pos + 9);
    ev_name = str name;
    ev_attrs = attrs (get_len b count) (count + 4);
  }

(* Storage starts at [default_bytes] and doubles as it fills. Storage
   that grew past [max_kept_bytes] (one large event) is dropped when
   next reused, so a 4 MB attribute does not pin 4 MB for the life of
   the process. *)
let default_bytes = 256
let max_kept_bytes = 65536

(* [b] itself when it has room for [need] bytes; otherwise larger
   storage holding a copy of its first [len] bytes. *)
let grow b len need =
  if need <= Bytes.length b then b
  else begin
    let bigger =
      Bytes.create (max need (max default_bytes (2 * Bytes.length b)))
    in
    Bytes.blit b 0 bigger 0 len;
    bigger
  end

(* ------------------------------------------------------------------ *)
(* flight-recorder ring                                                *)
(* ------------------------------------------------------------------ *)

(* One recorded event: its sequence number and its encoded bytes. *)
type slot = { mutable s_seq : int; mutable s_bytes : Bytes.t }

let new_slot () = { s_seq = 0; s_bytes = Bytes.empty }

(* The ring is [ring_size] reused slots; the [!count] events it holds
   start at slot [!first], oldest first. All guarded by [mu]. *)
let ring_size = 256
let ring = Array.init ring_size (fun _ -> new_slot ())
let first = ref 0
let count = ref 0
let seq = ref 0

(* Copy the event at [pos] of [b] ([len] bytes) into the next slot,
   overwriting the oldest event once the ring is full. *)
let record seq b pos len =
  (* once the ring is full, this is the oldest event's slot *)
  let s = ring.((!first + !count) mod ring_size) in
  if !count < ring_size then incr count
  else first := (!first + 1) mod ring_size;
  let dst =
    if Bytes.length s.s_bytes > max_kept_bytes then Bytes.empty else s.s_bytes
  in
  s.s_bytes <- grow dst 0 len;
  Bytes.blit b pos s.s_bytes 0 len;
  s.s_seq <- seq

(* ------------------------------------------------------------------ *)
(* the pending buffer                                                  *)
(* ------------------------------------------------------------------ *)

(* The events since the last flush, from every domain: [!pending_count]
   events in the first [!pending_len] bytes of [!pending], each behind a
   4-byte length; guarded by [pending_mu]. A flush swaps [!pending] with
   [!spare] (guarded by [mu]), so the two storages take turns and a
   steady stream of events allocates nothing. *)
let pending_mu = Mutex.create ()
let pending = ref Bytes.empty
let pending_len = ref 0
let pending_count = ref 0
let spare = ref Bytes.empty

(* Info/Debug events buffer up to this many before forcing a flush;
   Warn/Error always flush immediately so the flight recorder and the
   journal file see trouble as it happens. *)
let batch = 64

(* ------------------------------------------------------------------ *)
(* the journal file + flush                                            *)
(* ------------------------------------------------------------------ *)

(* append, never truncate: a crash-restart writing to the same path
   must not overwrite the pre-crash tail *)
let open_append =
  Out_channel.open_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644

(* The open journal file: segment [f_idx] of [f_base], named by
   [f_path], holding the [f_bytes] this process wrote to it. *)
type file = {
  f_base : string;
  f_path : int -> string;
  f_limit : int;
  mutable f_idx : int;
  mutable f_oc : Out_channel.t;
  mutable f_bytes : int;
}

(* At most one file is open, and [line] is reused for each line written
   to it; both guarded by [mu]. *)
let file : file option ref = ref None
let line = Buffer.create default_bytes

(* [close_noerr] releases the descriptor even when the last write
   failed *)
let close f = Out_channel.close_noerr f.f_oc

(* Append the string at [p] of [b] to [line], quoted and escaped, then
   [sep]; return the position after it. *)
let add_quoted b p sep =
  let n = get_len b p in
  Buffer.add_char line '"';
  Json.add_escaped line b (p + 4) n;
  Buffer.add_char line '"';
  Buffer.add_string line sep;
  p + 4 + n

let rec add_attrs b p n =
  if n > 0 then
    let v = add_quoted b p ":" in
    add_attrs b (add_quoted b v (if n > 1 then "," else "")) (n - 1)

(* The event at [pos] of [b] as one JSON line: the fields in the order
   [Json.obj] would write them, the timestamp as [Json.num]. *)
let add_line seq b pos =
  Buffer.add_string line "{\"seq\":";
  Buffer.add_string line (string_of_int seq);
  Buffer.add_string line ",\"ts\":";
  Buffer.add_string line
    (Json.num (Int64.float_of_bits (Bytes.get_int64_le b pos)));
  Buffer.add_string line ",\"severity\":\"";
  Buffer.add_string line
    (severity_to_string (severity_of_code (Bytes.get_uint8 b (pos + 8))));
  Buffer.add_string line "\",\"component\":";
  let name = add_quoted b (pos + 9) ",\"event\":" in
  let count = add_quoted b name ",\"attrs\":{" in
  add_attrs b (count + 4) (get_len b count);
  Buffer.add_string line "}}\n"

(* Write the event at [pos] of [b] to [f] and flush it. Once the segment
   reaches the limit it is fsynced and closed, and the next one opened;
   a failed open raises like a failed write. *)
let write_line f seq b pos =
  (* a large line's storage is not kept for the lines after it *)
  if Buffer.length line > max_kept_bytes then Buffer.reset line
  else Buffer.clear line;
  add_line seq b pos;
  Buffer.output_buffer f.f_oc line;
  Out_channel.flush f.f_oc;
  f.f_bytes <- f.f_bytes + Buffer.length line;
  if f.f_bytes >= f.f_limit then begin
    (try Unix.fsync (Unix.descr_of_out_channel f.f_oc)
     with Unix.Unix_error _ -> ());
    close f;
    f.f_idx <- f.f_idx + 1;
    f.f_oc <- open_append (f.f_path f.f_idx);
    f.f_bytes <- 0
  end

(* Sequence the [len] bytes of events in [b], record them in the ring
   and write them to the journal file. A file whose write raises is
   detached at once and kept in [failed] with its exception. *)
let publish failed b len =
  let pos = ref 0 in
  while !pos < len do
    let n = get_len b !pos in
    incr seq;
    record !seq b (!pos + 4) n;
    (match !file with
    | None -> ()
    | Some f -> (
      match write_line f !seq b (!pos + 4) with
      | () -> ()
      | exception exn ->
        file := None;
        failed := Some (f, exn)));
    pos := !pos + 4 + n
  done

(* Drain the pending buffer: swap it for the spare under [pending_mu],
   then publish it outside that mutex; it is the spare once published.
   Call with [mu] held; returns the file that failed, if one did. *)
let flush_locked () =
  Mutex.lock pending_mu;
  let full = !pending and len = !pending_len in
  pending := !spare;
  pending_len := 0;
  pending_count := 0;
  Mutex.unlock pending_mu;
  let failed = ref None in
  publish failed full len;
  spare := if Bytes.length full > max_kept_bytes then Bytes.empty else full;
  !failed

(* Flush, then run [f] under [mu]; [f] returns the file it detached, if
   any. Outside [mu], report a file whose write failed, and close it
   and the detached one. *)
let with_flush f =
  let failed, detached =
    locked (fun () ->
        let failed = flush_locked () in
        (failed, f ()))
  in
  Option.iter
    (fun (j, exn) ->
      Printf.eprintf "journal: sink jsonl:%s failed (%s); removed\n%!"
        j.f_base (Printexc.to_string exn);
      close j)
    failed;
  Option.iter close detached

let flush () = with_flush (fun () -> None)

(* Opening or closing a file flushes first, so every event emitted
   before the change goes to the file that was open when it was
   emitted. *)
let swap_file next =
  with_flush (fun () ->
      let old = !file in
      file := next;
      old)

let close_jsonl () = swap_file None

(* Append one event of [n] encoded bytes to the pending buffer, stamped
   now; call with [pending_mu] held. True once the batch is full. *)
let append severity component name attrs n =
  let ts = Clock.now () in
  let b = grow !pending !pending_len (!pending_len + 4 + n) in
  pending := b;
  set_len b !pending_len n;
  encode b (!pending_len + 4) ts severity component name attrs;
  pending_len := !pending_len + 4 + n;
  incr pending_count;
  !pending_count >= batch

let emit ?(severity = Info) ?(attrs = []) ~component name =
  let n = encoded_size component name attrs in
  Mutex.lock pending_mu;
  let full =
    match append severity component name attrs n with
    | full -> full
    | exception exn ->
      Mutex.unlock pending_mu;
      raise exn
  in
  Mutex.unlock pending_mu;
  match severity with
  | Warn | Error -> flush ()
  | Debug | Info -> if full then flush ()

(* ------------------------------------------------------------------ *)
(* reads                                                               *)
(* ------------------------------------------------------------------ *)

let events () =
  flush ();
  locked (fun () ->
      List.init !count (fun i ->
          let s = ring.((!first + i) mod ring_size) in
          decode s.s_seq s.s_bytes 0))

let event_count () =
  flush ();
  locked (fun () -> !seq)

let clear () =
  locked (fun () ->
      (* discard, don't flush: cleared events must not resurface *)
      Mutex.lock pending_mu;
      pending_len := 0;
      pending_count := 0;
      Mutex.unlock pending_mu;
      first := 0;
      count := 0;
      seq := 0)

(* Split [file] into (stem, extension) around the last dot of its
   basename: "logs/foo.jsonl" -> ("logs/foo", ".jsonl"). No-extension
   names get an empty extension. *)
let split_ext file =
  let after_slash i =
    match String.rindex_opt file '/' with Some s -> i > s + 1 | None -> i > 0
  in
  match String.rindex_opt file '.' with
  | Some i when after_slash i ->
    (String.sub file 0 i, String.sub file i (String.length file - i))
  | Some _ | None -> (file, "")

let segment_path file idx =
  let stem, ext = split_ext file in
  Printf.sprintf "%s.%05d%s" stem idx ext

(* One past the highest existing segment index for [file] - scanning
   the directory rather than probing indices from 0, so a gap (an
   operator archived early segments) never makes a restart overwrite a
   later segment. *)
let next_segment_index file =
  let stem, ext = split_ext file in
  let prefix = Filename.basename stem ^ "." in
  let pl = String.length prefix and sl = String.length ext in
  match Sys.readdir (Filename.dirname file) with
  | exception Sys_error _ -> 0
  | entries ->
    Array.fold_left
      (fun acc name ->
        let nl = String.length name in
        if
          nl = pl + 5 + sl
          && String.sub name 0 pl = prefix
          && String.sub name (nl - sl) sl = ext
        then
          match int_of_string_opt (String.sub name pl 5) with
          | Some i when i >= 0 -> max acc (i + 1)
          | Some _ | None -> acc
        else acc)
      0 entries

(* A journal that cannot be written must never take the tool down: warn
   once and run without the file (write failures mid-run are handled
   the same way by the flush, which detaches a failing file). *)
let open_journal_file file =
  match open_append file with
  | oc -> Some oc
  | exception Sys_error msg ->
    Printf.eprintf "journal: cannot open %s (%s); continuing without it\n%!"
      file msg;
    None

(* Set once [open_jsonl] has registered the exit hook. *)
let exit_hook = Atomic.make false

(* An unsegmented journal is one segment that never rolls: it writes
   [file] itself. A segmented one writes FILE.00000.jsonl,
   FILE.00001.jsonl, ... starting past any segments already on disk,
   rolling to the next segment once the current one reaches the limit.
   The finished segment is flushed and fsynced before the roll, so every
   completed segment is durable even against power loss. *)
let open_jsonl ?segment_bytes file =
  let path, idx, limit =
    match segment_bytes with
    | None -> ((fun _ -> file), 0, max_int)
    | Some limit ->
      if limit < 1 then
        invalid_arg "Journal.open_jsonl: segment_bytes under 1";
      (segment_path file, next_segment_index file, limit)
  in
  match open_journal_file (path idx) with
  | None -> ()
  | Some oc ->
    (* one hook flushes the pending events and closes whatever file is
       open at exit *)
    if not (Atomic.exchange exit_hook true) then at_exit close_jsonl;
    swap_file
      (Some
         {
           f_base = file;
           f_path = path;
           f_limit = limit;
           f_idx = idx;
           f_oc = oc;
           f_bytes = 0;
         })

(* ------------------------------------------------------------------ *)
(* flight recorder dumps                                               *)
(* ------------------------------------------------------------------ *)

let dump_printer = ref prerr_string
let set_dump_printer f = dump_printer := f

let dump_flight_recorder ~reason () =
  let all = events () in
  let total = List.length all in
  (* the newest 32 events *)
  let window = List.filteri (fun i _ -> i >= total - 32) all in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "== journal flight recorder: %s ==\n" reason);
  Buffer.add_string b
    (Printf.sprintf "last %d of %d event(s):\n" (List.length window)
       (event_count ()));
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  [%5d] %.6f %-5s %-10s %s%s\n" e.ev_seq e.ev_ts
           (severity_to_string e.ev_severity)
           e.ev_component e.ev_name
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) e.ev_attrs))))
    window;
  !dump_printer (Buffer.contents b)

let crash_handler_installed = ref false

let install_crash_handler () =
  if not !crash_handler_installed then begin
    crash_handler_installed := true;
    Printexc.set_uncaught_exception_handler (fun exn bt ->
        (if event_count () > 0 then
           try dump_flight_recorder ~reason:"uncaught exception" ()
           with _ -> ());
        Printf.eprintf "Fatal error: exception %s\n" (Printexc.to_string exn);
        Printexc.print_raw_backtrace stderr bt;
        Stdlib.flush stderr)
  end

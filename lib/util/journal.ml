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

(* Domain safety: [emit] appends to a per-domain buffer (its own tiny
   mutex, uncontended except while a flush drains it), so concurrent
   emitters never serialize on a global lock per event. A flush - forced
   by a full buffer, any Warn/Error, every read ([events], [event_count],
   [to_jsonl]) and sink (de)registration - drains every buffer under the
   single global mutex [mu], assigns the monotone sequence numbers,
   pushes the ring and runs the sinks. Sinks therefore still observe a
   strictly increasing sequence on one serialized channel. Per-domain
   FIFO order is preserved (a buffer drains in emission order);
   interleaving across domains is decided at flush time. Lock ordering:
   [mu] before a buffer mutex, never the reverse - [emit] releases its
   buffer mutex before calling [flush]. A sink must never call back into
   [emit] (none does; they are plain formatters). *)
let mu = Mutex.create ()

let locked f = Mutex.protect mu f

(* ------------------------------------------------------------------ *)
(* flight-recorder ring                                                *)
(* ------------------------------------------------------------------ *)

let ring : event Queue.t = Queue.create ()
let capacity = ref 256
let seq = ref 0

let ring_capacity () = locked (fun () -> !capacity)

let trim () =
  while Queue.length ring > !capacity do
    ignore (Queue.pop ring)
  done

let set_ring_capacity n =
  if n < 0 then invalid_arg "Journal.set_ring_capacity: negative capacity";
  locked (fun () ->
      capacity := n;
      trim ())

(* ------------------------------------------------------------------ *)
(* per-domain buffers                                                  *)
(* ------------------------------------------------------------------ *)

(* An event waiting in a domain buffer: everything but the sequence
   number, which is assigned when the batch reaches the ring. *)
type pending = {
  p_ts : float;
  p_severity : severity;
  p_component : string;
  p_name : string;
  p_attrs : (string * string) list;
}

type buffer = { b_mu : Mutex.t; b_q : pending Queue.t }

(* The live domains' buffers, newest first; guarded by [mu]. *)
let buffers : buffer list ref = ref []

(* Info/Debug events buffer up to this many per domain before forcing a
   flush; Warn/Error always flush immediately so the flight recorder and
   any sink see trouble as it happens. *)
let batch = 64

(* ------------------------------------------------------------------ *)
(* sinks + flush                                                       *)
(* ------------------------------------------------------------------ *)

let sinks : (string * (event -> unit)) list ref = ref []

(* Drain every domain buffer, sequence the events, push the ring and run
   the sinks. Call with [mu] held; returns the sinks that raised (they
   are detached inline - remove_sink here would self-deadlock - and the
   caller prints the warnings outside the lock). *)
let flush_locked () =
  let drained =
    List.concat_map
      (fun b ->
        Mutex.protect b.b_mu (fun () ->
            let l = List.of_seq (Queue.to_seq b.b_q) in
            Queue.clear b.b_q;
            l))
      (List.rev !buffers)
  in
  let failures = ref [] in
  List.iter
    (fun p ->
      incr seq;
      let e =
        {
          ev_seq = !seq;
          ev_ts = p.p_ts;
          ev_severity = p.p_severity;
          ev_component = p.p_component;
          ev_name = p.p_name;
          ev_attrs = p.p_attrs;
        }
      in
      if !capacity > 0 then begin
        Queue.push e ring;
        trim ()
      end;
      List.iter
        (fun (name, f) ->
          if not (List.mem_assoc name !failures) then
            match f e with
            | () -> ()
            | exception exn -> failures := (name, exn) :: !failures)
        !sinks)
    drained;
  List.iter
    (fun (name, _) -> sinks := List.remove_assoc name !sinks)
    !failures;
  !failures

let report_sink_failures failed =
  List.iter
    (fun (name, exn) ->
      Printf.eprintf "journal: sink %s failed (%s); removed\n%!" name
        (Printexc.to_string exn))
    failed

let flush () = report_sink_failures (locked flush_locked)

(* A spawned domain's buffer is flushed and dropped when the domain
   exits, so a server running one domain per connection holds only the
   live ones; [Domain.join] returns after this hook. *)
let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { b_mu = Mutex.create (); b_q = Queue.create () } in
      locked (fun () -> buffers := b :: !buffers);
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () ->
            report_sink_failures
              (locked (fun () ->
                   let failed = flush_locked () in
                   buffers := List.filter (( != ) b) !buffers;
                   failed)));
      b)

(* Sink changes flush first, so every event emitted before the change
   reaches exactly the sinks that were registered at emission time. *)
let add_sink name f =
  report_sink_failures
    (locked (fun () ->
         let failed = flush_locked () in
         sinks := (name, f) :: List.remove_assoc name !sinks;
         failed))

let remove_sink name =
  report_sink_failures
    (locked (fun () ->
         let failed = flush_locked () in
         sinks := List.remove_assoc name !sinks;
         failed))

let emit ?(severity = Info) ?(attrs = []) ~component name =
  let b = Domain.DLS.get buffer_key in
  let p =
    {
      p_ts = Clock.now ();
      p_severity = severity;
      p_component = component;
      p_name = name;
      p_attrs = attrs;
    }
  in
  let full =
    Mutex.protect b.b_mu (fun () ->
        Queue.push p b.b_q;
        Queue.length b.b_q >= batch)
  in
  match severity with
  | Warn | Error -> flush ()
  | Debug | Info -> if full then flush ()

(* ------------------------------------------------------------------ *)
(* reads                                                               *)
(* ------------------------------------------------------------------ *)

let events () =
  flush ();
  locked (fun () -> List.of_seq (Queue.to_seq ring))

let event_count () =
  flush ();
  locked (fun () -> !seq)

let clear () =
  locked (fun () ->
      (* discard, don't flush: cleared events must not resurface *)
      List.iter
        (fun b -> Mutex.protect b.b_mu (fun () -> Queue.clear b.b_q))
        !buffers;
      Queue.clear ring;
      seq := 0)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_to_json e =
  Json.obj
    [
      ("seq", Json.int e.ev_seq);
      ("ts", Json.num e.ev_ts);
      ("severity", Json.str (severity_to_string e.ev_severity));
      ("component", Json.str e.ev_component);
      ("event", Json.str e.ev_name);
      ("attrs", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) e.ev_attrs));
    ]

let to_jsonl () =
  String.concat ""
    (List.map (fun e -> event_to_json e ^ "\n") (events ()))

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

(* append, never truncate: a crash-restart writing to the same path
   must not overwrite the pre-crash tail *)
let open_append =
  Out_channel.open_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644

(* A journal that cannot be written must never take the tool down: warn
   once and run without the sink (write failures mid-run are handled
   the same way by the flush guard, which detaches a raising sink). *)
let open_sink_file file =
  match open_append file with
  | oc -> Some oc
  | exception Sys_error msg ->
    Printf.eprintf "journal: cannot open %s (%s); continuing without it\n%!"
      file msg;
    None

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
  let idx = ref idx in
  match open_sink_file (path !idx) with
  | None -> ()
  | Some first ->
    let oc = ref first in
    let bytes = ref 0 in
    (* drain events still buffered in the domains before the channel
       closes at exit *)
    at_exit (fun () ->
        flush ();
        try Out_channel.close !oc with Sys_error _ -> ());
    add_sink ("jsonl:" ^ file) (fun e ->
        let json = event_to_json e in
        Out_channel.output_string !oc json;
        Out_channel.output_char !oc '\n';
        Out_channel.flush !oc;
        bytes := !bytes + String.length json + 1;
        if !bytes >= limit then begin
          (try Unix.fsync (Unix.descr_of_out_channel !oc)
           with Unix.Unix_error _ -> ());
          (try Out_channel.close !oc with Sys_error _ -> ());
          incr idx;
          (* a failed open raises out of the sink; the flush guard
             detaches it with a warning, same as any write failure *)
          oc := open_append (path !idx);
          bytes := 0
        end)

(* ------------------------------------------------------------------ *)
(* flight recorder dumps                                               *)
(* ------------------------------------------------------------------ *)

let dump_printer = ref prerr_string
let set_dump_printer f = dump_printer := f

let dump_flight_recorder ?(limit = 32) ~reason () =
  let all = events () in
  let total = List.length all in
  let window =
    if total <= limit then all
    else
      (* keep the trailing [limit] events *)
      List.filteri (fun i _ -> i >= total - limit) all
  in
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

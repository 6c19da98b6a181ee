(* ------------------------------------------------------------------ *)
(* dot-stuffing (SMTP-style)                                           *)
(* ------------------------------------------------------------------ *)

let unstuff line =
  if String.length line >= 2 && line.[0] = '.' && line.[1] = '.' then
    String.sub line 1 (String.length line - 1)
  else line

let stuff line =
  if String.length line > 0 && line.[0] = '.' then "." ^ line else line

let read_body ic =
  let rec go acc =
    match In_channel.input_line ic with
    | None | Some "." -> List.rev acc
    | Some line -> go (unstuff line :: acc)
  in
  String.concat "\n" (go [])

(* ------------------------------------------------------------------ *)
(* the protocol engine                                                 *)
(* ------------------------------------------------------------------ *)

type submit_fn = Portal.request -> Portal.outcome

let max_protocol_version = 2

let protocol_help =
  "expected TOOL <name> [<session>] [TRACE <id>], SESSION <id>, LIST, \
   SHUTDOWN or QUIT"

(* When the client supplied a TRACE id, every status line echoes it as
   a trailing " trace=<id>" operand - the backward-compatible hook a
   load generator joins its client-side journal on. *)
let respond ?trace oc status body =
  Out_channel.output_string oc status;
  (match trace with
  | Some id ->
    Out_channel.output_string oc " trace=";
    Out_channel.output_string oc id
  | None -> ());
  Out_channel.output_char oc '\n';
  if body <> "" then
    List.iter
      (fun l ->
        Out_channel.output_string oc (stuff l);
        Out_channel.output_char oc '\n')
      (String.split_on_char '\n' body);
  Out_channel.output_string oc ".\n";
  Out_channel.flush oc

let respond_outcome ?trace oc = function
  | Portal.Executed out -> respond ?trace oc "OK executed" out
  | Portal.Cache_hit out -> respond ?trace oc "OK cache_hit" out
  | Portal.Rejected r ->
    respond ?trace oc
      (Printf.sprintf "ERR %s %s" (Portal.reason_label r)
         (Portal.reason_message r))
      ""

let trace_of_status status =
  match String.rindex_opt status ' ' with
  | Some i
    when String.length status - i > 7
         && String.sub status (i + 1) 6 = "trace=" ->
    Some (String.sub status (i + 7) (String.length status - i - 7))
  | _ -> None

let handle_tool ~input ~output ~submit ~session_id ~trace name =
  (* always read the dot-terminated body first - erroring out before
     consuming it would desynchronize the stream *)
  let body = read_body input in
  match trace with
  | Some id when not (Vc_util.Trace_ctx.is_valid_id id) ->
    respond output "ERR trace invalid trace id (4-64 lowercase hex chars)" ""
  | _ -> (
    match Portal.resolve_tool name with
    | Error msg -> respond ?trace output ("ERR unknown " ^ msg) ""
    | Ok tool ->
      respond_outcome ?trace output
        (submit (Portal.request ?trace ~session:session_id tool body)))

let session_loop ?(session_id = "default") ~input ~output ~submit () =
  (* [proto] is the negotiated protocol version: 1 until the client
     sends HELLO (so a version-less client gets v1 byte-identically),
     then [min requested max_protocol_version]. v2 adds PING. *)
  let rec loop session_id proto =
    match In_channel.input_line input with
    | None -> `Eof
    | Some raw -> (
      let line = String.trim raw in
      match String.split_on_char ' ' line with
      | [ "" ] -> loop session_id proto
      | [ "QUIT" ] -> `Quit
      | [ "SHUTDOWN" ] ->
        respond output "OK shutting down" "";
        `Shutdown
      | [ "HELLO"; v ] -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
          let negotiated = min n max_protocol_version in
          respond output (Printf.sprintf "OK proto %d" negotiated) "";
          loop session_id negotiated
        | _ ->
          respond output "ERR protocol HELLO takes a version number >= 1" "";
          loop session_id proto)
      | [ "PING" ] when proto >= 2 ->
        respond output "OK pong" "";
        loop session_id proto
      | [ "LIST" ] ->
        respond output "OK tools"
          (String.concat "\n"
             (List.map
                (fun t -> t.Portal.tool_name ^ " - " ^ t.Portal.description)
                Portal.all_tools));
        loop session_id proto
      | [ "SESSION"; id ] ->
        respond output ("OK session " ^ id) "";
        loop id proto
      | [ "TOOL"; name ] ->
        handle_tool ~input ~output ~submit ~session_id ~trace:None name;
        loop session_id proto
      | [ "TOOL"; name; "TRACE"; id ] ->
        (* TRACE is a reserved word in the session position *)
        handle_tool ~input ~output ~submit ~session_id ~trace:(Some id) name;
        loop session_id proto
      | [ "TOOL"; name; session ] ->
        (* per-request session: submit on its behalf without switching
           the connection's sticky session *)
        handle_tool ~input ~output ~submit ~session_id:session ~trace:None
          name;
        loop session_id proto
      | [ "TOOL"; name; session; "TRACE"; id ] ->
        handle_tool ~input ~output ~submit ~session_id:session
          ~trace:(Some id) name;
        loop session_id proto
      | _ ->
        respond output ("ERR protocol " ^ protocol_help) "";
        loop session_id proto)
  in
  loop session_id 1

(* ------------------------------------------------------------------ *)
(* TCP server                                                          *)
(* ------------------------------------------------------------------ *)

(* Live connections are tracked in a lock-free registry so [shutdown]
   can run inside a signal handler: it flips atomics and half-closes
   descriptors, never takes a lock. A closing connection only marks
   itself (c_closed), which keeps [shutdown] off a reused descriptor
   number; the next registration drops marked entries in the same CAS
   that adds its own, so the registry holds the live connections plus
   at most those closed since the last accept. *)
type conn = { c_fd : Unix.file_descr; c_closed : bool Atomic.t }

type listener = {
  l_sock : Unix.file_descr;
  l_port : int;
  l_addr : string;
  l_stopping : bool Atomic.t;
  l_conns : conn list Atomic.t;
  l_active : int Atomic.t;
}

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let listen ?(addr = "127.0.0.1") ~port () =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock 64
   with
  | () -> ()
  | exception e ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    raise e);
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Vc_util.Journal.emit ~component:"wire"
    ~attrs:[ ("addr", addr); ("port", string_of_int bound_port) ]
    "listener.start";
  {
    l_sock = sock;
    l_port = bound_port;
    l_addr = addr;
    l_stopping = Atomic.make false;
    l_conns = Atomic.make [];
    l_active = Atomic.make 0;
  }

let port t = t.l_port
let addr t = t.l_addr
let active_connections t = Atomic.get t.l_active
let registered_connections t = List.length (Atomic.get t.l_conns)

let register_conn t conn =
  let rec add () =
    let cur = Atomic.get t.l_conns in
    let live = List.filter (fun c -> not (Atomic.get c.c_closed)) cur in
    if not (Atomic.compare_and_set t.l_conns cur (conn :: live)) then add ()
  in
  add ()

let shutdown t =
  if not (Atomic.exchange t.l_stopping true) then begin
    (try Unix.close t.l_sock with Unix.Unix_error _ -> ());
    List.iter
      (fun c ->
        if not (Atomic.get c.c_closed) then
          try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
      (Atomic.get t.l_conns)
  end

let handle_connection t ~submit fd =
  let conn = { c_fd = fd; c_closed = Atomic.make false } in
  register_conn t conn;
  Atomic.incr t.l_active;
  let input = Unix.in_channel_of_descr fd in
  let output = Unix.out_channel_of_descr fd in
  let finish () =
    Atomic.set conn.c_closed true;
    (* In_channel.close closes the shared descriptor; flush the write
       side first, ignoring errors from a peer that already hung up *)
    (try Out_channel.flush output with Sys_error _ -> ());
    (try In_channel.close input with Sys_error _ -> ());
    Atomic.decr t.l_active;
    Vc_util.Journal.emit ~component:"wire" "conn.closed"
  in
  Fun.protect ~finally:finish (fun () ->
      Vc_util.Journal.emit ~component:"wire" "conn.accepted";
      match session_loop ~input ~output ~submit () with
      | `Eof | `Quit -> ()
      | `Shutdown -> shutdown t
      | exception Sys_error _ ->
        (* peer reset mid-exchange; treat as EOF *)
        ())

(* No domain to spare (OCaml 5.1 caps live domains at 128): shed the
   connection with one reply instead of letting the failure stop the
   accept loop. Counted before the reply, so a client that reads it
   also sees the count; the fd is fresh, so the short write cannot
   block. *)
let reject_connection fd =
  Vc_util.Telemetry.incr "wire.conn.rejected";
  Vc_util.Journal.emit ~severity:Vc_util.Journal.Warn ~component:"wire"
    ~attrs:[ ("reason", "too many connections") ]
    "conn.rejected";
  let reply = "ERR overloaded too many connections\n.\n" in
  (try ignore (Unix.write_substring fd reply 0 (String.length reply))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve t ~submit =
  (* The accept loop polls instead of blocking indefinitely: a pending
     OCaml signal handler (SIGINT -> [shutdown]) only runs when a
     domain reaches a safepoint, and the kernel may deliver the signal
     to a connection domain blocked in a read, or parked in
     [Condition.wait] for an execution slot, that never will.
     Returning to OCaml every quarter second guarantees this domain
     processes pending signals itself, making Ctrl-C deterministic
     instead of a thread-delivery lottery. *)
  (try Unix.set_nonblock t.l_sock with Unix.Unix_error _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.l_stopping) then begin
      match Unix.accept t.l_sock with
      | fd, _ ->
        (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
        (match
           Domain.spawn (fun () ->
               try handle_connection t ~submit fd
               with e ->
                 Printf.eprintf "wire: connection handler failed: %s\n%!"
                   (Printexc.to_string e))
         with
        | _ -> ()
        | exception Failure _ -> reject_connection fd);
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (match Unix.select [ t.l_sock ] [] [] 0.25 with
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* listener closed by [shutdown] *)
        ()
    end
  in
  accept_loop ();
  Vc_util.Journal.emit ~component:"wire"
    ~attrs:[ ("port", string_of_int t.l_port) ]
    "listener.stop"

let drain_connections ?(timeout_s = 5.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if Atomic.get t.l_active = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.01);
      wait ()
    end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : In_channel.t; oc : Out_channel.t }

  (* [timeout_s], when given, bounds each socket call, the connect
     included; a channel read that times out raises Sys_blocked_io *)
  let open_client ?(host = "127.0.0.1") ?timeout_s ~port () =
    ignore_sigpipe ();
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (match
       Option.iter
         (fun s ->
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO s)
         timeout_s;
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
     with
    | () -> ()
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
    }

  let connect ?host ~port () = open_client ?host ~port ()

  let read_reply t =
    match In_channel.input_line t.ic with
    | None -> failwith "wire client: connection closed by server"
    | Some status -> (status, read_body t.ic)

  let submit t ?session ?trace ~tool input =
    let trace_op =
      match trace with Some id -> " TRACE " ^ id | None -> ""
    in
    (match session with
    | None -> Printf.fprintf t.oc "TOOL %s%s\n" tool trace_op
    | Some s -> Printf.fprintf t.oc "TOOL %s %s%s\n" tool s trace_op);
    List.iter
      (fun l ->
        Out_channel.output_string t.oc (stuff l);
        Out_channel.output_char t.oc '\n')
      (String.split_on_char '\n' input);
    Out_channel.output_string t.oc ".\n";
    Out_channel.flush t.oc;
    read_reply t

  let hello t version =
    Printf.fprintf t.oc "HELLO %d\n" version;
    Out_channel.flush t.oc;
    match read_reply t with
    | status, _ -> (
      match String.split_on_char ' ' status with
      | [ "OK"; "proto"; v ] -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> failwith ("wire client: bad HELLO reply: " ^ status))
      | _ -> failwith ("wire client: HELLO rejected: " ^ status))

  let ping t =
    Out_channel.output_string t.oc "PING\n";
    Out_channel.flush t.oc;
    match read_reply t with status, _ -> status = "OK pong"

  let list_tools t =
    Out_channel.output_string t.oc "LIST\n";
    Out_channel.flush t.oc;
    snd (read_reply t)

  let shutdown_server t =
    Out_channel.output_string t.oc "SHUTDOWN\n";
    Out_channel.flush t.oc;
    ignore (read_reply t)

  let close t =
    (try
       Out_channel.output_string t.oc "QUIT\n";
       Out_channel.flush t.oc
     with Sys_error _ | Sys_blocked_io -> ());
    try In_channel.close t.ic with Sys_error _ -> ()

  (* A health probe must not wait on a backend that accepts (or whose
     kernel backlog does) but never answers. *)
  let probe_timeout_s = 1.0

  let probe ?host ~port () =
    match open_client ?host ~timeout_s:probe_timeout_s ~port () with
    | exception (Unix.Unix_error _ | Sys_error _ | Failure _) -> false
    | c ->
      let ok =
        try hello c 2 >= 2 && ping c
        with
        | Failure _ | Sys_error _ | Sys_blocked_io | End_of_file
        | Unix.Unix_error _ ->
          false
      in
      close c;
      ok
end

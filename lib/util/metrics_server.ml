(* Single-threaded HTTP/1.1 exporter over the stdlib Unix socket API.
   One connection at a time, Connection: close - a scrape is a few KB of
   text, so the simple loop keeps up with any sane scrape interval. Each
   connection gets [client_deadline_s] from accept, so a silent client
   cannot hold the loop. *)

type t = {
  sock : Unix.file_descr;
  bound_port : int;
  metrics : unit -> string;
  on_request : string -> unit;
  mutable stopped : bool;
}

let port t = t.bound_port

(* A scraper that hangs up mid-response turns our write into SIGPIPE,
   which would kill the process; ignore it and let write raise EPIPE. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let start ?(addr = "127.0.0.1") ?(announce = true) ?(on_request = ignore)
    ~metrics ~port () =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock 16
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
  if announce then
    Printf.eprintf "metrics: serving http://%s:%d/metrics\n%!" addr bound_port;
  { sock; bound_port; metrics; on_request; stopped = false }

(* ------------------------------------------------------------------ *)
(* request/response                                                    *)
(* ------------------------------------------------------------------ *)

(* Read until the end of the request head (blank line) or a size cap;
   we never read a body - every route is GET. Each chunk is scanned
   once, in a window that carries the last 3 bytes of the previous
   chunk (the longest terminator prefix that can span the boundary), so
   the whole head costs O(length) instead of the old rescan-from-zero
   O(length^2). *)
let read_head ~before_read fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let has_terminator s =
    let n = String.length s in
    let rec go i =
      i + 2 <= n
      && ((s.[i] = '\n' && s.[i + 1] = '\n')
         || (i + 4 <= n && String.sub s i 4 = "\r\n\r\n")
         || go (i + 1))
    in
    go 0
  in
  let rec loop carry =
    if Buffer.length buf > 8192 then Buffer.contents buf
    else begin
      let n =
        try
          before_read ();
          Unix.read fd chunk 0 (Bytes.length chunk)
        with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
      in
      if n = 0 then Buffer.contents buf
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        let window = carry ^ Bytes.sub_string chunk 0 n in
        if has_terminator window then Buffer.contents buf
        else
          let keep = min 3 (String.length window) in
          loop (String.sub window (String.length window - keep) keep)
      end
    end
  in
  loop ""

let request_line head =
  match String.index_opt head '\n' with
  | None -> head
  | Some i -> String.trim (String.sub head 0 i)

let write_all ?(before_write = ignore) fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then begin
      before_write ();
      let n = Unix.write fd b off (Bytes.length b - off) in
      go (off + n)
    end
  in
  try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* ------------------------------------------------------------------ *)
(* extra routes and readiness                                          *)
(* ------------------------------------------------------------------ *)

(* A process-global route registry: subsystems that want a live surface
   (the Timeseries sampler's /varz and /profile) register here without
   the exporter having to depend on them. /readyz consults a
   caller-supplied probe - vcserve flips it to "draining" when graceful
   shutdown starts, so a load balancer stops sending traffic while the
   queue drains. *)

type reply = { rp_status : string; rp_content_type : string; rp_body : string }

let routes_mu = Mutex.create ()
let extra_routes : (string, unit -> reply) Hashtbl.t = Hashtbl.create 8
let ready_probe : (unit -> bool) option ref = ref None

let register_route path handler =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg "Metrics_server.register_route: path must start with '/'";
  Mutex.protect routes_mu (fun () -> Hashtbl.replace extra_routes path handler)

let unregister_route path =
  Mutex.protect routes_mu (fun () -> Hashtbl.remove extra_routes path)

let set_ready_probe f = Mutex.protect routes_mu (fun () -> ready_probe := Some f)

let registered_routes () =
  Mutex.protect routes_mu (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) extra_routes [])
  |> List.sort compare

let all_routes () = [ "/metrics"; "/healthz"; "/readyz" ] @ registered_routes ()

let route t line =
  match String.split_on_char ' ' line with
  | meth :: path :: _ when meth <> "GET" ->
    t.on_request path;
    response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
      "method not allowed\n"
  | "GET" :: path :: _ -> begin
    t.on_request path;
    (* strip any query string before routing *)
    let path =
      match String.index_opt path '?' with
      | Some i -> String.sub path 0 i
      | None -> path
    in
    match path with
    | "/metrics" ->
      let body =
        match t.metrics () with
        | body -> body
        | exception e ->
          Printf.sprintf "# metrics renderer failed: %s\n"
            (Printexc.to_string e)
      in
      response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4; charset=utf-8" body
    | "/healthz" ->
      response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
    | "/readyz" ->
      let ready =
        match Mutex.protect routes_mu (fun () -> !ready_probe) with
        | None -> true (* no probe installed: alive means ready *)
        | Some probe -> ( try probe () with _ -> false)
      in
      if ready then response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
      else
        response ~status:"503 Service Unavailable" ~content_type:"text/plain"
          "draining\n"
    | path -> begin
      match Mutex.protect routes_mu (fun () -> Hashtbl.find_opt extra_routes path) with
      | Some handler ->
        let rep =
          match handler () with
          | rep -> rep
          | exception e ->
            {
              rp_status = "500 Internal Server Error";
              rp_content_type = "text/plain";
              rp_body =
                Printf.sprintf "route handler failed: %s\n"
                  (Printexc.to_string e);
            }
        in
        response ~status:rep.rp_status ~content_type:rep.rp_content_type
          rep.rp_body
      | None ->
        response ~status:"404 Not Found" ~content_type:"text/plain"
          (Printf.sprintf "not found (try %s)\n"
             (String.concat ", " (all_routes ())))
    end
  end
  | _ ->
    response ~status:"400 Bad Request" ~content_type:"text/plain"
      "bad request\n"

(* From accept to the last byte written. A client that sends nothing, or
   drips bytes, loses its connection when this runs out instead of
   holding the serving loop and the exit hook that joins it. *)
let client_deadline_s = 2.0

let handle_client t fd =
  let deadline = Unix.gettimeofday () +. client_deadline_s in
  (* before each read or write, the time left becomes the socket's
     timeout; a timed-out call raises EAGAIN. Under a millisecond is
     spent: a zero timeout would mean none. *)
  let arm opt () =
    let left = deadline -. Unix.gettimeofday () in
    if left < 1e-3 then raise (Unix.Unix_error (Unix.EAGAIN, "deadline", ""));
    Unix.setsockopt_float fd opt left
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        let head = read_head ~before_read:(arm Unix.SO_RCVTIMEO) fd in
        if head <> "" then
          write_all ~before_write:(arm Unix.SO_SNDTIMEO) fd
            (route t (request_line head))
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())

(* ------------------------------------------------------------------ *)
(* serving loops                                                       *)
(* ------------------------------------------------------------------ *)

let accept_one t =
  match Unix.accept t.sock with
  | fd, _ ->
    (match handle_client t fd with
    | () -> ()
    | exception e ->
      Printf.eprintf "metrics: request handler failed: %s\n%!"
        (Printexc.to_string e));
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> false (* stopped *)
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false (* stopped *)

let serve t =
  let live = ref true in
  while !live && not t.stopped do
    live := accept_one t
  done

let serve_forever t =
  serve t;
  (* only reachable after stop (); behave like a clean shutdown *)
  exit 0

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* a close from another domain does not wake a blocked accept on
       Linux; poke the listener with a throwaway connection so the
       serving loop observes [stopped] and exits *)
    (try
       let addr =
         match Unix.getsockname t.sock with
         | Unix.ADDR_INET (a, p) -> Unix.ADDR_INET (a, p)
         | other -> other
       in
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
         (fun () -> Unix.connect s addr)
     with Unix.Unix_error _ -> ());
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

(* The matching one-shot GET, for vctop and the smoke harnesses: the
   exporter speaks Connection: close, so "read to EOF" is the framing. *)
let fetch ?(host = "127.0.0.1") ~port path =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      write_all sock
        (Printf.sprintf
           "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path
           host);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        match String.index_opt raw '\n' with
        | Some i -> String.trim (String.sub raw 0 i)
        | None -> String.trim raw
      in
      let body =
        let rec find i =
          if i + 4 > String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let start = find 0 in
        String.sub raw start (String.length raw - start)
      in
      (status, body))

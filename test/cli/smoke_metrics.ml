(* smoke_metrics: end-to-end check of the live metrics exporter.
   Usage: smoke_metrics FLOW_EXE DESIGN.blif

   Starts `FLOW_EXE --metrics-port 0 DESIGN.blif` as a child process,
   learns the ephemeral port from the stderr announcement, opens one
   connection that never sends a byte, and while it stays open scrapes
   GET /healthz and GET /metrics with a hand-rolled HTTP client over the
   stdlib Unix socket API: the exporter serves one connection at a time,
   so it must drop the silent one to answer. Asserts the exposition
   carries at least one counter, one gauge and one histogram family
   (with _bucket/_sum/_count series). Each scrape waits at most
   [answer_s] for its answer. Exits non-zero with a message on the first
   failure; the child is always killed. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke_metrics: " ^ s);
      exit 1)
    fmt

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* Wait (up to ~10s) for the "metrics: serving http://127.0.0.1:PORT"
   announcement to land in the child's stderr file. *)
let wait_for_port stderr_file =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let marker = "http://127.0.0.1:" in
  let rec poll () =
    let text =
      try In_channel.with_open_text stderr_file In_channel.input_all
      with Sys_error _ -> ""
    in
    if contains text marker then begin
      let rec find i =
        if String.sub text i (String.length marker) = marker then i
        else find (i + 1)
      in
      let start = find 0 + String.length marker in
      let rec digits i =
        if i < String.length text && text.[i] >= '0' && text.[i] <= '9' then
          digits (i + 1)
        else i
      in
      let stop = digits start in
      int_of_string (String.sub text start (stop - start))
    end
    else if Unix.gettimeofday () > deadline then
      die "timed out waiting for the metrics announcement in %s" stderr_file
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* A connection to the exporter, retried while it is not listening yet. *)
let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match Unix.connect sock addr with
    | () -> sock
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go ()
  in
  go ()

(* How long a scrape waits for its answer: longer than the exporter's
   per-connection deadline, which is how long the silent connection can
   hold it. *)
let answer_s = 5.0

(* Minimal HTTP GET over a fresh connection; returns the whole response
   (head + body) once the server closes the socket. *)
let http_get port path =
  let sock = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO answer_s;
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
          path
      in
      let b = Bytes.of_string req in
      ignore (Unix.write sock b 0 (Bytes.length b));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      (try drain () with
      | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        die "GET %s: no answer within %.0f s" path answer_s);
      Buffer.contents buf)

let () =
  let flow_exe, design =
    match Sys.argv with
    | [| _; exe; design |] -> (exe, design)
    | _ -> die "usage: smoke_metrics FLOW_EXE DESIGN.blif"
  in
  let stderr_file = "smoke_metrics_stderr.txt" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let errfd =
    Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process flow_exe
      [| flow_exe; "--metrics-port"; "0"; design |]
      Unix.stdin devnull errfd
  in
  Unix.close devnull;
  Unix.close errfd;
  (* at_exit, not Fun.protect: [die] exits without unwinding *)
  at_exit (fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0)));
  let port = wait_for_port stderr_file in
  let silent = connect port in
  let health = http_get port "/healthz" in
  if not (contains health "200 OK" && contains health "ok") then
    die "/healthz did not answer ok:\n%s" health;
  let resp = http_get port "/metrics" in
  if not (contains resp "200 OK") then die "/metrics not 200:\n%s" resp;
  if not (contains resp "text/plain; version=0.0.4") then
    die "/metrics missing the exposition content type";
  List.iter
    (fun needle ->
      if not (contains resp needle) then
        die "/metrics missing %S in:\n%s" needle resp)
    [
      (* one family of each kind, with the full histogram series *)
      "# TYPE vc_journal_events_total counter";
      "# TYPE vc_metrics_port gauge";
      " histogram\n";
      "_seconds_bucket{le=\"";
      "_bucket{le=\"+Inf\"}";
      "_seconds_sum";
      "_seconds_count";
    ];
  Unix.close silent;
  print_endline "smoke_metrics: ok"

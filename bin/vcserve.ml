(* vcserve: the multicore portal service behind a line protocol.

   Usage: vcserve [--stats] [--journal FILE]
                  [--journal-segments BYTES] [--metrics-port N]
                  [-workers N] [-queue N] [-deadline S] [-rate R]
                  [-burst B] [-cache-dir DIR] [-sample-interval S]
                  [-listen PORT] [script-file]

   Without -listen, requests are read from the script file (stdin when
   absent); with -listen PORT the same protocol is served over TCP
   (port 0 picks an ephemeral port, announced on stderr) to any number
   of concurrent connections - one handler domain each, which runs its
   own jobs in the shared server's execution slots (-workers N of them).
   See Mooc.Wire for the protocol:

     TOOL <name> [<session>] [TRACE <id>]
                              submit the following lines to a tool
     <input lines>            terminated by a line containing only "."
     SESSION <id>             switch the sticky client session
     LIST                     list the available tools
     HELLO <version>          negotiate the protocol version
     PING                     liveness probe (proto >= 2)
     SHUTDOWN                 stop the whole server (drain first)
     QUIT                     close this connection (EOF works too)

   Responses are one status line (OK executed / OK cache_hit /
   ERR <label> <msg>), an optional dot-stuffed body, and a "." line;
   a traced request's status line ends in trace=<id>, and its journal
   events carry the id as a trace_id attr (join them against a vcload
   client journal with vcstat request).

   With --metrics-port the exporter serves live for the whole run:
   GET /metrics, /healthz, /readyz (503 draining once shutdown starts),
   /varz (the JSON console snapshot vctop polls) and /profile (folded
   stacks). A background sampler feeds /varz every -sample-interval
   seconds (default 0.5; <= 0 disables) and drives the continuous
   profiler.

   Shutdown is always graceful: on SHUTDOWN, SIGINT or SIGTERM the
   server stops admitting, lets admitted jobs finish, and flushes the journal
   and telemetry sinks before exiting - the tail of a replay run is
   never lost. *)

module Portal = Vc_mooc.Portal
module Server = Vc_mooc.Server
module Wire = Vc_mooc.Wire
module Timeseries = Vc_util.Timeseries

let usage () =
  prerr_endline
    "usage: vcserve [--stats] [--journal FILE] \
     [--journal-segments BYTES]\n\
    \               [--metrics-port N] [-workers N] [-queue N] [-deadline S] \
     [-rate R]\n\
    \               [-burst B] [-cache-dir DIR] [-sample-interval S]\n\
    \               [-listen PORT] [script-file]";
  exit 2

let parse_args argv =
  let config = ref Server.default_config in
  let file = ref None in
  let rate = ref None in
  let burst = ref 5.0 in
  let listen_port = ref None in
  let cache_dir = ref (Sys.getenv_opt "VC_CACHE_DIR") in
  let sample_interval = ref (Timeseries.default_interval ()) in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let float_of s =
    match float_of_string_opt s with Some f -> f | None -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "-workers" :: n :: rest ->
      config := { !config with Server.workers = int_of n };
      go rest
    | "-queue" :: n :: rest ->
      config := { !config with Server.queue_capacity = int_of n };
      go rest
    | "-deadline" :: s :: rest ->
      config := { !config with Server.deadline_s = float_of s };
      go rest
    | "-rate" :: r :: rest ->
      rate := Some (float_of r);
      go rest
    | "-burst" :: b :: rest ->
      burst := float_of b;
      go rest
    | "-cache-dir" :: dir :: rest ->
      (* durable spill tier under the memory cache; warm-starts from
         whatever a previous run left behind *)
      cache_dir := Some dir;
      go rest
    | "-sample-interval" :: s :: rest ->
      sample_interval := float_of s;
      go rest
    | "-listen" :: p :: rest ->
      listen_port := Some (int_of p);
      go rest
    | [ path ] when !file = None && String.length path > 0 && path.[0] <> '-'
      ->
      file := Some path
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  (match !rate with
  | Some r -> config := { !config with Server.rate_limit = Some (r, !burst) }
  | None -> ());
  (* open (and warm-start from) the spill directory before any traffic *)
  Option.iter Portal.set_cache_dir !cache_dir;
  (!config, !file, !listen_port, !sample_interval)

(* /readyz flips to 503 the moment any shutdown path begins, so a load
   balancer stops routing to a draining replica before the socket
   actually closes *)
let draining = Atomic.make false

(* a config Server.start rejects (-workers 0, -burst 0, -rate nan,
   -rate inf) is a usage error: its message, then exit 2. To run
   without a rate limit, leave -rate out. *)
let start_server config =
  try Server.start ~config ()
  with Invalid_argument msg ->
    prerr_endline ("vcserve: " ^ msg);
    exit 2

let start_console sample_interval =
  Vc_util.Metrics_server.set_ready_probe (fun () -> not (Atomic.get draining));
  Timeseries.Sampler.start ~interval:sample_interval
    ~sources:Timeseries.server_sources ()

(* Graceful drain shared by every exit path: stop admitting, let the
   running and waiting jobs finish, stop the sampler, then force the
   buffered journal batches to the sinks - the fix for losing the tail
   of a run to a SIGINT. *)
let drain_and_exit sampler server =
  Atomic.set draining true;
  Server.stop server;
  Timeseries.Sampler.stop sampler;
  Vc_util.Journal.flush ();
  exit 0

let serve_script config sample_interval file =
  let ic =
    match file with
    | None -> stdin
    | Some path -> (
      try In_channel.open_text path
      with Sys_error msg ->
        prerr_endline ("vcserve: " ^ msg);
        exit 2)
  in
  let server = start_server config in
  let sampler = start_console sample_interval in
  Printf.eprintf "vcserve: %d worker(s), queue capacity %d\n%!"
    config.Server.workers config.Server.queue_capacity;
  (* SIGINT/SIGTERM: close the input so the protocol loop sees EOF and
     the normal drain path runs *)
  let fd = Unix.descr_of_in_channel ic in
  let on_signal _ =
    Atomic.set draining true;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (try
     ignore
       (Wire.session_loop ~input:ic ~output:stdout
          ~submit:(Server.submit server) ())
   with Sys_error _ -> ());
  drain_and_exit sampler server

let serve_tcp config sample_interval port =
  let server = start_server config in
  let sampler = start_console sample_interval in
  let listener = Wire.listen ~port () in
  (* the test harness and vcload parse this line for the bound port *)
  Printf.eprintf "vcserve: listening on %s:%d (%d worker(s), queue %d)\n%!"
    (Wire.addr listener) (Wire.port listener) config.Server.workers
    config.Server.queue_capacity;
  (* Wire.shutdown is async-signal-safe: atomics and closes only *)
  let on_signal _ =
    Atomic.set draining true;
    Wire.shutdown listener
  in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  Wire.serve listener ~submit:(Server.submit server);
  (* accept loop has exited (SHUTDOWN verb or signal): let the running
     and waiting jobs finish so in-flight connections get their
     responses, give their handler domains a moment to finish writing,
     then flush *)
  Atomic.set draining true;
  Server.stop server;
  if not (Wire.drain_connections listener) then
    prerr_endline "vcserve: timed out waiting for connections to close";
  Timeseries.Sampler.stop sampler;
  Vc_util.Journal.flush ();
  exit 0

let () =
  let argv = Vc_util.Telemetry.cli ~server:true Sys.argv in
  let config, file, listen_port, sample_interval = parse_args argv in
  match listen_port with
  | Some port -> serve_tcp config sample_interval port
  | None -> serve_script config sample_interval file

(* vcfront: a consistent-hash shard router in front of N vcserve
   backends.

   Usage: vcfront [--stats] [--journal FILE] [--journal-segments BYTES]
                  [--metrics-port N] -listen PORT
                  -backend HOST:PORT [-backend HOST:PORT ...]
                  [-check-interval S]

   Speaks the same Mooc.Wire line protocol as vcserve on the front
   socket and forwards each TOOL submission to a backend chosen by
   consistent-hashing the request's session id (Vc_util.Hashring), so
   a given participant always lands on the same vcserve shard - which
   is what makes each shard's result cache and rate-limit bucket
   effective. LIST and tool-name resolution are answered locally (the
   tool set is identical everywhere by construction).

   A health-prober domain checks every backend each -check-interval
   seconds over the versioned wire handshake (HELLO 2, then PING;
   Wire.Client.probe, whose socket calls give up after 1 s) and
   removes dead backends from the ring; the keys they owned remap to
   the survivors while everyone else's mapping is untouched - the
   consistent-hash property. A submission that hits a dead backend is
   retried transparently against the re-routed ring (tools are pure,
   so a replayed submission is idempotent); only when all 3 retries are
   exhausted does the client see ERR overloaded. Recovered backends
   rejoin the ring at the next probe.

   Observability: front.routed / front.retries / front.failover
   counters, the front.backends.up gauge, and front.backend.up /
   front.backend.down journal events (the down transition at WARN). *)

module Portal = Vc_mooc.Portal
module Wire = Vc_mooc.Wire
module Hashring = Vc_util.Hashring
module J = Vc_util.Journal
module T = Vc_util.Telemetry

let usage () =
  prerr_endline
    "usage: vcfront [--stats] [--journal FILE] [--journal-segments BYTES]\n\
    \               [--metrics-port N] -listen PORT\n\
    \               -backend HOST:PORT [-backend HOST:PORT ...]\n\
    \               [-check-interval S]";
  exit 2

(* ------------------------------------------------------------------ *)
(* backends and the ring                                               *)
(* ------------------------------------------------------------------ *)

type backend = {
  b_name : string;  (* "host:port" - the ring key and journal label *)
  b_host : string;
  b_port : int;
  b_up : bool Atomic.t;
}

let backends : backend array ref = ref [||]

(* The ring is immutable; transitions build a new one from the up
   backends and swap it in, so the hot routing path is one Atomic.get
   and a binary search - no locks. *)
let ring : backend Hashring.t Atomic.t = Atomic.make (Hashring.make [])

let rebuild_ring () =
  let up =
    Array.to_list !backends |> List.filter (fun b -> Atomic.get b.b_up)
  in
  Atomic.set ring (Hashring.make (List.map (fun b -> (b.b_name, b)) up));
  T.set_gauge "front.backends.up" (float_of_int (List.length up))

let set_up b up =
  if Atomic.exchange b.b_up up <> up then begin
    rebuild_ring ();
    if up then
      J.emit ~component:"front"
        ~attrs:[ ("backend", b.b_name) ]
        "backend.up"
    else
      J.emit ~severity:J.Warn ~component:"front"
        ~attrs:[ ("backend", b.b_name) ]
        "backend.down";
    (* transitions are rare and operators poll the journal for them *)
    J.flush ()
  end

let parse_backend spec =
  match String.rindex_opt spec ':' with
  | Some i when i > 0 && i < String.length spec - 1 -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      { b_name = spec; b_host = host; b_port = p; b_up = Atomic.make true }
    | _ ->
      Printf.eprintf "vcfront: bad backend port in %S\n" spec;
      exit 2)
  | _ ->
    Printf.eprintf "vcfront: bad backend %S (expected HOST:PORT)\n" spec;
    exit 2

(* ------------------------------------------------------------------ *)
(* per-domain connection cache                                         *)
(* ------------------------------------------------------------------ *)

(* Each connection-handler domain keeps one upstream connection per
   backend, created lazily and dropped on the first error. A handler
   domain exits when its client disconnects, and its exit hook closes
   the cache: OCaml does not close a channel it collects, so without
   the hook every client connection would leak one upstream
   connection. *)
let conns_key :
    (string, Wire.Client.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tbl = Hashtbl.create 4 in
      Domain.at_exit (fun () ->
          Hashtbl.iter (fun _ c -> try Wire.Client.close c with _ -> ()) tbl);
      tbl)

let get_conn b =
  let tbl = Domain.DLS.get conns_key in
  match Hashtbl.find_opt tbl b.b_name with
  | Some c -> c
  | None ->
    let c = Wire.Client.connect ~host:b.b_host ~port:b.b_port () in
    Hashtbl.replace tbl b.b_name c;
    c

let drop_conn b =
  let tbl = Domain.DLS.get conns_key in
  match Hashtbl.find_opt tbl b.b_name with
  | Some c ->
    Hashtbl.remove tbl b.b_name;
    (try Wire.Client.close c with _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* forwarding                                                          *)
(* ------------------------------------------------------------------ *)

let strip_trace status =
  (* the backend echoed our TRACE operand; the front's own responder
     re-adds it, so strip the duplicate *)
  match Wire.trace_of_status status with
  | Some _ -> String.sub status 0 (String.rindex status ' ')
  | None -> status

let reason_of label msg =
  match label with
  | "runaway" -> Portal.Runaway msg
  | "rate_limited" -> Portal.Rate_limited msg
  | "deadline" -> Portal.Deadline_exceeded msg
  | _ -> Portal.Overloaded msg

let outcome_of_reply (status, body) =
  match String.split_on_char ' ' (strip_trace status) with
  | "OK" :: "executed" :: _ -> Portal.Executed body
  | "OK" :: "cache_hit" :: _ -> Portal.Cache_hit body
  | "ERR" :: label :: rest ->
    Portal.Rejected (reason_of label (String.concat " " rest))
  | _ ->
    Portal.Rejected
      (Portal.Overloaded ("unexpected backend reply: " ^ status))

(* a failed submission is re-routed this many times *)
let retries = 3

let submit (req : Portal.request) =
  T.incr "front.routed";
  let rec attempt tries =
    match Hashring.find (Atomic.get ring) req.Portal.req_session with
    | None -> Portal.Rejected (Portal.Overloaded "no healthy backends")
    | Some (_, b) -> (
      match
        let conn = get_conn b in
        Wire.Client.submit conn ~session:req.Portal.req_session
          ?trace:req.Portal.req_trace
          ~tool:req.Portal.req_tool.Portal.tool_name req.Portal.req_input
      with
      | reply -> outcome_of_reply reply
      | exception
          ( Failure _ | Sys_error _ | End_of_file
          | Unix.Unix_error _ ) ->
        (* connection-level failure: this backend is gone until the
           prober says otherwise; remap and retry elsewhere *)
        drop_conn b;
        T.incr "front.failover";
        set_up b false;
        if tries > 0 then begin
          T.incr "front.retries";
          (* brief backoff so a restarting backend's listener has a
             chance to come up between attempts *)
          Unix.sleepf (0.05 *. float_of_int (retries - tries + 1));
          attempt (tries - 1)
        end
        else
          Portal.Rejected
            (Portal.Overloaded ("backend " ^ b.b_name ^ " unavailable")))
  in
  attempt retries

(* ------------------------------------------------------------------ *)
(* health prober                                                       *)
(* ------------------------------------------------------------------ *)

let prober_running = Atomic.make true

let start_prober interval =
  Domain.spawn (fun () ->
      while Atomic.get prober_running do
        Array.iter
          (fun b -> set_up b (Wire.Client.probe ~host:b.b_host ~port:b.b_port ()))
          !backends;
        Unix.sleepf interval
      done)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = T.cli ~server:true Sys.argv in
  let listen_port = ref None in
  let specs = ref [] in
  let check_interval = ref 1.0 in
  let int_of s =
    match int_of_string_opt s with Some n -> n | None -> usage ()
  in
  let float_of s =
    match float_of_string_opt s with Some f -> f | None -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "-listen" :: p :: rest ->
      listen_port := Some (int_of p);
      go rest
    | "-backend" :: spec :: rest ->
      specs := spec :: !specs;
      go rest
    | "-check-interval" :: s :: rest ->
      let s = float_of s in
      if s <= 0. then usage ();
      check_interval := s;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let port = match !listen_port with Some p -> p | None -> usage () in
  if !specs = [] then usage ();
  backends := Array.of_list (List.rev_map parse_backend !specs);
  rebuild_ring ();
  J.emit ~component:"front"
    ~attrs:[ ("backends", string_of_int (Array.length !backends)) ]
    "front.start";
  let prober = start_prober !check_interval in
  let listener = Wire.listen ~port () in
  (* the test harness parses this line for the bound port *)
  Printf.eprintf "vcfront: listening on %s:%d (%d backend(s))\n%!"
    (Wire.addr listener) (Wire.port listener)
    (Array.length !backends);
  let on_signal _ = Wire.shutdown listener in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  Wire.serve listener ~submit;
  if not (Wire.drain_connections listener) then
    prerr_endline "vcfront: timed out waiting for connections to close";
  Atomic.set prober_running false;
  (try Domain.join prober with _ -> ());
  J.emit ~component:"front" "front.stop";
  J.flush ();
  exit 0

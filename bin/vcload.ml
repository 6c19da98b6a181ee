(* vcload: open-loop replay load generator for vcserve.

   Usage: vcload [--stats] [--journal FILE]
                 [--metrics-port N] -port N [-host H] [-clients N]
                 [-rps R] [-duration S] [-participants N] [-seed N]
                 [-variants N] [-resubmit P] [-spike-at F] [-spike-len F]
                 [-spike-x F] [-no-spike] [-time-scale F]
                 [-sample-interval S] [-report FILE] [-shutdown]

   Derives a submission trace from the cohort model (Mooc.Trace): the
   session population is the cohort's tried-software stage for
   -participants registered participants, the tool mix is the Fig. 4
   portal mix, -resubmit of the uploads repeat a popular input (the
   cache-hit-dominant MOOC pattern), and a -spike-x deadline burst
   covers [-spike-at, -spike-at + -spike-len] as fractions of the run.
   The trace is replayed over TCP against vcserve -listen from
   -clients domains at the stated offered load, open-loop: send times
   come from the trace, and latency is measured from the scheduled
   send time, so a saturated server cannot hide its queueing delay.

   The run prints per-outcome latency percentiles and the shed rate,
   emits one journal event per request (component "vcload" - feed the
   --journal file to vcstat summary), and with -report writes the
   machine-readable report JSON. -shutdown sends SHUTDOWN when the
   replay finishes - used by CI to stop the server it spawned. *)

module Trace = Vc_mooc.Trace
module Loadgen = Vc_mooc.Loadgen
module Wire = Vc_mooc.Wire

let usage () =
  prerr_endline
    "usage: vcload [--stats] [--journal FILE] \
     [--metrics-port N]\n\
    \              -port N [-host H] [-clients N] [-rps R] [-duration S]\n\
    \              [-participants N] [-seed N] [-variants N] [-resubmit P]\n\
    \              [-spike-at F] [-spike-len F] [-spike-x F] [-no-spike]\n\
    \              [-time-scale F] [-sample-interval S] [-report FILE] \
     [-shutdown]";
  exit 2

type options = {
  host : string;
  port : int option;
  clients : int;
  rps : float;
  duration : float;
  participants : int;
  seed : int;
  variants : int;
  resubmit : float;
  spike : Trace.spike option;
  time_scale : float;
  report_file : string option;
  shutdown : bool;
  sample_interval : float;
}

let default_options =
  {
    host = "127.0.0.1";
    port = None;
    clients = 4;
    rps = 200.0;
    duration = 10.0;
    participants = 17_500;
    seed = 2013;
    variants = 64;
    resubmit = 0.8;
    spike = Some Trace.default_spike;
    time_scale = 1.0;
    report_file = None;
    shutdown = false;
    sample_interval = Vc_util.Timeseries.default_interval ();
  }

let parse_args argv =
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let float_of s =
    match float_of_string_opt s with Some f -> f | None -> usage ()
  in
  let spike_of o =
    match o.spike with Some s -> s | None -> Trace.default_spike
  in
  let rec go o = function
    | [] -> o
    | "-host" :: h :: rest -> go { o with host = h } rest
    | "-port" :: p :: rest -> go { o with port = Some (int_of p) } rest
    | "-clients" :: n :: rest -> go { o with clients = int_of n } rest
    | "-rps" :: r :: rest -> go { o with rps = float_of r } rest
    | "-duration" :: s :: rest -> go { o with duration = float_of s } rest
    | "-participants" :: n :: rest ->
      go { o with participants = int_of n } rest
    | "-seed" :: n :: rest -> go { o with seed = int_of n } rest
    | "-variants" :: n :: rest -> go { o with variants = int_of n } rest
    | "-resubmit" :: p :: rest -> go { o with resubmit = float_of p } rest
    | "-spike-at" :: f :: rest ->
      go
        { o with spike = Some { (spike_of o) with Trace.sp_start = float_of f } }
        rest
    | "-spike-len" :: f :: rest ->
      go { o with spike = Some { (spike_of o) with Trace.sp_len = float_of f } }
        rest
    | "-spike-x" :: f :: rest ->
      go
        { o with
          spike = Some { (spike_of o) with Trace.sp_factor = float_of f }
        }
        rest
    | "-no-spike" :: rest -> go { o with spike = None } rest
    | "-time-scale" :: f :: rest -> go { o with time_scale = float_of f } rest
    | "-sample-interval" :: s :: rest ->
      go { o with sample_interval = float_of s } rest
    | "-report" :: f :: rest -> go { o with report_file = Some f } rest
    | "-shutdown" :: rest -> go { o with shutdown = true } rest
    | _ -> usage ()
  in
  go default_options (List.tl (Array.to_list argv))

let () =
  let argv = Vc_util.Telemetry.cli ~server:true Sys.argv in
  let o = parse_args argv in
  let port = match o.port with Some p -> p | None -> usage () in
  let params =
    { Vc_mooc.Cohort.paper_params with Vc_mooc.Cohort.registered = o.participants }
  in
  let spec =
    Trace.of_cohort ~seed:o.seed ~duration_s:o.duration ~rate_rps:o.rps
      ~variants:o.variants ~resubmit:o.resubmit ~spike:o.spike params
  in
  Printf.eprintf
    "vcload: replaying ~%d submission(s) (%.0f rps base over %.1f s, %d \
     session(s)) against %s:%d with %d client(s)\n\
     vcload: trace ids: seed %d, %s\n\
     %!"
    (Trace.expected_items spec)
    spec.Trace.tr_rate_rps spec.Trace.tr_duration_s spec.Trace.tr_sessions
    o.host port o.clients o.seed Vc_util.Trace_ctx.scheme;
  let config =
    {
      Loadgen.lg_host = o.host;
      lg_port = port;
      lg_clients = o.clients;
      lg_spec = spec;
      lg_time_scale = o.time_scale;
    }
  in
  let sampler =
    Vc_util.Timeseries.Sampler.start ~interval:o.sample_interval
      ~sources:Vc_util.Timeseries.client_sources ()
  in
  let report =
    try Loadgen.run config
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "vcload: cannot reach %s:%d: %s\n%!" o.host port
        (Unix.error_message e);
      exit 1
  in
  Loadgen.set_slo_gauges report;
  print_string (Loadgen.render_report report);
  (match o.report_file with
  | None -> ()
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (Loadgen.report_to_json report);
        Out_channel.output_char oc '\n');
    Printf.eprintf "vcload: wrote %s\n%!" file);
  if o.shutdown then begin
    match Wire.Client.connect ~host:o.host ~port () with
    | conn ->
      Wire.Client.shutdown_server conn;
      Wire.Client.close conn
    | exception Unix.Unix_error _ -> ()
  end;
  Vc_util.Timeseries.Sampler.stop sampler;
  Vc_util.Journal.flush ();
  if report.Loadgen.rp_total = 0 || report.Loadgen.rp_errors > 0 then exit 1

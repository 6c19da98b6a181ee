(* `vcbench serve`: the portal host under measurement. It builds the
   public library API the way `bin/vcserve -listen 0` does - default
   server config, default cache capacity and shard count, the Timeseries
   sampler at its default interval - plus the spill dir and journal
   segments when the workload asks for them. The bound port goes to
   stdout as one line; at exit the host writes its stats (Gc, cache) as
   JSON, and with -spans FILE the spans it recorded.

   Spans are recorded here, in bench code, around two public calls:
   [server.submit] around the Server.submit the wire layer calls, and
   [exec.<tool>] around each tool's execute, forwarded in the request.
   The cache key uses only the tool name, so caching is unchanged. *)

module Portal = Vc_mooc.Portal
module Server = Vc_mooc.Server
module Wire = Vc_mooc.Wire
module Timeseries = Vc_util.Timeseries

(* ---- span buffers: one per domain, merged at exit ---- *)

type span = { sp_name : string; sp_id : string; sp_t0 : float; sp_t1 : float }

let buffers : span list ref list Atomic.t = Atomic.make []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      let rec register () =
        let cur = Atomic.get buffers in
        if not (Atomic.compare_and_set buffers cur (b :: cur)) then register ()
      in
      register ();
      b)

let record sp_name sp_id sp_t0 sp_t1 =
  let b = Domain.DLS.get buffer_key in
  b := { sp_name; sp_id; sp_t0; sp_t1 } :: !b

let traced_tool (tool : Portal.tool) =
  let name = "exec." ^ tool.Portal.tool_name in
  let execute input =
    let t0 = Unix.gettimeofday () in
    let out = tool.Portal.execute input in
    let id =
      match Vc_util.Trace_ctx.current () with
      | Some ctx -> Vc_util.Trace_ctx.id ctx
      | None -> ""
    in
    record name id t0 (Unix.gettimeofday ());
    out
  in
  { tool with Portal.execute }

let traced_submit server =
  let wrapped =
    List.map (fun t -> (t.Portal.tool_name, traced_tool t)) Portal.all_tools
  in
  fun (req : Portal.request) ->
    let tool = List.assoc req.Portal.req_tool.Portal.tool_name wrapped in
    let t0 = Unix.gettimeofday () in
    let out = Server.submit server { req with Portal.req_tool = tool } in
    record "server.submit"
      (Option.value req.Portal.req_trace ~default:"")
      t0 (Unix.gettimeofday ());
    out

let write_spans file =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun b ->
          List.iter
            (fun s ->
              Printf.fprintf oc "%s\t%s\t%.6f\t%.6f\n" s.sp_name s.sp_id s.sp_t0
                s.sp_t1)
            !b)
        (Atomic.get buffers))

let write_stats file ~warm_start_s =
  let g = Gc.quick_stat () in
  let hits, misses = Portal.cache_stats () in
  let store_entries =
    Option.value ~default:0.0 (Vc_util.Telemetry.gauge "portal.cache.disk_entries")
  in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc
        "{\"minor_words\": %.0f, \"promoted_words\": %.0f, \"minor_collections\": \
         %d, \"major_collections\": %d, \"cache_hits\": %d, \"cache_misses\": %d, \
         \"cache_evictions\": %d, \"cache_disk_hits\": %d, \"warm_start_s\": %.6f, \
         \"store_entries\": %.0f}\n"
        g.Gc.minor_words g.Gc.promoted_words g.Gc.minor_collections
        g.Gc.major_collections hits misses (Portal.cache_evictions ())
        (Portal.cache_disk_hits ()) warm_start_s store_entries)

let usage () =
  prerr_endline
    "usage: vcbench serve -stats FILE [-spans FILE] [-cache-dir DIR] \
     [-journal FILE -segment-bytes N]";
  exit 2

let main args =
  let stats = ref None and spans = ref None and cache_dir = ref None in
  let journal = ref None and segment_bytes = ref None in
  let rec go = function
    | [] -> ()
    | "-stats" :: f :: rest -> stats := Some f; go rest
    | "-spans" :: f :: rest -> spans := Some f; go rest
    | "-cache-dir" :: d :: rest -> cache_dir := Some d; go rest
    | "-journal" :: f :: rest -> journal := Some f; go rest
    | "-segment-bytes" :: n :: rest ->
      segment_bytes := Some (int_of_string n);
      go rest
    | _ -> usage ()
  in
  go args;
  let stats = match !stats with Some f -> f | None -> usage () in
  (* the same order as vcserve: journal sink, spill dir, server, console *)
  Vc_util.Journal.install_crash_handler ();
  Option.iter (Vc_util.Journal.open_jsonl ?segment_bytes:!segment_bytes) !journal;
  let t0 = Unix.gettimeofday () in
  Option.iter Portal.set_cache_dir !cache_dir;
  let warm_start_s = Unix.gettimeofday () -. t0 in
  let config = Server.default_config in
  let server = Server.start ~config () in
  let draining = Atomic.make false in
  Vc_util.Metrics_server.set_ready_probe (fun () -> not (Atomic.get draining));
  let sampler =
    Timeseries.Sampler.start ~interval:(Timeseries.default_interval ())
      ~sources:Timeseries.server_sources ()
  in
  let listener = Wire.listen ~port:0 () in
  let on_signal _ =
    Atomic.set draining true;
    Wire.shutdown listener
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Printf.printf "%d\n%!" (Wire.port listener);
  let submit =
    if !spans = None then Server.submit server else traced_submit server
  in
  Wire.serve listener ~submit;
  Atomic.set draining true;
  Server.stop server;
  ignore (Wire.drain_connections listener);
  Timeseries.Sampler.stop sampler;
  Vc_util.Journal.flush ();
  write_stats stats ~warm_start_s;
  Option.iter write_spans !spans;
  exit 0

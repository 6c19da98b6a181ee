(* One workload run: prep, set-up, prime, warm-up, the measured open
   loop, an optional closed loop, shutdown, the correctness oracle - and
   the metrics, end to end and (with a trace dir) layer by layer. *)

open Client
module W = Workload

type shape = {
  warmup : float;  (** s of open loop before measuring *)
  duration : float;  (** s of measured open loop *)
  closed : float;  (** s of closed loop for peak_rps; 0 skips it *)
  setups : int;  (** host starts whose median is setup_s *)
}

let shape duration =
  { warmup = Float.max 0.2 (duration /. 10.0); duration; closed = 0.0; setups = 11 }

type metric = { name : string; value : float; unit_ : string }

(* what a traced run checks about its own spans *)
type trace_check = {
  requests : int;  (** measured client.request spans *)
  joined : int;  (** ... with a server.submit span of the same id *)
  orphans : int;  (** exec spans with no server.submit span of their id *)
  negative : int;  (** requests with a negative self time *)
  sum_gap_pct : float;  (** |sum of self times - sum of client.request| *)
  lost : int;  (** runtime events lost in the measured phase *)
  layers : string list;  (** span names seen *)
}

type result = {
  workload : string;
  e2e : metric list;
  tail : metric list;
      (** latency, host CPU per request and (with a closed loop)
          peak_rps: end-to-end readings that drift too far with the
          machine to gate, reported beside the layers *)
  layers : metric list;  (** empty unless traced *)
  samples : int;  (** measured requests *)
  steal : float;
      (** share of the machine's CPU time the hypervisor took during the
          measured phase *)
  attempted : int;
  failed : int;
  check : trace_check option;
}

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* nearest rank *)
let pct s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = pct (sorted (Array.of_list l)) 0.5
let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* per request, [upto - from] in ms, sorted *)
let gaps_ms from upto =
  sorted
    (Array.init (Float.Array.length from) (fun k ->
         (Float.Array.get upto k -. Float.Array.get from k) *. 1e3))
let ratio a b = if b = 0.0 then 0.0 else a /. b

let trace_id tag k = Printf.sprintf "%x%015x" tag k

(* tags of the trace ids: which phase minted them *)
let tag_prime = 1 and tag_warm = 2 and tag_measured = 3 and tag_closed = 4
and tag_prefill = 5

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

type host_spans = {
  submit : (string, float) Hashtbl.t;  (** id -> server.submit duration *)
  exec_of : (string, float) Hashtbl.t;  (** id -> summed exec.* duration *)
  exec_all : (string, float list) Hashtbl.t;  (** tool -> every execution *)
  exec_measured : (string, int) Hashtbl.t;  (** tool -> measured-phase count *)
  mutable names : string list;
}

let read_host_spans file =
  let h =
    {
      submit = Hashtbl.create 65536;
      exec_of = Hashtbl.create 1024;
      exec_all = Hashtbl.create 8;
      exec_measured = Hashtbl.create 8;
      names = [];
    }
  in
  let measured = Printf.sprintf "%x" tag_measured in
  In_channel.with_open_text file (fun ic ->
      In_channel.fold_lines
        (fun () line ->
          match String.split_on_char '\t' line with
          | [ name; id; t0; t1 ] ->
            let d = float_of_string t1 -. float_of_string t0 in
            if not (List.mem name h.names) then h.names <- name :: h.names;
            if name = "server.submit" then Hashtbl.replace h.submit id d
            else begin
              let tool = String.sub name 5 (String.length name - 5) in
              let prev = Option.value (Hashtbl.find_opt h.exec_of id) ~default:0.0 in
              Hashtbl.replace h.exec_of id (prev +. d);
              Hashtbl.replace h.exec_all tool
                (d :: Option.value (Hashtbl.find_opt h.exec_all tool) ~default:[]);
              if String.starts_with ~prefix:measured id then
                Hashtbl.replace h.exec_measured tool
                  (1 + Option.value (Hashtbl.find_opt h.exec_measured tool) ~default:0)
            end
          | _ -> ())
        () ic);
  h

let write_client_spans file (r : record) =
  Out_channel.with_open_text file (fun oc ->
      for k = 0 to Float.Array.length r.sent - 1 do
        Printf.fprintf oc "client.request\t%s\t%.6f\t%.6f\n" (trace_id tag_measured k)
          (Float.Array.get r.sent k) (Float.Array.get r.done_ k)
      done)

(* ------------------------------------------------------------------ *)
(* one run                                                             *)
(* ------------------------------------------------------------------ *)

let read_stats file =
  let j = Vc_util.Json.parse (read_file file) in
  fun key ->
    Option.value ~default:0.0 (Option.bind (Vc_util.Json.member key j) Vc_util.Json.to_num)

(* run [f] on a started host; kill the host if [f] fails before it
   stopped the host itself *)
let guard h f = match f () with v -> v | exception e -> kill h; raise e

let tool_of name =
  match Vc_mooc.Portal.find_tool name with
  | Some t -> t
  | None -> invalid_arg name

(* The oracle: each checked input's first reply body, byte for byte
   against the tool run here, after the timed phases. *)
let oracle (inputs : (string * string) array) (lanes : lane array) =
  let wrong = ref 0 in
  Array.iteri
    (fun i (tool, wire) ->
      if Array.exists (fun l -> l.first.(i) <> "") lanes then begin
        let expected =
          W.stuff_lines ((tool_of tool).Vc_mooc.Portal.execute (W.unstuff_lines wire))
        in
        Array.iter
          (fun l -> if l.first.(i) <> "" && l.first.(i) <> expected then incr wrong)
          lanes
      end)
    inputs;
  !wrong

(* what the client saw of the measured phase, and of the host around it *)
type observed = {
  r : record;
  counts : tally;  (** measured phase only *)
  wrong : int;  (** whole run *)
  cpu_s : float;  (** host CPU over the measured phase *)
  rss0_kb : float;
  rss1_kb : float;
  journal_bytes : int;  (** written during the measured phase *)
  threads : float;
  own_setup_s : float;  (** set-up of the host that served *)
  prefill_bytes : int;
  duration : float;
}

(* Per-layer metrics from the spans, the host's exit stats and the
   runtime-events pauses; and the checks the spans must pass. Self time
   is a span minus its children: wire = client.request - server.submit,
   server = server.submit - exec.*. *)
let layer_metrics ~spans ~stats ~(gc : Gc_events.t) o =
  let hs = read_host_spans spans and stat = read_stats stats in
  let n = Float.Array.length o.r.due in
  let fn = float_of_int (max 1 n) in
  let joined = ref 0 and negative = ref 0 and client_sum = ref 0.0 and parts_sum = ref 0.0 in
  let wire = ref [] and submit = ref [] and server = ref [] in
  for k = 0 to n - 1 do
    let d = Float.Array.get o.r.done_ k -. Float.Array.get o.r.sent k in
    client_sum := !client_sum +. d;
    let id = trace_id tag_measured k in
    match Hashtbl.find_opt hs.submit id with
    | None -> ()
    | Some s ->
      let e = Option.value (Hashtbl.find_opt hs.exec_of id) ~default:0.0 in
      incr joined;
      if d < s || s < e then incr negative;
      wire := (d -. s) *. 1e6 :: !wire;
      submit := s *. 1e6 :: !submit;
      server := (s -. e) *. 1e6 :: !server;
      parts_sum := !parts_sum +. (d -. s) +. (s -. e) +. e
  done;
  let measured = Printf.sprintf "%x" tag_measured in
  let exec_measured_s =
    Hashtbl.fold
      (fun id e acc -> if String.starts_with ~prefix:measured id then acc +. e else acc)
      hs.exec_of 0.0
  in
  let s l = sorted (Array.of_list l) in
  let wire = s !wire and submit = s !submit and server = s !server in
  let pauses = s gc.Gc_events.st.pauses in
  (* cache and GC totals are the host's whole life, per portal lookup *)
  let per_req x = ratio (stat x) (stat "cache_hits" +. stat "cache_misses") in
  let m name unit_ value = { name; value; unit_ } in
  let exec tool =
    let all = s (Option.value (Hashtbl.find_opt hs.exec_all tool) ~default:[]) in
    let count = Option.value (Hashtbl.find_opt hs.exec_measured tool) ~default:0 in
    [
      m ("exec." ^ tool ^ ".p50_us") "us" (pct all 0.5 *. 1e6);
      m ("exec." ^ tool ^ ".p99_us") "us" (pct all 0.99 *. 1e6);
      m ("exec." ^ tool ^ ".count") "count" (float_of_int count);
    ]
  in
  let late = gaps_ms o.r.due o.r.sent in
  let t = o.counts in
  let metrics =
    [
      m "wire.self_p50_us" "us" (pct wire 0.5);
      m "wire.self_p99_us" "us" (pct wire 0.99);
      m "wire.bytes_per_req" "bytes" (float_of_int t.bytes /. fn);
      m "server.submit_p50_us" "us" (pct submit 0.5);
      m "server.submit_p99_us" "us" (pct submit 0.99);
      m "server.self_p50_us" "us" (pct server 0.5);
      m "server.self_p99_us" "us" (pct server 0.99);
      m "portal.hit_ratio" "ratio" (per_req "cache_hits");
      m "portal.disk_hit_ratio" "ratio" (per_req "cache_disk_hits");
      m "portal.evictions_per_req" "ratio" (per_req "cache_evictions");
    ]
    @ List.concat_map exec (Array.to_list W.tools)
    @ [
        m "exec.share" "ratio" (ratio exec_measured_s o.cpu_s);
        m "cache_store.warm_start_share" "ratio" (ratio (stat "warm_start_s") o.own_setup_s);
        m "cache_store.entries" "count" (stat "store_entries");
        m "cache_store.bytes_per_entry" "bytes"
          (ratio (float_of_int o.prefill_bytes) (stat "store_entries"));
        m "journal.bytes_per_req" "bytes" (float_of_int o.journal_bytes /. fn);
        m "gc.minor_words_per_req" "words" (per_req "minor_words");
        m "gc.promoted_words_per_req" "words" (per_req "promoted_words");
        m "gc.minor_per_1k_req" "count" (1000.0 *. per_req "minor_collections");
        m "gc.major_collections" "count" (stat "major_collections");
        m "gc.pause_p99_ms" "ms" (pct pauses 0.99);
        m "gc.pause_ms_per_s" "ms/s" (Array.fold_left ( +. ) 0.0 pauses /. o.duration);
        m "proc.threads" "count" o.threads;
        m "proc.rss_kb_per_1k_req" "kB" ((o.rss1_kb -. o.rss0_kb) *. 1000.0 /. fn);
        m "client.late_p99_ms" "ms" (pct late 0.99);
        m "client.sent" "count" (float_of_int n);
        m "client.ok" "count" (float_of_int t.ok);
        m "client.rejected" "count" (float_of_int t.rejected);
        m "client.errors" "count" (float_of_int t.errors);
        m "client.wrong" "count" (float_of_int o.wrong);
      ]
  in
  let check =
    {
      requests = n;
      joined = !joined;
      orphans =
        Hashtbl.fold (fun id _ a -> if Hashtbl.mem hs.submit id then a else a + 1) hs.exec_of 0;
      negative = !negative;
      sum_gap_pct = 100.0 *. ratio (Float.abs (!parts_sum -. !client_sum)) !client_sum;
      lost = gc.Gc_events.st.lost;
      layers = "client.request" :: hs.names;
    }
  in
  (metrics, check)

let run ~exe ~work ?rate ?trace_dir ~seed ~(shape : shape) (w : W.t) =
  let dir = work / w.W.name in
  rm_rf dir;
  mkdir_p dir;
  Option.iter mkdir_p trace_dir;
  let plan =
    W.plan ?rate w ~seed ~warmup:shape.warmup ~duration:shape.duration ~closed:shape.closed
  in
  let inputs = plan.W.inputs in
  let n_in = Array.length inputs in
  let bodies = Array.map snd inputs in
  let checked =
    match w.W.kind with
    | W.Project_miss ->
      (* a seeded 1-in-8 sample *)
      let st = Random.State.make [| seed; 8 |] in
      Array.init n_in (fun _ -> Random.State.int st 8 = 0)
    | W.Hit_replay | W.Durable_restart -> Array.make n_in true
  in
  let headers tag (ph : W.phase) =
    Array.mapi
      (fun k i ->
        Printf.sprintf "TOOL %s u%05d TRACE %s\n" (fst inputs.(i)) ph.W.session.(k)
          (trace_id tag k))
      ph.W.pick
  in
  let lanes_for ?(checked = checked) c0 c1 =
    Array.mapi
      (fun index conn ->
        { conn; index; bodies; checked; first = Array.make n_in ""; tally = tally () })
      [| c0; c1 |]
  in
  let fresh lanes = Array.map (fun l -> { l with tally = tally () }) lanes in
  (* every request counts: an open loop's whole schedule, a closed
     loop's sends; the ones without a correct reply failed *)
  let total = tally () and attempted = ref 0 in
  let finish ?scheduled lanes =
    Array.iter (fun l -> add_tally total l.tally) lanes;
    attempted :=
      !attempted
      +
      match scheduled with
      | Some n -> n
      | None ->
        Array.fold_left
          (fun a l -> a + l.tally.ok + l.tally.rejected + l.tally.errors)
          0 lanes
  in
  let durable = w.W.kind = W.Durable_restart in
  let spill = dir / "spill" and journal = dir / "journal" in
  let log = dir / "host.log" in
  (* ---- durable-restart: an untimed prep host fills the spill dir ---- *)
  let prefill_bytes =
    if not durable then 0
    else begin
      let h, c0, _ =
        start_host ~exe ~log ~env:(host_env ~events_dir:None)
          [ "-stats"; dir / "prep_stats.json"; "-cache-dir"; spill ]
      in
      guard h (fun () ->
          let c1 = connect h.port in
          let lanes = lanes_for ~checked:(Array.make n_in false) c0 c1 in
          let hdrs = headers tag_prefill plan.W.prefill in
          ignore
            (both lanes (fun l ->
                 closed_loop l ~hdrs ~pick:plan.W.prefill.W.pick ~until:Float.infinity));
          finish lanes;
          close c1;
          stop_host h c0);
      dir_bytes spill
    end
  in
  (* ---- set-up, [shape.setups] times; the last host serves ---- *)
  let spans = Option.map (fun d -> d / "host_spans.tsv") trace_dir in
  let stats = dir / "host_stats.json" in
  let args =
    [ "-stats"; stats ]
    @ (match spans with Some f -> [ "-spans"; f ] | None -> [])
    @
    if durable then
      [ "-cache-dir"; spill; "-journal"; journal / "host.jsonl"; "-segment-bytes"; "4194304" ]
    else []
  in
  let env = host_env ~events_dir:(Option.map (fun _ -> dir) trace_dir) in
  if durable then mkdir_p journal;
  let rec setups i acc =
    let h, c, s = start_host ~exe ~log ~env args in
    if i = shape.setups then (h, c, s, s :: acc)
    else begin
      stop_host h c;
      setups (i + 1) (s :: acc)
    end
  in
  let host, c0, own_setup_s, setup_times = setups 1 [] in
  guard host @@ fun () ->
  let c1 = connect host.port in
  hello c1;
  let lanes = lanes_for c0 c1 in
  let gc = Option.map (fun _ -> Gc_events.create ~dir host.pid) trace_dir in
  (* Between requests, the main domain samples the host's VmRSS every
     100 ms of the measured phase and drains the runtime-events ring.
     The host keeps every request in its session history, so its heap
     grows through the phase in steps; the mean of the samples is
     steadier run to run than one reading at the end, which lands
     anywhere on a step. *)
  let rss = ref [] and sampling = ref false in
  let last_rss = ref 0.0 and last_gc = ref 0.0 in
  let idle (l : lane) () =
    if l.index = 0 then begin
      let t = now () in
      if !sampling && t -. !last_rss > 0.1 then begin
        last_rss := t;
        rss := rss_kb host.pid :: !rss
      end;
      match gc with
      | Some g when t -. !last_gc > 0.005 ->
        last_gc := t;
        Gc_events.poll g
      | _ -> ()
    end
  in
  let closed_phase tag (ph : W.phase) ~until =
    let hdrs = headers tag ph in
    let ls = fresh lanes in
    let r = both ls (fun l -> closed_loop ~idle:(idle l) l ~hdrs ~pick:ph.W.pick ~until) in
    finish ls;
    r
  in
  let open_phase tag (ph : W.phase) =
    let hdrs = headers tag ph in
    let ls = fresh lanes in
    let r = Client.record (Array.length ph.W.at) in
    let t_base = now () +. 0.005 in
    ignore
      (both ls (fun l ->
           open_loop ~idle:(idle l) l ~hdrs ~pick:ph.W.pick ~at:ph.W.at ~t_base r));
    finish ~scheduled:(Array.length hdrs) ls;
    let t = tally () in
    Array.iter (fun l -> add_tally t l.tally) ls;
    (r, t)
  in
  ignore (closed_phase tag_prime plan.W.prime ~until:Float.infinity);
  ignore (open_phase tag_warm plan.W.warm);
  (* ---- the measured open loop ---- *)
  Option.iter (fun g -> Gc_events.set_window g true) gc;
  let cpu0 = cpu_s host.pid and rss0_kb = rss_kb host.pid and jb0 = dir_bytes journal in
  let t0 = now () and steal0 = steal_s () in
  sampling := true;
  let r, counts = open_phase tag_measured plan.W.measured in
  sampling := false;
  let steal = (steal_s () -. steal0) /. (float_of_int (cpus ()) *. (now () -. t0)) in
  let cpu1 = cpu_s host.pid and rss1_kb = rss_kb host.pid and jb1 = dir_bytes journal in
  let threads = threads host.pid in
  Option.iter (fun g -> Gc_events.set_window g false) gc;
  (* ---- the closed loop ---- *)
  let peak_rps =
    if shape.closed <= 0.0 then []
    else begin
      let start = now () in
      let (n0, t0), (n1, t1) =
        closed_phase tag_closed plan.W.closed ~until:(start +. shape.closed)
      in
      let rps = float_of_int (n0 + n1) /. (Float.max t0 t1 -. start) in
      [ { name = "client.peak_rps"; value = rps; unit_ = "req/s" } ]
    end
  in
  close c1;
  stop_host host c0;
  Option.iter Gc_events.free gc;
  total.wrong <- total.wrong + oracle inputs lanes;
  let n = Float.Array.length r.due in
  let lat = gaps_ms r.due r.done_ in
  let o =
    {
      r; counts; wrong = total.wrong; cpu_s = cpu1 -. cpu0; rss0_kb; rss1_kb;
      journal_bytes = jb1 - jb0; threads; own_setup_s; prefill_bytes; duration = shape.duration;
    }
  in
  let layers, check =
    match (trace_dir, spans, gc) with
    | Some tdir, Some spans, Some gc ->
      write_client_spans (tdir / "client_spans.tsv") r;
      let metrics, c = layer_metrics ~spans ~stats ~gc o in
      Out_channel.with_open_text (tdir / "check.json") (fun oc ->
          Printf.fprintf oc
            "{\"requests\": %d, \"joined\": %d, \"orphan_exec_spans\": %d, \
             \"negative_self_times\": %d, \"layer_sum_gap_pct\": %.6f, \
             \"runtime_events_lost\": %d, \"span_names\": [%s]}\n"
            c.requests c.joined c.orphans c.negative c.sum_gap_pct c.lost
            (String.concat ", " (List.map Vc_util.Json.str c.layers)));
      (metrics, Some c)
    | _ -> ([], None)
  in
  (* the spill dir and journal are large and only this run reads them *)
  rm_rf spill;
  rm_rf journal;
  {
    workload = w.W.name;
    e2e =
      [
        { name = "setup_s"; value = median setup_times; unit_ = "s" };
        { name = "server_rss_mb"; value = mean (if !rss = [] then [ rss1_kb ] else !rss) /. 1024.0;
          unit_ = "MB" };
      ];
    tail =
      [
        { name = "client.latency_p50_ms"; value = pct lat 0.50; unit_ = "ms" };
        { name = "client.latency_p99_ms"; value = pct lat 0.99; unit_ = "ms" };
        { name = "proc.cpu_us_per_req"; value = o.cpu_s /. float_of_int (max 1 n) *. 1e6;
          unit_ = "us" };
      ]
      @ peak_rps;
    layers;
    samples = n;
    steal;
    attempted = !attempted;
    failed = !attempted - total.ok + total.wrong;
    check;
  }

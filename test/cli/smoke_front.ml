(* smoke_front: crash-recovery check of the durable portal tier behind
   the consistent-hash front.
   Usage: smoke_front VCSERVE_EXE VCFRONT_EXE VCLOAD_EXE VCSTAT_EXE

   Boots two vcserve shards, each with a disk cache dir and a rotated
   (segmented) journal, and a vcfront router over both. A seeded vcload
   replay runs through the front; mid-replay shard A is SIGKILLed - the
   crash, not a graceful stop - and the replay must still finish clean
   because the front fails the affected sessions over to shard B. The
   front's journal must record the backend.down transition.

   Shard A is then restarted on the same port with the same cache dir
   and journal base. The restart must (a) warm-start its result cache
   from the spill file the killed process left behind (the disk tier
   writes through on every execution, straight to the fd, so a SIGKILL
   loses nothing already computed), (b) append new journal segments
   after the pre-crash ones rather than truncating them, and (c) rejoin
   the ring at the next health probe (backend.up in the front journal).
   A second replay with the same seed then re-submits the same trace;
   the restarted shard must answer from the warm cache, which the smoke
   checks in its post-restart journal segments (a cache.warm_start
   event with 0 < promoted <= entries and an elapsed_s, and cache_hit
   submission outcomes). After that replay the cache dir must hold
   exactly store.spill.

   Then 500 sequential client connections, each sending one TOOL
   request under one session id, go through the front to one backend;
   every reply must read OK. A front handler domain must close its
   upstream connections when its client leaves: a leaked one holds a
   backend connection domain, and the backend sheds connections once
   its domains run out. On Linux each backend's open-fd count must come
   back to within 8 of its count before the loop.

   Shutdown is one SIGINT per process, each required to exit 0. The
   final artifact is `vcstat summary --format json` over shard A's
   rotated segment set, addressed by base name - the dune rule feeds it
   to `check_obs seq-gaps`, which fails on any missing journal sequence
   number: the lost-segment detector. Exits non-zero with a message on
   the first failure; children are always killed. *)

module Q = Vc_util.Journal_query

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke_front: " ^ s);
      exit 1)
    fmt

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let read_all file =
  try In_channel.with_open_text file In_channel.input_all
  with Sys_error _ -> ""

(* Wait (up to ~10s) for MARKER followed by a port number in the
   process's stderr file. *)
let wait_for_port ~marker stderr_file =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec poll () =
    let text = read_all stderr_file in
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
      die "timed out waiting for %S in %s" marker stderr_file
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* Wait (up to ~15s) for NEEDLE to appear in FILE - used against
   journal files, which flush per line, so a transition event is
   visible as soon as it is emitted. *)
let wait_for_text ~what file needle =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec poll () =
    if contains (read_all file) needle then ()
    else if Unix.gettimeofday () > deadline then
      die "timed out waiting for %s (%S in %s)" what needle file
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* Reap PID, polling up to [timeout_s]; Some status, or None on timeout. *)
let wait_with_timeout pid timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.05;
        poll ()
      end
    | _, status -> Some status
  in
  poll ()

let spawn exe args ~stdout_file ~stderr_file =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let openw f =
    Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = openw stdout_file and err = openw stderr_file in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull out err
  in
  Unix.close devnull;
  Unix.close out;
  Unix.close err;
  pid

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

let run_to_file exe args ~stdout_file ~stderr_file ~timeout_s ~what =
  let pid = spawn exe args ~stdout_file ~stderr_file in
  match wait_with_timeout pid timeout_s with
  | Some (Unix.WEXITED 0) -> ()
  | Some status ->
    die "%s failed (%s):\n%s" what (status_string status)
      (read_all stderr_file)
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    die "%s did not finish within %.0fs" what timeout_s

let sigint_and_expect_clean pid ~what =
  Unix.kill pid Sys.sigint;
  match wait_with_timeout pid 10.0 with
  | Some (Unix.WEXITED 0) -> ()
  | Some status -> die "%s: %s after SIGINT" what (status_string status)
  | None -> die "%s still running 10s after SIGINT" what

(* The build directory persists between runs; a stale cache dir or
   journal segment from a previous execution would fake the warm-start
   and lifecycle assertions, so the smoke starts from a clean slate. *)
let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let remove_matching pred =
  Array.iter
    (fun f -> if pred f then try Sys.remove f with Sys_error _ -> ())
    (Sys.readdir ".")

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Open fds of PID, where /proc lists them (Linux); None elsewhere. *)
let fd_count pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  if Sys.file_exists dir then Some (Array.length (Sys.readdir dir)) else None

(* One client connection sending one TOOL request: the reply's status
   line, after reading its body. *)
let one_request port ~session =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      try
        Printf.fprintf oc "TOOL kbdd %s\nboolean a b\nf = a & b\nprint f\n.\n%!"
          session;
        match In_channel.input_line ic with
        | None -> "connection closed"
        | Some status ->
          let rec body () =
            match In_channel.input_line ic with
            | Some "." | None -> ()
            | Some _ -> body ()
          in
          body ();
          status
      with Sys_error e -> e)

let () =
  let vcserve_exe, vcfront_exe, vcload_exe, vcstat_exe =
    match Sys.argv with
    | [| _; serve; front; load; stat |] -> (serve, front, load, stat)
    | _ -> die "usage: smoke_front VCSERVE_EXE VCFRONT_EXE VCLOAD_EXE VCSTAT_EXE"
  in
  let cache_a = "smoke_front_cache_a" and cache_b = "smoke_front_cache_b" in
  let journal_a = "smoke_front_a.jsonl" and journal_b = "smoke_front_b.jsonl" in
  let front_journal = "smoke_front_router.jsonl" in
  rm_rf cache_a;
  rm_rf cache_b;
  remove_matching (fun f ->
      starts_with "smoke_front_a." f || starts_with "smoke_front_b." f
      || f = front_journal
      || starts_with "smoke_front_client" f);
  let serve_args listen cache journal =
    [
      "-listen"; listen; "-workers"; "2"; "-queue"; "512"; "-cache-dir";
      cache; "--journal"; journal; "--journal-segments"; "4096";
    ]
  in
  let pid_a =
    ref
      (spawn vcserve_exe
         (serve_args "0" cache_a journal_a)
         ~stdout_file:"smoke_front_serve_a_out.txt"
         ~stderr_file:"smoke_front_serve_a_err.txt")
  in
  let pid_b =
    ref
      (spawn vcserve_exe
         (serve_args "0" cache_b journal_b)
         ~stdout_file:"smoke_front_serve_b_out.txt"
         ~stderr_file:"smoke_front_serve_b_err.txt")
  in
  let pid_front = ref (-1) in
  let kill pid =
    if pid > 0 then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore
        (try Unix.waitpid [ Unix.WNOHANG ] pid
         with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
    end
  in
  Fun.protect
    ~finally:(fun () ->
      kill !pid_a;
      kill !pid_b;
      kill !pid_front)
    (fun () ->
      let port_a =
        wait_for_port ~marker:"listening on 127.0.0.1:"
          "smoke_front_serve_a_err.txt"
      in
      let port_b =
        wait_for_port ~marker:"listening on 127.0.0.1:"
          "smoke_front_serve_b_err.txt"
      in
      pid_front :=
        spawn vcfront_exe
          [
            "-listen"; "0";
            "-backend"; Printf.sprintf "127.0.0.1:%d" port_a;
            "-backend"; Printf.sprintf "127.0.0.1:%d" port_b;
            "-check-interval"; "0.2"; "--journal"; front_journal;
          ]
          ~stdout_file:"smoke_front_router_out.txt"
          ~stderr_file:"smoke_front_router_err.txt";
      let port_front =
        wait_for_port ~marker:"listening on 127.0.0.1:"
          "smoke_front_router_err.txt"
      in
      let load_args seed_journal report =
        [
          "--journal"; seed_journal;
          "-port"; string_of_int port_front; "-clients"; "2"; "-rps";
          "250"; "-duration"; "2"; "-participants"; "20000"; "-seed";
          "11"; "-resubmit"; "0.4"; "-no-spike"; "-report"; report;
        ]
      in
      (* phase 1: replay through the front, then kill shard A cold
         while the replay is still running. The front must absorb the
         crash - the replay has to finish with exit 0. *)
      let load_pid =
        spawn vcload_exe
          (load_args "smoke_front_client1.jsonl" "smoke_front_report1.json")
          ~stdout_file:"smoke_front_load1_out.txt"
          ~stderr_file:"smoke_front_load1_err.txt"
      in
      Unix.sleepf 0.9;
      Unix.kill !pid_a Sys.sigkill;
      ignore (wait_with_timeout !pid_a 5.0);
      pid_a := -1;
      (match wait_with_timeout load_pid 60.0 with
      | Some (Unix.WEXITED 0) -> ()
      | Some status ->
        (try Unix.kill load_pid Sys.sigkill with Unix.Unix_error _ -> ());
        die "replay across the crash failed (%s):\n%s" (status_string status)
          (read_all "smoke_front_load1_err.txt")
      | None ->
        (try Unix.kill load_pid Sys.sigkill with Unix.Unix_error _ -> ());
        die "replay across the crash did not finish within 60s");
      let summary1 = read_all "smoke_front_load1_out.txt" in
      if not (contains summary1 "replayed ") then
        die "phase-1 vcload printed no replay summary:\n%s" summary1;
      wait_for_text ~what:"the front to mark the killed shard down"
        front_journal "backend.down";
      (* phase 2: restart shard A on the same port, same cache dir,
         same journal base. New segments must append after the
         pre-crash ones; the cache must warm-start from the spill
         file. *)
      let run1_segments = Q.expand_segments [ journal_a ] in
      if run1_segments = [ journal_a ] then
        die "shard A left no journal segments behind (looked for %s.NNNNN)"
          (Filename.remove_extension journal_a);
      pid_a :=
        spawn vcserve_exe
          (serve_args (string_of_int port_a) cache_a journal_a)
          ~stdout_file:"smoke_front_serve_a2_out.txt"
          ~stderr_file:"smoke_front_serve_a2_err.txt";
      ignore
        (wait_for_port ~marker:"listening on 127.0.0.1:"
           "smoke_front_serve_a2_err.txt");
      wait_for_text ~what:"the front to readmit the restarted shard"
        front_journal "backend.up";
      run_to_file vcload_exe
        (load_args "smoke_front_client2.jsonl" "smoke_front_report2.json")
        ~stdout_file:"smoke_front_load2_out.txt"
        ~stderr_file:"smoke_front_load2_err.txt" ~timeout_s:60.0
        ~what:"post-recovery replay";
      let summary2 = read_all "smoke_front_load2_out.txt" in
      if not (contains summary2 "replayed ") then
        die "phase-2 vcload printed no replay summary:\n%s" summary2;
      if not (contains summary2 "cache_hit") then
        die "phase-2 vcload summary has no outcome breakdown:\n%s" summary2;
      (* the disk tier is one spill file: no lane file and no
         compaction temp file, after a SIGKILL and a restart *)
      (match Array.to_list (Sys.readdir cache_a) with
      | [ "store.spill" ] -> ()
      | files ->
        die "%s holds [%s], not just store.spill" cache_a
          (String.concat "; " (List.sort compare files)));
      (* phase 3: 500 sequential one-request connections under one
         session id, so all land on one backend. Only the front's
         handler domains can close their upstream connections; each
         leaked one would pin a backend connection domain. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let shards = [ ("shard A", !pid_a); ("shard B", !pid_b) ] in
      let fds_before = List.map (fun (_, pid) -> fd_count pid) shards in
      for i = 1 to 500 do
        let status = one_request port_front ~session:"smoke-front-conns" in
        if not (starts_with "OK " status) then
          die "connection %d through the front read %S, not OK" i status
      done;
      (* the last few upstream connections may still be closing *)
      List.iter2
        (fun (name, pid) before ->
          match before with
          | None -> ()
          | Some before ->
            let deadline = Unix.gettimeofday () +. 10.0 in
            let rec settle () =
              match fd_count pid with
              | Some now when now > before + 8 ->
                if Unix.gettimeofday () > deadline then
                  die "%s holds %d fds after 500 front connections (%d before)"
                    name now before
                else begin
                  Unix.sleepf 0.05;
                  settle ()
                end
              | Some _ | None -> ()
            in
            settle ())
        shards fds_before;
      (* graceful shutdown: front first (stop accepting), then the
         shards; each journal flushes on the way out *)
      sigint_and_expect_clean !pid_front ~what:"vcfront";
      pid_front := -1;
      sigint_and_expect_clean !pid_a ~what:"restarted shard A";
      pid_a := -1;
      sigint_and_expect_clean !pid_b ~what:"shard B";
      pid_b := -1;
      (* the crash-recovery evidence, all from the flushed journals:
         pre-crash segments still on disk, post-restart segments
         appended after them, a nonzero warm start, and cache hits
         served by the restarted shard *)
      let all_segments = Q.expand_segments [ journal_a ] in
      if List.length all_segments < 2 then
        die "expected >= 2 journal segments for shard A, found %d"
          (List.length all_segments);
      List.iter
        (fun seg ->
          if not (List.mem seg all_segments) then
            die "pre-crash segment %s vanished after the restart" seg)
        run1_segments;
      let run2 =
        List.filter (fun seg -> not (List.mem seg run1_segments)) all_segments
      in
      if run2 = [] then
        die "the restarted shard appended no new journal segments";
      let run2_text = String.concat "" (List.map read_all run2) in
      (match
         List.find_opt
           (fun e -> e.Vc_util.Journal.ev_name = "cache.warm_start")
           (Q.load_files run2).Q.events
       with
      | None -> die "restarted shard journal has no cache.warm_start event"
      | Some e ->
        let attr conv name =
          match Option.bind (List.assoc_opt name e.ev_attrs) conv with
          | Some v -> v
          | None -> die "cache.warm_start has no numeric %s attr" name
        in
        let entries = attr int_of_string_opt "entries"
        and promoted = attr int_of_string_opt "promoted" in
        ignore (attr float_of_string_opt "elapsed_s" : float);
        if not (0 < promoted && promoted <= entries) then
          die "warm start promoted %d of %d entries" promoted entries);
      if not (contains run2_text "\"outcome\":\"cache_hit\"") then
        die "restarted shard served no cache hits after its warm start";
      let front_text = read_all front_journal in
      List.iter
        (fun needle ->
          if not (contains front_text needle) then
            die "front journal %s missing %S" front_journal needle)
        [ "front.start"; "backend.down"; "backend.up"; "front.stop" ];
      (* the lost-segment detector: summarize shard A's full segment
         set by base name; the dune rule requires seq.gaps == 0 *)
      run_to_file vcstat_exe
        [ "summary"; "--format"; "json"; journal_a ]
        ~stdout_file:"smoke_front_summary.json"
        ~stderr_file:"smoke_front_stat_err.txt" ~timeout_s:30.0
        ~what:"vcstat summary over the segment set";
      print_endline "smoke_front: ok")

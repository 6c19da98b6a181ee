open Helpers
module T = Vc_util.Telemetry
module Portal = Vc_mooc.Portal

(* Probes register at module-initialization time, which happens when the
   kernel's compilation unit is linked; reference each one so this test
   binary links all four. *)
let () =
  ignore Vc_sat.Solver.stats;
  ignore Vc_bdd.Bdd.stats;
  ignore Vc_route.Maze.stats;
  ignore Vc_place.Annealing.stats

(* The renderer output is validated against the shared strict parser
   (Vc_util.Json), which is itself exercised in test_util.ml. *)
module Json = Vc_util.Json
module Journal = Vc_util.Journal
module Regress = Vc_util.Regress

let parse_json = Json.parse
let obj_field = Json.member

(* Install a clock returning the given readings in order (then repeating
   the last one), run [f], and restore the wall clock. *)
let with_fake_clock readings f =
  let remaining = ref readings and last = ref 0.0 in
  T.set_clock (fun () ->
      match !remaining with
      | [] -> !last
      | t :: rest ->
        remaining := rest;
        last := t;
        t);
  Fun.protect ~finally:(fun () -> T.set_clock Unix.gettimeofday) f

(* Install a clock reading [!now] from [start], run [f now], and restore
   the wall clock: time moves when the test sets it, however many
   readings the code under test takes (a sampler tick's profile samples
   read it too). *)
let with_set_clock start f =
  let now = ref start in
  T.set_clock (fun () -> !now);
  Fun.protect ~finally:(fun () -> T.set_clock Unix.gettimeofday) (fun () ->
      f now)

(* Timer percentiles are bucket representatives: equal to the exact
   value up to the documented relative error (plus float rounding). *)
let within_rel expected actual =
  Float.abs (actual -. expected) <= (T.rel_error *. Float.abs expected) +. 1e-12

let check_rel what expected actual =
  if not (within_rel expected actual) then
    Alcotest.failf "%s: %g not within %g%% of %g" what actual
      (100.0 *. T.rel_error) expected

(* ------------------------------------------------------------------ *)
(* telemetry core                                                      *)
(* ------------------------------------------------------------------ *)

let telemetry_tests =
  [
    tc "counters create, add and read back" (fun () ->
        T.reset ();
        check Alcotest.int "absent is 0" 0 (T.counter "t.c");
        T.incr "t.c";
        T.incr ~by:4 "t.c";
        check Alcotest.int "1 + 4" 5 (T.counter "t.c");
        check Alcotest.bool "listed" true (List.mem_assoc "t.c" (T.counters ())));
    tc "timers summarize samples" (fun () ->
        T.reset ();
        check Alcotest.bool "absent" true (T.timer "t.t" = None);
        T.observe "t.t" 0.010;
        T.observe "t.t" 0.020;
        T.observe "t.t" 0.030;
        match T.timer "t.t" with
        | None -> Alcotest.fail "timer vanished"
        | Some s ->
          check Alcotest.int "count" 3 s.T.count;
          check (Alcotest.float 1e-9) "total" 0.060 s.T.total_s;
          check_rel "p50" 0.020 s.T.p50_s;
          check (Alcotest.float 1e-9) "max" 0.030 s.T.max_s);
    tc "time records one sample per call and returns the value" (fun () ->
        T.reset ();
        let v = T.time "t.f" (fun () -> 41 + 1) in
        check Alcotest.int "value" 42 v;
        ignore (T.time "t.f" (fun () -> 0));
        match T.timer "t.f" with
        | Some s -> check Alcotest.int "two samples" 2 s.T.count
        | None -> Alcotest.fail "no samples");
    tc "time records the sample even when f raises" (fun () ->
        T.reset ();
        (try T.time "t.boom" (fun () -> failwith "boom") with Failure _ -> ());
        match T.timer "t.boom" with
        | Some s -> check Alcotest.int "one sample" 1 s.T.count
        | None -> Alcotest.fail "no sample");
    tc "exited domains leave no journal or telemetry state; every event counted"
      (fun () ->
        T.reset ();
        Journal.clear ();
        let domain i =
          Domain.join
            (Domain.spawn (fun () ->
                 T.incr "retire.count";
                 T.observe "retire.time" 0.001;
                 T.set_gauge "retire.gauge" (float_of_int i);
                 Journal.emit ~component:"test" "retire.event"))
        in
        let live () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        domain 1;
        let before = live () in
        for i = 2 to 2000 do domain i done;
        let grown_bytes = (live () - before) * (Sys.word_size / 8) in
        check Alcotest.int "counter" 2000 (T.counter "retire.count");
        check Alcotest.(option int) "timer count" (Some 2000)
          (Option.map (fun s -> s.T.count) (T.timer "retire.time"));
        check Alcotest.(option (float 0.0)) "newest gauge write" (Some 2000.0)
          (T.gauge "retire.gauge");
        check Alcotest.int "every event flushed" 2000 (Journal.event_count ());
        if grown_bytes >= 256 * 1024 then
          Alcotest.failf "heap grew by %d bytes over 1,999 domains" grown_bytes);
    tc "probes are pulled at render time" (fun () ->
        let v = ref 1 in
        T.register_probe "test.probe" (fun () -> [ ("v", !v) ]);
        let read () = List.assoc "test.probe" (T.probes ()) in
        check Alcotest.(list (pair string int)) "initial" [ ("v", 1) ] (read ());
        v := 5;
        check Alcotest.(list (pair string int)) "updated" [ ("v", 5) ] (read ()));
    tc "kernel probes are registered" (fun () ->
        let names = List.map fst (T.probes ()) in
        List.iter
          (fun n -> check Alcotest.bool n true (List.mem n names))
          [ "sat.solver"; "bdd"; "route.maze"; "place.annealing" ]);
    tc "report mentions counters, timers and probes" (fun () ->
        T.reset ();
        T.incr "report.counter";
        T.observe "report.timer" 0.001;
        let r = T.report () in
        let contains needle =
          let nl = String.length needle and hl = String.length r in
          let rec go i = i + nl <= hl && (String.sub r i nl = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle -> check Alcotest.bool needle true (contains needle))
          [ "report.counter"; "report.timer"; "sat.solver" ]);
    tc "reset clears counters, timers and gauges but keeps probes" (fun () ->
        T.incr "gone";
        T.observe "gone.t" 1.0;
        T.set_gauge "gone.g" 1.0;
        T.reset ();
        check Alcotest.int "counter" 0 (T.counter "gone");
        check Alcotest.bool "timer" true (T.timer "gone.t" = None);
        check Alcotest.bool "gauge" true (T.gauge "gone.g" = None);
        check Alcotest.bool "probes kept" true (T.probes () <> []));
    tc "kernel probe counters lose no update across domains" (fun () ->
        let probe name = List.assoc name (T.probes ()) in
        (* each probe counter's growth over [f ()] *)
        let delta name f =
          let before = probe name in
          f ();
          List.map (fun (k, v) -> (k, v - List.assoc k before)) (probe name)
        in
        let on_domains n f () =
          List.iter Domain.join
            (List.init 4 (fun _ ->
                 Domain.spawn (fun () ->
                     for _ = 1 to n do
                       f ()
                     done)))
        in
        let kbdd () =
          ignore
            (Portal.kbdd.Portal.execute
               "boolean a b c d e f g h\n\
                x = (a & b) | (c & d) | (e & f) | (g & h)\n\
                y = (a | h) & (b | g) & (c | f) & (d | e)\n\
                z = x ^ y\n\
                satcount z\n\
                tautology x | y")
        in
        let minisat () =
          ignore (Portal.minisat.Portal.execute "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0")
        in
        List.iter
          (fun (name, run, n) ->
            let one = delta name run in
            check
              Alcotest.(list (pair string int))
              name
              (List.map (fun (k, v) -> (k, 4 * n * v)) one)
              (delta name (on_domains n run)))
          (* plain-[int ref] counters lost hundreds of updates at these
             counts on a 2-vCPU VM, in 5 runs of 5 *)
          [ ("bdd", kbdd, 1000); ("sat.solver", minisat, 20_000) ]);
  ]

(* ------------------------------------------------------------------ *)
(* JSON renderers                                                      *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    tc "to_json parses and carries the counters" (fun () ->
        T.reset ();
        T.incr ~by:3 "j.count";
        T.observe "j.timer" 0.002;
        let j = parse_json (T.to_json ()) in
        (match obj_field "counters" j with
        | Some (Json.Obj cs) ->
          check Alcotest.bool "counter present" true
            (match List.assoc_opt "j.count" cs with
            | Some (Json.Num 3.0) -> true
            | _ -> false)
        | _ -> Alcotest.fail "no counters object");
        match obj_field "timers" j with
        | Some (Json.Obj ts) ->
          check Alcotest.bool "timer has count" true
            (match List.assoc_opt "j.timer" ts with
            | Some t -> obj_field "count" t = Some (Json.Num 1.0)
            | None -> false)
        | _ -> Alcotest.fail "no timers object");
    tc "cli_parse strips the flags and leaves the rest" (fun () ->
        let o =
          T.cli_parse
            [|
              "prog"; "--stats"; "input.txt"; "--journal"; "j.jsonl";
              "--metrics-port"; "9100"; "-x";
            |]
        in
        check
          Alcotest.(array string)
          "filtered"
          [| "prog"; "input.txt"; "-x" |]
          o.T.cli_argv;
        check Alcotest.bool "stats seen" true o.T.cli_stats;
        check
          Alcotest.(option string)
          "journal file" (Some "j.jsonl") o.T.cli_journal;
        check Alcotest.(option int) "metrics port" (Some 9100)
          o.T.cli_metrics_port);
    tc "cli_parse without flags requests nothing" (fun () ->
        let o = T.cli_parse [| "prog"; "input.txt" |] in
        check
          Alcotest.(array string)
          "untouched" [| "prog"; "input.txt" |] o.T.cli_argv;
        check Alcotest.bool "no stats" false o.T.cli_stats;
        check Alcotest.(option string) "no journal" None o.T.cli_journal;
        check Alcotest.(option int) "no metrics port" None o.T.cli_metrics_port);
  ]

(* ------------------------------------------------------------------ *)
(* clock clamping (the wall clock is not monotonic)                    *)
(* ------------------------------------------------------------------ *)

let clock_tests =
  [
    tc "a normal forward clock measures the difference" (fun () ->
        with_fake_clock [ 10.0; 10.5 ] (fun () ->
            T.reset ();
            ignore (T.time "clk.fwd" (fun () -> ()));
            match T.timer "clk.fwd" with
            | Some s -> check (Alcotest.float 1e-9) "0.5s" 0.5 s.T.total_s
            | None -> Alcotest.fail "no sample"));
    tc "a backwards clock clamps timer samples to zero" (fun () ->
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            T.reset ();
            ignore (T.time "clk.back" (fun () -> ()));
            match T.timer "clk.back" with
            | Some s ->
              check (Alcotest.float 0.0) "clamped" 0.0 s.T.total_s;
              check Alcotest.bool "non-negative" true (s.T.max_s >= 0.0)
            | None -> Alcotest.fail "no sample"));
    tc "a backwards clock clamps even when the body raises" (fun () ->
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            T.reset ();
            (try T.time "clk.raise" (fun () -> failwith "boom")
             with Failure _ -> ());
            match T.timer "clk.raise" with
            | Some s -> check (Alcotest.float 0.0) "clamped" 0.0 s.T.total_s
            | None -> Alcotest.fail "no sample"));
    tc "a backwards clock clamps span durations to zero" (fun () ->
        (* the one span model: an event that carries its latency_s; a
           clock stepping back makes that latency negative *)
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            Journal.clear ();
            let t0 = T.now () in
            let latency = T.now () -. t0 in
            Journal.emit ~component:"clk"
              ~attrs:
                [ ("stage", "s"); ("latency_s", Printf.sprintf "%.6f" latency) ]
              "stage.end");
        match Vc_util.Journal_query.spans_of (Journal.events ()) with
        | [ sp ] ->
          check (Alcotest.float 0.0) "clamped" 0.0
            sp.Vc_util.Journal_query.q_duration_s;
          check (Alcotest.float 0.0) "starts at its end" 50.0
            sp.Vc_util.Journal_query.q_start_s
        | l -> Alcotest.fail (Printf.sprintf "%d spans" (List.length l)));
    tc "a backwards clock clamps a phase to zero" (fun () ->
        let ctx = Vc_util.Trace_ctx.make "deadbeef" in
        with_fake_clock [ 100.0; 50.0 ] (fun () ->
            Vc_util.Trace_ctx.with_current ctx (fun () ->
                Vc_util.Phase.run "clk.phase" ignore));
        check
          Alcotest.(list (pair string (float 0.0)))
          "clamped" [ ("clk.phase", 0.0) ]
          (Vc_util.Trace_ctx.phases ctx));
    tc "journal timestamps come from the same injectable clock" (fun () ->
        with_fake_clock [ 42.0 ] (fun () ->
            Journal.clear ();
            Journal.emit ~component:"test" "tick";
            match Journal.events () with
            | [ e ] -> check (Alcotest.float 0.0) "ts" 42.0 e.Journal.ev_ts
            | l -> Alcotest.fail (Printf.sprintf "%d events" (List.length l))));
  ]

(* ------------------------------------------------------------------ *)
(* journal core: ring buffer, the journal file                         *)
(* ------------------------------------------------------------------ *)

(* [f file] with [file] a fresh temp path; afterwards the journal file
   is closed and [file] removed *)
let with_temp_journal f =
  let file = Filename.temp_file "journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Journal.close_jsonl ();
      Sys.remove file)
    (fun () -> f file)

let file_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let decode_line line =
  match Vc_util.Journal_query.parse_line line with
  | Ok e -> e
  | Error msg -> Alcotest.fail msg

(* [line] decodes to [e], its timestamp to the microsecond *)
let check_line e line =
  let e' = decode_line line in
  check Alcotest.int "seq" e.Journal.ev_seq e'.Journal.ev_seq;
  check (Alcotest.float 1e-6) "ts" e.Journal.ev_ts e'.Journal.ev_ts;
  check Alcotest.bool "severity" true
    (e.Journal.ev_severity = e'.Journal.ev_severity);
  check Alcotest.string "component" e.Journal.ev_component
    e'.Journal.ev_component;
  check Alcotest.string "name" e.Journal.ev_name e'.Journal.ev_name;
  check
    Alcotest.(list (pair string string))
    "attrs" e.Journal.ev_attrs e'.Journal.ev_attrs

(* capture what [f] writes to the stderr descriptor *)
let capture_stderr f =
  let tmp = Filename.temp_file "stderr" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Stdlib.flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      Stdlib.flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let text = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  text

let journal_tests =
  [
    tc "emit appends in order with monotone sequence numbers" (fun () ->
        Journal.clear ();
        Journal.emit ~component:"a" "first";
        Journal.emit ~severity:Journal.Warn
          ~attrs:[ ("k", "v") ]
          ~component:"b" "second";
        (match Journal.events () with
        | [ e1; e2 ] ->
          check Alcotest.bool "seq increases" true
            (e2.Journal.ev_seq > e1.Journal.ev_seq);
          check Alcotest.string "component" "b" e2.Journal.ev_component;
          check Alcotest.string "name" "second" e2.Journal.ev_name;
          check
            Alcotest.(list (pair string string))
            "attrs" [ ("k", "v") ] e2.Journal.ev_attrs;
          check Alcotest.string "severity" "WARN"
            (Journal.severity_to_string e2.Journal.ev_severity)
        | l -> Alcotest.fail (Printf.sprintf "%d events" (List.length l)));
        check Alcotest.int "count" 2 (Journal.event_count ()));
    tc "the ring keeps only the newest events" (fun () ->
        Journal.clear ();
        for i = 1 to 300 do
          Journal.emit ~component:"ring" (Printf.sprintf "e%d" i)
        done;
        let names = List.map (fun e -> e.Journal.ev_name) (Journal.events ()) in
        check
          Alcotest.(list string)
          "last 256, oldest first"
          (List.init 256 (fun i -> Printf.sprintf "e%d" (i + 45)))
          names;
        check Alcotest.int "total count unaffected" 300 (Journal.event_count ()));
    tc "events are sequenced in emission order across domains" (fun () ->
        Journal.clear ();
        let b0 = Atomic.make false
        and a1 = Atomic.make false
        and b1 = Atomic.make false
        and read = Atomic.make false in
        let await flag =
          while not (Atomic.get flag) do
            Unix.sleepf 0.001
          done
        in
        let emit name flag =
          Journal.emit ~component:"causal" name;
          Atomic.set flag true
        in
        (* B emits b0, A then a1, B then b1; both domains stay alive
           until the events have been read *)
        let a =
          Domain.spawn (fun () ->
              await b0;
              emit "a1" a1;
              await read)
        in
        let b =
          Domain.spawn (fun () ->
              emit "b0" b0;
              await a1;
              emit "b1" b1;
              await read)
        in
        let names =
          Fun.protect
            ~finally:(fun () ->
              Atomic.set read true;
              Domain.join a;
              Domain.join b)
            (fun () ->
              await b1;
              List.filter_map
                (fun e ->
                  if e.Journal.ev_component = "causal" then
                    Some e.Journal.ev_name
                  else None)
                (Journal.events ()))
        in
        check Alcotest.(list string) "emission order" [ "b0"; "a1"; "b1" ] names);
    tc "timestamps never decrease along seq across domains" (fun () ->
        (* every reading is later than all readings before it, from any
           domain *)
        let tick = Atomic.make 0 in
        Vc_util.Clock.set (fun () ->
            float_of_int (Atomic.fetch_and_add tick 1));
        Fun.protect
          ~finally:(fun () -> Vc_util.Clock.set Unix.gettimeofday)
          (fun () ->
            for round = 1 to 20 do
              Journal.clear ();
              List.init 4 (fun d ->
                  Domain.spawn (fun () ->
                      for i = 1 to 60 do
                        Journal.emit ~component:"ts" (Printf.sprintf "d%d.%d" d i)
                      done))
              |> List.iter Domain.join;
              let rec increasing = function
                | a :: (b :: _ as rest) ->
                  if b.Journal.ev_ts <= a.Journal.ev_ts then
                    Alcotest.failf "round %d: seq %d has ts %g, after %g" round
                      b.Journal.ev_seq b.Journal.ev_ts a.Journal.ev_ts;
                  increasing rest
                | [ _ ] | [] -> ()
              in
              let evs = Journal.events () in
              check Alcotest.int "every event" 240 (List.length evs);
              increasing evs
            done));
    tc "a raising clock leaves the buffer free for other domains" (fun () ->
        Journal.clear ();
        Vc_util.Clock.set (fun () -> raise Exit);
        let raised =
          Fun.protect
            ~finally:(fun () -> Vc_util.Clock.set Unix.gettimeofday)
            (fun () ->
              match Journal.emit ~component:"clock" "lost" with
              | () -> false
              | exception Exit -> true)
        in
        check Alcotest.bool "emit raises the clock's exception" true raised;
        (* a buffer mutex still held would block this emit for good *)
        Domain.join
          (Domain.spawn (fun () -> Journal.emit ~component:"clock" "kept"));
        check
          Alcotest.(list string)
          "only the second event" [ "kept" ]
          (List.map (fun e -> e.Journal.ev_name) (Journal.events ())));
    tc "clear empties the ring and resets the count" (fun () ->
        Journal.emit ~component:"x" "pre";
        Journal.clear ();
        check Alcotest.int "no events" 0 (List.length (Journal.events ()));
        check Alcotest.int "count reset" 0 (Journal.event_count ()));
    tc "a journal line round-trips through the parser" (fun () ->
        Journal.clear ();
        with_temp_journal (fun file ->
            Journal.open_jsonl file;
            Journal.emit ~severity:Journal.Error
              ~attrs:[ ("why", "quote \" and newline \n") ]
              ~component:"portal" "submission";
            match (Journal.events (), file_lines file) with
            | [ e ], [ line ] ->
              check Alcotest.string "escaped attr round-trips"
                "quote \" and newline \n"
                (List.assoc "why" e.Journal.ev_attrs);
              check_line e line
            | evs, lines ->
              Alcotest.failf "%d events, %d lines" (List.length evs)
                (List.length lines)));
    tc "non-finite clock readings keep every journal line decodable"
      (fun () ->
        Journal.clear ();
        let readings =
          [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity ]
        in
        with_temp_journal (fun file ->
            Journal.open_jsonl file;
            List.iter
              (fun ts ->
                Vc_util.Clock.set (fun () -> ts);
                Fun.protect
                  ~finally:(fun () -> Vc_util.Clock.set Unix.gettimeofday)
                  (fun () -> Journal.emit ~component:"clock" "odd"))
              readings;
            Journal.flush ();
            let lines = file_lines file in
            check Alcotest.int "one line per reading" 4 (List.length lines);
            List.iter
              (fun line ->
                let e = decode_line line in
                check Alcotest.bool "ts reads as nan" true
                  (Float.is_nan e.Journal.ev_ts);
                check Alcotest.string "name" "odd" e.Journal.ev_name)
              lines));
    tc "sinks see every event and can be removed" (fun () ->
        Journal.clear ();
        with_temp_journal (fun file ->
            Journal.open_jsonl file;
            Journal.emit ~component:"s" "visible";
            Journal.close_jsonl ();
            Journal.emit ~component:"s" "invisible";
            Journal.flush ();
            check
              Alcotest.(list string)
              "one line" [ "visible" ]
              (List.map
                 (fun l -> (decode_line l).Journal.ev_name)
                 (file_lines file))));
    tc "a raising sink is dropped instead of breaking emit" (fun () ->
        (* every write to /dev/full fails *)
        if Sys.file_exists "/dev/full" then begin
          Journal.clear ();
          let warnings =
            capture_stderr (fun () ->
                Journal.open_jsonl "/dev/full";
                Journal.emit ~component:"s" "first";
                Journal.flush ();
                (* the file was closed; emit keeps working *)
                Journal.emit ~component:"s" "second";
                Journal.flush ())
          in
          check Alcotest.int "both recorded" 2 (Journal.event_count ());
          check Alcotest.int "one warning" 1
            (List.length
               (List.filter (fun l -> l <> "")
                  (String.split_on_char '\n' warnings)))
        end);
    tc "open_jsonl streams events to the file as JSON lines" (fun () ->
        Journal.clear ();
        with_temp_journal (fun file ->
            Journal.open_jsonl file;
            Journal.emit ~component:"f" ~attrs:[ ("n", "1") ] "flushed";
            Journal.close_jsonl ();
            let lines = file_lines file in
            check Alcotest.int "one line" 1 (List.length lines);
            let j = parse_json (List.hd lines) in
            check Alcotest.bool "event name" true
              (obj_field "event" j = Some (Json.Str "flushed"))));
    tc "dump_flight_recorder formats the trailing window" (fun () ->
        Journal.clear ();
        for i = 1 to 40 do
          Journal.emit ~component:"loop" (Printf.sprintf "it%d" i)
        done;
        let captured = Buffer.create 256 in
        Journal.set_dump_printer (Buffer.add_string captured);
        Fun.protect
          ~finally:(fun () -> Journal.set_dump_printer prerr_string)
          (fun () -> Journal.dump_flight_recorder ~reason:"unit test" ());
        let text = Buffer.contents captured in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i =
            i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
          in
          go 0
        in
        let line i = contains (Printf.sprintf " it%d\n" i) in
        check Alcotest.bool "reason present" true (contains "unit test");
        for i = 9 to 40 do
          check Alcotest.bool (Printf.sprintf "it%d present" i) true (line i)
        done;
        check Alcotest.bool "older events excluded" false (line 8));
  ]

(* ------------------------------------------------------------------ *)
(* regression gating (bench compare)                                   *)
(* ------------------------------------------------------------------ *)

let telemetry_dump ~mean ~hits =
  Printf.sprintf
    {|{"counters":{"portal.kbdd.cache_hits":%d,"portal.kbdd.submits":10},
       "timers":{"portal.kbdd.latency":{"count":10,"total_s":%f,"mean_s":%f,
                 "p50_s":%f,"p90_s":%f,"max_s":%f}},
       "probes":{}}|}
    hits (10.0 *. mean) mean mean mean mean

let qor_dump ~latency ~wirelength =
  Printf.sprintf
    {|{"stages":[{"stage":"routing","latency_s":%f,
       "metrics":{"wirelength":%f,"nets_routed":4.0}}],"total_latency_s":%f}|}
    latency wirelength latency

let regress_tests =
  [
    tc "identical telemetry dumps pass the gate" (fun () ->
        let j = parse_json (telemetry_dump ~mean:0.010 ~hits:9) in
        let v = Regress.compare_json ~baseline:j ~current:j () in
        check Alcotest.(list string) "no regressions" [] v.Regress.regressions;
        check Alcotest.bool "compared something" true (v.Regress.compared > 0));
    tc "a 2x latency regression trips the gate" (fun () ->
        let base = parse_json (telemetry_dump ~mean:0.010 ~hits:9) in
        let cur = parse_json (telemetry_dump ~mean:0.020 ~hits:9) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "regression flagged" true
          (v.Regress.regressions <> []));
    tc "latency deltas under the noise floor are ignored" (fun () ->
        (* 2x relative but only 10us absolute: below the 0.1ms floor *)
        let base = parse_json (telemetry_dump ~mean:0.00001 ~hits:9) in
        let cur = parse_json (telemetry_dump ~mean:0.00002 ~hits:9) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.(list string) "no regressions" [] v.Regress.regressions);
    tc "fewer cache hits is a QoR regression" (fun () ->
        let base = parse_json (telemetry_dump ~mean:0.010 ~hits:9) in
        let cur = parse_json (telemetry_dump ~mean:0.010 ~hits:4) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "regression flagged" true
          (v.Regress.regressions <> []));
    tc "flow QoR reports gate on per-stage metrics" (fun () ->
        let base = parse_json (qor_dump ~latency:0.010 ~wirelength:17.0) in
        let same = Regress.compare_json ~baseline:base ~current:base () in
        check Alcotest.(list string) "identical passes" []
          same.Regress.regressions;
        let worse = parse_json (qor_dump ~latency:0.010 ~wirelength:34.0) in
        let v = Regress.compare_json ~baseline:base ~current:worse () in
        check Alcotest.bool "wirelength regression flagged" true
          (v.Regress.regressions <> []);
        let better = parse_json (qor_dump ~latency:0.010 ~wirelength:10.0) in
        let v2 = Regress.compare_json ~baseline:base ~current:better () in
        check Alcotest.(list string) "improvement is not a regression" []
          v2.Regress.regressions;
        check Alcotest.bool "improvement reported" true
          (v2.Regress.improvements <> []));
    tc "a doubled stage latency trips the gate" (fun () ->
        let base = parse_json (qor_dump ~latency:0.010 ~wirelength:17.0) in
        let cur = parse_json (qor_dump ~latency:0.020 ~wirelength:17.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "latency regression flagged" true
          (v.Regress.regressions <> []));
    tc "a speedup gauge drop beyond tolerance trips the gate" (fun () ->
        let dump ~speedup ~depth =
          Printf.sprintf
            {|{"counters":{},"gauges":{"server.w8.speedup":%f,
               "server.queue_depth":%f},"timers":{},"probes":{}}|}
            speedup depth
        in
        let base = parse_json (dump ~speedup:4.0 ~depth:3.0) in
        (* 4.0 -> 2.0 is a 50% drop: beyond the default 25% tolerance *)
        let cur = parse_json (dump ~speedup:2.0 ~depth:3.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.bool "speedup regression flagged" true
          (v.Regress.regressions <> []);
        (* 4.0 -> 3.5 is within the 25% tolerance *)
        let ok = parse_json (dump ~speedup:3.5 ~depth:3.0) in
        let v2 = Regress.compare_json ~baseline:base ~current:ok () in
        check Alcotest.(list string) "within tolerance passes" []
          v2.Regress.regressions;
        check Alcotest.bool "speedup gauge was gated" true
          (v2.Regress.compared > 0);
        (* a big speedup gain is reported as an improvement *)
        let faster = parse_json (dump ~speedup:6.0 ~depth:3.0) in
        let v3 = Regress.compare_json ~baseline:base ~current:faster () in
        check Alcotest.bool "improvement reported" true
          (v3.Regress.improvements <> []));
    tc "non-speedup gauges are informational only" (fun () ->
        let dump depth =
          Printf.sprintf
            {|{"counters":{},"gauges":{"server.queue_depth":%f},
               "timers":{},"probes":{}}|}
            depth
        in
        let base = parse_json (dump 3.0) in
        let cur = parse_json (dump 300.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        check Alcotest.(list string) "no regressions" [] v.Regress.regressions;
        check Alcotest.int "nothing gated" 0 v.Regress.compared;
        check Alcotest.bool "noted" true (v.Regress.notes <> []));
    tc "render summarizes the verdict" (fun () ->
        let base = parse_json (qor_dump ~latency:0.010 ~wirelength:17.0) in
        let cur = parse_json (qor_dump ~latency:0.030 ~wirelength:17.0) in
        let v = Regress.compare_json ~baseline:base ~current:cur () in
        let text = Regress.render v in
        check Alcotest.bool "mentions REGRESSIONS" true
          (String.length text > 0
          &&
          let rec find i =
            i + 11 <= String.length text
            && (String.sub text i 11 = "REGRESSIONS" || find (i + 1))
          in
          find 0));
  ]

(* ------------------------------------------------------------------ *)
(* portal cache + counters                                             *)
(* ------------------------------------------------------------------ *)

(* Each test resets the global telemetry + cache so counts are exact. *)
let fresh () =
  T.reset ();
  Portal.clear_cache ();
  Portal.set_cache_capacity 512;
  Portal.create_session ()

let submits tool = T.counter ("portal." ^ tool ^ ".submits")
let executions tool = T.counter ("portal." ^ tool ^ ".executions")
let hits tool = T.counter ("portal." ^ tool ^ ".cache_hits")

(* submit and collapse to the display string - these tests assert on
   counters and output bytes, not on the outcome constructors *)
let psubmit s tool input = Portal.outcome_output (Portal.submit_result s tool input)

let portal_tests =
  [
    tc "repeat submission is a cache hit with byte-identical output" (fun () ->
        let s = fresh () in
        let input = "boolean a b\nf = a & b\nsatcount f" in
        let out1 = psubmit s Portal.kbdd input in
        check Alcotest.int "one execution" 1 (executions "kbdd");
        check Alcotest.int "no hit yet" 0 (hits "kbdd");
        let out2 = psubmit s Portal.kbdd input in
        check Alcotest.string "byte-identical" out1 out2;
        check Alcotest.int "still one execution" 1 (executions "kbdd");
        check Alcotest.int "one hit" 1 (hits "kbdd");
        check Alcotest.bool "global stats agree" true
          (Portal.cache_stats () = (1, 1)));
    tc "cache is keyed by tool as well as input" (fun () ->
        let s = fresh () in
        let input = "not a valid anything" in
        ignore (psubmit s Portal.kbdd input);
        ignore (psubmit s Portal.espresso input);
        check Alcotest.int "kbdd executed" 1 (executions "kbdd");
        check Alcotest.int "espresso executed too" 1 (executions "espresso"));
    tc "counters are monotone across submits" (fun () ->
        let s = fresh () in
        let prev = ref (-1) in
        for i = 1 to 5 do
          ignore
            (psubmit s Portal.axb
               (Printf.sprintf "n 1\nrow %d\nrhs %d" i i));
          let now = submits "axb" in
          check Alcotest.bool "monotone" true (now > !prev);
          check Alcotest.int "equals submit count" i now;
          prev := now
        done;
        match T.timer "portal.axb.latency" with
        | Some t -> check Alcotest.int "latency sampled per submit" 5 t.T.count
        | None -> Alcotest.fail "no latency timer");
    tc "runaway rejection counts but does not execute or cache" (fun () ->
        let s = fresh () in
        let big = String.concat "\n" (List.init 3000 (fun _ -> "x")) in
        let out = psubmit s Portal.kbdd big in
        check Alcotest.bool "error text" true
          (String.length out >= 5 && String.sub out 0 5 = "error");
        check Alcotest.int "rejected" 1 (T.counter "portal.kbdd.rejected");
        check Alcotest.int "not executed" 0 (executions "kbdd");
        check Alcotest.int "not cached" 0 (Portal.cache_size ()));
    tc "LRU eviction respects the capacity bound" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 2;
        let input i = Printf.sprintf "n 1\nrow %d\nrhs %d" i i in
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 2));
        ignore (psubmit s Portal.axb (input 3));
        (* capacity held; input 1 was the stalest and got evicted *)
        check Alcotest.int "bounded" 2 (Portal.cache_size ());
        check Alcotest.int "one eviction" 1
          (T.counter "portal.cache.evictions");
        ignore (psubmit s Portal.axb (input 3));
        check Alcotest.int "3 still cached" 1 (hits "axb");
        ignore (psubmit s Portal.axb (input 1));
        check Alcotest.int "1 was re-executed" 4 (executions "axb"));
    tc "LRU refreshes recency on hit" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 2;
        let input i = Printf.sprintf "n 1\nrow %d\nrhs %d" i i in
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 2));
        ignore (psubmit s Portal.axb (input 1));
        (* touch 1 *)
        ignore (psubmit s Portal.axb (input 3));
        (* evicts 2, not 1 *)
        ignore (psubmit s Portal.axb (input 1));
        check Alcotest.int "1 stayed cached" 2 (hits "axb");
        ignore (psubmit s Portal.axb (input 2));
        check Alcotest.int "2 was re-executed" 4 (executions "axb"));
    tc "capacity 0 disables caching" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 0;
        let input = "n 1\nrow 2\nrhs 4" in
        ignore (psubmit s Portal.axb input);
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "executed twice" 2 (executions "axb");
        check Alcotest.int "nothing cached" 0 (Portal.cache_size ()));
    tc "shrinking the capacity evicts down to the bound" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 8;
        for i = 1 to 6 do
          ignore
            (psubmit s Portal.axb
               (Printf.sprintf "n 1\nrow %d\nrhs %d" i i))
        done;
        check Alcotest.int "six cached" 6 (Portal.cache_size ());
        Portal.set_cache_capacity 3;
        check Alcotest.int "evicted to bound" 3 (Portal.cache_size ()));
    tc "cache hits still append to the session history" (fun () ->
        let s = fresh () in
        let input = "n 1\nrow 2\nrhs 4" in
        ignore (psubmit s Portal.axb input);
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "two history entries" 2
          (List.length (Portal.history s Portal.axb)));
    tc "submit times the execute phase on miss only" (fun () ->
        let s = fresh () in
        let input = "boolean a\nf = a\nsize f" in
        let phases () =
          let ctx = Vc_util.Trace_ctx.make "deadbeef" in
          Vc_util.Trace_ctx.with_current ctx (fun () ->
              ignore (psubmit s Portal.kbdd input));
          List.map fst (Vc_util.Trace_ctx.phases ctx)
        in
        check Alcotest.(list string) "miss" [ "cache"; "execute" ] (phases ());
        check Alcotest.(list string) "hit" [ "cache" ] (phases ()));
    tc "counters stay monotone with the cache disabled" (fun () ->
        let s = fresh () in
        Portal.set_cache_capacity 0;
        let input = "n 1\nrow 2\nrhs 4" in
        let prev = ref (-1) in
        for i = 1 to 4 do
          ignore (psubmit s Portal.axb input);
          let now = submits "axb" in
          check Alcotest.bool "monotone" true (now > !prev);
          check Alcotest.int "submits" i now;
          check Alcotest.int "every submit executes" i (executions "axb");
          prev := now
        done;
        check Alcotest.int "never a hit" 0 (hits "axb");
        check Alcotest.int "nothing cached" 0 (Portal.cache_size ()));
    tc "clear_cache mid-session forces re-execution, counters keep" (fun () ->
        let s = fresh () in
        let input = "n 1\nrow 2\nrhs 4" in
        ignore (psubmit s Portal.axb input);
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "one hit before clearing" 1 (hits "axb");
        Portal.clear_cache ();
        check Alcotest.int "cache emptied" 0 (Portal.cache_size ());
        ignore (psubmit s Portal.axb input);
        check Alcotest.int "re-executed after clear" 2 (executions "axb");
        check Alcotest.int "hit counter kept its history" 1 (hits "axb");
        check Alcotest.int "history intact" 3
          (List.length (Portal.history s Portal.axb)));
  ]

(* ------------------------------------------------------------------ *)
(* portal <-> journal integration                                      *)
(* ------------------------------------------------------------------ *)

let journal_outcomes () =
  List.filter_map
    (fun e ->
      if e.Journal.ev_component = "portal" && e.Journal.ev_name = "submission"
      then List.assoc_opt "outcome" e.Journal.ev_attrs
      else None)
    (Journal.events ())

let portal_journal_tests =
  [
    tc "each submission emits one journal event with its outcome" (fun () ->
        let s = fresh () in
        Journal.clear ();
        let input = "boolean a b\nf = a & b\nsatcount f" in
        ignore (psubmit s Portal.kbdd input);
        ignore (psubmit s Portal.kbdd input);
        check
          Alcotest.(list string)
          "executed then cache_hit"
          [ "executed"; "cache_hit" ]
          (journal_outcomes ());
        (match Journal.events () with
        | e :: _ ->
          check Alcotest.bool "tool attr" true
            (List.assoc_opt "tool" e.Journal.ev_attrs = Some "kbdd");
          check Alcotest.bool "digest attr" true
            (match List.assoc_opt "digest" e.Journal.ev_attrs with
            | Some d -> String.length d = 32
            | None -> false);
          check Alcotest.bool "latency attr" true
            (List.mem_assoc "latency_s" e.Journal.ev_attrs)
        | [] -> Alcotest.fail "no events"));
    tc "journal cache_hit events agree with the telemetry counter" (fun () ->
        let s = fresh () in
        Journal.clear ();
        let input i = Printf.sprintf "n 1\nrow %d\nrhs %d" i i in
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 1));
        ignore (psubmit s Portal.axb (input 2));
        ignore (psubmit s Portal.axb (input 1));
        let hit_events =
          List.length
            (List.filter (fun o -> o = "cache_hit") (journal_outcomes ()))
        in
        check Alcotest.int "counter agrees" (hits "axb") hit_events;
        check Alcotest.int "four events total" 4
          (List.length (journal_outcomes ())));
    tc "a runaway rejection logs an Error and dumps nothing" (fun () ->
        let s = fresh () in
        Journal.clear ();
        let dumps = ref 0 in
        Journal.set_dump_printer (fun _ -> incr dumps);
        let oversized = String.concat "\n" (List.init 3000 (fun _ -> "x")) in
        let outs =
          Fun.protect
            ~finally:(fun () -> Journal.set_dump_printer prerr_string)
            (fun () -> List.init 100 (fun _ -> psubmit s Portal.kbdd oversized))
        in
        check Alcotest.bool "every upload rejected" true
          (List.for_all (String.starts_with ~prefix:"error") outs);
        (* a flood of bad uploads is not a flood of dumps *)
        check Alcotest.int "no dump" 0 !dumps;
        (* each rejection is its own submission event, marked Error, with
           a reason *)
        let evs =
          List.filter
            (fun e -> e.Journal.ev_name = "submission")
            (Journal.events ())
        in
        check Alcotest.int "one event per rejection" 100 (List.length evs);
        List.iter
          (fun ev ->
            check Alcotest.string "severity" "ERROR"
              (Journal.severity_to_string ev.Journal.ev_severity);
            check Alcotest.(option string) "outcome" (Some "rejected")
              (List.assoc_opt "outcome" ev.Journal.ev_attrs);
            check Alcotest.bool "reason recorded" true
              (List.mem_assoc "reason" ev.Journal.ev_attrs))
          evs);
  ]

(* ------------------------------------------------------------------ *)
(* gauges, histograms, extended timer summaries                        *)
(* ------------------------------------------------------------------ *)

let metric_kinds_tests =
  [
    tc "gauges set, overwrite and list" (fun () ->
        T.reset ();
        check Alcotest.bool "absent" true (T.gauge "g.depth" = None);
        T.set_gauge "g.depth" 3.0;
        T.set_gauge "g.depth" 1.5;
        T.set_gauge "g.other" 7.0;
        check Alcotest.bool "overwritten" true (T.gauge "g.depth" = Some 1.5);
        check
          Alcotest.(list (pair string (float 1e-9)))
          "sorted listing"
          [ ("g.depth", 1.5); ("g.other", 7.0) ]
          (T.gauges ()));
    tc "timer summaries carry p99 and stddev" (fun () ->
        T.reset ();
        (* 100 samples: 1ms..100ms; nearest-rank p99 = 99ms *)
        for i = 1 to 100 do
          T.observe "t.p99" (float_of_int i /. 1000.0)
        done;
        match T.timer "t.p99" with
        | None -> Alcotest.fail "no samples"
        | Some s ->
          check_rel "p99" 0.099 s.T.p99_s;
          let samples = List.init 100 (fun i -> float_of_int (i + 1) /. 1000.0) in
          check (Alcotest.float 1e-9) "stddev matches Stats"
            (Vc_util.Stats.stddev samples) s.T.stddev_s);
    tc "histogram observations still feed the exact timer" (fun () ->
        T.reset ();
        T.observe "h.both" 0.010;
        T.observe "h.both" 0.030;
        match T.timer "h.both" with
        | Some s ->
          check Alcotest.int "timer count" 2 s.T.count;
          check (Alcotest.float 1e-12) "timer total" 0.040 s.T.total_s;
          check (Alcotest.float 1e-12) "timer mean" 0.020 s.T.mean_s;
          check (Alcotest.float 1e-12) "timer max" 0.030 s.T.max_s
        | None -> Alcotest.fail "timer missing");
    tc "reset clears gauges and histograms" (fun () ->
        T.reset ();
        T.set_gauge "g.gone" 1.0;
        T.observe "h.gone" 0.5;
        T.reset ();
        check Alcotest.bool "gauge gone" true (T.gauge "g.gone" = None);
        check Alcotest.bool "histogram gone" true (T.histogram "h.gone" = None));
    tc "to_json carries gauges and histograms" (fun () ->
        T.reset ();
        T.set_gauge "g.j" 2.5;
        T.observe "h.j" 0.05;
        let j = parse_json (T.to_json ()) in
        (match obj_field "gauges" j with
        | Some g -> check Alcotest.bool "gauge value" true
            (obj_field "g.j" g = Some (Json.Num 2.5))
        | None -> Alcotest.fail "no gauges object");
        (match obj_field "histograms" j with
        | Some (Json.Obj [ ("h.j", h) ]) ->
          check Alcotest.bool "count" true (obj_field "count" h = Some (Json.Num 1.0))
        | _ -> Alcotest.fail "no histograms object");
        match obj_field "timers" j with
        | Some (Json.Obj [ ("h.j", t) ]) ->
          check Alcotest.bool "p99 field" true (obj_field "p99_s" t <> None);
          check Alcotest.bool "stddev field" true
            (obj_field "stddev_s" t <> None)
        | _ -> Alcotest.fail "no timers object");
  ]

(* ------------------------------------------------------------------ *)
(* bounded log-bucketed timer histograms                               *)
(* ------------------------------------------------------------------ *)

let summary_exn name =
  match T.timer name with
  | Some s -> s
  | None -> Alcotest.failf "timer %s missing" name

let histogram_tests =
  [
    tc "observe files negative, NaN and infinite values without raising"
      (fun () ->
        T.reset ();
        List.iter (T.observe "h.odd") [ -1.0; nan; neg_infinity; infinity ];
        let s = summary_exn "h.odd" in
        check Alcotest.int "all four counted" 4 s.T.count;
        check (Alcotest.float 0.0) "median is the zero bucket" 0.0 s.T.p50_s;
        check (Alcotest.float 0.0) "infinity clamps to the range top" 1e6
          s.T.max_s;
        check (Alcotest.float 0.0) "finite total" 1e6 s.T.total_s;
        match T.histogram "h.odd" with
        | Some h ->
          check Alcotest.int "three in the zero bucket" 3
            (List.assoc 1e-5 h.T.buckets);
          check Alcotest.int "one over every bound" 3
            (List.assoc 10.0 h.T.buckets);
          check Alcotest.int "+Inf count" 4 h.T.hist_count
        | None -> Alcotest.fail "histogram missing");
    tc "a million observations neither grow the heap nor allocate"
      (fun () ->
        T.reset ();
        Gc.full_major ();
        let live0 = (Gc.stat ()).Gc.live_words in
        T.observe "h.mem" 0.001;
        let minor0 = Gc.minor_words () in
        for _ = 2 to 1_000_000 do
          T.observe "h.mem" 0.001
        done;
        let minor = Gc.minor_words () -. minor0 in
        Gc.full_major ();
        let grown = (Gc.stat ()).Gc.live_words - live0 in
        check Alcotest.int "count" 1_000_000 (summary_exn "h.mem").T.count;
        (* the whole histogram is ~12 KB; 16 KB is the documented ceiling *)
        if grown >= 16 * 1024 / (Sys.word_size / 8) then
          Alcotest.failf "heap grew by %d words" grown;
        if minor > 64.0 then
          Alcotest.failf "observe allocated %.0f minor words" minor);
    tc "a million counter bumps allocate nothing" (fun () ->
        T.reset ();
        T.incr "c.mem";
        let minor0 = Gc.minor_words () in
        for _ = 2 to 1_000_000 do
          T.incr "c.mem"
        done;
        let minor = Gc.minor_words () -. minor0 in
        check Alcotest.int "count" 1_000_000 (T.counter "c.mem");
        if minor > 64.0 then
          Alcotest.failf "incr allocated %.0f minor words" minor);
    prop ~count:60
      "percentiles within rel_error of Stats.percentile, log-uniform 1us..10s"
      QCheck.(
        list_of_size
          Gen.(int_range 1 3000)
          (float_range (Float.log 1e-6) (Float.log 10.0)))
      (fun logs ->
        T.reset ();
        let xs = List.map Float.exp logs in
        List.iter (T.observe "h.acc") xs;
        let s = summary_exn "h.acc" in
        let module S = Vc_util.Stats in
        List.for_all
          (fun (p, v) -> within_rel (S.percentile xs p) v)
          [ (50.0, s.T.p50_s); (90.0, s.T.p90_s); (99.0, s.T.p99_s) ]
        && s.T.count = List.length xs
        && s.T.total_s = List.fold_left ( +. ) 0.0 xs
        && s.T.mean_s = S.mean xs
        && s.T.max_s = S.maximum xs);
    tc "two domains recording disjoint halves merge like one domain"
      (fun () ->
        T.reset ();
        let xs =
          List.init 2000 (fun i -> 1e-6 *. Float.pow 1.007 (float_of_int i))
        in
        List.iter (T.observe "h.one") xs;
        let half keep =
          Domain.spawn (fun () ->
              List.iteri
                (fun i x -> if i mod 2 = keep then T.observe "h.two" x)
                xs)
        in
        List.iter Domain.join [ half 0; half 1 ];
        let one = summary_exn "h.one" and two = summary_exn "h.two" in
        check Alcotest.int "count" one.T.count two.T.count;
        check (Alcotest.float 0.0) "max" one.T.max_s two.T.max_s;
        List.iter
          (fun (what, a, b) -> check (Alcotest.float 0.0) what a b)
          [
            ("p50", one.T.p50_s, two.T.p50_s);
            ("p90", one.T.p90_s, two.T.p90_s);
            ("p99", one.T.p99_s, two.T.p99_s);
          ];
        (* the sums only differ by addition order *)
        check (Alcotest.float 1e-12) "total" one.T.total_s two.T.total_s;
        check (Alcotest.float 1e-12) "stddev" one.T.stddev_s two.T.stddev_s;
        check Alcotest.bool "same folded buckets" true
          (Option.map (fun h -> h.T.buckets) (T.histogram "h.one")
          = Option.map (fun h -> h.T.buckets) (T.histogram "h.two")));
    tc "window subtracts snapshots and survives a reset" (fun () ->
        T.reset ();
        let snap () = Option.get (T.snapshot "h.win") in
        for _ = 1 to 100 do
          T.observe "h.win" 0.001
        done;
        let a = snap () in
        for _ = 1 to 10 do
          T.observe "h.win" 0.5
        done;
        let b = snap () in
        (match T.window ~prev:a b with
        | Some w ->
          check Alcotest.int "window count" 10 w.T.count;
          check (Alcotest.float 1e-9) "window total" 5.0 w.T.total_s;
          check_rel "window p50" 0.5 w.T.p50_s;
          check_rel "window max" 0.5 w.T.max_s
        | None -> Alcotest.fail "empty window");
        check Alcotest.bool "no new observations: no window" true
          (T.window ~prev:b b = None);
        T.reset ();
        T.observe "h.win" 0.002;
        match T.window ~prev:b (snap ()) with
        | Some w ->
          check Alcotest.int "after reset: the current snapshot" 1 w.T.count
        | None -> Alcotest.fail "reset window lost");
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let prometheus_tests =
  [
    tc "counters become _total counter families" (fun () ->
        T.reset ();
        T.incr ~by:3 "portal.kbdd.submits";
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE line" true
          (contains text "# TYPE vc_portal_kbdd_submits_total counter");
        check Alcotest.bool "sample" true
          (contains text "vc_portal_kbdd_submits_total 3\n"));
    tc "gauges become gauge families" (fun () ->
        T.reset ();
        T.set_gauge "portal.cache.size" 17.0;
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE line" true
          (contains text "# TYPE vc_portal_cache_size gauge");
        check Alcotest.bool "sample" true
          (contains text "vc_portal_cache_size 17\n"));
    tc "every timer exposes _bucket/_sum/_count over the default bounds"
      (fun () ->
        T.reset ();
        T.observe "flow.route" 0.004;
        T.observe "flow.route" 0.04;
        T.observe "flow.route" 0.4;
        T.observe "flow.route" 40.0;
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE histogram" true
          (contains text "# TYPE vc_flow_route_seconds histogram");
        List.iter
          (fun (le, n) ->
            check Alcotest.bool ("le " ^ le) true
              (contains text
                 (Printf.sprintf "vc_flow_route_seconds_bucket{le=\"%s\"} %d\n"
                    le n)))
          [ ("0.0025", 0); ("0.005", 1); ("0.05", 2); ("0.5", 3); ("10", 3);
            ("+Inf", 4) ];
        check Alcotest.bool "count" true
          (contains text "vc_flow_route_seconds_count 4\n");
        check Alcotest.bool "sum is exact" true
          (contains text "vc_flow_route_seconds_sum 40.444\n"));
    tc "plain timers render as histogram families, not summaries" (fun () ->
        T.reset ();
        for i = 1 to 10 do
          T.observe "t.plain" (float_of_int i /. 100.0)
        done;
        let text = T.to_prometheus () in
        check Alcotest.bool "TYPE histogram" true
          (contains text "# TYPE vc_t_plain_seconds histogram");
        check Alcotest.bool "no summary family" false (contains text "summary");
        check Alcotest.bool "no quantile series" false
          (contains text "quantile=");
        check Alcotest.bool "le 0.025 holds the two smallest" true
          (contains text "vc_t_plain_seconds_bucket{le=\"0.025\"} 2\n");
        check Alcotest.bool "count" true
          (contains text "vc_t_plain_seconds_count 10\n"));
    tc "the journal event count is exported" (fun () ->
        T.reset ();
        Journal.clear ();
        Journal.emit ~component:"x" "e1";
        Journal.emit ~component:"x" "e2";
        check Alcotest.bool "journal counter" true
          (contains (T.to_prometheus ()) "vc_journal_events_total 2\n"));
  ]

(* ------------------------------------------------------------------ *)
(* metrics server (driven over a socketpair - no TCP accept loop)      *)
(* ------------------------------------------------------------------ *)

module MS = Vc_util.Metrics_server

(* Start an exporter on an ephemeral port (to get a [t]), push [req]
   through handle_client over a socketpair, and return the raw response. *)
let with_server ?on_request metrics f =
  let srv = MS.start ?on_request ~announce:false ~metrics ~port:0 () in
  Fun.protect ~finally:(fun () -> MS.stop srv) (fun () -> f srv)

let roundtrip srv req =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let b = Bytes.of_string req in
  ignore (Unix.write ours b 0 (Bytes.length b));
  MS.handle_client srv theirs;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  (try
     let rec drain () =
       let n = Unix.read ours chunk 0 (Bytes.length chunk) in
       if n > 0 then begin
         Buffer.add_subbytes buf chunk 0 n;
         drain ()
       end
     in
     drain ()
   with Unix.Unix_error _ -> ());
  Unix.close ours;
  Buffer.contents buf

let metrics_server_tests =
  [
    tc "GET /metrics serves the exposition with the right content type"
      (fun () ->
        with_server
          (fun () -> "# TYPE vc_x_total counter\nvc_x_total 1\n")
          (fun srv ->
            let resp = roundtrip srv "GET /metrics HTTP/1.1\r\n\r\n" in
            check Alcotest.bool "200" true (contains resp "HTTP/1.1 200 OK");
            check Alcotest.bool "content type" true
              (contains resp "text/plain; version=0.0.4; charset=utf-8");
            check Alcotest.bool "body" true (contains resp "vc_x_total 1\n")));
    tc "GET /healthz answers ok" (fun () ->
        with_server
          (fun () -> "")
          (fun srv ->
            let resp = roundtrip srv "GET /healthz HTTP/1.1\r\n\r\n" in
            check Alcotest.bool "200" true (contains resp "200 OK");
            check Alcotest.bool "ok body" true (contains resp "ok\n")));
    tc "unknown paths are 404, non-GET is 405, garbage is 400" (fun () ->
        with_server
          (fun () -> "")
          (fun srv ->
            check Alcotest.bool "404" true
              (contains (roundtrip srv "GET /nope HTTP/1.1\r\n\r\n") "404");
            check Alcotest.bool "405" true
              (contains (roundtrip srv "POST /metrics HTTP/1.1\r\n\r\n") "405");
            check Alcotest.bool "400" true
              (contains (roundtrip srv "garbage\r\n\r\n") "400")));
    tc "query strings are stripped before routing" (fun () ->
        with_server
          (fun () -> "body\n")
          (fun srv ->
            check Alcotest.bool "routed" true
              (contains
                 (roundtrip srv "GET /metrics?foo=1 HTTP/1.1\r\n\r\n")
                 "200 OK")));
    tc "a raising metrics thunk degrades to a comment body" (fun () ->
        with_server
          (fun () -> failwith "renderer broke")
          (fun srv ->
            let resp = roundtrip srv "GET /metrics HTTP/1.1\r\n\r\n" in
            check Alcotest.bool "still 200" true (contains resp "200 OK");
            check Alcotest.bool "error comment" true
              (contains resp "# metrics renderer failed")));
    tc "on_request sees the path of every request" (fun () ->
        let seen = ref [] in
        with_server
          ~on_request:(fun p -> seen := p :: !seen)
          (fun () -> "")
          (fun srv ->
            ignore (roundtrip srv "GET /metrics HTTP/1.1\r\n\r\n");
            ignore (roundtrip srv "GET /healthz HTTP/1.1\r\n\r\n");
            check
              Alcotest.(list string)
              "paths" [ "/metrics"; "/healthz" ] (List.rev !seen)));
    tc "port 0 resolves to a real ephemeral port" (fun () ->
        with_server
          (fun () -> "")
          (fun srv -> check Alcotest.bool "nonzero" true (MS.port srv > 0)));
    tc "a silent client cannot hold handle_client" (fun () ->
        with_server
          (fun () -> "")
          (fun srv ->
            let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            let t0 = Unix.gettimeofday () in
            let (), in_time =
              within ~limit:3.0
                ~unstick:(fun () -> Unix.shutdown ours Unix.SHUTDOWN_ALL)
                (fun () -> MS.handle_client srv theirs)
            in
            let took = Unix.gettimeofday () -. t0 in
            Unix.close ours;
            if not in_time then
              Alcotest.failf
                "handle_client waited %.1f s on a peer that never wrote" took));
  ]

(* ------------------------------------------------------------------ *)
(* journal degradation: a bad journal file must not stop the tool     *)
(* ------------------------------------------------------------------ *)

let journal_degrade_tests =
  [
    tc "open_jsonl on an unopenable path degrades instead of raising"
      (fun () ->
        Journal.clear ();
        (* a directory cannot be opened as a file *)
        (match Journal.open_jsonl "." with
        | () -> ()
        | exception _ -> Alcotest.fail "open_jsonl raised");
        (* and the tool keeps journaling without a file *)
        Journal.emit ~component:"degrade" "still.running";
        check Alcotest.int "event recorded" 1 (Journal.event_count ()));
    tc "a sink that starts failing mid-run is detached once" (fun () ->
        Journal.clear ();
        let dir = temp_dir "vc_roll" in
        let base = Filename.concat dir "run.jsonl" in
        let next = Journal.segment_path base 1 in
        Fun.protect
          ~finally:(fun () ->
            Journal.close_jsonl ();
            if Sys.file_exists next then Unix.rmdir next;
            rm_rf dir)
          (fun () ->
            let warnings =
              capture_stderr (fun () ->
                  (* every line fills a segment, and the next segment's
                     path is a directory: the first roll cannot open it *)
                  Journal.open_jsonl ~segment_bytes:1 base;
                  Unix.mkdir next 0o755;
                  List.iter
                    (fun name ->
                      Journal.emit ~component:"degrade" name;
                      Journal.flush ())
                    [ "ok"; "boom"; "after" ])
            in
            check Alcotest.int "one warning" 1
              (List.length
                 (List.filter
                    (fun l -> l <> "")
                    (String.split_on_char '\n' warnings)));
            check Alcotest.bool "names the file" true
              (String.starts_with ~prefix:("journal: sink jsonl:" ^ base)
                 warnings);
            check Alcotest.int "only the first line written" 1
              (List.length (file_lines (Journal.segment_path base 0)));
            check Alcotest.int "all events recorded" 3
              (Journal.event_count ())));
  ]

(* ------------------------------------------------------------------ *)
(* journal storage: events as reused bytes                             *)
(* ------------------------------------------------------------------ *)

(* an event shaped like the portal's [submission]: five attributes, each
   value a fresh string *)
let portal_event i =
  Journal.emit ~component:"portal"
    ~attrs:
      [
        ("tool", Printf.sprintf "tool%d" (i mod 5));
        ("digest", Digest.to_hex (Digest.string (string_of_int i)));
        ("outcome", Printf.sprintf "outcome%d" (i mod 3));
        ("latency_s", Printf.sprintf "%.6f" (float_of_int i *. 1e-6));
        ("session", string_of_int i);
      ]
    "submission"

(* a field may hold any byte, the ones JSON and JSON Lines escape, or
   nothing; an attribute value is now and then 100 KB *)
let field_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (2, oneofl [ "\n"; "\000"; "\""; "\\"; "\xff"; "a\"b\n\000c\\\t\r\001" ]);
        (8, string_size ~gen:char (int_bound 16));
      ])

let value_gen =
  QCheck.Gen.(
    frequency [ (20, field_gen); (1, map (String.make 100_000) char) ])

let event_gen =
  QCheck.Gen.(
    quad
      (oneofl Journal.[ Debug; Info; Warn; Error ])
      field_gen field_gen
      (list_size (int_bound 3) (pair field_gen value_gen)))

(* one domain's events and the other's *)
let phase_gen =
  let events = QCheck.Gen.(list_size (int_bound 20) event_gen) in
  QCheck.Gen.pair events events

let ts_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        oneofl [ 0.0; -0.0; 5e-324; Float.nan; infinity; 1786021766.253001 ];
      ])

(* a clock reading and three phases of two domains' events *)
let roundtrip_case =
  QCheck.make
    ~print:(fun (ts, (a1, b1), (a2, b2), (a3, b3)) ->
      let n = List.length in
      Printf.sprintf "ts %h; events per domain %d+%d, %d+%d, %d+%d" ts (n a1)
        (n b1) (n a2) (n b2) (n a3) (n b3))
    QCheck.Gen.(quad ts_gen phase_gen phase_gen phase_gen)

(* The line the journal file holds for [e], built as the journal built
   it from a decoded record before it wrote lines from the event bytes *)
let reference_line e =
  Json.obj
    [
      ("seq", Json.int e.Journal.ev_seq);
      ("ts", Json.num e.Journal.ev_ts);
      ("severity", Json.str (Journal.severity_to_string e.Journal.ev_severity));
      ("component", Json.str e.Journal.ev_component);
      ("event", Json.str e.Journal.ev_name);
      ( "attrs",
        Json.obj (List.map (fun (k, v) -> (k, Json.str v)) e.Journal.ev_attrs)
      );
    ]

let rec last n l = if List.length l <= n then l else last n (List.tl l)

(* emit each phase from two domains, tagging every event with its
   domain, and hold the ring, the journal file and each domain's order
   to what was emitted *)
let journal_roundtrip (ts, p1, p2, p3) =
  let tagged d l =
    List.map (fun (sev, c, n, attrs) -> (sev, c, n, ("domain", d) :: attrs)) l
  in
  let phase (l0, l1) =
    let run d l =
      Domain.spawn (fun () ->
          List.iter
            (fun (severity, component, name, attrs) ->
              Journal.emit ~severity ~attrs ~component name)
            (tagged d l))
    in
    let d0 = run "0" l0 and d1 = run "1" l1 in
    Domain.join d0;
    Domain.join d1
  in
  let line seq (severity, component, name, attrs) =
    reference_line
      Journal.
        {
          ev_seq = seq;
          ev_ts = ts;
          ev_severity = severity;
          ev_component = component;
          ev_name = name;
          ev_attrs = attrs;
        }
  in
  (* line [seq] of [lines] onwards is an interleaving of the two
     domains' remaining events, numbered from [seq] *)
  let rec interleaves seq lines d0 d1 =
    let next l = function e :: _ -> l = line seq e | [] -> false in
    match lines with
    | [] -> d0 = [] && d1 = []
    | l :: rest ->
      if next l d0 then interleaves (seq + 1) rest (List.tl d0) d1
      else if next l d1 then interleaves (seq + 1) rest d0 (List.tl d1)
      else false
  in
  Journal.clear ();
  Vc_util.Clock.set (fun () -> ts);
  Fun.protect
    ~finally:(fun () -> Vc_util.Clock.set Unix.gettimeofday)
    (fun () ->
      with_temp_journal (fun file ->
          Journal.open_jsonl file;
          (* after [n] events the ring holds exactly the last [min n 256]
             lines of the file; the ring is read first, since reading it
             flushes the events still pending *)
          let ring_is_tail n =
            let ring = List.map reference_line (Journal.events ()) in
            ring = last (min n 256) (file_lines file)
          in
          let count (a, b) = List.length a + List.length b in
          phase p1;
          let ok1 = ring_is_tail (count p1) in
          phase p2;
          let ok2 = ring_is_tail (count p1 + count p2) in
          phase p3;
          let ok3 = ring_is_tail (count p1 + count p2 + count p3) in
          let emitted d =
            List.concat_map
              (fun (l0, l1) -> tagged d (if d = "0" then l0 else l1))
              [ p1; p2; p3 ]
          in
          ok1 && ok2 && ok3
          && interleaves 1 (file_lines file) (emitted "0") (emitted "1")))

let journal_bytes_tests =
  [
    tc "buffered and recorded events are not promoted" (fun () ->
        Journal.clear ();
        (* fill the ring, so every slot and both of this domain's
           buffers have grown to fit *)
        for i = 1 to 1024 do
          portal_event i
        done;
        Journal.flush ();
        Gc.minor ();
        let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
        let p0 = promoted () and n = 100_000 in
        for i = 1 to n do
          portal_event i;
          if i mod 500 = 0 then Gc.minor ()
        done;
        let per_event = (promoted () -. p0) /. float_of_int n in
        Printf.printf "%.2f words promoted per event\n" per_event;
        if per_event >= 1.0 then
          Alcotest.failf "%.2f words promoted per event" per_event);
    prop ~count:40 "events from 2 domains round-trip through the bytes"
      roundtrip_case journal_roundtrip;
    tc "storage grown for one large event shrinks back" (fun () ->
        Journal.clear ();
        let small i =
          Journal.emit ~component:"mem"
            ~attrs:[ ("i", Printf.sprintf "%06d" i) ]
            "small"
        in
        let live_heap_bytes () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
        in
        for i = 1 to 512 do
          small i
        done;
        Journal.flush ();
        let before = live_heap_bytes () in
        Journal.emit ~component:"mem"
          ~attrs:[ ("big", String.make (4 * 1024 * 1024) 'x') ]
          "big";
        for i = 1 to 512 do
          small i
        done;
        Journal.flush ();
        let grown = live_heap_bytes () - before in
        Printf.printf "live heap grew %d bytes\n" grown;
        (* only growth is retention: the heap can also read lower, by up
           to ~400 KB, when domains spawned by earlier tests leave the
           statistics after [before] was taken *)
        if grown > 64 * 1024 then
          Alcotest.failf "live heap grew %d bytes after one 4 MB event" grown);
    tc "a removed, replaced or failed JSONL sink closes its file" (fun () ->
        if Sys.file_exists "/proc/self/fd" then
          with_temp_journal (fun file ->
              let fds () = Array.length (Sys.readdir "/proc/self/fd") in
              let before = fds () in
              for _ = 1 to 10 do
                Journal.open_jsonl file;
                Journal.emit ~component:"fd" "cycle";
                Journal.close_jsonl ()
              done;
              check Alcotest.int "removed" before (fds ());
              for _ = 1 to 10 do
                Journal.open_jsonl file
              done;
              Journal.close_jsonl ();
              check Alcotest.int "replaced" before (fds ());
              (* every write to /dev/full fails, so the file is closed *)
              if Sys.file_exists "/dev/full" then begin
                for _ = 1 to 10 do
                  Journal.open_jsonl "/dev/full";
                  Journal.emit ~component:"fd" "cycle";
                  Journal.flush ()
                done;
                check Alcotest.int "failed" before (fds ())
              end));
    tc "a journal file costs under 200 minor words per event" (fun () ->
        (* portal-shaped attributes built up front, so the loop measures
           the journal and not their making *)
        let attrs =
          Array.init 1024 (fun i ->
              [
                ("tool", Printf.sprintf "tool%d" (i mod 5));
                ("digest", Digest.to_hex (Digest.string (string_of_int i)));
                ("outcome", Printf.sprintf "outcome%d" (i mod 3));
                ("latency_s", Printf.sprintf "%.6f" (float_of_int i *. 1e-6));
                ("session", string_of_int i);
              ])
        in
        let emit i =
          Journal.emit ~component:"portal" ~attrs:attrs.(i land 1023)
            "submission"
        in
        Journal.clear ();
        Journal.open_jsonl Filename.null;
        Fun.protect ~finally:Journal.close_jsonl (fun () ->
            (* grow the buffers, the ring slots and the line first *)
            for i = 1 to 1024 do
              emit i
            done;
            Journal.flush ();
            let w0 = Gc.minor_words () and n = 100_000 in
            for i = 1 to n do
              emit i
            done;
            Journal.flush ();
            let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
            Printf.printf "%.1f minor words per event\n" per_event;
            if per_event >= 200.0 then
              Alcotest.failf "%.1f minor words per event" per_event));
  ]

(* ------------------------------------------------------------------ *)
(* journal analytics (Journal_query - the engine behind bin/vcstat)    *)
(* ------------------------------------------------------------------ *)

module Q = Vc_util.Journal_query

let ev ?(seq = 1) ?(ts = 0.0) ?(severity = Journal.Info) ?(attrs = [])
    ~component name =
  {
    Journal.ev_seq = seq;
    ev_ts = ts;
    ev_severity = severity;
    ev_component = component;
    ev_name = name;
    ev_attrs = attrs;
  }

let journal_query_tests =
  [
    tc "parse_line round-trips every field of a journal line" (fun () ->
        Journal.clear ();
        with_temp_journal (fun file ->
            Journal.open_jsonl file;
            Journal.emit ~severity:Journal.Warn
              ~attrs:[ ("tool", "kbdd"); ("latency_s", "0.0125") ]
              ~component:"portal" "submission";
            Journal.emit ~component:"portal" "bare";
            let evs = Journal.events () and lines = file_lines file in
            check Alcotest.int "one line per event" (List.length evs)
              (List.length lines);
            List.iter2 check_line evs lines;
            check Alcotest.bool "severity" true
              ((List.hd evs).Journal.ev_severity = Journal.Warn)));
    tc "parse_line rejects documents missing required fields" (fun () ->
        check Alcotest.bool "not json" true
          (Result.is_error (Q.parse_line "nope"));
        check Alcotest.bool "no component" true
          (Result.is_error
             (Q.parse_line
                "{\"seq\":1,\"ts\":0,\"severity\":\"INFO\",\"event\":\"x\"}"));
        check Alcotest.bool "bad severity" true
          (Result.is_error
             (Q.parse_line
                "{\"seq\":1,\"ts\":0,\"severity\":\"LOUD\",\"component\":\"c\",\"event\":\"x\"}")));
    tc "summarize counts, error rate and latency percentiles" (fun () ->
        let events =
          List.concat
            [
              List.init 100 (fun i ->
                  ev ~seq:(i + 1)
                    ~attrs:
                      [
                        ( "latency_s",
                          Printf.sprintf "%.6f" (float_of_int (i + 1) /. 1000.0)
                        );
                      ]
                    ~component:"portal" "submission");
              [ ev ~seq:101 ~severity:Journal.Error ~component:"portal" "oops" ];
            ]
        in
        let s = Q.summarize ~top:3 events in
        check Alcotest.int "total" 101 s.Q.s_total;
        check Alcotest.int "component count" 101
          (List.assoc "portal" s.Q.s_by_component);
        check Alcotest.int "errors" 1 s.Q.s_errors;
        check (Alcotest.float 1e-9) "error rate" (1.0 /. 101.0) s.Q.s_error_rate;
        (match s.Q.s_latency with
        | None -> Alcotest.fail "no latency stats"
        | Some l ->
          check Alcotest.int "latency count" 100 l.Q.l_count;
          check (Alcotest.float 1e-9) "p50" 0.050 l.Q.l_p50_s;
          check (Alcotest.float 1e-9) "p90" 0.090 l.Q.l_p90_s;
          check (Alcotest.float 1e-9) "p99" 0.099 l.Q.l_p99_s;
          check (Alcotest.float 1e-9) "max" 0.100 l.Q.l_max_s);
        check Alcotest.int "top-3 slowest" 3 (List.length s.Q.s_slowest);
        match s.Q.s_slowest with
        | (e, l) :: _ ->
          check Alcotest.int "slowest is the 100ms one" 100 e.Journal.ev_seq;
          check (Alcotest.float 1e-9) "slowest latency" 0.100 l
        | [] -> Alcotest.fail "no slowest");
    tc "summary JSON parses and carries the acceptance fields" (fun () ->
        let s =
          Q.summarize
            [
              ev ~seq:1
                ~attrs:[ ("latency_s", "0.002") ]
                ~component:"flow" "stage.end";
            ]
        in
        let j = parse_json (Q.summary_to_json s) in
        check Alcotest.bool "by_component.flow" true
          (Option.bind (obj_field "by_component" j) (obj_field "flow")
          = Some (Json.Num 1.0));
        let all = Option.bind (obj_field "latency" j) (obj_field "all") in
        List.iter
          (fun f ->
            check Alcotest.bool f true
              (Option.bind all (obj_field f) <> None))
          [ "p50_s"; "p90_s"; "p99_s" ]);
    tc "a stage.error closes its span like a stage.end" (fun () ->
        let stage ts name latency event =
          ev ~seq:(ts + 1) ~ts:(float_of_int ts) ~component:"flow"
            ~attrs:[ ("stage", name); ("latency_s", latency) ]
            event
        in
        match
          Q.spans_of
            [
              stage 3 "routing" "0.500000" "stage.end";
              stage 1 "placement" "0.750000" "stage.error";
            ]
        with
        | [ placement; routing ] ->
          check Alcotest.string "first by start" "flow/placement"
            placement.Q.q_name;
          check (Alcotest.float 1e-9) "error's latency" 0.75
            placement.Q.q_duration_s;
          check (Alcotest.float 1e-9) "ends at the error" 0.25
            placement.Q.q_start_s;
          check Alcotest.string "second" "flow/routing" routing.Q.q_name;
          check (Alcotest.float 1e-9) "starts latency_s before" 2.5
            routing.Q.q_start_s
        | l -> Alcotest.fail (Printf.sprintf "%d spans" (List.length l)));
    tc "events that carry a latency under another name yield no span"
      (fun () ->
        let latency = [ ("latency_s", "0.010000"); ("trace_id", "aaaa") ] in
        let events =
          [
            ev ~component:"portal" ~attrs:latency "submission";
            ev ~component:"vcload" ~attrs:latency "replay.request";
            ev ~component:"server"
              ~attrs:[ ("trace_id", "aaaa"); ("total_s", "0.009000") ]
              "request.replied";
            (* an end without a numeric latency_s is no span either *)
            ev ~component:"flow" ~attrs:[ ("stage", "timing") ] "stage.end";
            ev ~component:"flow"
              ~attrs:[ ("stage", "timing"); ("latency_s", "fast") ]
              "stage.end";
          ]
        in
        check Alcotest.int "no span" 0 (List.length (Q.spans_of events)));
    tc "a flow run journals one stage.end per stage and no stage.begin"
      (fun () ->
        let net =
          Vc_network.Blif.parse
            ".model t\n.inputs a b c d\n.outputs x y\n.names a b t1\n11 1\n\
             .names c d t2\n11 1\n.names t1 t2 x\n1- 1\n-1 1\n\
             .names a c y\n10 1\n01 1\n.end\n"
        in
        Journal.clear ();
        let r = Vc_mooc.Flow.run net in
        let events = Journal.events () in
        let count name =
          List.length
            (List.filter (fun (e : Journal.event) -> e.Journal.ev_name = name)
               events)
        in
        check Alcotest.int "stage.end" 5 (count "stage.end");
        check Alcotest.int "stage.begin" 0 (count "stage.begin");
        check
          Alcotest.(list (pair string string))
          "span per stage, at the QoR latency"
          (List.map
             (fun s ->
               ( "flow/" ^ s.Vc_mooc.Flow.sq_stage,
                 Printf.sprintf "%.6f" s.Vc_mooc.Flow.sq_latency_s ))
             r.Vc_mooc.Flow.stages)
          (List.map
             (fun sp -> (sp.Q.q_name, Printf.sprintf "%.6f" sp.Q.q_duration_s))
             (Q.spans_of events)));
    tc "join_requests matches client and server journals by trace id"
      (fun () ->
        let client trace latency =
          ev ~component:"vcload"
            ~attrs:
              [
                ("trace_id", trace); ("tool", "axb");
                ("outcome", "sent");
                ("latency_s", Printf.sprintf "%.6f" latency);
              ]
            "replay.request"
        in
        let replied trace total =
          ev ~component:"server"
            ~attrs:
              [
                ("trace_id", trace); ("tool", "axb"); ("session", "s1");
                ("outcome", "executed");
                ("total_s", Printf.sprintf "%.6f" total);
                ("phase.queue", "0.010000"); ("phase.execute", "0.020000");
              ]
            "request.replied"
        in
        let join =
          Q.join_requests
            [
              client "aaaa" 0.100;
              (* the portal's event for the same run: not a timeline *)
              ev ~component:"portal"
                ~attrs:[ ("trace_id", "aaaa"); ("outcome", "executed") ]
                "submission";
              replied "aaaa" 0.080;
              client "bbbb" 0.050;
              replied "bbbb" 0.040;
              (* server-only: a request someone submitted by hand *)
              replied "cccc" 0.010;
              (* client-only: the reply the server journal lost *)
              client "dddd" 0.030;
            ]
        in
        check Alcotest.int "client total" 3 join.Q.rj_client_total;
        check Alcotest.int "server total" 3 join.Q.rj_server_total;
        check Alcotest.int "matched" 2 join.Q.rj_matched;
        check (Alcotest.float 1e-9) "match rate" (2.0 /. 3.0)
          join.Q.rj_match_rate;
        let t =
          match join.Q.rj_timelines with t :: _ -> t | [] -> Alcotest.fail "empty"
        in
        check Alcotest.string "first-appearance order" "aaaa" t.Q.rt_trace;
        check Alcotest.(option string) "server outcome wins" (Some "executed")
          t.Q.rt_outcome;
        check Alcotest.(option string) "session" (Some "s1") t.Q.rt_session;
        check
          Alcotest.(option (float 1e-9))
          "wire = client - server" (Some 0.020) t.Q.rt_wire_s;
        check
          Alcotest.(list (pair string (float 1e-9)))
          "phases parsed back"
          [ ("queue", 0.010); ("execute", 0.020) ]
          t.Q.rt_phases;
        (* breakdown rows come out in the canonical phase order *)
        check
          Alcotest.(list string)
          "phase order"
          [ "queue"; "execute"; "server"; "wire"; "client" ]
          (List.map fst (Q.phase_breakdown join));
        (match List.assoc_opt "wire" (Q.phase_breakdown join) with
        | Some s ->
          check Alcotest.int "wire samples from matched pairs only" 2
            s.Q.l_count
        | None -> Alcotest.fail "no wire row");
        (* the JSON document parses and carries the acceptance fields *)
        let j = parse_json (Q.requests_to_json join) in
        check Alcotest.bool "matched" true
          (obj_field "matched" j = Some (Json.Num 2.0));
        check Alcotest.bool "match_rate" true
          (match obj_field "match_rate" j with
          | Some (Json.Num r) -> Float.abs (r -. (2.0 /. 3.0)) < 1e-4
          | _ -> false);
        check Alcotest.bool "phases.queue.p50_s" true
          (Option.bind
             (Option.bind (obj_field "phases" j) (obj_field "queue"))
             (obj_field "p50_s")
          <> None);
        match obj_field "slowest" j with
        | Some (Json.Arr (_ :: _)) -> ()
        | _ -> Alcotest.fail "no slowest array");
    tc "join_requests treats admission rejects as server-side sightings"
      (fun () ->
        let join =
          Q.join_requests
            [
              ev ~component:"vcload"
                ~attrs:
                  [
                    ("trace_id", "eeee"); ("tool", "kbdd");
                    ("latency_s", "0.002"); ("outcome", "rejected");
                  ]
                "replay.request";
              ev ~component:"server"
                ~attrs:[ ("trace_id", "eeee"); ("tool", "kbdd") ]
                "job.rejected.overloaded";
            ]
        in
        check Alcotest.int "matched" 1 join.Q.rj_matched;
        check (Alcotest.float 1e-9) "rate" 1.0 join.Q.rj_match_rate;
        match join.Q.rj_timelines with
        | [ t ] ->
          check Alcotest.(option string) "outcome" (Some "rejected")
            t.Q.rt_outcome;
          check Alcotest.bool "no server total without a reply" true
            (t.Q.rt_server_s = None && t.Q.rt_wire_s = None)
        | l -> Alcotest.fail (Printf.sprintf "%d timelines" (List.length l)));
    tc "join_requests over server-only journals is vacuously matched"
      (fun () ->
        let join =
          Q.join_requests
            [
              ev ~component:"server"
                ~attrs:[ ("trace_id", "ffff"); ("total_s", "0.001") ]
                "request.replied";
            ]
        in
        check Alcotest.int "no clients" 0 join.Q.rj_client_total;
        check (Alcotest.float 1e-9) "rate defaults to 1" 1.0
          join.Q.rj_match_rate);
    tc "funnel_of extracts the cohort funnel in order" (fun () ->
        let stage seq name count =
          ev ~seq ~component:"cohort"
            ~attrs:[ ("stage", name); ("count", string_of_int count) ]
            "funnel.stage"
        in
        let stages =
          Q.funnel_of
            [
              stage 1 "registered" 17500;
              stage 2 "watched_video" 7191;
              ev ~seq:3 ~component:"cohort" "unrelated";
              stage 4 "certificates" 386;
            ]
        in
        check
          Alcotest.(list (pair string int))
          "stages in order"
          [ ("registered", 17500); ("watched_video", 7191);
            ("certificates", 386) ]
          (List.map (fun s -> (s.Q.f_stage, s.Q.f_count)) stages));
    tc "funnel JSON and spans JSON parse" (fun () ->
        let stages = [ { Q.f_stage = "registered"; f_count = 10 } ] in
        (match obj_field "funnel" (parse_json (Q.funnel_to_json stages)) with
        | Some (Json.Arr [ _ ]) -> ()
        | _ -> Alcotest.fail "funnel json");
        let spans =
          Q.spans_of
            [
              ev ~seq:1 ~ts:1.0 ~component:"c"
                ~attrs:[ ("latency_s", "1.0") ]
                "work.end";
            ]
        in
        match obj_field "spans" (parse_json (Q.spans_to_json spans)) with
        | Some (Json.Arr [ sp ]) ->
          check Alcotest.bool "label from prefix" true
            (obj_field "name" sp = Some (Json.Str "c/work"));
          check Alcotest.bool "no children" true (obj_field "children" sp = None)
        | _ -> Alcotest.fail "spans json");
  ]

(* ------------------------------------------------------------------ *)
(* time series (one series store, the sampler)                         *)
(* ------------------------------------------------------------------ *)

module Ts = Vc_util.Timeseries
module Prof = Vc_util.Profile
module Phase = Vc_util.Phase
module Tc = Vc_util.Trace_ctx

let check_raises_invalid_arg f =
  check Alcotest.bool "raises Invalid_argument" true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let timeseries_tests =
  [
    tc "points come back merged in timestamp order" (fun () ->
        Ts.reset ();
        Ts.record ~ts:3.0 "ts.a" 30.0;
        Ts.record ~ts:1.0 "ts.a" 10.0;
        Ts.record ~ts:2.0 "ts.a" 20.0;
        check
          Alcotest.(list (pair (float 1e-9) (float 1e-9)))
          "sorted by ts"
          [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0) ]
          (List.map
             (fun p -> (p.Ts.p_ts, p.Ts.p_value))
             (Ts.points "ts.a")));
    tc "the ring keeps only the newest capacity points" (fun () ->
        Ts.reset ();
        let n = Ts.default_capacity + 6 in
        for i = 1 to n do
          Ts.record ~ts:(float_of_int i) "ts.ring" (float_of_int i)
        done;
        check
          Alcotest.(list (float 1e-9))
          "the newest default_capacity"
          (List.init Ts.default_capacity (fun i -> float_of_int (i + 7)))
          (List.map (fun p -> p.Ts.p_value) (Ts.points "ts.ring")));
    tc "points from several domains share one series" (fun () ->
        Ts.reset ();
        Ts.record ~ts:1.0 "ts.merge" 1.0;
        Domain.join
          (Domain.spawn (fun () -> Ts.record ~ts:2.0 "ts.merge" 2.0));
        check
          Alcotest.(list (float 1e-9))
          "both domains" [ 1.0; 2.0 ]
          (List.map (fun p -> p.Ts.p_value) (Ts.points "ts.merge")));
    tc "last and names" (fun () ->
        Ts.reset ();
        check Alcotest.bool "empty last" true (Ts.last "ts.x" = None);
        Ts.record ~ts:1.0 "ts.x" 1.0;
        Ts.record ~ts:2.0 "ts.x" 5.0;
        Ts.record ~ts:1.0 "ts.b" 0.0;
        (match Ts.last "ts.x" with
        | Some p -> check (Alcotest.float 1e-9) "newest" 5.0 p.Ts.p_value
        | None -> Alcotest.fail "no last point");
        check Alcotest.bool "names sorted" true
          (let names = Ts.names () in
           List.mem "ts.b" names && List.mem "ts.x" names
           && names = List.sort compare names));
    tc "varz_json parses and carries telemetry, series and profile"
      (fun () ->
        T.reset ();
        Ts.reset ();
        T.incr "varz.c";
        Ts.record ~ts:1.0 "varz.series" 42.0;
        let j = parse_json (Ts.varz_json ()) in
        (match obj_field "telemetry" j with
        | Some (Json.Obj _) -> ()
        | _ -> Alcotest.fail "no telemetry object");
        (match
           Option.bind (obj_field "series" j) (obj_field "varz.series")
         with
        | Some (Json.Arr [ Json.Arr [ Json.Num 1.0; Json.Num 42.0 ] ]) -> ()
        | _ -> Alcotest.fail "series not rendered as [ts, value] pairs");
        match Option.bind (obj_field "profile" j) (obj_field "ticks") with
        | Some (Json.Num _) -> ()
        | _ -> Alcotest.fail "no profile.ticks");
    tc "sampler ticks derive gauge, rate, ratio and percentile series"
      (fun () ->
        T.reset ();
        Ts.reset ();
        with_set_clock 100.0 (fun now ->
            let sources =
              [
                Ts.Gauge "s.gauge";
                Ts.Rate { counters = [ "s.count" ]; series = "s.qps" };
                Ts.Ratio
                  {
                    num = [ "s.hit" ];
                    den = [ "s.hit"; "s.miss" ];
                    series = "s.hit_rate";
                  };
                Ts.Percentiles "s.lat";
              ]
            in
            (* create reads the clock once (100.0) to stamp last_ts *)
            let sampler = Ts.Sampler.create ~sources ~interval:1.0 () in
            T.set_gauge "s.gauge" 7.0;
            T.incr ~by:20 "s.count";
            T.incr ~by:3 "s.hit";
            T.incr ~by:1 "s.miss";
            T.observe "s.lat" 0.010;
            now := 102.0;
            Ts.Sampler.tick sampler;
            (* tick at 102.0: dt = 2s *)
            check (Alcotest.float 1e-9) "gauge copied" 7.0
              (match Ts.last "s.gauge" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check (Alcotest.float 1e-9) "rate = 20 / 2s" 10.0
              (match Ts.last "s.qps" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check (Alcotest.float 1e-9) "ratio = 3 / 4" 0.75
              (match Ts.last "s.hit_rate" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check_rel "p99 in ms" 10.0
              (match Ts.last "s.lat.p99_ms" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            (* second tick with no new counts: rate falls to 0, the
               idle ratio records no point *)
            now := 104.0;
            Ts.Sampler.tick sampler;
            check (Alcotest.float 1e-9) "idle rate" 0.0
              (match Ts.last "s.qps" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check Alcotest.int "ratio skipped the idle tick" 1
              (List.length (Ts.points "s.hit_rate"))));
    tc "sampler percentiles cover one window, so a slow burst shows"
      (fun () ->
        T.reset ();
        Ts.reset ();
        with_set_clock 100.0 (fun now ->
            let sampler =
              Ts.Sampler.create ~sources:[ Ts.Percentiles "w.lat" ]
                ~interval:1.0 ()
            in
            for _ = 1 to 10_000 do
              T.observe "w.lat" 0.001
            done;
            now := 101.0;
            Ts.Sampler.tick sampler;
            for _ = 1 to 50 do
              T.observe "w.lat" 0.001
            done;
            for _ = 1 to 20 do
              T.observe "w.lat" 0.5
            done;
            now := 102.0;
            Ts.Sampler.tick sampler;
            let p99s () =
              List.map (fun p -> p.Ts.p_value) (Ts.points "w.lat.p99_ms")
            in
            (match p99s () with
            | [ quiet; burst ] ->
              check_rel "quiet window p99" 1.0 quiet;
              check_rel "burst window p99" 500.0 burst
            | l -> Alcotest.failf "%d p99 points" (List.length l));
            (* an idle window records nothing *)
            now := 103.0;
            Ts.Sampler.tick sampler;
            check Alcotest.int "idle window skipped" 2
              (List.length (p99s ()))));
    tc "sampler derives per-worker utilization from busy counters"
      (fun () ->
        T.reset ();
        Ts.reset ();
        with_set_clock 100.0 (fun now ->
            let sources =
              [ Ts.Utilization { prefix = "w."; suffix = ".busy_ns" } ]
            in
            let sampler = Ts.Sampler.create ~sources ~interval:1.0 () in
            now := 102.0;
            Ts.Sampler.tick sampler;
            (* the first tick snapshots the (empty) totals *)
            T.incr ~by:500_000_000 "w.0.busy_ns";
            T.incr ~by:500_000_000 "w.0.busy_ns";
            T.incr ~by:10_000_000_000 "w.1.busy_ns";
            now := 104.0;
            Ts.Sampler.tick sampler;
            (* dt = 2s: worker 0 was busy 1.0s -> 0.5; worker 1's 10s
               clamps to 1.0 *)
            check (Alcotest.float 1e-9) "half busy" 0.5
              (match Ts.last "w.0.util" with
              | Some p -> p.Ts.p_value
              | None -> nan);
            check (Alcotest.float 1e-9) "clamped" 1.0
              (match Ts.last "w.1.util" with
              | Some p -> p.Ts.p_value
              | None -> nan)));
    tc "sampler lifetimes leave no per-domain series behind" (fun () ->
        T.set_gauge "life.gauge" 1.0;
        let sources =
          [
            Ts.Gauge "life.gauge";
            Ts.Rate { counters = [ "life.count" ]; series = "life.qps" };
          ]
        in
        let newest () =
          Option.map (fun p -> p.Ts.p_ts) (Ts.last "life.gauge")
        in
        (* each lifetime's sampler domain records at least one point *)
        let lifetime () =
          let before = newest () in
          let s = Ts.Sampler.start ~sources ~interval:0.002 () in
          while newest () = before do
            Unix.sleepf 0.0005
          done;
          Ts.Sampler.stop s
        in
        let live () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        for _ = 1 to 20 do lifetime () done;
        let before = live () in
        for _ = 1 to 300 do lifetime () done;
        let grown_bytes = (live () - before) * (Sys.word_size / 8) in
        if grown_bytes >= 64 * 1024 then
          Alcotest.failf "heap grew by %d bytes over 300 sampler lifetimes"
            grown_bytes);
    tc "sampler start/stop with a zero interval never spawns" (fun () ->
        let s = Ts.Sampler.start ~sources:[] ~interval:0.0 () in
        Ts.Sampler.stop s;
        Ts.Sampler.stop s (* idempotent *));
  ]

(* ------------------------------------------------------------------ *)
(* continuous profiler                                                 *)
(* ------------------------------------------------------------------ *)

let phase_tests =
  [
    tc "run nests frames and restores them on exception" (fun () ->
        Phase.run "outer" (fun () ->
            Phase.run "inner" (fun () ->
                check
                  Alcotest.(list string)
                  "outermost first" [ "outer"; "inner" ]
                  (Phase.current_stack ())));
        check Alcotest.(list string) "popped" [] (Phase.current_stack ());
        let ctx = Tc.make "deadbeef" in
        (try
           Tc.with_current ctx (fun () ->
               Phase.run "boom" (fun () -> failwith "x"))
         with Failure _ -> ());
        check Alcotest.(list string) "restored after raise" []
          (Phase.current_stack ());
        check Alcotest.int "a raising phase adds no timeline entry" 0
          (List.length (Tc.phases ctx)));
    tc "a nested phase adds a frame but no timeline entry" (fun () ->
        let ctx = Tc.make "deadbeef" in
        Tc.with_current ctx (fun () ->
            Phase.run "execute" (fun () ->
                Phase.run "kbdd" (fun () ->
                    check
                      Alcotest.(list string)
                      "both frames" [ "execute"; "kbdd" ]
                      (Phase.current_stack ())));
            Phase.run "reply" ignore);
        check
          Alcotest.(list string)
          "outermost phases only" [ "execute"; "reply" ]
          (List.map fst (Tc.phases ctx)));
    tc "a phase outside a request records nothing" (fun () ->
        let ctx = Tc.make "deadbeef" in
        (* the server's worker frame wraps the request from outside *)
        Phase.run "worker" (fun () ->
            Tc.with_current ctx (fun () -> Phase.run "cache" ignore));
        Phase.run "idle.work" ignore;
        check
          Alcotest.(list string)
          "only the phase inside the request" [ "cache" ]
          (List.map fst (Tc.phases ctx)));
    tc "exited domains leave no frame stack behind" (fun () ->
        Phase.run "main" ignore;
        let before = List.length (Phase.stacks ()) in
        for _ = 1 to 2000 do
          Domain.join (Domain.spawn (fun () -> Phase.run "x" ignore))
        done;
        check Alcotest.int "one stack per live domain" before
          (List.length (Phase.stacks ())));
  ]

let profile_tests =
  [
    tc "ticks aggregate folded stacks and count idle domains" (fun () ->
        Prof.reset ();
        (* a phase publishes this domain's stack, empty again on return *)
        Phase.run "register" ignore;
        Prof.tick ();
        Phase.run "worker" (fun () -> Phase.run "execute" (fun () -> Prof.tick ()));
        check Alcotest.int "two ticks" 2 (Prof.ticks ());
        check Alcotest.bool "at least one sample per tick" true
          (Prof.samples () >= 2);
        let folded = Prof.folded () in
        check Alcotest.bool "idle observed" true
          (List.mem_assoc "idle" folded);
        check Alcotest.bool "folded stack observed" true
          (List.mem_assoc "worker;execute" folded));
    tc "journal:true emits one sample event per distinct stack" (fun () ->
        Prof.reset ();
        Journal.clear ();
        Phase.run "worker" (fun () -> Prof.tick ());
        let samples =
          List.filter
            (fun e ->
              e.Journal.ev_component = "profile"
              && e.Journal.ev_name = "sample")
            (Journal.events ())
        in
        check Alcotest.bool "at least the worker stack" true
          (List.exists
             (fun e ->
               List.assoc_opt "stack" e.Journal.ev_attrs = Some "worker")
             samples);
        List.iter
          (fun e ->
            check Alcotest.bool "tick attr present" true
              (List.mem_assoc "tick" e.Journal.ev_attrs);
            check Alcotest.bool "count attr parses" true
              (match List.assoc_opt "count" e.Journal.ev_attrs with
              | Some c -> int_of_string_opt c <> None
              | None -> false))
          samples);
    tc "to_folded_text renders stack-space-count lines" (fun () ->
        check Alcotest.string "folded format" "a;b 3\nidle 1\n"
          (Prof.to_folded_text [ ("a;b", 3); ("idle", 1) ]));
    tc "flamegraph_svg is well-formed and accounts for every sample"
      (fun () ->
        let svg =
          Prof.flamegraph_svg ~ticks:4
            [ ("worker;execute;minisat", 3); ("worker;cache", 1); ("idle", 4) ]
        in
        check Alcotest.bool "svg element" true
          (String.starts_with ~prefix:"<svg" svg);
        check Alcotest.bool "closed" true (contains svg "</svg>");
        check Alcotest.bool "frames drawn" true (contains svg "<rect");
        check Alcotest.bool "metadata comment" true
          (contains svg
             "<!-- flamegraph samples=8 root_samples=8 ticks=4 -->");
        check Alcotest.bool "tool frame titled" true
          (contains svg "minisat: 3 sample(s)"));
    tc "flamegraph_svg escapes frame names" (fun () ->
        let svg = Prof.flamegraph_svg [ ("a<b>&\"c\"", 1) ] in
        check Alcotest.bool "escaped" true
          (contains svg "a&lt;b&gt;&amp;&quot;c&quot;");
        check Alcotest.bool "raw angle gone" false (contains svg "a<b>"));
    tc "empty input still renders a parseable document" (fun () ->
        let svg = Prof.flamegraph_svg [] in
        check Alcotest.bool "svg" true (String.starts_with ~prefix:"<svg" svg);
        check Alcotest.bool "zero samples" true
          (contains svg "samples=0 root_samples=0"));
    tc "reset clears aggregates and tick counts" (fun () ->
        Phase.run "x" (fun () -> Prof.tick ());
        Prof.reset ();
        check Alcotest.int "ticks cleared" 0 (Prof.ticks ());
        check Alcotest.int "samples cleared" 0 (Prof.samples ());
        check Alcotest.(list (pair string int)) "folded cleared" []
          (Prof.folded ()));
  ]

(* ------------------------------------------------------------------ *)
(* metrics server: registered routes, readiness, head scanning         *)
(* ------------------------------------------------------------------ *)

let routes_tests =
  [
    tc "registered routes serve, unregister 404s, and the 404 lists them"
      (fun () ->
        MS.register_route "/custom" (fun () ->
            {
              MS.rp_status = "200 OK";
              rp_content_type = "application/json";
              rp_body = "{\"ok\":true}\n";
            });
        Fun.protect
          ~finally:(fun () -> MS.unregister_route "/custom")
          (fun () ->
            check Alcotest.bool "listed" true
              (List.mem "/custom" (MS.registered_routes ()));
            with_server
              (fun () -> "")
              (fun srv ->
                let resp = roundtrip srv "GET /custom HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "served" true
                  (contains resp "{\"ok\":true}");
                check Alcotest.bool "content type" true
                  (contains resp "application/json");
                let missing = roundtrip srv "GET /nope HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "404 hints the custom route" true
                  (contains missing "/custom");
                check Alcotest.bool "404 hints the built-ins" true
                  (contains missing "/metrics")));
        with_server
          (fun () -> "")
          (fun srv ->
            check Alcotest.bool "unregistered is 404" true
              (contains (roundtrip srv "GET /custom HTTP/1.1\r\n\r\n") "404")));
    tc "register_route rejects paths without a leading slash" (fun () ->
        check_raises_invalid_arg (fun () ->
            MS.register_route "nope" (fun () ->
                {
                  MS.rp_status = "200 OK";
                  rp_content_type = "text/plain";
                  rp_body = "";
                })));
    tc "a raising route handler degrades to a 500" (fun () ->
        MS.register_route "/boom" (fun () -> failwith "handler broke");
        Fun.protect
          ~finally:(fun () -> MS.unregister_route "/boom")
          (fun () ->
            with_server
              (fun () -> "")
              (fun srv ->
                let resp = roundtrip srv "GET /boom HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "500" true (contains resp "500");
                check Alcotest.bool "reason" true
                  (contains resp "route handler failed"))));
    tc "/readyz follows the ready probe" (fun () ->
        let ready = ref true in
        MS.set_ready_probe (fun () -> !ready);
        Fun.protect
          ~finally:(fun () -> MS.set_ready_probe (fun () -> true))
          (fun () ->
            with_server
              (fun () -> "")
              (fun srv ->
                check Alcotest.bool "ready is 200 ok" true
                  (contains
                     (roundtrip srv "GET /readyz HTTP/1.1\r\n\r\n")
                     "200 OK");
                ready := false;
                let resp = roundtrip srv "GET /readyz HTTP/1.1\r\n\r\n" in
                check Alcotest.bool "draining is 503" true
                  (contains resp "503");
                check Alcotest.bool "draining body" true
                  (contains resp "draining"))));
    tc "request heads larger than one read chunk still route" (fun () ->
        (* read_head scans chunk windows with a 3-byte carry; a >1 KiB
           header block crosses several chunks and the terminator can
           straddle a boundary *)
        with_server
          (fun () -> "ok")
          (fun srv ->
            let pad = String.make 3000 'x' in
            let resp =
              roundtrip srv
                (Printf.sprintf
                   "GET /metrics HTTP/1.1\r\nX-Pad: %s\r\n\r\n" pad)
            in
            check Alcotest.bool "200 despite the long head" true
              (contains resp "200 OK")));
  ]

(* ------------------------------------------------------------------ *)
(* journal-query: continuous-profile reconstruction                    *)
(* ------------------------------------------------------------------ *)

let profile_query_tests =
  [
    tc "profile_folded rebuilds stacks and tick counts from the journal"
      (fun () ->
        let sample seq tick stack count =
          ev ~seq ~component:"profile"
            ~attrs:
              [
                ("tick", string_of_int tick); ("stack", stack);
                ("count", string_of_int count);
              ]
            "sample"
        in
        let module Q = Vc_util.Journal_query in
        let ticks, folded =
          Q.profile_folded
            [
              sample 1 1 "idle" 3;
              sample 2 1 "worker;execute;minisat" 1;
              sample 3 2 "idle" 4;
              ev ~seq:4 ~component:"server" "request.replied";
            ]
        in
        check Alcotest.int "distinct ticks" 2 ticks;
        check
          Alcotest.(list (pair string int))
          "aggregated, most samples first"
          [ ("idle", 7); ("worker;execute;minisat", 1) ]
          folded);
    tc "profile_folded over an unrelated journal is empty" (fun () ->
        let module Q = Vc_util.Journal_query in
        check
          Alcotest.(pair int (list (pair string int)))
          "no samples" (0, [])
          (Q.profile_folded [ ev ~seq:1 ~component:"portal" "submission" ]));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("telemetry", telemetry_tests);
      ("json", json_tests);
      ("clock", clock_tests);
      ("journal", journal_tests);
      ("regress", regress_tests);
      ("portal-cache", portal_tests);
      ("portal-journal", portal_journal_tests);
      ("metric-kinds", metric_kinds_tests);
      ("histogram", histogram_tests);
      ("prometheus", prometheus_tests);
      ("metrics-server", metrics_server_tests);
      ("metrics-server-routes", routes_tests);
      ("journal-degrade", journal_degrade_tests);
      ("journal-bytes", journal_bytes_tests);
      ("journal-query", journal_query_tests);
      ("timeseries", timeseries_tests);
      ("phase", phase_tests);
      ("profile", profile_tests);
      ("profile-query", profile_query_tests);
    ]

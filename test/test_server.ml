(* The multicore portal service: token bucket, deadline predicate, tool
   resolution, the structured outcome API, every admission-control
   rejection path, graceful shutdown, and the multi-domain stress test
   whose outputs must be byte-identical to a sequential oracle. *)

open Helpers
module T = Vc_util.Telemetry
module Journal = Vc_util.Journal
module Portal = Vc_mooc.Portal
module Server = Vc_mooc.Server

let fresh () =
  T.reset ();
  Journal.clear ();
  Portal.clear_cache ();
  Portal.set_cache_capacity 512

(* a synthetic tool: pure, fast, no kernel dependency *)
let echo =
  {
    Portal.tool_name = "echo";
    description = "test tool";
    max_input_lines = 3;
    execute = (fun s -> "echo: " ^ s);
  }

(* ------------------------------------------------------------------ *)
(* token bucket + deadline predicate (injected clocks, no sleeping)    *)
(* ------------------------------------------------------------------ *)

let token_bucket_tests =
  [
    tc "burst is honoured, then the bucket runs dry" (fun () ->
        let b = Server.Token_bucket.create ~rate:1.0 ~burst:2.0 ~now:0.0 in
        check Alcotest.bool "1st" true (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "2nd" true (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "3rd is dry" false
          (Server.Token_bucket.try_take b ~now:0.0));
    tc "tokens refill with elapsed time, capped at burst" (fun () ->
        let b = Server.Token_bucket.create ~rate:2.0 ~burst:2.0 ~now:0.0 in
        ignore (Server.Token_bucket.try_take b ~now:0.0);
        ignore (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "dry" false (Server.Token_bucket.try_take b ~now:0.0);
        (* 0.5 s at 2 tokens/s refills exactly one *)
        check Alcotest.bool "refilled" true
          (Server.Token_bucket.try_take b ~now:0.5);
        check Alcotest.bool "only one" false
          (Server.Token_bucket.try_take b ~now:0.5);
        (* a long idle period caps at burst, not rate * dt *)
        let takes =
          List.init 4 (fun _ -> Server.Token_bucket.try_take b ~now:1000.0)
        in
        check Alcotest.(list bool) "capped at burst"
          [ true; true; false; false ] takes);
    tc "rate 0 never refills" (fun () ->
        let b = Server.Token_bucket.create ~rate:0.0 ~burst:1.0 ~now:0.0 in
        check Alcotest.bool "take" true (Server.Token_bucket.try_take b ~now:0.0);
        check Alcotest.bool "never again" false
          (Server.Token_bucket.try_take b ~now:1e12));
    tc "clock going backwards does not refund tokens" (fun () ->
        let b = Server.Token_bucket.create ~rate:1.0 ~burst:1.0 ~now:100.0 in
        ignore (Server.Token_bucket.try_take b ~now:100.0);
        check Alcotest.bool "no refund" false
          (Server.Token_bucket.try_take b ~now:50.0));
    tc "create validates parameters" (fun () ->
        check Alcotest.bool "negative rate" true
          (match Server.Token_bucket.create ~rate:(-1.0) ~burst:1.0 ~now:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check Alcotest.bool "zero burst" true
          (match Server.Token_bucket.create ~rate:1.0 ~burst:0.0 ~now:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check Alcotest.bool "NaN rate" true
          (match Server.Token_bucket.create ~rate:Float.nan ~burst:1.0 ~now:0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check Alcotest.bool "infinite rate" true
          (match
             Server.Token_bucket.create ~rate:Float.infinity ~burst:1.0 ~now:0.0
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    tc "deadline predicate" (fun () ->
        let exp = Server.deadline_expired in
        check Alcotest.bool "infinite never expires" false
          (exp ~enqueued:0.0 ~deadline_s:Float.infinity ~now:1e18);
        check Alcotest.bool "zero always expires" true
          (exp ~enqueued:10.0 ~deadline_s:0.0 ~now:10.0);
        check Alcotest.bool "before the deadline" false
          (exp ~enqueued:10.0 ~deadline_s:5.0 ~now:14.9);
        check Alcotest.bool "at the deadline" true
          (exp ~enqueued:10.0 ~deadline_s:5.0 ~now:15.0);
        check Alcotest.bool "clock skew counts as zero wait" false
          (exp ~enqueued:10.0 ~deadline_s:5.0 ~now:3.0));
  ]

(* ------------------------------------------------------------------ *)
(* tool resolution                                                     *)
(* ------------------------------------------------------------------ *)

let resolve_tests =
  [
    tc "resolution is case-insensitive and trims whitespace" (fun () ->
        List.iter
          (fun (typed, expect) ->
            match Portal.find_tool typed with
            | Some t ->
              check Alcotest.string typed expect t.Portal.tool_name
            | None -> Alcotest.failf "%S did not resolve" typed)
          [
            ("kbdd", "kbdd"); ("KBDD", "kbdd"); (" Espresso ", "espresso");
            ("MiniSAT", "minisat"); ("sis", "sis"); ("AXB", "axb");
          ]);
    tc "colloquial aliases resolve" (fun () ->
        check Alcotest.string "bdd" "kbdd"
          (Portal.canonical_name "bdd");
        check Alcotest.string "sat" "minisat"
          (Portal.canonical_name " SAT ");
        check Alcotest.bool "alias finds the tool" true
          (match Portal.find_tool "BDD" with
          | Some t -> t.Portal.tool_name = "kbdd"
          | None -> false));
    tc "near-miss gets a suggestion, garbage does not" (fun () ->
        let contains ~sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        (match Portal.resolve_tool "kbddd" with
        | Ok _ -> Alcotest.fail "kbddd resolved"
        | Error msg ->
          check Alcotest.bool "lists tools" true
            (contains ~sub:"available: kbdd, espresso, sis, minisat, axb" msg);
          check Alcotest.bool "suggests kbdd" true
            (String.ends_with ~suffix:"did you mean kbdd?" msg));
        match Portal.resolve_tool "zzzzzz" with
        | Ok _ -> Alcotest.fail "zzzzzz resolved"
        | Error msg ->
          check Alcotest.bool "no suggestion" false
            (String.ends_with ~suffix:"?" msg));
    tc "every canonical name resolves to itself" (fun () ->
        List.iter
          (fun t ->
            match Portal.resolve_tool t.Portal.tool_name with
            | Ok t' ->
              check Alcotest.string t.Portal.tool_name t.Portal.tool_name
                t'.Portal.tool_name
            | Error e -> Alcotest.fail e)
          Portal.all_tools);
  ]

(* ------------------------------------------------------------------ *)
(* structured outcome API                                              *)
(* ------------------------------------------------------------------ *)

let outcome_tests =
  [
    tc "execute, then cache hit, with matching payloads" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        (match Portal.submit_result s echo "hello" with
        | Portal.Executed out -> check Alcotest.string "payload" "echo: hello" out
        | _ -> Alcotest.fail "expected Executed");
        match Portal.submit_result s echo "hello" with
        | Portal.Cache_hit out -> check Alcotest.string "payload" "echo: hello" out
        | _ -> Alcotest.fail "expected Cache_hit");
    tc "runaway rejection carries its reason" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        match Portal.submit_result s echo "a\nb\nc\nd\ne" with
        | Portal.Rejected (Portal.Runaway msg) ->
          check Alcotest.string "label" "runaway"
            (Portal.reason_label (Portal.Runaway msg));
          check Alcotest.bool "mentions the limit" true
            (String.ends_with ~suffix:"portal limit 3)" msg)
        | _ -> Alcotest.fail "expected Rejected Runaway");
    tc "outcome_output collapses outcomes to display strings" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        let submit_str input =
          Portal.outcome_output (Portal.submit_result s echo input)
        in
        check Alcotest.string "executed" "echo: x" (submit_str "x");
        check Alcotest.string "cache hit" "echo: x" (submit_str "x");
        let rejected = submit_str "a\nb\nc\nd" in
        check Alcotest.bool "error text" true
          (String.starts_with ~prefix:"error: " rejected));
    tc "reason labels are distinct and stable" (fun () ->
        let labels =
          List.map Portal.reason_label
            [
              Portal.Runaway "m"; Portal.Overloaded "m";
              Portal.Rate_limited "m"; Portal.Deadline_exceeded "m";
            ]
        in
        check
          Alcotest.(list string)
          "labels"
          [ "runaway"; "overloaded"; "rate_limited"; "deadline" ]
          labels;
        check Alcotest.int "all distinct" 4
          (List.length (List.sort_uniq compare labels)));
    tc "cache stats are the telemetry counters" (fun () ->
        fresh ();
        let s = Portal.create_session () in
        ignore (Portal.submit_result s echo "x");
        ignore (Portal.submit_result s echo "x");
        T.reset ();
        check
          Alcotest.(pair int int)
          "a reset zeroes the stats" (0, 0) (Portal.cache_stats ());
        let dir = temp_dir "vc_stats_cache" in
        Fun.protect
          ~finally:(fun () ->
            Portal.unset_cache_dir ();
            rm_rf dir)
          (fun () ->
            Portal.set_cache_dir dir;
            (* a miss, written through; a memory hit; then, with memory
               emptied, a disk hit *)
            ignore (Portal.submit_result s echo "y");
            ignore (Portal.submit_result s echo "y");
            Portal.clear_cache ();
            (match Portal.submit_result s echo "y" with
            | Portal.Cache_hit _ -> ()
            | _ -> Alcotest.fail "expected a disk hit");
            check
              Alcotest.(pair int int)
              "two hits, one miss" (2, 1) (Portal.cache_stats ());
            check
              Alcotest.(pair int int)
              "stats equal the counters"
              (T.counter "portal.cache.hits", T.counter "portal.cache.misses")
              (Portal.cache_stats ());
            check Alcotest.int "disk hits equal the counter"
              (T.counter "portal.cache.disk_hits")
              (Portal.cache_disk_hits ());
            check Alcotest.int "one disk hit" 1 (Portal.cache_disk_hits ());
            check Alcotest.int "evictions equal the counter"
              (T.counter "portal.cache.evictions")
              (Portal.cache_evictions ())));
  ]

(* ------------------------------------------------------------------ *)
(* server admission control                                            *)
(* ------------------------------------------------------------------ *)

let reject_counter label = T.counter ("server.outcome.rejected." ^ label)

let has_journal_event name =
  List.exists
    (fun e -> e.Journal.ev_component = "server" && e.Journal.ev_name = name)
    (Journal.events ())

(* the live heap after a full major collection, in bytes *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* run [f] with the process clock reading [now] *)
let with_clock now f =
  Vc_util.Clock.set (fun () -> Atomic.get now);
  Fun.protect ~finally:(fun () -> Vc_util.Clock.set Unix.gettimeofday) f

(* submit [input] under [session]; the outcome's label *)
let outcome_label srv ~session input =
  match Server.submit srv (Portal.request ~session echo input) with
  | Portal.Executed _ | Portal.Cache_hit _ -> "served"
  | Portal.Rejected r -> Portal.reason_label r

(* [outcome_label] in a loop, with no alcotest record per call *)
let expect_served srv ~session input =
  match outcome_label srv ~session input with
  | "served" -> ()
  | label -> Alcotest.failf "session %s: %s" session label

let server_tests =
  [
    tc "zero-capacity queue rejects Overloaded immediately" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:
              { Server.default_config with Server.workers = 1; queue_capacity = 0 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Rejected (Portal.Overloaded _) -> ()
        | _ -> Alcotest.fail "expected Overloaded");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "overloaded");
        check Alcotest.bool "journal event" true
          (has_journal_event "job.rejected.overloaded"));
    tc "empty token bucket rejects Rate_limited per session" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:
              {
                Server.default_config with
                Server.workers = 1;
                rate_limit = Some (0.0, 1.0);
              }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"a" echo "x") with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "first submission should execute");
        (match Server.submit srv (Portal.request ~session:"a" echo "y") with
        | Portal.Rejected (Portal.Rate_limited _) -> ()
        | _ -> Alcotest.fail "expected Rate_limited");
        (* a different session has its own bucket *)
        (match Server.submit srv (Portal.request ~session:"b" echo "z") with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "fresh session should execute");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "rate_limited");
        check Alcotest.bool "journal event" true
          (has_journal_event "job.rejected.rate_limited"));
    tc "start rejects a rate limit no bucket can take" (fun () ->
        fresh ();
        List.iter
          (fun (rate, burst) ->
            let config =
              {
                Server.default_config with
                Server.rate_limit = Some (rate, burst);
              }
            in
            check Alcotest.bool
              (Printf.sprintf "rate %g, burst %g" rate burst)
              true
              (match Server.start ~config () with
              | exception Invalid_argument _ -> true
              | srv ->
                Server.stop srv;
                false))
          [ (1.0, 0.0); (-1.0, 5.0); (Float.nan, 5.0); (Float.infinity, 5.0) ]);
    tc "zero deadline rejects Deadline_exceeded at dequeue" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:
              { Server.default_config with Server.workers = 1; deadline_s = 0.0 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Rejected (Portal.Deadline_exceeded _) -> ()
        | _ -> Alcotest.fail "expected Deadline_exceeded");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "deadline");
        (match
           List.find_opt
             (fun e ->
               e.Journal.ev_component = "server"
               && e.Journal.ev_name = "job.rejected.deadline")
             (Journal.events ())
         with
        | None -> Alcotest.fail "no job.rejected.deadline event"
        | Some e ->
          let attr k = List.assoc_opt k e.Journal.ev_attrs in
          check Alcotest.(option string) "session" (Some "s") (attr "session");
          check Alcotest.(option string) "tool" (Some "echo") (attr "tool");
          check Alcotest.bool "reason" true
            (Option.is_some (attr "reason"));
          check Alcotest.bool "wait_s" true
            (Option.bind (attr "wait_s") float_of_string_opt <> None));
        check Alcotest.bool "queue wait was still recorded" true
          (T.histogram "server.phase.queue" <> None));
    tc "runaway inputs reach the portal guard through the server" (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 1 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "a\nb\nc\nd") with
        | Portal.Rejected (Portal.Runaway _) -> ()
        | _ -> Alcotest.fail "expected Runaway");
        Server.stop srv;
        check Alcotest.int "counter" 1 (reject_counter "runaway"));
    tc "stop is graceful and idempotent; submissions after stop bounce"
      (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 2 }
            ()
        in
        (match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Executed _ -> ()
        | _ -> Alcotest.fail "expected Executed");
        Server.stop srv;
        Server.stop srv;
        (match Server.submit srv (Portal.request ~session:"s" echo "y") with
        | Portal.Rejected (Portal.Overloaded msg) ->
          check Alcotest.string "message" "server is shutting down" msg
        | _ -> Alcotest.fail "expected Overloaded after stop");
        check Alcotest.int "drained" 0 (Server.queue_depth srv);
        check Alcotest.bool "start event" true (has_journal_event "server.start");
        check Alcotest.bool "stop event" true (has_journal_event "server.stop"));
    tc "phases: worker;execute;<tool> frames, one timeline per request"
      (fun () ->
        fresh ();
        (* the tool answers with the frame stack it runs under *)
        let probe =
          {
            echo with
            Portal.tool_name = "probe";
            execute =
              (fun _ -> String.concat ";" (Vc_util.Phase.current_stack ()));
          }
        in
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 1 }
            ()
        in
        let submit trace =
          Server.submit srv (Portal.request ~trace ~session:"s" probe "x")
        in
        (match submit "aaaa0001" with
        | Portal.Executed out ->
          check Alcotest.string "frames" "worker;execute;probe" out
        | _ -> Alcotest.fail "expected Executed");
        (match submit "aaaa0002" with
        | Portal.Cache_hit _ -> ()
        | _ -> Alcotest.fail "expected Cache_hit");
        Server.stop srv;
        let phases trace =
          List.find_map
            (fun e ->
              if
                e.Journal.ev_name = "request.replied"
                && List.assoc_opt "trace_id" e.Journal.ev_attrs = Some trace
              then
                Some
                  (List.filter_map
                     (fun (k, _) ->
                       if String.starts_with ~prefix:"phase." k then
                         Some (String.sub k 6 (String.length k - 6))
                       else None)
                     e.Journal.ev_attrs)
              else None)
            (Journal.events ())
        in
        check
          Alcotest.(option (list string))
          "miss" (Some [ "queue"; "cache"; "execute"; "reply" ])
          (phases "aaaa0001");
        check
          Alcotest.(option (list string))
          "hit" (Some [ "queue"; "cache"; "reply" ])
          (phases "aaaa0002"));
    tc "a server without a rate limit keeps no per-session state" (fun () ->
        fresh ();
        let srv = Server.start () in
        let submit session = expect_served srv ~session "x" in
        for i = 1 to 100 do submit (Printf.sprintf "warm-%d" i) done;
        let before = live_bytes () in
        for i = 1 to 20_000 do submit (Printf.sprintf "s%d" i) done;
        let grown = live_bytes () - before in
        Server.stop srv;
        Printf.printf "live heap %+d bytes over 20,000 sessions\n" grown;
        if grown >= 256 * 1024 then
          Alcotest.failf "live heap grew %d bytes over 20,000 sessions" grown);
    tc "a rate-limited server forgets full buckets" (fun () ->
        fresh ();
        let now = Atomic.make 0.0 and steps = ref 0 in
        with_clock now (fun () ->
            let srv =
              Server.start
                ~config:
                  {
                    Server.default_config with
                    Server.rate_limit = Some (1000.0, 2.0);
                  }
                ()
            in
            (* 1 ms per submission refills the one token each takes *)
            let submit session =
              incr steps;
              Atomic.set now (float_of_int !steps *. 0.001);
              expect_served srv ~session "x"
            in
            for i = 1 to 2_000 do submit (Printf.sprintf "warm-%d" i) done;
            let before = live_bytes () in
            for i = 1 to 100_000 do submit (Printf.sprintf "s%d" i) done;
            let grown = live_bytes () - before in
            Server.stop srv;
            Printf.printf "live heap %+d bytes over 100,000 sessions\n" grown;
            if grown >= 1024 * 1024 then
              Alcotest.failf "live heap grew %d bytes over 100,000 sessions"
                grown));
    tc "a dry bucket survives the sweeps" (fun () ->
        (* a frozen clock refills nothing, and a rate-0 bucket never
           refills: either way no other bucket is full at a sweep *)
        List.iter
          (fun (rate, step) ->
            fresh ();
            let now = Atomic.make 0.0 in
            with_clock now (fun () ->
                let srv =
                  Server.start
                    ~config:
                      {
                        Server.default_config with
                        Server.rate_limit = Some (rate, 1.0);
                      }
                    ()
                in
                let label session =
                  Atomic.set now (Atomic.get now +. step);
                  outcome_label srv ~session "x"
                in
                check Alcotest.string "first" "served" (label "dry");
                check Alcotest.string "dry" "rate_limited" (label "dry");
                (* the inserts at 1,024 and 2,048 buckets sweep *)
                for i = 1 to 3_000 do
                  Atomic.set now (Atomic.get now +. step);
                  expect_served srv ~session:(string_of_int i) "x"
                done;
                check Alcotest.string "still dry" "rate_limited" (label "dry");
                Server.stop srv))
          [ (1.0, 0.0); (0.0, 1.0) ]);
    tc "a dry bucket is turned away before a full queue" (fun () ->
        fresh ();
        let now = Atomic.make 0.0 in
        with_clock now (fun () ->
            let srv =
              Server.start
                ~config:
                  {
                    Server.default_config with
                    Server.queue_capacity = 0;
                    rate_limit = Some (1.0, 1.0);
                  }
                ()
            in
            let label session = outcome_label srv ~session "x" in
            (* the full queue turns away a submission that took a token *)
            check Alcotest.string "first" "overloaded" (label "dry");
            check Alcotest.string "dry bucket" "rate_limited" (label "dry");
            check Alcotest.string "tokens left" "overloaded" (label "fresh");
            Server.stop srv;
            check Alcotest.int "rate_limited" 1 (reject_counter "rate_limited");
            check Alcotest.int "overloaded" 2 (reject_counter "overloaded")));
  ]

(* ------------------------------------------------------------------ *)
(* execution slots: where a job runs and in what order                 *)
(* ------------------------------------------------------------------ *)

let await what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

(* A tool that blocks until its gate opens, holding its slot so later
   submissions must wait; [entered] is set once it runs. *)
let gate () =
  let entered = Atomic.make false and opened = Atomic.make false in
  let tool =
    {
      echo with
      Portal.tool_name = "gate";
      execute =
        (fun s ->
          Atomic.set entered true;
          while not (Atomic.get opened) do Unix.sleepf 0.001 done;
          "gate: " ^ s);
    }
  in
  (tool, entered, opened)

(* A tool that appends its input to [log] as it runs. *)
let logging log =
  {
    echo with
    Portal.tool_name = "logging";
    execute =
      (fun s ->
        let rec add () =
          let cur = Atomic.get log in
          if not (Atomic.compare_and_set log cur (s :: cur)) then add ()
        in
        add ();
        "logged: " ^ s);
  }

let one_slot ?(deadline_s = Float.infinity) () =
  Server.start
    ~config:{ Server.default_config with Server.workers = 1; deadline_s }
    ()

(* Occupy the only slot with a gated job, then queue one submission per
   input, in order, each from its own domain. *)
let hold_and_queue srv queued =
  let gate_tool, entered, opened = gate () in
  let holder =
    Domain.spawn (fun () ->
        Server.submit srv (Portal.request ~session:"h" gate_tool "hold"))
  in
  await "the gated job to start" (fun () -> Atomic.get entered);
  let waiters =
    List.mapi
      (fun i (tool, input) ->
        let d =
          Domain.spawn (fun () ->
              Server.submit srv (Portal.request ~session:"w" tool input))
        in
        await "the submission to queue" (fun () ->
            Server.queue_depth srv = i + 1);
        d)
      queued
  in
  (holder, waiters, opened)

let executed what = function
  | Portal.Executed _ -> ()
  | _ -> Alcotest.failf "%s: expected Executed" what

let slot_tests =
  [
    tc "a job runs on the domain that submitted it" (fun () ->
        fresh ();
        let probe =
          {
            echo with
            Portal.tool_name = "probe";
            execute = (fun _ -> string_of_int (Domain.self () :> int));
          }
        in
        let srv = Server.start () in
        let ran_on input =
          match Server.submit srv (Portal.request ~session:"s" probe input) with
          | Portal.Executed id -> id
          | _ -> Alcotest.fail "expected Executed"
        in
        let self () = string_of_int (Domain.self () :> int) in
        check Alcotest.string "main domain" (self ()) (ran_on "a");
        let here, there = Domain.join (Domain.spawn (fun () -> (self (), ran_on "b"))) in
        check Alcotest.string "spawned domain" here there;
        Server.stop srv);
    tc "waiters get the slot in submission order" (fun () ->
        fresh ();
        let srv = one_slot () in
        let log = Atomic.make [] in
        let tool = logging log in
        let holder, waiters, opened =
          hold_and_queue srv [ (tool, "1"); (tool, "2"); (tool, "3") ]
        in
        Atomic.set opened true;
        executed "holder" (Domain.join holder);
        List.iter (fun d -> executed "waiter" (Domain.join d)) waiters;
        Server.stop srv;
        check Alcotest.(list string) "FIFO" [ "1"; "2"; "3" ]
          (List.rev (Atomic.get log)));
    tc "a waiter past its deadline is shed when it gets the slot" (fun () ->
        fresh ();
        let now = Atomic.make 0.0 in
        Vc_util.Clock.set (fun () -> Atomic.get now);
        Fun.protect
          ~finally:(fun () -> Vc_util.Clock.set Unix.gettimeofday)
          (fun () ->
            let srv = one_slot ~deadline_s:1.0 () in
            let holder, waiters, opened =
              hold_and_queue srv [ (echo, "late") ]
            in
            Atomic.set now 10.0;
            Atomic.set opened true;
            executed "holder" (Domain.join holder);
            (match List.map Domain.join waiters with
            | [ Portal.Rejected (Portal.Deadline_exceeded _) ] -> ()
            | _ -> Alcotest.fail "expected Deadline_exceeded");
            Server.stop srv;
            check Alcotest.int "counter" 1 (reject_counter "deadline")));
    tc "depth, its high-water mark and busy slots follow the slots"
      (fun () ->
        fresh ();
        let srv = one_slot () in
        let load () =
          List.map T.gauge
            [
              "server.queue_depth";
              "server.queue_depth.hwm";
              "server.workers.busy";
            ]
        in
        let loads = Alcotest.(list (option (float 0.0))) in
        let holder, waiters, opened =
          hold_and_queue srv [ (echo, "1"); (echo, "2") ]
        in
        check loads "one job running, two waiting"
          [ Some 2.0; Some 2.0; Some 1.0 ]
          (load ());
        Atomic.set opened true;
        executed "holder" (Domain.join holder);
        List.iter (fun d -> executed "waiter" (Domain.join d)) waiters;
        check loads "all three done; the mark stays"
          [ Some 0.0; Some 2.0; Some 0.0 ]
          (load ());
        Server.stop srv);
    tc "stop returns after the running and the waiting job complete"
      (fun () ->
        fresh ();
        let srv = one_slot () in
        let log = Atomic.make [] in
        let holder, waiters, opened =
          hold_and_queue srv [ (logging log, "waiting") ]
        in
        let stopped = Atomic.make false in
        let stopper =
          Domain.spawn (fun () ->
              Server.stop srv;
              Atomic.set stopped true;
              List.length (Atomic.get log))
        in
        Unix.sleepf 0.05;
        check Alcotest.bool "stop waits for the held slot" false
          (Atomic.get stopped);
        Atomic.set opened true;
        check Alcotest.int "both jobs ran before stop returned" 1
          (Domain.join stopper);
        executed "holder" (Domain.join holder);
        List.iter (fun d -> executed "waiter" (Domain.join d)) waiters;
        match Server.submit srv (Portal.request ~session:"s" echo "x") with
        | Portal.Rejected (Portal.Overloaded msg) ->
          check Alcotest.string "message" "server is shutting down" msg
        | _ -> Alcotest.fail "expected Overloaded after stop");
  ]

(* ------------------------------------------------------------------ *)
(* wire protocol: the TRACE operand round-trips                        *)
(* ------------------------------------------------------------------ *)

module Wire = Vc_mooc.Wire

(* Drive session_loop over temp-file channels with a stub submit that
   records what reached it; returns (captured submissions, raw output). *)
let run_wire_script script =
  let in_file = Filename.temp_file "wire_in" ".txt" in
  let out_file = Filename.temp_file "wire_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_file;
      Sys.remove out_file)
    (fun () ->
      Out_channel.with_open_text in_file (fun oc ->
          Out_channel.output_string oc script);
      let captured = ref [] in
      let submit (req : Portal.request) =
        captured :=
          (req.Portal.req_session, req.Portal.req_trace, req.Portal.req_input)
          :: !captured;
        Portal.Executed ("ran: " ^ req.Portal.req_input)
      in
      In_channel.with_open_text in_file (fun input ->
          Out_channel.with_open_text out_file (fun output ->
              ignore (Wire.session_loop ~input ~output ~submit ())));
      (List.rev !captured, In_channel.with_open_text out_file In_channel.input_all))

let wire_tests =
  [
    tc "TRACE operand reaches submit and is echoed on the status line"
      (fun () ->
        let captured, out =
          run_wire_script
            "TOOL axb TRACE deadbeef\nhi\n.\nTOOL axb s9 TRACE \
             00c0ffee00c0ffee\nhi\n.\nTOOL axb\nhi\n.\nQUIT\n"
        in
        check
          Alcotest.(list (triple string (option string) string))
          "captured submissions"
          [
            ("default", Some "deadbeef", "hi");
            ("s9", Some "00c0ffee00c0ffee", "hi");
            ("default", None, "hi");
          ]
          captured;
        check Alcotest.string "responses"
          "OK executed trace=deadbeef\nran: hi\n.\nOK executed \
           trace=00c0ffee00c0ffee\nran: hi\n.\nOK executed\nran: hi\n.\n"
          out);
    tc "invalid TRACE id is rejected without calling submit or desyncing"
      (fun () ->
        let captured, out =
          run_wire_script
            "TOOL axb TRACE NotHex!\nignored\n.\nTOOL axb TRACE \
             abc\nignored\n.\nTOOL axb\nhi\n.\nQUIT\n"
        in
        (* the bad uploads' bodies were consumed, so the follow-up
           request still parsed cleanly *)
        check
          Alcotest.(list (triple string (option string) string))
          "only the valid request got through"
          [ ("default", None, "hi") ]
          captured;
        check Alcotest.string "responses"
          "ERR trace invalid trace id (4-64 lowercase hex chars)\n.\n\
           ERR trace invalid trace id (4-64 lowercase hex chars)\n.\n\
           OK executed\nran: hi\n.\n"
          out);
    tc "trace_of_status parses the echo, absent on untraced lines"
      (fun () ->
        check
          Alcotest.(option string)
          "executed" (Some "deadbeef")
          (Wire.trace_of_status "OK executed trace=deadbeef");
        check
          Alcotest.(option string)
          "error lines echo too" (Some "00c0ffee")
          (Wire.trace_of_status "ERR unknown no such tool; did you mean \
                                 kbdd? trace=00c0ffee");
        check
          Alcotest.(option string)
          "untraced" None
          (Wire.trace_of_status "OK executed");
        check
          Alcotest.(option string)
          "empty" None (Wire.trace_of_status ""));
    tc "end-to-end over TCP: client trace id lands in the journal"
      (fun () ->
        fresh ();
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.workers = 2 }
            ()
        in
        let listener = Wire.listen ~port:0 () in
        let acceptor =
          Domain.spawn (fun () ->
              Wire.serve listener ~submit:(Server.submit srv))
        in
        let conn = Wire.Client.connect ~port:(Wire.port listener) () in
        let status, _body =
          Wire.Client.submit conn ~trace:"f00dfeedf00dfeed" ~tool:"axb"
            "n 1\nrow 2\nrhs 4"
        in
        check
          Alcotest.(option string)
          "echoed back" (Some "f00dfeedf00dfeed")
          (Wire.trace_of_status status);
        Wire.Client.close conn;
        Wire.shutdown listener;
        Domain.join acceptor;
        ignore (Wire.drain_connections listener);
        Server.stop srv;
        let traced name =
          List.exists
            (fun e ->
              e.Journal.ev_name = name
              && List.assoc_opt "trace_id" e.Journal.ev_attrs
                 = Some "f00dfeedf00dfeed")
            (Journal.events ())
        in
        List.iter
          (fun name ->
            check Alcotest.bool (name ^ " carries the trace id") true
              (traced name))
          [ "submission"; "request.replied" ]);
    tc "untraced submissions from 8 domains get distinct valid ids"
      (fun () ->
        fresh ();
        let file = Filename.temp_file "minted" ".jsonl" in
        let ids =
          Fun.protect
            ~finally:(fun () ->
              Journal.close_jsonl ();
              Sys.remove file)
            (fun () ->
              Journal.open_jsonl file;
              let srv = Server.start () in
              let clients =
                List.init 8 (fun c ->
                    Domain.spawn (fun () ->
                        for k = 1 to 100 do
                          ignore
                            (Server.submit srv
                               (Portal.request
                                  ~session:(Printf.sprintf "mint-%d" c)
                                  echo
                                  (Printf.sprintf "%d %d" c k)))
                        done))
              in
              List.iter Domain.join clients;
              Server.stop srv;
              Journal.close_jsonl ();
              List.filter_map
                (fun e ->
                  if e.Journal.ev_name = "request.replied" then
                    Some (List.assoc "trace_id" e.Journal.ev_attrs)
                  else None)
                (Vc_util.Journal_query.load_file file).Vc_util.Journal_query
                  .events)
        in
        check Alcotest.int "one reply per submission" 800 (List.length ids);
        check Alcotest.int "distinct" 800
          (List.length (List.sort_uniq String.compare ids));
        check Alcotest.(list string) "invalid ids" []
          (List.filter
             (fun id -> not (Vc_util.Trace_ctx.is_valid_id id))
             ids));
    tc "probe says down within 3 s when a backend never answers" (fun () ->
        (* a listener that never accepts: its backlog (two connections
           under listen 1) takes the first two probes' connections, so
           only the reply timeout ends their handshakes; the third finds
           the backlog full, so only the connect timeout ends it *)
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen sock 1;
        let port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> assert false
        in
        for i = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          let up, in_time =
            within ~limit:3.0
              ~unstick:(fun () -> Unix.close sock)
              (fun () -> Wire.Client.probe ~port ())
          in
          if not in_time then
            Alcotest.failf
              "probe %d waited %.1f s on a backend that never answers" i
              (Unix.gettimeofday () -. t0);
          check Alcotest.bool "down" false up
        done;
        Unix.close sock);
    tc "probe says up for a live listener" (fun () ->
        let listener = Wire.listen ~port:0 () in
        let acceptor =
          Domain.spawn (fun () ->
              Wire.serve listener ~submit:(fun _ -> Portal.Cache_hit ""))
        in
        let up = Wire.Client.probe ~port:(Wire.port listener) () in
        Wire.shutdown listener;
        Domain.join acceptor;
        ignore (Wire.drain_connections listener);
        check Alcotest.bool "up" true up);
    tc "the wire registry keeps only live connections" (fun () ->
        let listener = Wire.listen ~port:0 () in
        let acceptor =
          Domain.spawn (fun () ->
              Wire.serve listener ~submit:(fun _ -> Portal.Cache_hit ""))
        in
        let port = Wire.port listener in
        (* a round trip proves the handler is registered and running *)
        let connect () =
          let c = Wire.Client.connect ~port () in
          ignore (Wire.Client.list_tools c);
          c
        in
        for _ = 1 to 300 do
          Wire.Client.close (connect ());
          await "the handler to finish" (fun () ->
              Wire.active_connections listener = 0)
        done;
        let last = connect () in
        check Alcotest.int "registry holds the live one" 1
          (Wire.registered_connections listener);
        Wire.Client.close last;
        Wire.shutdown listener;
        Domain.join acceptor;
        check Alcotest.bool "drained" true (Wire.drain_connections listener));
    tc "a connection with no domain to spare is shed; the listener lives"
      (fun () ->
        T.reset ();
        let listener = Wire.listen ~port:0 () in
        let serving = Atomic.make true in
        let acceptor =
          Domain.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> Atomic.set serving false)
                (fun () ->
                  Wire.serve listener ~submit:(fun _ -> Portal.Cache_hit "")))
        in
        let port = Wire.port listener in
        (* raw sockets with a receive timeout, so a connection nobody
           answers fails the test instead of hanging it *)
        let connect () =
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
        in
        let ask (ic, oc) line =
          (try
             Out_channel.output_string oc (line ^ "\n");
             Out_channel.flush oc
           with Sys_error _ -> ());
          (* every reply here is a status line and the "." terminator *)
          match In_channel.input_line ic with
          | Some status ->
            (try ignore (In_channel.input_line ic) with Sys_error _ -> ());
            status
          | None -> "EOF"
          | exception Sys_error e -> e
          | exception Sys_blocked_io -> "no reply"
        in
        let shed_reply = "ERR overloaded too many connections" in
        (* 150 held connections exceed OCaml 5.1's 128 live domains *)
        let conns =
          List.init 150 (fun i ->
              let c = connect () in
              match ask c "HELLO 2" with
              | "OK proto 2" -> (c, false)
              | r when r = shed_reply -> (c, true)
              | r -> Alcotest.failf "connection %d: %S" i r)
        in
        let shed = List.length (List.filter snd conns) in
        check Alcotest.bool "some connections were shed" true (shed > 0);
        check Alcotest.int "each shed connection is counted" shed
          (T.counter "wire.conn.rejected");
        List.iter (fun ((ic, _), _) -> In_channel.close ic) conns;
        await "the handlers to finish" (fun () ->
            Wire.active_connections listener = 0);
        (* a handler domain may outlive its connection for a moment, so
           the first fresh connection can still be shed *)
        await "a fresh connection to be served" (fun () ->
            let c = connect () in
            let ok = ask c "HELLO 2" = "OK proto 2" && ask c "PING" = "OK pong" in
            In_channel.close (fst c);
            ok);
        check Alcotest.bool "serve has not returned" true (Atomic.get serving);
        Wire.shutdown listener;
        Domain.join acceptor;
        check Alcotest.bool "drained" true (Wire.drain_connections listener));
    tc "sequential connections keep the live heap flat" (fun () ->
        fresh ();
        let srv = Server.start () in
        let listener = Wire.listen ~port:0 () in
        let acceptor =
          Domain.spawn (fun () ->
              Wire.serve listener ~submit:(Server.submit srv))
        in
        let port = Wire.port listener in
        let one () =
          let c = Wire.Client.connect ~port () in
          (match Wire.Client.submit c ~tool:"axb" "n 1\nrow 2\nrhs 4" with
          | status, _ when String.starts_with ~prefix:"OK" status -> ()
          | status, _ -> Alcotest.failf "reply %S" status);
          Wire.Client.close c;
          await "the handler to finish" (fun () ->
              Wire.active_connections listener = 0)
        in
        let live () =
          (* let the last handler domain run its exit hooks *)
          Unix.sleepf 0.05;
          Gc.full_major ();
          (Gc.stat ()).Gc.live_words
        in
        let allocated () =
          let g = Gc.quick_stat () in
          g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
        in
        for _ = 1 to 100 do one () done;
        let before = live () and alloc0 = allocated () in
        for _ = 1 to 1000 do one () done;
        let per_conn = (allocated () -. alloc0) /. 1000.0 in
        let grown = live () - before in
        Wire.shutdown listener;
        Domain.join acceptor;
        Server.stop srv;
        Printf.printf
          "live heap %+d words over 1,000 connections; %.0f words \
           allocated per connection\n"
          grown per_conn;
        if grown * (Sys.word_size / 8) >= 256 * 1024 then
          Alcotest.failf "heap grew %d words over 1,000 connections" grown;
        (* a connection domain keeps no telemetry of its own: timers and
           counters are shared slots, so it allocates no histograms *)
        if per_conn >= 4000.0 then
          Alcotest.failf "%.0f words allocated per connection" per_conn);
    tc "a request journals two events" (fun () ->
        fresh ();
        let names trace =
          List.filter_map
            (fun e ->
              if List.assoc_opt "trace_id" e.Journal.ev_attrs = Some trace
              then Some e.Journal.ev_name
              else None)
            (Journal.events ())
        in
        let submit config trace =
          let srv = Server.start ~config () in
          ignore (Server.submit srv (Portal.request ~trace ~session:"s" echo "x"));
          Server.stop srv;
          names trace
        in
        let one_slot = { Server.default_config with Server.workers = 1 } in
        let events = Alcotest.(list string) in
        check events "a run" [ "submission"; "request.replied" ]
          (submit one_slot "0a0a0a01");
        (match
           List.find_opt
             (fun e ->
               e.Journal.ev_name = "request.replied"
               && List.assoc_opt "trace_id" e.Journal.ev_attrs
                  = Some "0a0a0a01")
             (Journal.events ())
         with
        | Some e ->
          check Alcotest.bool "the reply carries the queue wait" true
            (Option.is_some
               (Option.bind
                  (List.assoc_opt "phase.queue" e.Journal.ev_attrs)
                  float_of_string_opt))
        | None -> Alcotest.fail "no request.replied");
        check events "a deadline rejection"
          [ "job.rejected.deadline"; "request.replied" ]
          (submit { one_slot with Server.deadline_s = 0.0 } "0a0a0a02");
        check events "a shed" [ "job.rejected.overloaded" ]
          (submit { one_slot with Server.queue_capacity = 0 } "0a0a0a03"));
  ]

(* ------------------------------------------------------------------ *)
(* the result cache: one table, exact LRU at every capacity            *)
(* ------------------------------------------------------------------ *)

(* distinct inputs that never collide: "x 0", "x 1", ... *)
let distinct_input i = Printf.sprintf "x %d" i

(* the group keeps its "cache-shards" label so the ids of the tests in
   it stay stable *)
let cache_tests =
  [
    tc "a full cache evicts once per new upload" (fun () ->
        fresh ();
        Portal.set_cache_capacity 8;
        let s = Portal.create_session () in
        for i = 0 to 39 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        check Alcotest.int "full" 8 (Portal.cache_size ());
        check Alcotest.int "evictions" 32 (Portal.cache_evictions ()));
    tc "capacity 8 caches 8 uploads and evicts exactly the LRU one"
      (fun () ->
        fresh ();
        Portal.set_cache_capacity 8;
        let s = Portal.create_session () in
        for _ = 1 to 2 do
          for i = 0 to 7 do
            ignore (Portal.submit_result s echo (distinct_input i))
          done
        done;
        check Alcotest.(pair int int) "8 hits, 8 misses" (8, 8)
          (Portal.cache_stats ());
        check Alcotest.int "no eviction" 0 (Portal.cache_evictions ());
        check Alcotest.int "all 8 cached" 8 (Portal.cache_size ());
        (* "x 0" is now the least recently used: a ninth upload evicts
           it and nothing else *)
        executed "the ninth" (Portal.submit_result s echo (distinct_input 8));
        check Alcotest.int "one eviction" 1 (Portal.cache_evictions ());
        for i = 1 to 8 do
          match Portal.submit_result s echo (distinct_input i) with
          | Portal.Cache_hit _ -> ()
          | _ -> Alcotest.failf "x %d was evicted" i
        done;
        executed "the evicted x 0"
          (Portal.submit_result s echo (distinct_input 0)));
    tc "uneven capacities still sum exactly to the aggregate" (fun () ->
        fresh ();
        Portal.set_cache_capacity 10;
        let s = Portal.create_session () in
        for i = 0 to 99 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        check Alcotest.int "exactly 10" 10 (Portal.cache_size ());
        check Alcotest.int "evictions" 90 (Portal.cache_evictions ()));
    tc "clear_cache empties the cache and keeps the stats" (fun () ->
        fresh ();
        Portal.set_cache_capacity 8;
        let s = Portal.create_session () in
        for i = 0 to 19 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        ignore (Portal.submit_result s echo (distinct_input 19));
        check Alcotest.int "cache populated" 8 (Portal.cache_size ());
        let stats = Portal.cache_stats ()
        and evictions = Portal.cache_evictions () in
        check Alcotest.int "evictions counted" 12 evictions;
        Portal.clear_cache ();
        check Alcotest.int "empty" 0 (Portal.cache_size ());
        check Alcotest.(pair int int) "clearing keeps the stats" stats
          (Portal.cache_stats ());
        check Alcotest.int "and the evictions" evictions
          (Portal.cache_evictions ());
        T.reset ();
        check Alcotest.(pair int int) "stats zeroed" (0, 0)
          (Portal.cache_stats ());
        check Alcotest.int "evictions zeroed" 0 (Portal.cache_evictions ()));
    tc "shrinking the capacity evicts down to the bound" (fun () ->
        fresh ();
        Portal.set_cache_capacity 16;
        let s = Portal.create_session () in
        for i = 0 to 15 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        Portal.set_cache_capacity 4;
        check Alcotest.int "evicted down" 4 (Portal.cache_size ());
        (* the 4 most recent uploads stayed *)
        for i = 12 to 15 do
          match Portal.submit_result s echo (distinct_input i) with
          | Portal.Cache_hit _ -> ()
          | _ -> Alcotest.failf "x %d was evicted" i
        done;
        (* capacity 0 disables caching entirely *)
        Portal.set_cache_capacity 0;
        check Alcotest.int "disabled empties" 0 (Portal.cache_size ());
        ignore (Portal.submit_result s echo (distinct_input 100));
        ignore (Portal.submit_result s echo (distinct_input 100));
        check Alcotest.int "nothing cached at 0" 0 (Portal.cache_size ()));
    tc "portal.cache.size gauge follows every size change" (fun () ->
        fresh ();
        Portal.set_cache_capacity 4;
        let s = Portal.create_session () in
        let in_step what =
          check
            Alcotest.(option (float 0.0))
            what
            (Some (float_of_int (Portal.cache_size ())))
            (T.gauge "portal.cache.size")
        in
        for i = 0 to 2 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        in_step "after misses";
        ignore (Portal.submit_result s echo (distinct_input 0));
        in_step "after a hit";
        for i = 3 to 5 do
          ignore (Portal.submit_result s echo (distinct_input i))
        done;
        check Alcotest.bool "evicted" true (Portal.cache_evictions () > 0);
        in_step "after an eviction";
        Portal.set_cache_capacity 2;
        in_step "after a capacity shrink";
        Portal.clear_cache ();
        in_step "after clear_cache");
    tc "cache stats stay monotone under an 8-domain hammer" (fun () ->
        fresh ();
        Portal.set_cache_capacity 32;
        let hammers =
          List.init 8 (fun c ->
              Domain.spawn (fun () ->
                  let s = Portal.create_session () in
                  for k = 0 to 399 do
                    ignore
                      (Portal.submit_result s echo
                         (distinct_input ((c + (7 * k)) mod 64)))
                  done))
        in
        (* sample concurrently from this domain until every submission
           is accounted for: totals never go backwards, the size bound
           never breaks *)
        let violations = ref 0 in
        let last = ref (0, 0, 0) in
        let running = ref true in
        while !running do
          let h, m = Portal.cache_stats () in
          let e = Portal.cache_evictions () in
          let lh, lm, le = !last in
          if h < lh || m < lm || e < le then incr violations;
          if Portal.cache_size () > 32 then incr violations;
          last := (h, m, e);
          if h + m >= 3200 then running := false
        done;
        List.iter Domain.join hammers;
        check Alcotest.int "no monotonicity or bound violations" 0 !violations;
        let h, m = Portal.cache_stats () in
        check Alcotest.int "every submission counted" 3200 (h + m));
  ]

(* ------------------------------------------------------------------ *)
(* telemetry from many domains sums exactly                            *)
(* ------------------------------------------------------------------ *)

let merge_tests =
  [
    tc "per-domain counter increments sum exactly to the global report"
      (fun () ->
        fresh ();
        (* domain d increments the shared counter (d+1) * 100 times and
           its private counter d times; both must merge exactly, and the
           counts must survive the domains terminating *)
        let domains =
          List.init 8 (fun d ->
              Domain.spawn (fun () ->
                  for _ = 1 to (d + 1) * 100 do
                    T.incr "merge.shared"
                  done;
                  T.incr ~by:d (Printf.sprintf "merge.private.%d" d);
                  T.observe "merge.timer" 0.001))
        in
        List.iter Domain.join domains;
        T.incr "merge.shared";
        (* 100+200+...+800 from the workers, +1 from this domain *)
        check Alcotest.int "shared counter sums" 3601
          (T.counter "merge.shared");
        for d = 1 to 7 do
          check Alcotest.int
            (Printf.sprintf "private counter %d" d)
            d
            (T.counter (Printf.sprintf "merge.private.%d" d))
        done;
        (* counters () sees the merged view too *)
        check Alcotest.bool "merged listing agrees" true
          (List.assoc "merge.shared" (T.counters ()) = 3601);
        (* timer histograms from every domain are merged *)
        match T.timer "merge.timer" with
        | Some s -> check Alcotest.int "eight samples" 8 s.T.count
        | None -> Alcotest.fail "merged timer missing");
    tc "reset clears all domains' counts" (fun () ->
        fresh ();
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () -> T.incr "merge.reset.me"))
        in
        List.iter Domain.join domains;
        check Alcotest.int "visible before reset" 4
          (T.counter "merge.reset.me");
        T.reset ();
        check Alcotest.int "gone after reset" 0 (T.counter "merge.reset.me"));
  ]

(* ------------------------------------------------------------------ *)
(* multi-domain stress: parallel outputs byte-identical to sequential  *)
(* ------------------------------------------------------------------ *)

let stress_inputs =
  (* 25 distinct jobs cycling through three kernels, so concurrent
     submissions mix cache hits, misses and LRU evictions *)
  List.concat
    (List.init 8 (fun i ->
         [
           ( Portal.kbdd,
             Printf.sprintf
               "boolean a b c\nf = a & b | c\ng = f ^ a\nsatcount g\nprint g\n# %d"
               i );
           ( Portal.axb,
             Printf.sprintf "n 2\nrow %d 1\nrow 1 %d\nrhs %d %d" (i + 4)
               (i + 6) (i + 1) (i + 2) );
           ( Portal.espresso,
             Printf.sprintf ".i 3\n.o 1\n1%d0 1\n111 1\n011 1\n.e" (i mod 2) );
         ]))
  @ [ (Portal.minisat, "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0") ]

let stress_tests =
  [
    tc "8 domains x 200 submissions match the sequential oracle" (fun () ->
        fresh ();
        Portal.set_cache_capacity 16;
        (* sequential oracle: tools are pure, so expected output is the
           tool run directly on the input *)
        let oracle =
          List.map
            (fun (tool, input) -> ((tool.Portal.tool_name, input), tool.Portal.execute input))
            stress_inputs
        in
        let expect tool input =
          List.assoc (tool.Portal.tool_name, input) oracle
        in
        let jobs = Array.of_list stress_inputs in
        let srv =
          Server.start
            ~config:
              {
                Server.default_config with
                Server.workers = 4;
                queue_capacity = 128;
              }
            ()
        in
        let mismatches = Atomic.make 0 and rejections = Atomic.make 0 in
        let clients =
          List.init 8 (fun c ->
              Domain.spawn (fun () ->
                  for k = 0 to 199 do
                    let tool, input =
                      jobs.((c + (3 * k)) mod Array.length jobs)
                    in
                    match
                      Server.submit srv
                        (Portal.request
                           ~session:(Printf.sprintf "stress-%d" c)
                           tool input)
                    with
                    | Portal.Executed out | Portal.Cache_hit out ->
                      if out <> expect tool input then Atomic.incr mismatches
                    | Portal.Rejected _ -> Atomic.incr rejections
                  done))
        in
        List.iter Domain.join clients;
        Server.stop srv;
        check Alcotest.int "no mismatched outputs" 0 (Atomic.get mismatches);
        check Alcotest.int "no rejections" 0 (Atomic.get rejections);
        (* counter consistency: every submission is accounted for exactly
           once, and the books balance across layers *)
        let executed = T.counter "server.outcome.executed" in
        let cache_hit = T.counter "server.outcome.cache_hit" in
        check Alcotest.int "submitted" 1600 (T.counter "server.submitted");
        check Alcotest.int "outcomes balance" 1600 (executed + cache_hit);
        check Alcotest.bool "both paths exercised" true
          (executed > 0 && cache_hit > 0);
        let hits, misses = Portal.cache_stats () in
        check Alcotest.int "cache stats balance" 1600 (hits + misses);
        let portal_submits =
          List.fold_left
            (fun acc tool ->
              acc + T.counter ("portal." ^ tool.Portal.tool_name ^ ".submits"))
            0 Portal.all_tools
        in
        check Alcotest.int "portal submits balance" 1600 portal_submits;
        check Alcotest.bool "cache bound holds under concurrency" true
          (Portal.cache_size () <= 16);
        check Alcotest.int "queue drained" 0 (Server.queue_depth srv));
    tc "8 domains appending to one session keep exactly history_limit runs"
      (fun () ->
        fresh ();
        (* room for every upload, so every run still resolves *)
        Portal.set_cache_capacity 4096;
        let s = Portal.create_session () in
        let domains =
          List.init 8 (fun d ->
              Domain.spawn (fun () ->
                  for k = 0 to 499 do
                    let input = Printf.sprintf "d%d k%d" d k in
                    ignore (Portal.submit_result s echo input)
                  done))
        in
        List.iter Domain.join domains;
        let h = Portal.history s echo in
        check Alcotest.int "capped" Portal.history_limit (List.length h);
        check Alcotest.int "no duplicates" Portal.history_limit
          (List.length (List.sort_uniq compare h));
        let runs =
          List.map
            (fun (digest, output) ->
              let input =
                match output with
                | Some o when String.starts_with ~prefix:"echo: " o ->
                  String.sub o 6 (String.length o - 6)
                | _ -> Alcotest.failf "run %s has no echo output" digest
              in
              check Alcotest.string "its own digest"
                (upload_digest "echo" input) digest;
              match Scanf.sscanf_opt input "d%d k%d%!" (fun d k -> (d, k)) with
              | Some (d, k) when d >= 0 && d < 8 && k >= 0 && k < 500 -> (d, k)
              | _ -> Alcotest.failf "never submitted: %S" input)
            h
        in
        (* one domain's appends are sequential, so they keep their order *)
        List.iter
          (fun d ->
            let ks =
              List.filter_map
                (fun (d', k) -> if d' = d then Some k else None)
                runs
            in
            check Alcotest.(list int) "per-domain order"
              (List.sort compare ks) ks)
          (List.init 8 Fun.id));
  ]

let () =
  Alcotest.run "server"
    [
      ("token-bucket", token_bucket_tests);
      ("resolve", resolve_tests);
      ("outcomes", outcome_tests);
      ("admission", server_tests);
      ("slots", slot_tests);
      ("wire-trace", wire_tests);
      ("cache-shards", cache_tests);
      ("telemetry-merge", merge_tests);
      ("stress", stress_tests);
    ]

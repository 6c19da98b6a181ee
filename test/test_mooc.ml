open Helpers
module M = Vc_mooc

let concept_tests =
  [
    tc "paper invariants: 102 concepts, 948 slides" (fun () ->
        check Alcotest.int "concepts" 102 M.Concept_map.total_concepts;
        check Alcotest.int "slides" 948 M.Concept_map.total_slides);
    tc "MOOC keeps 50-60% of the material" (fun () ->
        let f = M.Concept_map.kept_slide_fraction in
        check Alcotest.bool (Printf.sprintf "%.2f in range" f) true
          (f >= 0.5 && f <= 0.62));
    tc "fig1 covers the BDD-and-Boolean-algebra areas" (fun () ->
        let rows = M.Concept_map.fig1_rows in
        check Alcotest.bool "URP present" true
          (List.mem_assoc "Unate recursive paradigm" rows);
        check Alcotest.bool "biggest first" true
          (match rows with
          | (_, a) :: (_, b) :: _ -> a >= b
          | _ -> false));
    tc "areas partition the concepts" (fun () ->
        let total =
          List.fold_left
            (fun acc a -> acc + List.length (M.Concept_map.by_area a))
            0 M.Concept_map.areas
        in
        check Alcotest.int "every concept in an area" 102 total);
    tc "fig1 renders" (fun () ->
        check Alcotest.bool "non-empty" true
          (String.length (M.Concept_map.render_fig1 ()) > 100));
  ]

let syllabus_tests =
  [
    tc "paper invariants: 69 videos, ~17h, 615 slides" (fun () ->
        check Alcotest.int "videos" 69 M.Syllabus.total_videos;
        check Alcotest.int "minutes" 1020 M.Syllabus.total_minutes;
        check Alcotest.int "slides" 615 M.Syllabus.total_slides;
        check Alcotest.bool "avg ~15min" true
          (abs_float (M.Syllabus.average_minutes -. 15.0) < 1.0));
    tc "eight topic weeks plus tutorials" (fun () ->
        check Alcotest.int "nine groups" 9 (List.length M.Syllabus.week_titles);
        List.iter
          (fun w ->
            check Alcotest.bool
              (Printf.sprintf "week %d non-empty" w)
              true
              (M.Syllabus.by_week w <> []))
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
    tc "video lengths plausible for download" (fun () ->
        List.iter
          (fun v ->
            check Alcotest.bool "8..28 minutes" true
              (v.M.Syllabus.minutes >= 8 && v.M.Syllabus.minutes <= 28))
          M.Syllabus.videos);
    tc "fig2 renders" (fun () ->
        check Alcotest.bool "non-empty" true
          (String.length (M.Syllabus.render_fig2 ()) > 500));
  ]

let within pct reference value =
  let r = float_of_int reference and v = float_of_int value in
  abs_float (v -. r) <= pct /. 100.0 *. r

let cohort_tests =
  [
    tc "funnel matches the paper within sampling noise" (fun () ->
        let f =
          M.Cohort.funnel_of (M.Cohort.simulate ~seed:1 M.Cohort.paper_params)
        in
        let p = M.Cohort.paper_funnel in
        check Alcotest.int "registered exactly" p.M.Cohort.registered
          f.M.Cohort.registered;
        check Alcotest.bool "watched" true
          (within 5.0 p.M.Cohort.watched_video f.M.Cohort.watched_video);
        check Alcotest.bool "homework" true
          (within 10.0 p.M.Cohort.did_homework f.M.Cohort.did_homework);
        check Alcotest.bool "software" true
          (within 20.0 p.M.Cohort.tried_software f.M.Cohort.tried_software);
        check Alcotest.bool "final" true
          (within 15.0 p.M.Cohort.took_final f.M.Cohort.took_final);
        check Alcotest.bool "certs" true
          (within 20.0 p.M.Cohort.certificates f.M.Cohort.certificates));
    tc "funnel is monotone" (fun () ->
        let f =
          M.Cohort.funnel_of (M.Cohort.simulate ~seed:2 M.Cohort.paper_params)
        in
        check Alcotest.bool "ordering" true
          (f.M.Cohort.registered >= f.M.Cohort.watched_video
          && f.M.Cohort.watched_video >= f.M.Cohort.did_homework
          && f.M.Cohort.did_homework >= f.M.Cohort.tried_software
          && f.M.Cohort.did_homework >= f.M.Cohort.took_final
          && f.M.Cohort.took_final >= f.M.Cohort.certificates));
    tc "viewer curve matches Fig. 9's anchors" (fun () ->
        let ps = M.Cohort.simulate ~seed:3 M.Cohort.paper_params in
        let v = M.Cohort.viewers_per_video ps in
        check Alcotest.int "69 videos" 69 (Array.length v);
        check Alcotest.bool "v1 ~ 7000" true (v.(0) > 6700 && v.(0) < 7700);
        check Alcotest.bool "mid ~ 5000" true (v.(9) > 4400 && v.(9) < 5800);
        check Alcotest.bool "v69 ~ 2000" true (v.(68) > 1700 && v.(68) < 2600));
    tc "viewer curve never increases" (fun () ->
        let v =
          M.Cohort.viewers_per_video
            (M.Cohort.simulate ~seed:4 M.Cohort.paper_params)
        in
        for i = 0 to 67 do
          if v.(i) < v.(i + 1) then Alcotest.failf "increase at %d" i
        done);
    tc "deterministic for a seed" (fun () ->
        let a = M.Cohort.simulate ~seed:5 M.Cohort.paper_params in
        let b = M.Cohort.simulate ~seed:5 M.Cohort.paper_params in
        check Alcotest.bool "identical" true
          (M.Cohort.funnel_of a = M.Cohort.funnel_of b));
    tc "participant journeys are internally consistent" (fun () ->
        let ps = M.Cohort.simulate ~seed:6 M.Cohort.paper_params in
        List.iter
          (fun (p : M.Cohort.participant) ->
            if p.M.Cohort.did_homework && p.M.Cohort.watched = 0 then
              Alcotest.fail "homework without watching";
            if p.M.Cohort.tried_software && not p.M.Cohort.did_homework then
              Alcotest.fail "software without homework";
            if p.M.Cohort.certificate && not p.M.Cohort.took_final then
              Alcotest.fail "certificate without final")
          ps);
    tc "renders" (fun () ->
        let ps = M.Cohort.simulate ~seed:7 M.Cohort.paper_params in
        check Alcotest.bool "fig8" true
          (String.length (M.Cohort.render_fig8 (M.Cohort.funnel_of ps)) > 50);
        check Alcotest.bool "fig9" true
          (String.length (M.Cohort.render_fig9 (M.Cohort.viewers_per_video ps))
          > 500));
  ]

let demographics_tests =
  [
    tc "summary matches the paper's bullets" (fun () ->
        let s = M.Demographics.summarize (M.Demographics.sample ~seed:1 17_500) in
        check Alcotest.bool "mean age ~30" true
          (s.M.Demographics.mean_age > 28.0 && s.M.Demographics.mean_age < 31.5);
        check Alcotest.int "min age" 15 s.M.Demographics.min_age;
        check Alcotest.bool "max age ~75" true (s.M.Demographics.max_age >= 70);
        check Alcotest.bool "30% bachelors" true
          (abs_float (s.M.Demographics.pct_bachelors -. 30.0) < 2.0);
        check Alcotest.bool "29% ms/phd" true
          (abs_float (s.M.Demographics.pct_ms_phd -. 29.0) < 2.0);
        check Alcotest.bool "88% male" true
          (abs_float (s.M.Demographics.pct_male -. 88.0) < 2.0));
    tc "US and India in the top band, as in Fig. 10" (fun () ->
        let s = M.Demographics.summarize (M.Demographics.sample ~seed:2 17_500) in
        let pct c =
          100.0
          *. float_of_int (List.assoc c s.M.Demographics.by_country)
          /. float_of_int s.M.Demographics.n
        in
        check Alcotest.string "US top band" "10.01 - 30%"
          (M.Demographics.fig10_band (pct "United States"));
        check Alcotest.string "India top band" "10.01 - 30%"
          (M.Demographics.fig10_band (pct "India"));
        check Alcotest.string "Brazil mid band" "2.51 - 5%"
          (M.Demographics.fig10_band (pct "Brazil")));
    tc "band edges" (fun () ->
        check Alcotest.string "zero" "0%" (M.Demographics.fig10_band 0.0);
        check Alcotest.string "tiny" "0.01 - 1%" (M.Demographics.fig10_band 0.5);
        check Alcotest.string "edge 2.5" "1.01 - 2.5%"
          (M.Demographics.fig10_band 2.5);
        check Alcotest.string "big" "10.01 - 30%" (M.Demographics.fig10_band 29.7));
    tc "shares sum to one" (fun () ->
        let total =
          List.fold_left (fun acc (_, s) -> acc +. s) 0.0
            M.Demographics.country_shares
        in
        check (Alcotest.float 1e-9) "normalized" 1.0 total);
    tc "renders" (fun () ->
        let s = M.Demographics.summarize (M.Demographics.sample ~seed:3 2000) in
        check Alcotest.bool "fig10" true
          (String.length (M.Demographics.render_fig10 s) > 100);
        check Alcotest.bool "stats" true
          (String.length (M.Demographics.render_stats s) > 50));
  ]

let survey_tests =
  [
    tc "mined words reflect the Fig. 11 themes" (fun () ->
        let freqs =
          M.Survey.word_frequencies (M.Survey.generate_responses ~seed:1 600)
        in
        let words = List.map fst freqs in
        List.iter
          (fun w ->
            check Alcotest.bool (w ^ " present") true (List.mem w words))
          [ "verilog"; "timing"; "design"; "synthesis"; "power"; "test" ]);
    tc "stopwords filtered" (fun () ->
        let freqs =
          M.Survey.word_frequencies (M.Survey.generate_responses ~seed:2 100)
        in
        List.iter
          (fun (w, _) ->
            if List.mem w M.Survey.stopwords then
              Alcotest.failf "stopword %s leaked" w)
          freqs);
    tc "frequencies are sorted descending" (fun () ->
        let freqs =
          M.Survey.word_frequencies (M.Survey.generate_responses ~seed:3 200)
        in
        let rec sorted = function
          | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
          | [ _ ] | [] -> true
        in
        check Alcotest.bool "sorted" true (sorted freqs));
    tc "punctuation and case normalized" (fun () ->
        let freqs = M.Survey.word_frequencies [ "FPGA, fpga! (fpga)" ] in
        check Alcotest.(option int) "merged" (Some 3)
          (List.assoc_opt "fpga" freqs));
    tc "render caps at top words" (fun () ->
        let freqs =
          M.Survey.word_frequencies (M.Survey.generate_responses ~seed:4 300)
        in
        let s = M.Survey.render_fig11 ~top:5 freqs in
        (* header + 5 rows *)
        check Alcotest.int "six lines" 6
          (List.length
             (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))));
  ]

(* submit and collapse to the display string - these tests assert on
   output text, not on the outcome constructors *)
let psubmit s tool input =
  M.Portal.outcome_output (M.Portal.submit_result s tool input)

(* a synthetic tool: pure, fast, no kernel dependency *)
let echo =
  {
    M.Portal.tool_name = "echo";
    description = "test tool";
    max_input_lines = 3;
    execute = (fun s -> "echo: " ^ s);
  }

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let portal_tests =
  [
    tc "all five paper tools are deployed" (fun () ->
        check Alcotest.int "five" 5 (List.length M.Portal.all_tools);
        List.iter
          (fun name ->
            check Alcotest.bool name true (M.Portal.find_tool name <> None))
          [ "kbdd"; "espresso"; "sis"; "minisat"; "axb" ]);
    tc "kbdd portal runs scripts" (fun () ->
        let s = M.Portal.create_session () in
        let out = psubmit s M.Portal.kbdd "boolean a b\nf = a & b\nsize f" in
        check Alcotest.bool "answers" true (String.length out > 0));
    tc "espresso portal minimizes and round-trips" (fun () ->
        let s = M.Portal.create_session () in
        let out =
          psubmit s M.Portal.espresso
            ".i 2\n.o 1\n11 1\n10 1\n01 1\n00 1\n.e\n"
        in
        let pla = Vc_two_level.Pla.parse out in
        check Alcotest.int "tautology is one row" 1
          (Vc_cube.Cover.num_cubes pla.Vc_two_level.Pla.on_sets.(0)));
    tc "espresso portal enforces the runaway guard" (fun () ->
        let s = M.Portal.create_session () in
        let out =
          psubmit s M.Portal.espresso ".i 20\n.o 1\n11111111111111111111 1\n.e\n"
        in
        check Alcotest.bool "rejected" true
          (String.length out >= 6 && String.sub out 0 6 = "error:"));
    tc "sis portal optimizes BLIF with a script" (fun () ->
        let s = M.Portal.create_session () in
        let input =
          ".model m\n.inputs a b c d\n.outputs x\n.names a b c d x\n\
           11-- 1\n1-1- 1\n%script\nsweep\nsimplify\nprint_stats\n"
        in
        let out = psubmit s M.Portal.sis input in
        check Alcotest.bool "produced a log and a BLIF" true
          (String.length out > 0);
        (* the output's BLIF section must reparse to an equivalent network *)
        let blif_start =
          let lines = String.split_on_char '\n' out in
          let rec from = function
            | [] -> []
            | l :: rest ->
              if String.length l >= 6 && String.sub l 0 6 = ".model" then l :: rest
              else from rest
          in
          String.concat "\n" (from lines)
        in
        let reparsed = Vc_network.Blif.parse blif_start in
        check Alcotest.int "one output" 1
          (List.length (Vc_network.Network.outputs reparsed)));
    tc "minisat portal solves" (fun () ->
        let s = M.Portal.create_session () in
        let out = psubmit s M.Portal.minisat "p cnf 1 2\n1 0\n-1 0\n" in
        check Alcotest.bool "unsat" true
          (String.length out >= 13 && String.sub out 0 13 = "UNSATISFIABLE"));
    tc "axb portal solves" (fun () ->
        let s = M.Portal.create_session () in
        let out = psubmit s M.Portal.axb "n 1\nrow 2\nrhs 6\n" in
        check Alcotest.bool "x0 = 3" true
          (String.length out > 5 && String.sub out 0 6 = "x0 = 3"));
    tc "errors come back as text, never exceptions" (fun () ->
        let s = M.Portal.create_session () in
        List.iter
          (fun tool ->
            let out = psubmit s tool "complete nonsense $$$" in
            check Alcotest.bool "text" true (String.length out > 0))
          M.Portal.all_tools);
    tc "history accumulates per tool" (fun () ->
        let s = M.Portal.create_session () in
        ignore (psubmit s M.Portal.axb "n 1\nrow 1\nrhs 1\n");
        ignore (psubmit s M.Portal.axb "n 1\nrow 2\nrhs 2\n");
        ignore (psubmit s M.Portal.kbdd "boolean a\n");
        check Alcotest.int "two axb runs" 2
          (List.length (M.Portal.history s M.Portal.axb));
        check Alcotest.int "one kbdd run" 1
          (List.length (M.Portal.history s M.Portal.kbdd));
        check Alcotest.int "sis untouched" 0
          (List.length (M.Portal.history s M.Portal.sis)));
    tc "history keeps the newest history_limit runs, oldest first per tool"
      (fun () ->
        let s = M.Portal.create_session () in
        let input i =
          if i mod 2 = 0 then Printf.sprintf "n 1\nrow 1\nrhs %d\n" i
          else Printf.sprintf "boolean a\n# %d\n" i
        in
        for i = 0 to 39 do
          let tool = if i mod 2 = 0 then M.Portal.axb else M.Portal.kbdd in
          ignore (psubmit s tool (input i))
        done;
        check Alcotest.int "limit" 32 M.Portal.history_limit;
        let digests tool = List.map fst (M.Portal.history s tool) in
        let expect tool parity =
          List.filter (fun i -> i mod 2 = parity) (List.init 32 (( + ) 8))
          |> List.map (fun i -> upload_digest tool.M.Portal.tool_name (input i))
        in
        check Alcotest.(list string) "axb: runs 8..38" (expect M.Portal.axb 0)
          (digests M.Portal.axb);
        check Alcotest.(list string) "kbdd: runs 9..39"
          (expect M.Portal.kbdd 1) (digests M.Portal.kbdd));
    tc "a re-upload records the cache's strings, not the caller's copy"
      (fun () ->
        let u = "n 1\nrow 5\nrhs 35\n# shared" in
        let copy () = Bytes.to_string (Bytes.of_string u) in
        let a = copy () and b = copy () in
        check Alcotest.bool "distinct copies" false (a == b);
        let s1 = M.Portal.create_session () and s2 = M.Portal.create_session () in
        ignore (M.Portal.submit_result s1 M.Portal.axb a);
        (match M.Portal.submit_result s2 M.Portal.axb b with
        | M.Portal.Cache_hit _ -> ()
        | _ -> Alcotest.fail "expected a cache hit");
        match
          (M.Portal.history s1 M.Portal.axb, M.Portal.history s2 M.Portal.axb)
        with
        | [ (d1, Some o1) ], [ (d2, Some o2) ] ->
          check Alcotest.string "the upload's digest" (upload_digest "axb" u) d1;
          check Alcotest.string "same digest" d1 d2;
          check Alcotest.bool "output shared" true (o1 == o2)
        | _ -> Alcotest.fail "expected one resolved run per session");
    tc "re-uploads across 1,000 sessions keep the heap flat" (fun () ->
        let uploads =
          List.init 5 (fun i -> Printf.sprintf "n 1\nrow %d\nrhs 1\n" (i + 2))
          |> Array.of_list
        in
        let sessions = Array.init 1000 (fun _ -> M.Portal.create_session ()) in
        let prime = M.Portal.create_session () in
        Array.iter (fun u -> ignore (M.Portal.submit_result prime M.Portal.axb u))
          uploads;
        let submit k =
          let u = uploads.(k mod Array.length uploads) in
          ignore
            (M.Portal.submit_result
               sessions.(k mod Array.length sessions)
               M.Portal.axb
               (Bytes.to_string (Bytes.of_string u)))
        in
        for k = 0 to 39_999 do submit k done;
        let at_40k = live_words () in
        for k = 40_000 to 99_999 do submit k done;
        let grown_bytes = (live_words () - at_40k) * (Sys.word_size / 8) in
        (* reading a session after the measurement keeps them all live
           through it *)
        check Alcotest.int "a session keeps its newest runs"
          M.Portal.history_limit
          (List.length (M.Portal.history sessions.(999) M.Portal.axb));
        if grown_bytes >= 256 * 1024 then
          Alcotest.failf "heap grew %d bytes over 60,000 re-uploads"
            grown_bytes);
    tc "20,000 distinct uploads over 200 sessions keep the heap flat"
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            M.Portal.clear_cache ();
            M.Portal.set_cache_capacity 512)
          (fun () ->
            M.Portal.clear_cache ();
            M.Portal.set_cache_capacity 64;
            let sessions = Array.init 200 (fun _ -> M.Portal.create_session ()) in
            (* 1 KB, one line, distinct by its leading index *)
            let upload k = Printf.sprintf "%08d%s" k (String.make 1016 'x') in
            let before = live_words () in
            for k = 0 to 19_999 do
              ignore (M.Portal.submit_result sessions.(k mod 200) echo (upload k))
            done;
            let grown_bytes = (live_words () - before) * (Sys.word_size / 8) in
            (* reading a session after the measurement keeps them all live
               through it *)
            check Alcotest.int "a session keeps its newest runs"
              M.Portal.history_limit
              (List.length (M.Portal.history sessions.(199) echo));
            if grown_bytes >= 2 * 1024 * 1024 then
              Alcotest.failf "live heap grew %d bytes over 20,000 uploads"
                grown_bytes));
    tc "rejected uploads leave the live heap where it was" (fun () ->
        (* four lines, one over echo's limit *)
        let upload k pad = Printf.sprintf "%d\n\n\n%s" k pad in
        (* fill the flight-recorder ring first, so the measurement
           sees only what the session keeps *)
        let warm = M.Portal.create_session () in
        for k = 0 to 299 do
          ignore (M.Portal.submit_result warm echo (upload k ""))
        done;
        let s = M.Portal.create_session () in
        let pad = String.make 65536 'x' in
        let before = live_words () in
        for k = 1 to M.Portal.history_limit do
          match M.Portal.submit_result s echo (upload k pad) with
          | M.Portal.Rejected (M.Portal.Runaway _) -> ()
          | _ -> Alcotest.fail "expected a runaway rejection"
        done;
        let grown_bytes = (live_words () - before) * (Sys.word_size / 8) in
        check
          Alcotest.(list (option string))
          "each run renders its error text"
          (List.init M.Portal.history_limit (fun _ ->
               Some "error: input too large (4 lines; portal limit 3)"))
          (List.map snd (M.Portal.history s echo));
        if grown_bytes >= 64 * 1024 then
          Alcotest.failf "live heap grew %d bytes over %d rejected 64 KB uploads"
            grown_bytes M.Portal.history_limit);
    tc "the line guard passes exactly the limit and rejects one more line"
      (fun () ->
        let s = M.Portal.create_session () in
        let limit = echo.M.Portal.max_input_lines in
        (* the guard counts 1 + the newlines, as splitting on '\n' does,
           so a trailing newline adds one (empty) line *)
        let lines n = String.concat "\n" (List.init n (fun _ -> "x")) in
        let trailing n = lines (n - 1) ^ "\n" in
        List.iter
          (fun (what, make) ->
            (match M.Portal.submit_result s echo (make limit) with
            | M.Portal.Executed _ | M.Portal.Cache_hit _ -> ()
            | M.Portal.Rejected _ -> Alcotest.failf "%s: limit rejected" what);
            check Alcotest.string what
              (Printf.sprintf "error: input too large (%d lines; portal limit %d)"
                 (limit + 1) limit)
              (psubmit s echo (make (limit + 1))))
          [ ("no trailing newline", lines); ("trailing newline", trailing) ]);
    tc "oversized input rejected with the limit in the message" (fun () ->
        let s = M.Portal.create_session () in
        let big = String.concat "\n" (List.init 3000 (fun _ -> "boolean a")) in
        let out = psubmit s M.Portal.kbdd big in
        check Alcotest.bool "rejected" true
          (String.length out >= 6 && String.sub out 0 6 = "error:"));
  ]

let grader_tests =
  [
    tc "reference solutions earn full credit" (fun () ->
        List.iter
          (fun p ->
            let g =
              M.Autograder.grade p.M.Projects.p_grader (p.M.Projects.p_reference ())
            in
            check Alcotest.int
              (Printf.sprintf "project %d" p.M.Projects.p_id)
              g.M.Autograder.possible g.M.Autograder.earned)
          M.Projects.all);
    tc "empty submissions earn zero" (fun () ->
        List.iter
          (fun p ->
            let g = M.Autograder.grade p.M.Projects.p_grader "" in
            check Alcotest.int
              (Printf.sprintf "project %d" p.M.Projects.p_id)
              0 g.M.Autograder.earned)
          M.Projects.all);
    tc "graders never raise on malformed input" (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun garbage ->
                ignore (M.Autograder.grade p.M.Projects.p_grader garbage))
              [ "%$#@!"; "complement\nend"; "net\n0 0"; "place x"; "repair" ])
          M.Projects.all);
    tc "project 1 rejects a wrong complement" (fun () ->
        let wrong = "complement and2\n--\nend\n" in
        let g = M.Autograder.grade M.Projects.project1.M.Projects.p_grader wrong in
        let unit_ =
          List.find
            (fun u -> u.M.Autograder.ur_name = "complement(and2)")
            g.M.Autograder.units
        in
        check Alcotest.bool "failed" false unit_.M.Autograder.ur_passed);
    tc "project 1 tautology answers are graded" (fun () ->
        let g =
          M.Autograder.grade M.Projects.project1.M.Projects.p_grader
            "tautology t_yes yes\ntautology t_no yes\n"
        in
        let passed name =
          (List.find (fun u -> u.M.Autograder.ur_name = name) g.M.Autograder.units)
            .M.Autograder.ur_passed
        in
        check Alcotest.bool "t_yes ok" true (passed "tautology(t_yes)");
        check Alcotest.bool "t_no wrong" false (passed "tautology(t_no)"));
    tc "project 2 distinguishes NONE correctly" (fun () ->
        let g =
          M.Autograder.grade M.Projects.project2.M.Projects.p_grader
            "repair gate_or NONE\nrepair no_fix NONE\n"
        in
        let passed name =
          (List.find (fun u -> u.M.Autograder.ur_name = name) g.M.Autograder.units)
            .M.Autograder.ur_passed
        in
        check Alcotest.bool "gate_or has a repair" false (passed "repair(gate_or)");
        check Alcotest.bool "no_fix really has none" true (passed "repair(no_fix)"));
    tc "project 3 catches overlapping placements" (fun () ->
        (* all cells at the same point: must fail the legality unit *)
        let tiny = Vc_place.Netgen.generate ~seed:101 Vc_place.Netgen.tiny in
        let stacked = Vc_place.Pnet.center_placement tiny in
        let body = Vc_place.Pnet.placement_to_string tiny stacked in
        let submission = "design tiny\n" ^ body in
        let g = M.Autograder.grade M.Projects.project3.M.Projects.p_grader submission in
        let legal_unit =
          List.find
            (fun u -> u.M.Autograder.ur_name = "legal(tiny)")
            g.M.Autograder.units
        in
        check Alcotest.bool "overlap detected" false legal_unit.M.Autograder.ur_passed);
    tc "project 4 catches discontiguous paths" (fun () ->
        let broken = "problem short_horizontal\nnet a\n0 1 1\n0 4 1\n0 6 1\nendnet\n" in
        let g = M.Autograder.grade M.Projects.project4.M.Projects.p_grader broken in
        let legal_unit =
          List.find
            (fun u -> u.M.Autograder.ur_name = "legal(short_horizontal)")
            g.M.Autograder.units
        in
        check Alcotest.bool "rejected" false legal_unit.M.Autograder.ur_passed);
    tc "project 4 catches overlapping nets" (fun () ->
        (* both nets of two_nets_cross routed straight on layer 0: they
           collide at (4,4) *)
        let straight name y_fixed =
          let cells =
            List.init 7 (fun i -> Printf.sprintf "0 %d %d"
                            (if y_fixed then i + 1 else 4)
                            (if y_fixed then 4 else i + 1))
          in
          "net " ^ name ^ "\n" ^ String.concat "\n" cells ^ "\nendnet\n"
        in
        let submission =
          "problem two_nets_cross\n" ^ straight "a" true ^ straight "b" false
        in
        let g = M.Autograder.grade M.Projects.project4.M.Projects.p_grader submission in
        let legal_unit =
          List.find
            (fun u -> u.M.Autograder.ur_name = "legal(two_nets_cross)")
            g.M.Autograder.units
        in
        check Alcotest.bool "overlap detected" false legal_unit.M.Autograder.ur_passed);
    tc "partial credit accumulates unit by unit" (fun () ->
        let p = M.Projects.project2 in
        let g = M.Autograder.grade p.M.Projects.p_grader "repair gate_or OR\n" in
        check Alcotest.int "one unit's points" 5 g.M.Autograder.earned;
        check Alcotest.int "out of all" 20 g.M.Autograder.possible);
    tc "renderings mention pass and fail" (fun () ->
        let p = M.Projects.project2 in
        let g = M.Autograder.grade p.M.Projects.p_grader "repair gate_or OR\n" in
        let text = M.Autograder.render g in
        check Alcotest.bool "has PASS" true
          (String.length text > 0);
        check Alcotest.bool "score line" true
          (String.sub text 0 6 = "score:"));
    tc "fig5 and fig6 render" (fun () ->
        check Alcotest.bool "fig5" true (String.length (M.Projects.render_fig5 ()) > 100);
        check Alcotest.bool "fig6" true (String.length (M.Projects.render_fig6 ()) > 500));
  ]

let flow_tests =
  [
    tc "full flow on a small design" (fun () ->
        let net =
          Vc_network.Network.of_exprs ~inputs:[ "a"; "b"; "c"; "d" ]
            [
              ("x", Vc_cube.Expr.parse "a b + c d");
              ("y", Vc_cube.Expr.parse "a ^ c");
            ]
        in
        let r = M.Flow.run net in
        check Alcotest.bool "equivalent" true r.M.Flow.equivalent;
        check Alcotest.int "fully routed" r.M.Flow.routing.Vc_route.Router.total
          r.M.Flow.routing.Vc_route.Router.completed;
        check Alcotest.bool "wires slow things down" true
          (r.M.Flow.total_delay >= r.M.Flow.gate_delay);
        check Alcotest.bool "synthesis helped or tied" true
          (r.M.Flow.literals_after <= r.M.Flow.literals_before));
    tc "pnet_of_mapping wires gates to pads" (fun () ->
        let net =
          Vc_network.Network.of_exprs ~inputs:[ "a"; "b" ]
            [ ("f", Vc_cube.Expr.parse "a & b") ]
        in
        let m = Vc_techmap.Map.map_network (Vc_techmap.Cell_lib.standard ()) net in
        let pnet = M.Flow.pnet_of_mapping m in
        check Alcotest.bool "cells exist" true (pnet.Vc_place.Pnet.num_cells > 0);
        (* pads: 2 inputs + 1 output *)
        check Alcotest.int "pads" 3 (Array.length pnet.Vc_place.Pnet.pads));
    tc "report renders" (fun () ->
        let net =
          Vc_network.Network.of_exprs ~inputs:[ "a"; "b" ]
            [ ("f", Vc_cube.Expr.parse "a | b") ]
        in
        let r = M.Flow.run net in
        check Alcotest.bool "text" true
          (String.length (M.Flow.report_to_string r) > 100));
    tc "QoR JSON report has one entry per stage" (fun () ->
        let module Json = Vc_util.Json in
        let net =
          Vc_network.Network.of_exprs ~inputs:[ "a"; "b"; "c" ]
            [ ("f", Vc_cube.Expr.parse "a b + c") ]
        in
        let r = M.Flow.run net in
        let j = Json.parse (M.Flow.qor_to_json ~design:"unit" r) in
        check Alcotest.bool "design" true
          (Json.member "design" j = Some (Json.Str "unit"));
        (match Json.member "total_latency_s" j with
        | Some (Json.Num t) -> check Alcotest.bool "total >= 0" true (t >= 0.0)
        | _ -> Alcotest.fail "no total_latency_s");
        let stages =
          match Json.member "stages" j with
          | Some (Json.Arr l) -> l
          | _ -> Alcotest.fail "no stages array"
        in
        let expected =
          [
            ("synthesis", "literals_after");
            ("mapping", "area");
            ("placement", "hpwl");
            ("routing", "wirelength");
            ("timing", "total_delay");
          ]
        in
        check
          Alcotest.(list string)
          "stage names in flow order" (List.map fst expected)
          (List.map
             (fun s ->
               match Json.member "stage" s with
               | Some (Json.Str n) -> n
               | _ -> Alcotest.fail "stage without a name")
             stages);
        List.iter2
          (fun (name, metric) s ->
            (match Json.member "latency_s" s with
            | Some (Json.Num l) ->
              check Alcotest.bool (name ^ " latency >= 0") true (l >= 0.0)
            | _ -> Alcotest.fail (name ^ ": no latency_s"));
            match Json.member "metrics" s with
            | Some (Json.Obj ms) ->
              check Alcotest.bool (name ^ " carries " ^ metric) true
                (List.mem_assoc metric ms)
            | _ -> Alcotest.fail (name ^ ": no metrics object"))
          expected stages;
        (* the numbers in the report and the record agree *)
        let routing = List.nth stages 3 in
        match
          Option.bind (Json.member "metrics" routing) (Json.member "wirelength")
        with
        | Some wl ->
          check Alcotest.bool "wirelength agrees" true
            (match Json.to_num wl with
            | Some w ->
              int_of_float w = r.M.Flow.routing.Vc_route.Router.wirelength
            | None -> false)
        | None -> Alcotest.fail "no routing wirelength metric");
  ]

let () =
  Alcotest.run "mooc"
    [
      ("concept_map", concept_tests);
      ("syllabus", syllabus_tests);
      ("cohort", cohort_tests);
      ("demographics", demographics_tests);
      ("survey", survey_tests);
      ("portal", portal_tests);
      ("grader", grader_tests);
      ("flow", flow_tests);
    ]

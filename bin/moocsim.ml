(* moocsim: regenerate the paper's figures from the cohort model.
   Usage: moocsim [--stats] [--journal FILE] [--metrics-port N] [seed] *)

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let seed = match argv with [| _; s |] -> int_of_string s | _ -> 2013 in
  let ps =
    Vc_util.Telemetry.time "moocsim.simulate" (fun () ->
        Vc_mooc.Cohort.simulate ~seed Vc_mooc.Cohort.paper_params)
  in
  print_string (Vc_mooc.Concept_map.render_fig1 ());
  print_newline ();
  print_string (Vc_mooc.Syllabus.render_fig2 ());
  print_newline ();
  print_string (Vc_mooc.Cohort.render_fig8 (Vc_mooc.Cohort.funnel_of ps));
  print_newline ();
  print_string (Vc_mooc.Cohort.render_fig9 (Vc_mooc.Cohort.viewers_per_video ps));
  print_newline ();
  let people =
    Vc_mooc.Demographics.sample ~seed:(seed + 1)
      (Vc_mooc.Cohort.funnel_of ps).Vc_mooc.Cohort.watched_video
  in
  let summary = Vc_mooc.Demographics.summarize people in
  print_string (Vc_mooc.Demographics.render_stats summary);
  print_newline ();
  print_string (Vc_mooc.Demographics.render_fig10 summary);
  print_newline ();
  let responses = Vc_mooc.Survey.generate_responses ~seed:(seed + 2) 400 in
  print_string (Vc_mooc.Survey.render_fig11 (Vc_mooc.Survey.word_frequencies responses))

(* grader: the cloud auto-grader as a CLI.
   Usage:
     grader assignment <1-4>              print what the student downloads
     grader reference  <1-4>              print a full-credit submission
     grader grade      <1-4> <file>       grade an uploaded submission *)

let usage () =
  prerr_endline
    "usage: grader assignment <1-4> | grader reference <1-4> | grader grade \
     <1-4> <submission-file>   (plus --stats / --journal FILE / --metrics-port N)";
  exit 2

let project n =
  match List.find_opt (fun p -> p.Vc_mooc.Projects.p_id = n) Vc_mooc.Projects.all with
  | Some p -> p
  | None ->
    prerr_endline "grader: project number must be 1-4";
    exit 2

let () =
  match Vc_util.Telemetry.cli Sys.argv with
  | [| _; "assignment"; n |] ->
    print_string (project (int_of_string n)).Vc_mooc.Projects.p_assignment
  | [| _; "reference"; n |] ->
    print_string ((project (int_of_string n)).Vc_mooc.Projects.p_reference ())
  | [| _; "grade"; n; path |] ->
    let p = project (int_of_string n) in
    let submission = In_channel.with_open_text path In_channel.input_all in
    let g =
      Vc_util.Telemetry.time "grader.grade" (fun () ->
          Vc_mooc.Autograder.grade p.Vc_mooc.Projects.p_grader submission)
    in
    print_string (Vc_mooc.Autograder.render g);
    if g.Vc_mooc.Autograder.earned < g.Vc_mooc.Autograder.possible then exit 1
  | _ -> usage ()

(* sis: multi-level logic optimization scripts over BLIF networks.
   Usage: sis [--stats] [--journal FILE] [--metrics-port N] <design.blif> [script-file]
   Without a script file the canned rugged script runs. The optimized
   network is written to stdout as BLIF after the script log. *)

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  match argv with
  | [| _; blif_path |] | [| _; blif_path; _ |] -> begin
    let blif = In_channel.with_open_text blif_path In_channel.input_all in
    let script =
      match argv with
      | [| _; _; script_path |] ->
        In_channel.with_open_text script_path In_channel.input_all
      | _ -> Vc_multilevel.Script.script_rugged
    in
    match Vc_network.Blif.parse blif with
    | exception Failure msg ->
      prerr_endline ("sis: " ^ msg);
      exit 1
    | net ->
      let report =
        Vc_util.Telemetry.time "sis" (fun () ->
            Vc_multilevel.Script.run net script)
      in
      List.iter print_endline report.Vc_multilevel.Script.log;
      print_newline ();
      print_string (Vc_network.Blif.to_string report.Vc_multilevel.Script.network);
      (* verify the transformation before letting it out the door *)
      if not (Vc_network.Equiv.equivalent net report.Vc_multilevel.Script.network)
      then begin
        prerr_endline "sis: INTERNAL ERROR - output not equivalent to input";
        exit 3
      end
  end
  | _ ->
    prerr_endline "usage: sis [--stats] [--journal FILE] [--metrics-port N] <design.blif> [script-file]";
    exit 2

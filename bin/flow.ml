(* flow: push-button logic-to-layout on a BLIF design.
   Usage: flow [-min-delay] [-svg out.svg] [--report out.json] [--stats]
          [--journal FILE] [--metrics-port N] <design.blif> *)

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let mode = ref Vc_techmap.Map.Min_area in
  let svg = ref None and qor = ref None and path = ref None in
  let args = Array.to_list argv in
  let rec parse = function
    | [] -> ()
    | "-min-delay" :: rest ->
      mode := Vc_techmap.Map.Min_delay;
      parse rest
    | "-svg" :: out :: rest ->
      svg := Some out;
      parse rest
    | "--report" :: out :: rest ->
      qor := Some out;
      parse rest
    | arg :: rest ->
      path := Some arg;
      parse rest
  in
  (match args with _ :: rest -> parse rest | [] -> ());
  match !path with
  | None ->
    prerr_endline
      "usage: flow [-min-delay] [-svg out.svg] [--report out.json] [--stats] \
       [--journal FILE] [--metrics-port N] <design.blif>";
    exit 2
  | Some blif_path -> begin
    let blif = In_channel.with_open_text blif_path In_channel.input_all in
    match Vc_network.Blif.parse blif with
    | exception Failure msg ->
      prerr_endline ("flow: " ^ msg);
      exit 1
    | net ->
      let options = { Vc_mooc.Flow.default_options with Vc_mooc.Flow.mode = !mode } in
      let report =
        Vc_util.Telemetry.time "flow" (fun () -> Vc_mooc.Flow.run ~options net)
      in
      print_string (Vc_mooc.Flow.report_to_string report);
      (match !qor with
      | None -> ()
      | Some out ->
        Out_channel.with_open_text out (fun oc ->
            Out_channel.output_string oc
              (Vc_mooc.Flow.qor_to_json ~design:blif_path report);
            Out_channel.output_char oc '\n');
        Printf.printf "QoR report written to %s\n" out);
      match !svg with
      | None -> ()
      | Some out ->
        Out_channel.with_open_text out (fun oc ->
            Out_channel.output_string oc
              (Vc_route.Render.result_svg report.Vc_mooc.Flow.routing));
        Printf.printf "layout written to %s\n" out
  end

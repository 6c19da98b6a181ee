(* espresso: two-level minimization of a PLA file.
   Usage: espresso [-exact|-single-pass|-joint] [--stats] [--journal FILE] [--metrics-port N]
          [pla-file] *)

let usage () =
  prerr_endline
    "usage: espresso [-exact|-single-pass|-joint] [--stats] [--journal FILE] [--metrics-port N] \
     [pla-file]";
  exit 2

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let mode = ref `Full and path = ref None in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "-exact" -> mode := `Exact
        | "-single-pass" -> mode := `Single
        | "-joint" -> mode := `Joint
        | _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
        | _ -> path := Some arg)
    argv;
  let text =
    match !path with
    | None -> In_channel.input_all stdin
    | Some p -> In_channel.with_open_text p In_channel.input_all
  in
  match Vc_two_level.Pla.parse text with
  | exception Failure msg ->
    prerr_endline ("espresso: " ^ msg);
    exit 1
  | pla ->
    let minimized =
      Vc_util.Telemetry.time "espresso" @@ fun () ->
      match !mode with
      | `Full -> Vc_two_level.Espresso.minimize_pla pla
      | `Single -> Vc_two_level.Espresso.minimize_pla ~single_pass:true pla
      | `Joint ->
        Vc_two_level.Multi.to_pla pla (Vc_two_level.Multi.minimize pla)
      | `Exact ->
        let on_sets =
          Array.mapi
            (fun j on ->
              Vc_two_level.Qm.minimize_cover ~on
                ~dc:pla.Vc_two_level.Pla.dc_sets.(j))
            pla.Vc_two_level.Pla.on_sets
        in
        { pla with Vc_two_level.Pla.on_sets }
    in
    print_string (Vc_two_level.Pla.to_string minimized)

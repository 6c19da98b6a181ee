(* atpg: stuck-at test generation for a BLIF design (omitted-topic
   extension). Usage: atpg [-compact] [--stats] [--journal FILE] [--metrics-port N] <design.blif> *)

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let compact = ref false and path = ref None in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "-compact" -> compact := true
        | _ -> path := Some arg)
    argv;
  match !path with
  | None ->
    prerr_endline "usage: atpg [-compact] [--stats] [--journal FILE] [--metrics-port N] <design.blif>";
    exit 2
  | Some blif_path -> begin
    let blif = In_channel.with_open_text blif_path In_channel.input_all in
    match Vc_network.Blif.parse blif with
    | exception Failure msg ->
      prerr_endline ("atpg: " ^ msg);
      exit 1
    | net ->
      let report =
        Vc_util.Telemetry.time "atpg" (fun () ->
            Vc_network.Atpg.generate_all net)
      in
      Printf.printf
        "faults %d, detected %d, redundant %d, coverage %.1f%%\n"
        report.Vc_network.Atpg.total report.Vc_network.Atpg.detected
        report.Vc_network.Atpg.redundant
        (100.0 *. Vc_network.Atpg.coverage report);
      let print_vector v =
        String.concat " "
          (List.map
             (fun (n, b) -> Printf.sprintf "%s=%d" n (if b then 1 else 0))
             v)
      in
      if !compact then begin
        let vectors = Vc_network.Atpg.compact net report in
        Printf.printf "compacted test set: %d vector(s)\n" (List.length vectors);
        List.iter (fun v -> print_endline ("  " ^ print_vector v)) vectors
      end
      else
        List.iter
          (fun (fault, v) ->
            Printf.printf "%-12s %s\n"
              (Vc_network.Atpg.fault_to_string fault)
              (print_vector v))
          report.Vc_network.Atpg.vectors
  end

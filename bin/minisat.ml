(* minisat: CDCL SAT solving of a DIMACS file.
   Usage: minisat [-dpll] [--stats] [--journal FILE] [--metrics-port N] [cnf-file]
   Exit code 10 = SAT, 20 = UNSAT. *)

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let use_dpll = ref false and path = ref None in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "-dpll" -> use_dpll := true
        | _ -> path := Some arg)
    argv;
  let text =
    match !path with
    | None -> In_channel.input_all stdin
    | Some p -> In_channel.with_open_text p In_channel.input_all
  in
  match Vc_sat.Cnf.parse_dimacs text with
  | exception Failure msg ->
    prerr_endline ("minisat: " ^ msg);
    exit 2
  | cnf ->
    let result =
      Vc_util.Telemetry.time "minisat" (fun () ->
          if !use_dpll then fst (Vc_sat.Dpll.solve cnf)
          else fst (Vc_sat.Solver.solve cnf))
    in
    begin
      match result with
      | Vc_sat.Solver.Sat model ->
        print_endline "SATISFIABLE";
        let lits =
          List.init cnf.Vc_sat.Cnf.num_vars (fun i ->
              let v = i + 1 in
              string_of_int (if model.(v) then v else -v))
        in
        print_endline ("v " ^ String.concat " " lits ^ " 0");
        exit 10
      | Vc_sat.Solver.Unsat ->
        print_endline "UNSATISFIABLE";
        exit 20
      | Vc_sat.Solver.Unknown ->
        print_endline "UNKNOWN";
        exit 0
    end

(* Shared test utilities: qcheck generators for Boolean expressions, cube
   covers and CNF, plus common alcotest shorthands. *)

module Expr = Vc_cube.Expr
module Cube = Vc_cube.Cube
module Cover = Vc_cube.Cover

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* the result cache's key for an upload: MD5 of the tool name, a NUL
   and the input *)
let upload_key tool_name input = Digest.string (tool_name ^ "\x00" ^ input)

(* the hex digest [Portal.history] reports for an upload *)
let upload_digest tool_name input = Digest.to_hex (upload_key tool_name input)

(* fresh scratch directory per call; tests clean up what they create *)
let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* remove a directory of plain files (a spill dir, a segment set) *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Run [f ()] under a watchdog domain. If [f] is still running after
   [limit] seconds, the watchdog calls [unstick] (closing the peer [f]
   waits on, say) so [f] can return and the test fail instead of hang.
   Returns [f]'s result and whether it finished within [limit]. *)
let within ~limit ~unstick f =
  let state = Atomic.make `Running in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. limit in
        while Atomic.get state = `Running && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        if Atomic.compare_and_set state `Running `Late then unstick ())
  in
  let in_time = ref false in
  let v =
    Fun.protect
      ~finally:(fun () ->
        in_time := Atomic.compare_and_set state `Running `Done;
        Domain.join watchdog)
      f
  in
  (v, !in_time)

let prop ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

(* ------------------------------------------------------------------ *)
(* expression generator over variables v0..v(k-1)                      *)
(* ------------------------------------------------------------------ *)

let var_names k = List.init k (Printf.sprintf "v%d")

let expr_gen ?(max_vars = 4) ?(depth = 5) () =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Expr.Var (Printf.sprintf "v%d" i)) (int_bound (max_vars - 1));
        map (fun b -> Expr.Const b) bool;
      ]
  in
  let rec node d =
    if d = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (2, map (fun e -> Expr.Not e) (node (d - 1)));
          (3, map2 (fun a b -> Expr.And (a, b)) (node (d - 1)) (node (d - 1)));
          (3, map2 (fun a b -> Expr.Or (a, b)) (node (d - 1)) (node (d - 1)));
          (1, map2 (fun a b -> Expr.Xor (a, b)) (node (d - 1)) (node (d - 1)));
        ]
  in
  node depth

let arbitrary_expr ?max_vars ?depth () =
  QCheck.make
    ~print:Expr.to_string
    (expr_gen ?max_vars ?depth ())

(* ------------------------------------------------------------------ *)
(* cover generator                                                      *)
(* ------------------------------------------------------------------ *)

let cube_string_gen nvars =
  let open QCheck.Gen in
  let field = oneofl [ '0'; '1'; '-'; '-' ] in
  map
    (fun chars -> String.init nvars (fun i -> List.nth chars i))
    (list_repeat nvars field)

let cover_gen ?(nvars = 4) ?(max_cubes = 6) () =
  let open QCheck.Gen in
  map
    (fun cubes -> Cover.of_strings nvars cubes)
    (list_size (int_range 0 max_cubes) (cube_string_gen nvars))

let arbitrary_cover ?nvars ?max_cubes () =
  QCheck.make
    ~print:(fun f -> String.concat " + " ("" :: Cover.to_strings f))
    (cover_gen ?nvars ?max_cubes ())

(* ------------------------------------------------------------------ *)
(* CNF generator                                                        *)
(* ------------------------------------------------------------------ *)

let cnf_gen =
  let open QCheck.Gen in
  int_range 0 1_000_000 >|= fun seed ->
  Vc_sat.Cnf.random_ksat ~seed ~num_vars:10
    ~num_clauses:(35 + (seed mod 20))
    ~k:3

let arbitrary_cnf = QCheck.make ~print:Vc_sat.Cnf.to_dimacs cnf_gen

let brute_force_sat (f : Vc_sat.Cnf.t) =
  let n = f.Vc_sat.Cnf.num_vars in
  let a = Array.make (n + 1) false in
  let rec go v =
    if v > n then Vc_sat.Cnf.eval f a
    else begin
      a.(v) <- true;
      go (v + 1)
      ||
      begin
        a.(v) <- false;
        go (v + 1)
      end
    end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* random small networks                                                *)
(* ------------------------------------------------------------------ *)

let random_network seed =
  let rng = Vc_util.Rng.create seed in
  let gen = expr_gen ~max_vars:4 ~depth:4 () in
  let state = Random.State.make [| seed |] in
  let e1 = gen state and e2 = gen state in
  ignore rng;
  Vc_network.Network.of_exprs
    ~name:(Printf.sprintf "rand%d" seed)
    ~inputs:(var_names 4)
    [ ("out0", Expr.Or (e1, Expr.Var "v0")); ("out1", Expr.And (e2, Expr.Var "v1")) ]

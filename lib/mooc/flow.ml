module Map = Vc_techmap.Map
module Subject = Vc_techmap.Subject
module Pnet = Vc_place.Pnet
module Router = Vc_route.Router
module Grid = Vc_route.Grid

type options = {
  mode : Map.mode;
  synth_script : string;
  seed : int;
  cell_spacing : int;
}

let default_options =
  {
    mode = Map.Min_area;
    synth_script = "sweep\nsimplify\nfx\nresub\nsweep\neliminate 0\nsimplify\nsweep";
    seed = 1;
    cell_spacing = 6;
  }

type stage_qor = {
  sq_stage : string;
  sq_latency_s : float;
  sq_metrics : (string * float) list;
}

type report = {
  network : Vc_network.Network.t;
  literals_before : int;
  literals_after : int;
  mapping : Map.mapping;
  pnet : Pnet.t;
  placement : Pnet.placement;
  hpwl : float;
  routing : Router.result;
  gate_delay : float;
  total_delay : float;
  equivalent : bool;
  stages : stage_qor list;
}

(* ------------------------------------------------------------------ *)
(* mapped netlist -> placement netlist                                  *)
(* ------------------------------------------------------------------ *)

let pnet_of_mapping (m : Map.mapping) =
  let subject = m.Map.subject in
  let gates = Array.of_list m.Map.gates in
  let cell_of_output = Hashtbl.create 64 in
  Array.iteri
    (fun ci (g : Map.gate) -> Hashtbl.replace cell_of_output g.Map.g_output ci)
    gates;
  let cell_names =
    Array.map (fun (g : Map.gate) -> Printf.sprintf "g%d" g.Map.g_output) gates
  in
  (* pads: inputs on the left edge, outputs on the right *)
  let n_cells = Array.length gates in
  let side = ceil (sqrt (float_of_int (max 1 n_cells))) in
  let inputs = subject.Subject.inputs in
  let outputs = subject.Subject.outputs in
  let spread count i =
    side *. (float_of_int i +. 1.0) /. (float_of_int count +. 1.0)
  in
  let in_pads =
    List.mapi
      (fun i (name, _) -> (name, 0.0, spread (List.length inputs) i))
      inputs
  in
  let out_pads =
    List.mapi
      (fun i (name, _) -> ("out:" ^ name, side, spread (List.length outputs) i))
      outputs
  in
  let pads = Array.of_list (in_pads @ out_pads) in
  let pad_index = Hashtbl.create 16 in
  Array.iteri (fun i (name, _, _) -> Hashtbl.replace pad_index name i) pads;
  (* nets: one per subject signal that is a gate output or a primary input *)
  let users = Hashtbl.create 64 in
  Array.iteri
    (fun ci (g : Map.gate) ->
      List.iter
        (fun input ->
          Hashtbl.replace users input
            (ci :: Option.value ~default:[] (Hashtbl.find_opt users input)))
        g.Map.g_inputs)
    gates;
  let nets = ref [] in
  let add_net name driver_pin user_pins =
    match user_pins with
    | [] -> ()
    | _ -> nets := { Pnet.net_name = name; pins = driver_pin :: user_pins } :: !nets
  in
  (* gate-output signals *)
  Array.iteri
    (fun ci (g : Map.gate) ->
      let id = g.Map.g_output in
      let user_cells =
        List.map (fun c -> Pnet.Cell c)
          (Option.value ~default:[] (Hashtbl.find_opt users id))
      in
      let out_pad_pins =
        List.filter_map
          (fun (oname, oid) ->
            if oid = id then
              Option.map (fun i -> Pnet.Pad i)
                (Hashtbl.find_opt pad_index ("out:" ^ oname))
            else None)
          outputs
      in
      add_net (Printf.sprintf "n%d" id) (Pnet.Cell ci)
        (user_cells @ out_pad_pins))
    gates;
  (* primary-input signals *)
  List.iter
    (fun (name, id) ->
      let user_cells =
        List.map (fun c -> Pnet.Cell c)
          (Option.value ~default:[] (Hashtbl.find_opt users id))
      in
      let out_pad_pins =
        (* an output directly tied to an input *)
        List.filter_map
          (fun (oname, oid) ->
            if oid = id then
              Option.map (fun i -> Pnet.Pad i)
                (Hashtbl.find_opt pad_index ("out:" ^ oname))
            else None)
          outputs
      in
      match Hashtbl.find_opt pad_index name with
      | Some pi -> add_net ("in:" ^ name) (Pnet.Pad pi) (user_cells @ out_pad_pins)
      | None -> ())
    inputs;
  Pnet.make ~name:"mapped" ~cell_names ~pads
    ~nets:(Array.of_list (List.rev !nets))
    ~width:side ~height:side ()

(* ------------------------------------------------------------------ *)
(* placement -> routing problem                                         *)
(* ------------------------------------------------------------------ *)

(* Each placement unit becomes [spacing] routing tracks; each net pin gets
   its own grid cell near its cell/pad so pins never collide. *)
let routing_problem_of (pnet : Pnet.t) (p : Pnet.placement) spacing =
  let gw = (int_of_float pnet.Pnet.width * spacing) + (2 * spacing) in
  let gh = (int_of_float pnet.Pnet.height * spacing) + (2 * spacing) in
  let base (x, y) =
    let gx = spacing + int_of_float (Float.round (x *. float_of_int spacing)) in
    let gy = spacing + int_of_float (Float.round (y *. float_of_int spacing)) in
    (max 0 (min (gw - 1) gx), max 0 (min (gh - 1) gy))
  in
  (* distinct pin offsets around a location, claimed in order per anchor;
     spaced two tracks apart so reserved pins never wall each other in *)
  let offsets =
    [ (0, 0); (2, 0); (-2, 0); (0, 2); (0, -2); (2, 2); (-2, -2); (2, -2);
      (-2, 2); (3, 0); (-3, 0); (0, 3); (0, -3); (3, 2); (-3, -2); (2, 3) ]
  in
  let taken = Hashtbl.create 256 in
  let next_slot = Hashtbl.create 256 in
  let pin_for anchor =
    let bx, by = base anchor in
    let start = Option.value ~default:0 (Hashtbl.find_opt next_slot (bx, by)) in
    let rec find k =
      if k >= List.length offsets then (bx, by) (* saturated: reuse base *)
      else begin
        let dx, dy = List.nth offsets k in
        let cand = (bx + dx, by + dy) in
        let cx, cy = cand in
        if cx >= 0 && cx < gw && cy >= 0 && cy < gh && not (Hashtbl.mem taken cand)
        then begin
          Hashtbl.replace taken cand ();
          Hashtbl.replace next_slot (bx, by) (k + 1);
          cand
        end
        else find (k + 1)
      end
    in
    find start
  in
  let position pin =
    match pin with
    | Pnet.Cell c -> (p.Pnet.xs.(c), p.Pnet.ys.(c))
    | Pnet.Pad i ->
      let _, x, y = pnet.Pnet.pads.(i) in
      (x, y)
  in
  let net_specs =
    Array.to_list pnet.Pnet.nets
    |> List.map (fun (net : Pnet.net) ->
           {
             Router.rn_name = net.Pnet.net_name;
             rn_pins = List.map (fun pin -> pin_for (position pin)) net.Pnet.pins;
           })
  in
  {
    Router.grid_width = gw;
    grid_height = gh;
    cost_params = Grid.default_costs;
    obstacles = [];
    net_specs;
  }

(* ------------------------------------------------------------------ *)
(* timing with wire delays                                              *)
(* ------------------------------------------------------------------ *)

let wire_delays (m : Map.mapping) (routing : Router.result) =
  (* per net name: worst Elmore sink delay, in the cell-delay unit (ns);
     the raw RC product is in ohm*fF = fs, so scale to ns-ish via 1e-3
     to make wires visible next to ~0.5ns gates at course scale *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Router.routed) ->
      if r.Router.r_ok && r.Router.r_paths <> [] then begin
        match Vc_timing.Elmore.of_route r.Router.r_paths with
        | tree ->
          let worst =
            List.fold_left
              (fun acc (_, d) -> max acc d)
              0.0
              (Vc_timing.Elmore.delays ~driver_resistance:50.0 tree)
          in
          Hashtbl.replace tbl r.Router.r_name (worst *. 1e-3)
        | exception Invalid_argument _ -> ()
      end)
    routing.Router.routed;
  ignore m;
  tbl

let timing_with_wires (m : Map.mapping) wire_tbl =
  let subject = m.Map.subject in
  let t = Vc_timing.Tgraph.create () in
  let name_of id =
    match subject.Subject.nodes.(id) with
    | Subject.S_input s -> s
    | Subject.S_nand _ | Subject.S_inv _ -> "n" ^ string_of_int id
  in
  let wire_of id =
    (* the flow names the net after the driving signal *)
    let net_name =
      match subject.Subject.nodes.(id) with
      | Subject.S_input s -> "in:" ^ s
      | Subject.S_nand _ | Subject.S_inv _ -> "n" ^ string_of_int id
    in
    Option.value ~default:0.0 (Hashtbl.find_opt wire_tbl net_name)
  in
  List.iter
    (fun (g : Map.gate) ->
      List.iter
        (fun input ->
          Vc_timing.Tgraph.add_edge t ~src:(name_of input)
            ~dst:(name_of g.Map.g_output)
            ~delay:(g.Map.g_cell.Vc_techmap.Cell_lib.delay +. wire_of input))
        g.Map.g_inputs)
    m.Map.gates;
  Vc_timing.Tgraph.analyze t

(* ------------------------------------------------------------------ *)
(* the flow                                                             *)
(* ------------------------------------------------------------------ *)

(* Each stage is one journal event that carries its duration: a
   stage.end with the stage's headline metrics (also in the returned QoR
   entry), or a stage.error if the stage raised. The latency also lands
   on the "flow.<stage>" telemetry timer. *)
let run_stage name f =
  let module J = Vc_util.Journal in
  let t0 = Vc_util.Telemetry.now () in
  let elapsed () = Float.max 0.0 (Vc_util.Telemetry.now () -. t0) in
  match f () with
  | v, metrics ->
    let dt = elapsed () in
    Vc_util.Telemetry.observe ("flow." ^ name) dt;
    J.emit ~component:"flow"
      ~attrs:
        (("stage", name)
        :: ("latency_s", Printf.sprintf "%.6f" dt)
        :: List.map (fun (k, v) -> (k, Printf.sprintf "%g" v)) metrics)
      "stage.end";
    (v, { sq_stage = name; sq_latency_s = dt; sq_metrics = metrics })
  | exception e ->
    J.emit ~severity:J.Error ~component:"flow"
      ~attrs:
        [
          ("stage", name);
          ("latency_s", Printf.sprintf "%.6f" (elapsed ()));
          ("error", Printexc.to_string e);
        ]
      "stage.error";
    raise e

let run ?(options = default_options) input_network =
  (match Vc_network.Network.check input_network with
  | Ok _ -> ()
  | Error msg -> failwith ("Flow.run: " ^ msg));
  let (network, literals_before, literals_after, equivalent), synth_qor =
    run_stage "synthesis" (fun () ->
        let literals_before = Vc_network.Network.literal_count input_network in
        let synth = Vc_multilevel.Script.run input_network options.synth_script in
        let network = synth.Vc_multilevel.Script.network in
        let literals_after = Vc_network.Network.literal_count network in
        let equivalent = Vc_network.Equiv.equivalent input_network network in
        ( (network, literals_before, literals_after, equivalent),
          [
            ("literals_before", float_of_int literals_before);
            ("literals_after", float_of_int literals_after);
            ("equivalent", if equivalent then 1.0 else 0.0);
          ] ))
  in
  let mapping, map_qor =
    run_stage "mapping" (fun () ->
        let mapping =
          Map.map_network ~mode:options.mode
            (Vc_techmap.Cell_lib.standard ())
            network
        in
        ( mapping,
          [
            ("gates", float_of_int (Map.gate_count mapping));
            ("area", mapping.Map.area);
            ("gate_delay", mapping.Map.delay);
          ] ))
  in
  let (pnet, placement, hpwl), place_qor =
    run_stage "placement" (fun () ->
        let pnet = pnet_of_mapping mapping in
        let qp = Vc_place.Quadratic.place pnet in
        let legal =
          Vc_place.Legalize.to_grid pnet qp.Vc_place.Quadratic.placement
        in
        let placement, _ = Vc_place.Legalize.refine pnet legal in
        let hpwl = Pnet.hpwl pnet placement in
        ( (pnet, placement, hpwl),
          [ ("cells", float_of_int pnet.Pnet.num_cells); ("hpwl", hpwl) ] ))
  in
  let routing, route_qor =
    run_stage "routing" (fun () ->
        let problem = routing_problem_of pnet placement options.cell_spacing in
        let routing = Router.route ~rip_up_passes:5 problem in
        ( routing,
          [
            ("nets_total", float_of_int routing.Router.total);
            ("nets_routed", float_of_int routing.Router.completed);
            ( "overflow",
              float_of_int (routing.Router.total - routing.Router.completed) );
            ("wirelength", float_of_int routing.Router.wirelength);
            ("vias", float_of_int routing.Router.vias);
          ] ))
  in
  let total_delay, timing_qor =
    run_stage "timing" (fun () ->
        let wire_tbl = wire_delays mapping routing in
        let timing = timing_with_wires mapping wire_tbl in
        let total_delay = timing.Vc_timing.Tgraph.worst_arrival in
        ( total_delay,
          [ ("gate_delay", mapping.Map.delay); ("total_delay", total_delay) ]
        ))
  in
  {
    network;
    literals_before;
    literals_after;
    mapping;
    pnet;
    placement;
    hpwl;
    routing;
    gate_delay = mapping.Map.delay;
    total_delay;
    equivalent;
    stages = [ synth_qor; map_qor; place_qor; route_qor; timing_qor ];
  }

let qor_to_json ?design r =
  let module Json = Vc_util.Json in
  let stage s =
    Json.obj
      [
        ("stage", Json.str s.sq_stage);
        ("latency_s", Json.num s.sq_latency_s);
        ( "metrics",
          Json.obj (List.map (fun (k, v) -> (k, Json.num v)) s.sq_metrics) );
      ]
  in
  let total =
    List.fold_left (fun acc s -> acc +. s.sq_latency_s) 0.0 r.stages
  in
  Json.obj
    ((match design with
     | Some d -> [ ("design", Json.str d) ]
     | None -> [])
    @ [
        ("stages", Json.arr (List.map stage r.stages));
        ("total_latency_s", Json.num total);
      ])

let report_to_string r =
  String.concat "\n"
    [
      Printf.sprintf "synthesis:  %d -> %d literals%s" r.literals_before
        r.literals_after
        (if r.equivalent then " (verified equivalent)" else " (NOT EQUIVALENT!)");
      Printf.sprintf "mapping:    %d gates, area %.1f, gate delay %.2f"
        (Map.gate_count r.mapping) r.mapping.Map.area r.gate_delay;
      Printf.sprintf "placement:  %d cells, HPWL %.1f" r.pnet.Pnet.num_cells
        r.hpwl;
      Printf.sprintf "routing:    %d/%d nets, wirelength %d, vias %d"
        r.routing.Router.completed r.routing.Router.total
        r.routing.Router.wirelength r.routing.Router.vias;
      Printf.sprintf "timing:     %.2f gate-only, %.2f with Elmore wires"
        r.gate_delay r.total_delay;
      "";
    ]

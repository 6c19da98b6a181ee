(** The push-button "logic to layout" flow the course name promises:
    multi-level synthesis -> technology mapping -> quadratic placement ->
    legalization -> two-layer maze routing -> static timing with Elmore
    wire delays. One call, one report - the integration the examples and
    Fig. 7 bench drive. *)

type options = {
  mode : Vc_techmap.Map.mode;
  synth_script : string;  (** {!Vc_multilevel.Script} commands. *)
  seed : int;
  cell_spacing : int;  (** Routing grid pitch per placement slot (>= 2). *)
}

val default_options : options

type stage_qor = {
  sq_stage : string;
      (** ["synthesis"], ["mapping"], ["placement"], ["routing"] or
          ["timing"]. *)
  sq_latency_s : float;  (** Wall-clock stage latency, clamped >= 0. *)
  sq_metrics : (string * float) list;
      (** The stage's quality-of-result numbers, e.g. [literals_after],
          [area], [hpwl], [wirelength], [overflow], [total_delay]. *)
}

type report = {
  network : Vc_network.Network.t;  (** After synthesis. *)
  literals_before : int;
  literals_after : int;
  mapping : Vc_techmap.Map.mapping;
  pnet : Vc_place.Pnet.t;  (** Derived placement netlist. *)
  placement : Vc_place.Pnet.placement;  (** Legalized. *)
  hpwl : float;
  routing : Vc_route.Router.result;
  gate_delay : float;  (** Critical path, cell delays only. *)
  total_delay : float;  (** Gate delay plus Elmore wire delay along it. *)
  equivalent : bool;  (** Synthesized network vs the input network. *)
  stages : stage_qor list;  (** One entry per stage, in flow order. *)
}

val run : ?options:options -> Vc_network.Network.t -> report
(** @raise Failure if the network is malformed. Designs of a few hundred
    gates route in seconds; the routing grid scales with the placement.

    Each stage journals one {!Vc_util.Journal} event (component
    ["flow"]) that carries its duration: a [stage.end] with the stage's
    [latency_s] and QoR metrics, whose latency is also recorded on the
    ["flow.<stage>"] {!Vc_util.Telemetry} timer, or, when the stage
    raises, a [stage.error] with [latency_s] and [error] before the
    exception propagates. Both latencies are clamped at 0, and
    {!Vc_util.Journal_query.spans_of} reads each event as one span. *)

val qor_to_json : ?design:string -> report -> string
(** The machine-readable QoR report behind [bin/flow --report FILE]: a
    JSON object with optional ["design"], a ["stages"] array (one
    [{stage, latency_s, metrics}] object per stage, in flow order) and
    ["total_latency_s"]. [bench/main.exe compare] understands this shape
    and gates on both metrics and latencies. *)

val pnet_of_mapping :
  Vc_techmap.Map.mapping -> Vc_place.Pnet.t
(** Placement netlist of a mapped design: one movable cell per gate, one
    pad per primary input/output, one net per gate output and input
    signal. Exposed for the benches. *)

val routing_problem_of :
  Vc_place.Pnet.t -> Vc_place.Pnet.placement -> int -> Vc_route.Router.problem
(** The placed design as a routing problem: [spacing] routing tracks per
    placement unit, one distinct grid cell per net pin near its cell/pad.
    Exposed for the benches. *)

val report_to_string : report -> string

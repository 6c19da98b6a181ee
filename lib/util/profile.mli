(** Continuous profiler: every domain's {!Phase} frame stack, sampled on
    a timer into folded-stack aggregates and rendered as a flamegraph.

    Request code marks its phases with {!Phase.run} (the server marks
    ["worker"] around each job, the portal ["cache"] / ["execute"] / the tool name
    beneath it); a sampler tick ({!tick}, driven by
    {!Timeseries.Sampler}) reads every domain's current stack and bumps
    one folded-stack counter per domain - the always-on "where is time
    going" histogram an operator reads from [GET /profile] or renders
    with [vcstat flame].

    The frame hot path is one list cons and two field stores in
    {!Phase.run}; the cross-domain stack read at tick time is a benign
    race on an immutable list (see {!Phase.stacks}), so profiling
    overhead is near zero whether or not a sampler is running. *)

val tick : unit -> unit
(** Sample once the stack of every domain that has run a phase and not
    exited ({!Phase.stacks}): each domain
    contributes one observation to the folded aggregate (["idle"] when
    its stack is empty), and one
    [profile.sample] journal event ([Debug] severity, component
    ["profile"], attrs [tick]/[stack]/[count]) is emitted per distinct
    stack observed this tick - the offline feed for [vcstat flame]. *)

val ticks : unit -> int
(** Number of {!tick} calls since start/{!reset}. *)

val samples : unit -> int
(** Total per-domain observations across all ticks. *)

val folded : unit -> (string * int) list
(** The aggregate as folded stacks ([["worker;execute;minisat"], 17]),
    most samples first (name-ordered within equal counts). *)

val to_folded_text : (string * int) list -> string
(** Standard folded format, one ["stack count"] line each - the
    [GET /profile] body, directly consumable by external flamegraph
    tooling. *)

val flamegraph_svg :
  ?title:string -> ?ticks:int -> (string * int) list -> string
(** Render folded stacks as a self-contained flamegraph SVG: x = share
    of samples, y = stack depth (root row at the bottom), deterministic
    layout and palette, hover [<title>] per frame. The document carries
    a machine-readable
    [<!-- flamegraph samples=N root_samples=N ticks=T -->] comment
    that CI checks root-frame coverage against. *)

val reset : unit -> unit
(** Drop all aggregates and tick counts. Tests only. *)

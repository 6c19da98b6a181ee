(* The one way code marks a region of request work. [run] pushes a frame
   on the calling domain's stack (what the profiler samples) and, for
   the outermost phase of the request installed by
   [Trace_ctx.with_current], appends the elapsed time to that request's
   timeline. A phase nested inside another phase of the same request
   only adds its frame: its time is already inside the outer phase's.

   The write side is one cons and two field stores on the owning
   domain's cell. [stacks] reads other domains' cells without a lock, a
   deliberate benign race: [stack] always holds an immutable list, so
   under the OCaml 5 memory model a racy read yields some previously
   published list (possibly one frame stale, never torn). A profiler
   sample is a statistical observation, so one stale push or pop is
   noise, not corruption. *)

type cell = {
  mutable stack : string list; (* newest frame first *)
  mutable timing : Trace_ctx.t option; (* request whose phase is open *)
}

let mu = Mutex.create ()
let all_cells : cell list ref = ref []

(* A spawned domain's cell leaves the registry when the domain exits, so
   a server running one domain per connection holds only the live ones.
   The main domain's cell is never retired. *)
let cell_key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = { stack = []; timing = None } in
      Mutex.protect mu (fun () -> all_cells := c :: !all_cells);
      if not (Domain.is_main_domain ()) then
        Domain.at_exit (fun () ->
            Mutex.protect mu (fun () ->
                all_cells := List.filter (( != ) c) !all_cells));
      c)

let run name f =
  let c = Domain.DLS.get cell_key in
  let stack = c.stack and timing = c.timing in
  c.stack <- name :: stack;
  let restore () =
    c.stack <- stack;
    c.timing <- timing
  in
  match Trace_ctx.current () with
  | Some t when (match timing with Some o -> o != t | None -> true) ->
    c.timing <- Some t;
    let t0 = Clock.now () in
    let v = Fun.protect ~finally:restore f in
    Trace_ctx.record_phase t name (Clock.now () -. t0);
    v
  | Some _ | None -> Fun.protect ~finally:restore f

let current_stack () = List.rev (Domain.DLS.get cell_key).stack

let stacks () =
  List.map (fun c -> List.rev c.stack) (Mutex.protect mu (fun () -> !all_cells))

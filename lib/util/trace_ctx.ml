(* Request-scoped trace context: a short hex id minted from Rng and a
   mutable per-phase duration list. The ambient context is per-domain
   (Domain.DLS): the server installs the job's context around
   Portal.serve on the submitting domain, and Phase.run times
   the portal's cache-probe / execute phases into whatever context is
   current without threading it through every signature. *)

let id_length = 16
let hex = "0123456789abcdef"

type t = {
  id : string;
  mutable phases : (string * float) list;  (* newest first *)
}

let scheme =
  Printf.sprintf
    "splitmix64((seed lsl 24) lxor seq) -> %d lowercase hex chars" id_length

let is_valid_id s =
  let n = String.length s in
  n >= 4 && n <= 64
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s

let mint rng = String.init id_length (fun _ -> hex.[Rng.int rng 16])

let mint_deterministic ~seed ~seq = mint (Rng.create ((seed lsl 24) lxor seq))

let make id = { id; phases = [] }

let of_id id = if is_valid_id id then Some (make id) else None

let id t = t.id

let to_attrs t = [ ("trace_id", t.id) ]

(* ------------------------------------------------------------------ *)
(* phases                                                              *)
(* ------------------------------------------------------------------ *)

(* A request's phases are all recorded by the one domain that submitted
   and runs it, so the unsynchronized mutable list is safe. *)
let record_phase t name dur =
  t.phases <- (name, Float.max 0.0 dur) :: t.phases

let phases t = List.rev t.phases

let phase_total t =
  List.fold_left (fun acc (_, d) -> acc +. d) 0.0 t.phases

let phase_attrs t =
  List.map (fun (n, d) -> ("phase." ^ n, Printf.sprintf "%.6f" d)) (phases t)

(* ------------------------------------------------------------------ *)
(* ambient (per-domain) context                                        *)
(* ------------------------------------------------------------------ *)

let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_key)

let with_current t f =
  let cell = Domain.DLS.get current_key in
  let saved = !cell in
  cell := Some t;
  Fun.protect ~finally:(fun () -> cell := saved) f

let ambient_attrs () = match current () with Some t -> to_attrs t | None -> []

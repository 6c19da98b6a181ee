module Expr = Vc_cube.Expr
module Cover = Vc_cube.Cover
module Cube = Vc_cube.Cube
type t = int

(* Node layout: three growable parallel arrays.  Ids 0 and 1 are the
   constants and carry the sentinel level [max_int] so that every real
   variable sits above them in the order. *)
type man = {
  mutable level : int array; (* variable index per node *)
  mutable low : int array;
  mutable high : int array;
  mutable next_node : int;
  unique : (int * int * int, int) Hashtbl.t; (* (level, low, high) -> id *)
  ite_cache : (int * int * int, int) Hashtbl.t;
  mutable names : string array; (* variable index -> name *)
  by_name : (string, int) Hashtbl.t;
  mutable nvars : int;
  mutable hits : int;
  mutable misses : int;
}

let zero = 0
let one = 1

(* Process-wide cumulative table counters across every manager, for the
   Telemetry probe ([cache_stats] below stays per-manager). Atomic,
   because every domain running kbdd bumps them. *)
let g_unique_hits = Atomic.make 0
let g_unique_misses = Atomic.make 0
let g_ite_hits = Atomic.make 0
let g_ite_misses = Atomic.make 0

let create ?(cache_size = 1 lsl 12) () =
  let n0 = 1024 in
  let level = Array.make n0 0 in
  level.(0) <- max_int;
  level.(1) <- max_int;
  {
    level;
    low = Array.make n0 0;
    high = Array.make n0 0;
    next_node = 2;
    unique = Hashtbl.create cache_size;
    ite_cache = Hashtbl.create cache_size;
    names = [||];
    by_name = Hashtbl.create 64;
    nvars = 0;
    hits = 0;
    misses = 0;
  }

let grow m =
  let cap = Array.length m.level in
  if m.next_node >= cap then begin
    let cap' = 2 * cap in
    let extend a = Array.append a (Array.make cap 0) in
    m.level <- extend m.level;
    m.low <- extend m.low;
    m.high <- extend m.high;
    ignore cap'
  end

(* Hash-consing constructor: enforces both reduction rules. *)
let mk_node m lvl lo hi =
  if lo = hi then lo
  else begin
    let key = (lvl, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id ->
      Atomic.incr g_unique_hits;
      id
    | None ->
      Atomic.incr g_unique_misses;
      grow m;
      let id = m.next_node in
      m.next_node <- id + 1;
      m.level.(id) <- lvl;
      m.low.(id) <- lo;
      m.high.(id) <- hi;
      Hashtbl.add m.unique key id;
      id
  end

let grow_names m upto =
  if upto >= Array.length m.names then begin
    let fresh = Array.make (max 16 (2 * (upto + 1))) "" in
    Array.blit m.names 0 fresh 0 (Array.length m.names);
    m.names <- fresh
  end

let register_var m name =
  let i = m.nvars in
  m.nvars <- i + 1;
  grow_names m i;
  m.names.(i) <- name;
  Hashtbl.replace m.by_name name i;
  i

let ith_var m i =
  if i < 0 then invalid_arg "Bdd.ith_var: negative index";
  while m.nvars <= i do
    ignore (register_var m (Printf.sprintf "x%d" m.nvars))
  done;
  mk_node m i zero one

let var m name =
  let i =
    match Hashtbl.find_opt m.by_name name with
    | Some i -> i
    | None -> register_var m name
  in
  mk_node m i zero one

let num_vars m = m.nvars

let var_name m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var_name: bad index";
  m.names.(i)

let var_index m name = Hashtbl.find_opt m.by_name name

(* ------------------------------------------------------------------ *)
(* ITE                                                                 *)
(* ------------------------------------------------------------------ *)

let top_level m f = m.level.(f)

let cofactors m f lvl =
  if m.level.(f) = lvl then (m.low.(f), m.high.(f)) else (f, f)

let rec ite m f g h =
  (* terminal cases *)
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if g = one && h = zero then f
  else begin
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r ->
      m.hits <- m.hits + 1;
      Atomic.incr g_ite_hits;
      r
    | None ->
      m.misses <- m.misses + 1;
      Atomic.incr g_ite_misses;
      let lvl = min (top_level m f) (min (top_level m g) (top_level m h)) in
      let f0, f1 = cofactors m f lvl in
      let g0, g1 = cofactors m g lvl in
      let h0, h1 = cofactors m h lvl in
      let lo = ite m f0 g0 h0 in
      let hi = ite m f1 g1 h1 in
      let r = mk_node m lvl lo hi in
      Hashtbl.add m.ite_cache key r;
      r
  end

let mk_ite = ite
let mk_not m f = ite m f zero one
let mk_and m f g = ite m f g zero
let mk_or m f g = ite m f one g
let mk_xor m f g = ite m f (mk_not m g) g
let mk_nand m f g = mk_not m (mk_and m f g)
let mk_nor m f g = mk_not m (mk_or m f g)
let mk_imp m f g = ite m f g one
let mk_iff m f g = ite m f g (mk_not m g)

(* ------------------------------------------------------------------ *)
(* Cofactor / compose / quantify                                       *)
(* ------------------------------------------------------------------ *)

let restrict m f ~var ~value =
  let memo = Hashtbl.create 64 in
  let rec go f =
    if f < 2 || m.level.(f) > var then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let r =
          if m.level.(f) = var then if value then m.high.(f) else m.low.(f)
          else mk_node m m.level.(f) (go m.low.(f)) (go m.high.(f))
        in
        Hashtbl.add memo f r;
        r
  in
  go f

let compose m f ~var g =
  let memo = Hashtbl.create 64 in
  let rec go f =
    if f < 2 || m.level.(f) > var then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let r =
          if m.level.(f) = var then ite m g m.high.(f) m.low.(f)
          else begin
            (* var may appear below; also g's top may be above f's level, so
               use ite on the current node's decision variable *)
            let v = mk_node m m.level.(f) zero one in
            ite m v (go m.high.(f)) (go m.low.(f))
          end
        in
        Hashtbl.add memo f r;
        r
  in
  go f

let quantify_one m combine f var =
  let f0 = restrict m f ~var ~value:false in
  let f1 = restrict m f ~var ~value:true in
  combine m f0 f1

let exists m vars f = List.fold_left (quantify_one m mk_or) f vars
let forall m vars f = List.fold_left (quantify_one m mk_and) f vars

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let iter_nodes m f k =
  let seen = Hashtbl.create 64 in
  let rec visit f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      k f;
      visit m.low.(f);
      visit m.high.(f)
    end
  in
  visit f

let support m f =
  let vars = Hashtbl.create 16 in
  iter_nodes m f (fun n -> Hashtbl.replace vars m.level.(n) ());
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

let size m f =
  let n = ref 0 in
  iter_nodes m f (fun _ -> incr n);
  !n

let node_count m = m.next_node - 2

let eval m f env =
  let rec go f =
    if f = zero then false
    else if f = one then true
    else if env m.level.(f) then go m.high.(f)
    else go m.low.(f)
  in
  go f

let sat_count m f ~nvars =
  let bad = List.filter (fun v -> v >= nvars) (support m f) in
  if bad <> [] then invalid_arg "Bdd.sat_count: support exceeds nvars";
  let memo = Hashtbl.create 64 in
  (* count over variables at levels >= lvl *)
  let rec count f lvl =
    if f = zero then 0.0
    else if f = one then Float.pow 2.0 (float_of_int (nvars - lvl))
    else begin
      let key = (f, lvl) in
      match Hashtbl.find_opt memo key with
      | Some c -> c
      | None ->
        let here = m.level.(f) in
        let skip = Float.pow 2.0 (float_of_int (here - lvl)) in
        let c =
          skip
          *. (count m.low.(f) (here + 1) +. count m.high.(f) (here + 1))
          /. 1.0
        in
        Hashtbl.add memo key c;
        c
    end
  in
  count f 0

let any_sat m f =
  if f = zero then None
  else begin
    let rec walk f acc =
      if f = one then List.rev acc
      else if m.low.(f) <> zero then walk m.low.(f) ((m.level.(f), false) :: acc)
      else walk m.high.(f) ((m.level.(f), true) :: acc)
    in
    Some (walk f [])
  end

let all_sat ?(limit = 1_000_000) m f =
  let out = ref [] and n = ref 0 in
  let exception Done in
  let rec walk f acc =
    if !n >= limit then raise Done;
    if f = one then begin
      out := List.rev acc :: !out;
      incr n
    end
    else if f <> zero then begin
      walk m.low.(f) ((m.level.(f), false) :: acc);
      walk m.high.(f) ((m.level.(f), true) :: acc)
    end
  in
  (try walk f [] with Done -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let rec of_expr m = function
  | Expr.Const true -> one
  | Expr.Const false -> zero
  | Expr.Var v -> var m v
  | Expr.Not a -> mk_not m (of_expr m a)
  | Expr.And (a, b) -> mk_and m (of_expr m a) (of_expr m b)
  | Expr.Or (a, b) -> mk_or m (of_expr m a) (of_expr m b)
  | Expr.Xor (a, b) -> mk_xor m (of_expr m a) (of_expr m b)

let to_expr m f =
  let memo = Hashtbl.create 64 in
  let rec go f =
    if f = zero then Expr.Const false
    else if f = one then Expr.Const true
    else
      match Hashtbl.find_opt memo f with
      | Some e -> e
      | None ->
        let v = Expr.Var m.names.(m.level.(f)) in
        let lo = go m.low.(f) and hi = go m.high.(f) in
        let e = Expr.Or (Expr.And (v, hi), Expr.And (Expr.Not v, lo)) in
        Hashtbl.add memo f e;
        e
  in
  Expr.simplify (go f)

let of_cover m ~names (f : Cover.t) =
  if Array.length names <> f.Cover.num_vars then
    invalid_arg "Bdd.of_cover: names length mismatch";
  let cube_bdd c =
    let add acc i =
      match Cube.get c i with
      | Cube.Pos -> mk_and m acc (var m names.(i))
      | Cube.Neg -> mk_and m acc (mk_not m (var m names.(i)))
      | Cube.Both -> acc
      | Cube.Empty -> zero
    in
    List.fold_left add one (List.init f.Cover.num_vars (fun i -> i))
  in
  List.fold_left (fun acc c -> mk_or m acc (cube_bdd c)) zero f.Cover.cubes

(* ------------------------------------------------------------------ *)
(* Garbage collection                                                  *)
(* ------------------------------------------------------------------ *)

let gc m ~roots =
  let reachable = Hashtbl.create 256 in
  let rec mark f =
    if f >= 2 && not (Hashtbl.mem reachable f) then begin
      Hashtbl.add reachable f ();
      mark m.low.(f);
      mark m.high.(f)
    end
  in
  List.iter mark roots;
  (* rebuild tables containing only reachable nodes, keeping ids stable by
     re-interning bottom-up (levels descending so children come first) *)
  let live =
    Hashtbl.fold (fun id () acc -> id :: acc) reachable []
    |> List.sort (fun a b -> compare b a)
  in
  let old_level = Array.copy m.level
  and old_low = Array.copy m.low
  and old_high = Array.copy m.high in
  Hashtbl.reset m.unique;
  Hashtbl.reset m.ite_cache;
  m.next_node <- 2;
  let remap = Hashtbl.create 256 in
  Hashtbl.add remap zero zero;
  Hashtbl.add remap one one;
  let reintern id =
    let lo = Hashtbl.find remap old_low.(id) in
    let hi = Hashtbl.find remap old_high.(id) in
    Hashtbl.add remap id (mk_node m old_level.(id) lo hi)
  in
  (* children have deeper (larger) levels, so descending-level order works;
     within a level nodes never reference each other *)
  let by_level =
    List.sort (fun a b -> compare old_level.(b) old_level.(a)) live
  in
  List.iter reintern by_level;
  List.map (fun r -> Hashtbl.find remap r) roots

let to_dot m ?(name = "bdd") f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node0 [label=\"0\", shape=box];\n";
  Buffer.add_string buf "  node1 [label=\"1\", shape=box];\n";
  iter_nodes m f (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  node%d [label=\"%s\"];\n" n m.names.(m.level.(n)));
      Buffer.add_string buf
        (Printf.sprintf "  node%d -> node%d [style=dashed];\n" n m.low.(n));
      Buffer.add_string buf (Printf.sprintf "  node%d -> node%d;\n" n m.high.(n)));
  Buffer.add_string buf (Printf.sprintf "  root [shape=point] root -> node%d;\n" f);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let cache_stats m = (m.hits, m.misses)

let stats () =
  [
    ("unique_hits", Atomic.get g_unique_hits);
    ("unique_misses", Atomic.get g_unique_misses);
    ("ite_hits", Atomic.get g_ite_hits);
    ("ite_misses", Atomic.get g_ite_misses);
  ]

let () = Vc_util.Telemetry.register_probe "bdd" stats

type config = {
  use_learning : bool;
  use_vsids : bool;
  use_restarts : bool;
  use_phase_saving : bool;
  max_conflicts : int option;
}

let default_config =
  {
    use_learning = true;
    use_vsids = true;
    use_restarts = true;
    use_phase_saving = true;
    max_conflicts = None;
  }

type result = Sat of bool array | Unsat | Unknown

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

(* A growable int-array vector for the clause database and watch lists. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let cap = max 8 (2 * Array.length v.data) in
      let data = Array.make cap x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let len v = v.len
  let shrink v n = v.len <- n
end

type clause = {
  lits : int array; (* positions 0 and 1 are the watched literals *)
  learnt : bool;
  mutable act : float;
  mutable deleted : bool;
}

type solver = {
  cfg : config;
  nvars : int;
  clauses : clause Vec.t;
  (* watches.(lit_idx l) = clauses currently watching literal l *)
  watches : clause Vec.t array;
  assign : int array; (* by var: 0 unassigned / 1 true / -1 false *)
  level : int array; (* by var *)
  reason : clause option array; (* by var *)
  trail : int Vec.t; (* literals, assignment order *)
  trail_lim : int Vec.t; (* trail length at each decision *)
  mutable qhead : int;
  activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  polarity : bool array; (* saved phase *)
  seen : bool array; (* scratch for conflict analysis *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt : int;
  mutable max_learnts : float;
}

let lit_idx l = if l > 0 then 2 * l else (2 * -l) + 1

let lit_value s l =
  let v = s.assign.(abs l) in
  if v = 0 then 0 else if l > 0 then v else -v

let decision_level s = Vec.len s.trail_lim

let create cfg (f : Cnf.t) =
  let n = f.Cnf.num_vars in
  {
    cfg;
    nvars = n;
    clauses = Vec.create ();
    watches = Array.init ((2 * n) + 2) (fun _ -> Vec.create ());
    assign = Array.make (n + 1) 0;
    level = Array.make (n + 1) 0;
    reason = Array.make (n + 1) None;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    activity = Array.make (n + 1) 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    polarity = Array.make (n + 1) false;
    seen = Array.make (n + 1) false;
    n_decisions = 0;
    n_conflicts = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt = 0;
    max_learnts = max 100.0 (float_of_int (Cnf.num_clauses f) /. 3.0);
  }

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to Vec.len s.clauses - 1 do
      let d = Vec.get s.clauses i in
      d.act <- d.act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* Assign literal [l] true, recording the implication reason. *)
let enqueue s l reason =
  let v = abs l in
  assert (s.assign.(v) = 0);
  s.assign.(v) <- (if l > 0 then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

(* Attach a clause of length >= 2 to the watch lists of its first two
   literals. *)
let attach s c =
  Vec.push s.watches.(lit_idx c.lits.(0)) c;
  Vec.push s.watches.(lit_idx c.lits.(1)) c

(* Two-watched-literal Boolean constraint propagation.  Returns the
   conflicting clause, if any. *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < Vec.len s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    (* literal ~p just became false: scan clauses watching ~p *)
    let false_lit = -p in
    let ws = s.watches.(lit_idx false_lit) in
    let kept = ref 0 in
    let i = ref 0 in
    let n = Vec.len ws in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.deleted then () (* drop lazily *)
      else if !conflict <> None then begin
        (* conflict found earlier in this list: keep remaining watches *)
        Vec.set ws !kept c;
        incr kept
      end
      else begin
        (* ensure the false literal is at position 1 *)
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if lit_value s first = 1 then begin
          (* satisfied: keep watching *)
          Vec.set ws !kept c;
          incr kept
        end
        else begin
          (* look for a new literal to watch *)
          let moved = ref false in
          let k = ref 2 in
          let len = Array.length c.lits in
          while (not !moved) && !k < len do
            if lit_value s c.lits.(!k) <> -1 then begin
              c.lits.(1) <- c.lits.(!k);
              c.lits.(!k) <- false_lit;
              Vec.push s.watches.(lit_idx c.lits.(1)) c;
              moved := true
            end;
            incr k
          done;
          if !moved then ()
          else begin
            (* clause is unit or conflicting under current assignment *)
            Vec.set ws !kept c;
            incr kept;
            if lit_value s first = -1 then conflict := Some c
            else enqueue s first (Some c)
          end
        end
      end
    done;
    Vec.shrink ws !kept
  done;
  !conflict

let backtrack s target_level =
  if decision_level s > target_level then begin
    let bound = Vec.get s.trail_lim target_level in
    for i = Vec.len s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = abs l in
      if s.cfg.use_phase_saving then s.polarity.(v) <- l > 0;
      s.assign.(v) <- 0;
      s.reason.(v) <- None
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim target_level;
    s.qhead <- Vec.len s.trail
  end

(* First-UIP conflict analysis.  Returns (learnt clause lits with the
   asserting literal first, backtrack level). *)
let analyze s confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  let confl = ref (Some confl) in
  let trail_idx = ref (Vec.len s.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c =
      match !confl with
      | Some c -> c
      | None -> assert false (* a UIP always exists on the trail *)
    in
    if c.learnt then cla_bump s c;
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = abs q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            var_bump s v;
            if s.level.(v) >= decision_level s then incr counter
            else begin
              learnt := q :: !learnt;
              btlevel := max !btlevel s.level.(v)
            end
          end
        end)
      c.lits;
    (* walk the trail back to the next marked literal *)
    let rec find_next () =
      let l = Vec.get s.trail !trail_idx in
      decr trail_idx;
      if s.seen.(abs l) then l else find_next ()
    in
    p := find_next ();
    s.seen.(abs !p) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else confl := s.reason.(abs !p)
  done;
  let lits = -(!p) :: !learnt in
  (* clear seen marks *)
  List.iter (fun l -> s.seen.(abs l) <- false) !learnt;
  (Array.of_list lits, !btlevel)

(* Naive learning for the ablation: the negation of all current decisions. *)
let analyze_decisions s =
  let lits = ref [] in
  for d = 0 to decision_level s - 1 do
    let l = Vec.get s.trail (Vec.get s.trail_lim d) in
    lits := -l :: !lits
  done;
  let lits = !lits in
  let btlevel = max 0 (decision_level s - 1) in
  (* asserting literal (negated most recent decision) must come first *)
  match lits with
  | [] -> ([||], 0)
  | asserting :: rest -> (Array.of_list (asserting :: List.rev rest), btlevel)

let record_learnt s lits =
  if Array.length lits = 1 then begin
    backtrack s 0;
    if lit_value s lits.(0) = 0 then enqueue s lits.(0) None
  end
  else begin
    (* watch the asserting literal and a literal from the backtrack level *)
    let c = { lits; learnt = true; act = 0.0; deleted = false } in
    (* position 1 must hold the highest-level literal among lits.(1..) *)
    let best = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(abs lits.(i)) > s.level.(abs lits.(!best)) then best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    Vec.push s.clauses c;
    s.n_learnt <- s.n_learnt + 1;
    attach s c;
    cla_bump s c;
    enqueue s lits.(0) (Some c)
  end

let reduce_db s =
  (* drop the least active half of the non-reason long learned clauses *)
  let learnts = ref [] in
  for i = 0 to Vec.len s.clauses - 1 do
    let c = Vec.get s.clauses i in
    if c.learnt && not c.deleted then learnts := c :: !learnts
  done;
  let arr = Array.of_list !learnts in
  Array.sort (fun a b -> compare a.act b.act) arr;
  let is_reason c =
    let v = abs c.lits.(0) in
    match s.reason.(v) with Some r -> r == c | None -> false
  in
  let target = Array.length arr / 2 in
  let removed = ref 0 in
  Array.iter
    (fun c ->
      if !removed < target && Array.length c.lits > 2 && not (is_reason c)
      then begin
        c.deleted <- true;
        s.n_learnt <- s.n_learnt - 1;
        incr removed
      end)
    arr

let pick_branch_var s =
  if s.cfg.use_vsids then begin
    let best = ref 0 and best_act = ref neg_infinity in
    for v = 1 to s.nvars do
      if s.assign.(v) = 0 && s.activity.(v) > !best_act then begin
        best := v;
        best_act := s.activity.(v)
      end
    done;
    if !best = 0 then None else Some !best
  end
  else begin
    let rec scan v =
      if v > s.nvars then None
      else if s.assign.(v) = 0 then Some v
      else scan (v + 1)
    in
    scan 1
  end

(* Luby restart sequence (0-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* Simplify the clause list at creation: drop tautologies, dedupe lits. *)
let preprocess (f : Cnf.t) =
  let simplify_clause c =
    let lits = Array.to_list c in
    let lits = List.sort_uniq compare lits in
    let taut = List.exists (fun l -> List.mem (-l) lits) lits in
    if taut then None else Some lits
  in
  List.filter_map simplify_clause f.Cnf.clauses

(* Process-wide cumulative counters across every [solve] call, for the
   Telemetry probe (per-call numbers stay in the returned [stats]).
   Atomic, because every domain running minisat adds to them. *)
let g_solves = Atomic.make 0
let g_decisions = Atomic.make 0
let g_conflicts = Atomic.make 0
let g_propagations = Atomic.make 0
let g_restarts = Atomic.make 0

let add counter n = ignore (Atomic.fetch_and_add counter n)

let accumulate (st : stats) =
  Atomic.incr g_solves;
  add g_decisions st.decisions;
  add g_conflicts st.conflicts;
  add g_propagations st.propagations;
  add g_restarts st.restarts

let solve ?(config = default_config) (f : Cnf.t) =
  let s = create config f in
  let stats () =
    {
      decisions = s.n_decisions;
      conflicts = s.n_conflicts;
      propagations = s.n_propagations;
      restarts = s.n_restarts;
      learned = s.n_learnt;
    }
  in
  let exception Finished of result in
  try
    (* load clauses *)
    let load lits =
      match lits with
      | [] -> raise (Finished Unsat)
      | [ l ] ->
        if lit_value s l = -1 then raise (Finished Unsat)
        else if lit_value s l = 0 then enqueue s l None
      | l0 :: l1 :: _ ->
        ignore l0;
        ignore l1;
        let c =
          { lits = Array.of_list lits; learnt = false; act = 0.0;
            deleted = false }
        in
        Vec.push s.clauses c;
        attach s c
    in
    List.iter load (preprocess f);
    if propagate s <> None then raise (Finished Unsat);
    let conflicts_until_restart = ref (100 * luby 0) in
    let restart_count = ref 0 in
    while true do
      match propagate s with
      | Some confl ->
        s.n_conflicts <- s.n_conflicts + 1;
        (match config.max_conflicts with
        | Some budget when s.n_conflicts > budget -> raise (Finished Unknown)
        | Some _ | None -> ());
        if decision_level s = 0 then raise (Finished Unsat);
        let lits, btlevel =
          if config.use_learning then analyze s confl else analyze_decisions s
        in
        if Array.length lits = 0 then raise (Finished Unsat);
        backtrack s btlevel;
        record_learnt s lits;
        var_decay s;
        cla_decay s;
        if float_of_int s.n_learnt > s.max_learnts then begin
          reduce_db s;
          s.max_learnts <- s.max_learnts *. 1.5
        end;
        decr conflicts_until_restart
      | None ->
        if config.use_restarts && !conflicts_until_restart <= 0 then begin
          incr restart_count;
          s.n_restarts <- s.n_restarts + 1;
          conflicts_until_restart := 100 * luby !restart_count;
          backtrack s 0
        end
        else begin
          match pick_branch_var s with
          | None ->
            (* complete assignment: build the model *)
            let model = Array.make (s.nvars + 1) false in
            for v = 1 to s.nvars do
              model.(v) <- s.assign.(v) = 1
            done;
            raise (Finished (Sat model))
          | Some v ->
            s.n_decisions <- s.n_decisions + 1;
            Vec.push s.trail_lim (Vec.len s.trail);
            let phase = if config.use_phase_saving then s.polarity.(v) else false in
            enqueue s (if phase then v else -v) None
        end
    done;
    assert false
  with Finished r ->
    let st = stats () in
    accumulate st;
    (r, st)

let is_sat f =
  match solve f with
  | Sat _, _ -> true
  | Unsat, _ -> false
  | Unknown, _ -> assert false

let stats () =
  [
    ("solves", Atomic.get g_solves);
    ("decisions", Atomic.get g_decisions);
    ("conflicts", Atomic.get g_conflicts);
    ("propagations", Atomic.get g_propagations);
    ("restarts", Atomic.get g_restarts);
  ]

let () = Vc_util.Telemetry.register_probe "sat.solver" stats

(* Consistent hashing with virtual nodes. A node's i-th virtual point
   is the MD5 digest of "name#i"; the 16 raw digest bytes compare
   uniformly as strings, so the sorted point array is the ring and a
   key's owner is found by binary search for the first point >= the
   key's own digest (wrapping to point 0 past the top). Rings are
   immutable values - membership changes build a new ring - so a router
   can hold the current one in an Atomic and swap it on transitions
   while lookups stay lock-free. *)

type 'a t = {
  r_points : (string * int) array; (* (digest, node index), sorted *)
  r_slots : (string * 'a) array; (* node index -> (name, node) *)
}

let replicas = 64
let point name i = Digest.string (Printf.sprintf "%s#%d" name i)

let make pairs =
  (* last pair wins on a duplicate name, then sort by name so the slot
     layout (and therefore the ring) is independent of argument order *)
  let dedup =
    List.fold_left
      (fun acc (name, v) -> (name, v) :: List.remove_assoc name acc)
      [] pairs
  in
  let slots =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) dedup)
  in
  let points =
    Array.init
      (Array.length slots * replicas)
      (fun k ->
        let idx = k / replicas in
        (point (fst slots.(idx)) (k mod replicas), idx))
  in
  Array.sort compare points;
  { r_points = points; r_slots = slots }

let find t key =
  let n = Array.length t.r_points in
  if n = 0 then None
  else begin
    let h = Digest.string key in
    (* first index with point digest >= h; n when none (wraps to 0) *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.r_points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    let idx = if !lo = n then 0 else !lo in
    Some t.r_slots.(snd t.r_points.(idx))
  end

(** Consistent hashing over named nodes - the routing structure behind
    [bin/vcfront], which pins every portal session to one [vcserve]
    backend so a participant's sticky session history lands on the same
    shard request after request.

    Each node is planted on the ring at 64 points (virtual nodes),
    derived by hashing ["name#i"]; a key is routed to the first point at
    or clockwise after its own hash. Virtual nodes smooth the load
    split, and a ring built without one node remaps only the keys that
    were mapped to it - every other key keeps its backend, which is
    exactly what keeps result-cache locality intact when a backend
    drains.

    A ring is {e immutable}: a router publishes the current ring in an
    [Atomic.t] and swaps in one built by {!make} on membership changes -
    readers never lock. Lookups are a binary search,
    O(log(nodes x 64)). *)

type 'a t

val make : (string * 'a) list -> 'a t
(** Build a ring from [(name, node)] pairs. Duplicate names keep the
    last pair, and the ring does not depend on the pairs' order. The
    empty list is a valid (empty) ring. *)

val find : 'a t -> string -> (string * 'a) option
(** The node owning [key]: the first virtual point at or clockwise
    after [key]'s hash, wrapping past the top of the ring. [None] only
    on an empty ring. Deterministic - the same key always routes to the
    same node until membership changes. *)

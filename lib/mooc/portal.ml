type tool = {
  tool_name : string;
  description : string;
  max_input_lines : int;
  execute : string -> string;
}

let guard_errors f input =
  match f input with
  | output -> output
  | exception Failure msg -> "error: " ^ msg
  | exception Invalid_argument msg -> "error: " ^ msg

let kbdd =
  {
    tool_name = "kbdd";
    description = "BDD-based Boolean calculator with a scripting language";
    max_input_lines = 2000;
    execute =
      (fun input -> String.concat "\n" (Vc_bdd.Bdd_script.run_script input));
  }

let espresso =
  {
    tool_name = "espresso";
    description = "two-level logic minimizer on PLA files";
    max_input_lines = 5000;
    execute =
      guard_errors (fun input ->
          let pla = Vc_two_level.Pla.parse input in
          if pla.Vc_two_level.Pla.num_inputs > 16 then
            failwith "espresso portal: at most 16 inputs"
          else Vc_two_level.Pla.to_string (Vc_two_level.Espresso.minimize_pla pla));
  }

let split_sis_input input =
  let lines = String.split_on_char '\n' input in
  let rec split blif = function
    | [] -> (List.rev blif, [])
    | line :: rest when String.trim line = "%script" -> (List.rev blif, rest)
    | line :: rest -> split (line :: blif) rest
  in
  let blif, script = split [] lines in
  (String.concat "\n" blif, String.concat "\n" script)

let sis =
  {
    tool_name = "sis";
    description = "multi-level logic optimization scripts on BLIF networks";
    max_input_lines = 5000;
    execute =
      guard_errors (fun input ->
          let blif_text, script_text = split_sis_input input in
          let net = Vc_network.Blif.parse blif_text in
          let script_text =
            if String.trim script_text = "" then
              Vc_multilevel.Script.script_rugged
            else script_text
          in
          let report = Vc_multilevel.Script.run net script_text in
          String.concat "\n"
            (report.Vc_multilevel.Script.log
            @ [ ""; Vc_network.Blif.to_string report.Vc_multilevel.Script.network ]));
  }

let minisat =
  {
    tool_name = "minisat";
    description = "CDCL Boolean satisfiability solver on DIMACS CNF";
    max_input_lines = 50_000;
    execute =
      guard_errors (fun input ->
          let cnf = Vc_sat.Cnf.parse_dimacs input in
          match Vc_sat.Solver.solve cnf with
          | Vc_sat.Solver.Sat model, stats ->
            let lits =
              List.init cnf.Vc_sat.Cnf.num_vars (fun i ->
                  let v = i + 1 in
                  string_of_int (if model.(v) then v else -v))
            in
            Printf.sprintf
              "SATISFIABLE\nv %s 0\nc %d conflicts, %d decisions, %d propagations"
              (String.concat " " lits)
              stats.Vc_sat.Solver.conflicts stats.Vc_sat.Solver.decisions
              stats.Vc_sat.Solver.propagations
          | Vc_sat.Solver.Unsat, stats ->
            Printf.sprintf "UNSATISFIABLE\nc %d conflicts"
              stats.Vc_sat.Solver.conflicts
          | Vc_sat.Solver.Unknown, _ -> "UNKNOWN");
  }

let axb =
  {
    tool_name = "axb";
    description = "linear system solver for quadratic-placement homeworks";
    max_input_lines = 5000;
    execute = Vc_linalg.Axb.run;
  }

let all_tools = [ kbdd; espresso; sis; minisat; axb ]

(* ------------------------------------------------------------------ *)
(* tool-name resolution                                                *)
(* ------------------------------------------------------------------ *)

(* One resolution path shared by vcserve, the bench driver and anything
   else that maps user-typed names to portals: case-insensitive, with
   the paper's colloquial aliases, and a near-miss suggestion in the
   error text so a typo comes back actionable. *)

let aliases = [ ("bdd", "kbdd"); ("sat", "minisat") ]

let canonical_name name =
  let lower = String.lowercase_ascii (String.trim name) in
  match List.assoc_opt lower aliases with Some c -> c | None -> lower

let find_tool name =
  let c = canonical_name name in
  List.find_opt (fun t -> t.tool_name = c) all_tools

let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest name =
  let candidates =
    List.map (fun t -> t.tool_name) all_tools @ List.map fst aliases
  in
  let scored =
    List.map (fun c -> (edit_distance name c, c)) candidates |> List.sort compare
  in
  match scored with
  | (d, c) :: _ when d <= 2 && d < String.length name -> Some c
  | _ -> None

let resolve_tool name =
  match find_tool name with
  | Some t -> Ok t
  | None ->
    let base =
      Printf.sprintf "unknown tool %S (available: %s)" name
        (String.concat ", " (List.map (fun t -> t.tool_name) all_tools))
    in
    Error
      (match suggest (canonical_name name) with
      | Some s -> Printf.sprintf "%s; did you mean %s?" base s
      | None -> base)

(* ------------------------------------------------------------------ *)
(* sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* A session is one atomic, newest-first list of at most [history_limit]
   runs across all tools. Several domains may append at once, so
   an append is a compare-and-set loop over an immutable list: readers
   take a consistent snapshot without any lock. A run keeps the tool
   name, the result cache's 16-byte key for the upload (the string the
   cache entry holds, so a hit adds no copy) and, for a rejection, its
   message. It never holds the upload or its output: [history] resolves
   the output through the cache when it is read. *)
type run = { tool : string; key : string; rejection : string option }
type session = run list Atomic.t

let history_limit = 32
let create_session () : session = Atomic.make []

let rec take n = function
  | r :: rest when n > 0 -> r :: take (n - 1) rest
  | _ -> []

let rec record session run =
  let runs = Atomic.get session in
  (* a full list drops its oldest run: copy the newest [limit - 1] *)
  let kept =
    if List.compare_length_with runs history_limit < 0 then runs
    else take (history_limit - 1) runs
  in
  if not (Atomic.compare_and_set session runs (run :: kept)) then
    record session run

(* ------------------------------------------------------------------ *)
(* structured outcomes                                                 *)
(* ------------------------------------------------------------------ *)

type reason =
  | Runaway of string
  | Overloaded of string
  | Rate_limited of string
  | Deadline_exceeded of string

type outcome = Executed of string | Cache_hit of string | Rejected of reason

let reason_message = function
  | Runaway m | Overloaded m | Rate_limited m | Deadline_exceeded m -> m

let reason_label = function
  | Runaway _ -> "runaway"
  | Overloaded _ -> "overloaded"
  | Rate_limited _ -> "rate_limited"
  | Deadline_exceeded _ -> "deadline"

let outcome_output = function
  | Executed out | Cache_hit out -> out
  | Rejected r -> "error: " ^ reason_message r

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

(* The one submission envelope every layer shares: Server.submit takes
   it, Wire's protocol engine builds it from a parsed TOOL line, and
   vcfront forwards it to a backend - replacing the parallel positional
   signatures those layers used to re-declare. *)
type request = {
  req_session : string;
  req_tool : tool;
  req_input : string;
  req_trace : string option;
}

let request ?trace ~session tool input =
  { req_session = session; req_tool = tool; req_input = input; req_trace = trace }

(* ------------------------------------------------------------------ *)
(* content-addressed result cache                                      *)
(* ------------------------------------------------------------------ *)

(* The dominant MOOC workload is many participants uploading the same
   homework input; every tool is a pure function of its input text, so
   (tool, input) -> output is cached globally across sessions.

   The cache is one table under one mutex, [mu], held around a table
   operation and never around a tool execution or store I/O. At most
   one job per server slot probes it at once, each for a hash lookup and
   a few pointer writes, so one lock is enough. The entries are linked
   in recency order through the sentinel [lru]: a hit moves its entry
   to the front, and an insert into a full cache unlinks the back one.
   Both are O(1) and allocate nothing, so eviction is exact LRU at
   every capacity.

   Two domains may still both miss on the same key and execute the tool
   twice, but the tool is pure so either result is correct. The hit,
   miss, eviction and disk-hit statistics are the [portal.cache.*]
   Telemetry counters: each is one shared atomic slot, so the totals
   stay exact without the cache lock, and [Telemetry.reset] zeroes
   them. *)

module T = Vc_util.Telemetry
module Phase = Vc_util.Phase

(* [key] is the string the entry is filed under, so a hit can hand out
   the cache's copy of it; [prev] and [next] run from the most recently
   used entry ([lru.next]) to the least ([lru.prev]) *)
type cache_entry = {
  key : string;
  mutable output : string;
  mutable prev : cache_entry;
  mutable next : cache_entry;
}

(* [mu] guards [capacity], [table] and the list through [lru] *)
let mu = Mutex.create ()
let capacity = ref 512
let table : (string, cache_entry) Hashtbl.t = Hashtbl.create 1024
let rec lru = { key = ""; output = ""; prev = lru; next = lru }

let cache_key tool_name input = Digest.string (tool_name ^ "\x00" ^ input)

(* ---- the disk tier under the memory cache ---------------------------

   An optional Cache_store (vcserve -cache-dir / VC_CACHE_DIR): every
   executed result is written through to it when it is computed - the
   only write - and a memory miss probes it before re-executing the
   tool. An entry evicted from the memory cache is therefore already on
   disk, unless it was cached before the store was opened. At
   [set_cache_dir] as many stored results as the memory cache holds are
   promoted into it, in the same pass that opens the store - the warm
   start that makes a restarted server serve cache hits for work its
   previous incarnation did. The handle lives in an
   Atomic so the hot path never takes a configuration lock; store I/O
   always happens OUTSIDE the cache mutex (the store has its own
   lock). A failing store (disk full, yanked volume) is dropped with
   one warning - the portal degrades to memory-only rather than failing
   submissions. *)

module Store = Vc_util.Cache_store
module J = Vc_util.Journal

let store : Store.t option Atomic.t = Atomic.make None

let drop_store st exn =
  if Atomic.compare_and_set store (Some st) None then begin
    Printf.eprintf
      "portal: cache dir %s failed (%s); disk tier disabled\n%!"
      (Store.dir st) (Printexc.to_string exn);
    J.emit ~severity:J.Warn ~component:"portal"
      ~attrs:[ ("dir", Store.dir st); ("error", Printexc.to_string exn) ]
      "cache.disk_disabled";
    try Store.close st with _ -> ()
  end

let store_append key output =
  match Atomic.get store with
  | None -> ()
  | Some st -> ( try Store.append st ~key output with e -> drop_store st e)

let store_find key =
  match Atomic.get store with
  | None -> None
  | Some st -> ( try Store.find st key with e -> drop_store st e; None)

(* [unlink] through [evict_lru] are called with [mu] held. *)

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front e =
  e.prev <- lru;
  e.next <- lru.next;
  lru.next.prev <- e;
  lru.next <- e

let touch e =
  unlink e;
  push_front e

(* The [portal.cache.size] gauge is set in every critical section that
   changes the size, and never on a hit, which cannot change it. *)
let publish_size () =
  T.set_gauge "portal.cache.size" (float_of_int (Hashtbl.length table))

let add_front key output =
  let e = { key; output; prev = lru; next = lru } in
  push_front e;
  Hashtbl.add table key e;
  publish_size ()

let evict_lru () =
  let e = lru.prev in
  unlink e;
  Hashtbl.remove table e.key;
  T.incr "portal.cache.evictions"

let set_cache_capacity n =
  if n < 0 then invalid_arg "Portal.set_cache_capacity: negative capacity";
  Mutex.protect mu (fun () ->
      capacity := n;
      while Hashtbl.length table > n do
        evict_lru ()
      done;
      publish_size ())

let cache_capacity () = Mutex.protect mu (fun () -> !capacity)
let cache_size () = Mutex.protect mu (fun () -> Hashtbl.length table)

let clear_cache () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset table;
      lru.prev <- lru;
      lru.next <- lru;
      publish_size ())

let cache_stats () =
  (T.counter "portal.cache.hits", T.counter "portal.cache.misses")
let cache_evictions () = T.counter "portal.cache.evictions"
let cache_disk_hits () = T.counter "portal.cache.disk_hits"

(* A hit returns the entry's own (key, output) strings. *)
let cache_find key =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table key with
      | Some e ->
        touch e;
        Some (e.key, e.output)
      | None -> None)

(* [history]'s read: no recency bump, no statistics *)
let cache_peek key =
  Mutex.protect mu (fun () ->
      Option.map (fun e -> e.output) (Hashtbl.find_opt table key))

let cache_add key output =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table key with
      | Some e ->
        e.output <- output;
        touch e
      | None when !capacity > 0 ->
        if Hashtbl.length table >= !capacity then evict_lru ();
        add_front key output
      | None -> ())

(* ------------------------------------------------------------------ *)
(* disk-tier configuration                                             *)
(* ------------------------------------------------------------------ *)

let cache_dir () = Option.map Store.dir (Atomic.get store)

let unset_cache_dir () =
  match Atomic.exchange store None with
  | Some st -> ( try Store.close st with _ -> ())
  | None -> ()

let set_cache_dir dirname =
  let t0 = T.now () in
  (* the warm start, fed by the store's one pass over its spill files:
     each verified record, in file order, goes into the memory cache if
     it has room or already holds that key (the latest record wins).
     The rest stay served by the disk probe, so a warm start evicts
     nothing, and only a promoted record's payload is copied. *)
  let promoted = ref 0 in
  let promote key payload =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt table key with
        | Some e ->
          e.output <- payload ();
          touch e
        | None when Hashtbl.length table < !capacity ->
          incr promoted;
          add_front key (payload ())
        | None -> ())
  in
  match Store.open_store ~on_record:promote dirname with
  | exception e ->
    (* same degrade contract as the journal: a portal that cannot write
       its results through must still serve. An open that failed while
       folding a lane file in may have promoted records already. *)
    Printf.eprintf
      "portal: cannot open cache dir %s (%s); continuing without it\n%!"
      dirname (Printexc.to_string e);
    J.emit ~severity:J.Warn ~component:"portal"
      ~attrs:[ ("dir", dirname); ("error", Printexc.to_string e) ]
      "cache.disk_error"
  | st ->
    (match Atomic.exchange store (Some st) with
    | Some old -> ( try Store.close old with _ -> ())
    | None -> ());
    let entries = Store.length st in
    T.set_gauge "portal.cache.disk_entries" (float_of_int entries);
    J.emit ~component:"portal"
      ~attrs:
        [
          ("dir", dirname);
          ("entries", string_of_int entries);
          ("promoted", string_of_int !promoted);
          ("bytes", string_of_int (Store.file_bytes st));
          ("elapsed_s", Printf.sprintf "%.6f" (Float.max 0.0 (T.now () -. t0)));
        ]
      "cache.warm_start"

(* ------------------------------------------------------------------ *)
(* instrumented submission                                             *)
(* ------------------------------------------------------------------ *)

(* the line count [String.split_on_char '\n'] would give, without
   building the lines *)
let count_lines s =
  let n = ref 1 in
  for i = 0 to String.length s - 1 do
    if s.[i] = '\n' then incr n
  done;
  !n

(* [serve], appending the run to [session] when there is one *)
let serve_into session tool input =
  let pre = "portal." ^ tool.tool_name in
  let key = cache_key tool.tool_name input in
  T.incr (pre ^ ".submits");
  let t0 = T.now () in
  (* [key] is rebound to the cache's copy of it where there is one:
     that is what a session's run keeps *)
  let outcome, key =
    let lines = count_lines input in
    if lines > tool.max_input_lines then begin
      T.incr (pre ^ ".rejected");
      ( Rejected
          (Runaway
             (Printf.sprintf "input too large (%d lines; portal limit %d)"
                lines tool.max_input_lines)),
        key )
    end
    else begin
      (* the cache and execute phases land on the request's timeline;
         profiler ticks inside the kernel fold to "worker;execute;<tool>" *)
      let probed =
        Phase.run "cache" (fun () ->
            match cache_find key with
            | Some _ as hit -> hit
            | None -> (
              (* memory miss: probe the disk tier, promoting a hit back
                 into the memory cache *)
              match store_find key with
              | Some out ->
                T.incr "portal.cache.disk_hits";
                cache_add key out;
                Some (key, out)
              | None -> None))
      in
      match probed with
      | Some (stored, out) ->
        T.incr (pre ^ ".cache_hits");
        T.incr "portal.cache.hits";
        (Cache_hit out, stored)
      | None ->
        T.incr "portal.cache.misses";
        T.incr (pre ^ ".executions");
        let out =
          Phase.run "execute" (fun () ->
              Phase.run tool.tool_name (fun () -> tool.execute input))
        in
        cache_add key out;
        (* write-through, the disk tier's only write: the result is
           durable the moment it is computed - this is what a
           killed-and-restarted server warm-starts from *)
        store_append key out;
        (Executed out, key)
    end
  in
  (* one measurement feeds the latency timer and the journal event; a
     runaway rejection is an Error, which the journal flushes at once *)
  let latency_s = Float.max 0.0 (T.now () -. t0) in
  T.observe (pre ^ ".latency") latency_s;
  let outcome_name, reject_reason =
    match outcome with
    | Executed _ -> ("executed", None)
    | Cache_hit _ -> ("cache_hit", None)
    | Rejected r -> ("rejected", Some (reason_message r))
  in
  J.emit
    ~severity:(match outcome with Rejected _ -> J.Error | _ -> J.Info)
    ~component:"portal"
    ~attrs:
      (Vc_util.Trace_ctx.ambient_attrs ()
      @ [
          ("tool", tool.tool_name);
          ("digest", Digest.to_hex key);
          ("outcome", outcome_name);
          ("latency_s", Printf.sprintf "%.6f" latency_s);
        ]
      @ match reject_reason with
        | Some r -> [ ("reason", r) ]
        | None -> [])
    "submission";
  Option.iter
    (fun s ->
      record s { tool = tool.tool_name; key; rejection = reject_reason })
    session;
  outcome

let serve tool input = serve_into None tool input
let submit_result session tool input = serve_into (Some session) tool input

(* the memory cache first, then the disk tier; neither read counts a hit
   or promotes the entry *)
let run_output r =
  match r.rejection with
  | Some reason -> Some ("error: " ^ reason)
  | None -> (
    match cache_peek r.key with Some _ as out -> out | None -> store_find r.key)

(* newest-first runs, so prepending the matches yields oldest first *)
let history session tool =
  List.fold_left
    (fun acc r ->
      if String.equal r.tool tool.tool_name then
        (Digest.to_hex r.key, run_output r) :: acc
      else acc)
    [] (Atomic.get session)

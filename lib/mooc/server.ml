module T = Vc_util.Telemetry
module J = Vc_util.Journal
module Tc = Vc_util.Trace_ctx

(* ------------------------------------------------------------------ *)
(* token bucket                                                        *)
(* ------------------------------------------------------------------ *)

module Token_bucket = struct
  type t = {
    rate : float;
    burst : float;
    mutable tokens : float;
    mutable last : float;
  }

  (* false for NaN as well. An infinite rate would make the refill
     [0. *. infinity] = NaN, and a NaN never leaves [tokens]. *)
  let valid ~rate ~burst = rate >= 0.0 && Float.is_finite rate && burst > 0.0

  let create ~rate ~burst ~now =
    if not (valid ~rate ~burst) then
      invalid_arg
        "Server.Token_bucket.create: rate must be finite and >= 0, burst > 0";
    { rate; burst; tokens = burst; last = now }

  let try_take b ~now =
    let dt = Float.max 0.0 (now -. b.last) in
    b.tokens <- Float.min b.burst (b.tokens +. (dt *. b.rate));
    b.last <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false

  (* the refill [try_take] would make at [now] reaches [burst]: the
     bucket is then in the state [create] builds *)
  let full b ~now =
    b.tokens +. (Float.max 0.0 (now -. b.last) *. b.rate) >= b.burst
end

let deadline_expired ~enqueued ~deadline_s ~now =
  deadline_s < Float.infinity && Float.max 0.0 (now -. enqueued) >= deadline_s

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;
  queue_capacity : int;
  deadline_s : float;
  rate_limit : (float * float) option;
}

let default_config =
  {
    workers = 4;
    queue_capacity = 64;
    deadline_s = Float.infinity;
    rate_limit = None;
  }

(* ------------------------------------------------------------------ *)
(* execution slots and server state                                    *)
(* ------------------------------------------------------------------ *)

(* A submission that finds every slot taken waits in a FIFO for a
   finishing job to hand it one: the finisher stores the slot number
   and signals the waiter's own condition, so a hand-off wakes exactly
   one domain. Only this contended path allocates a condition. *)
type waiter = {
  w_cond : Condition.t;
  mutable w_slot : int;  (* -1 until a slot is handed over *)
}

type t = {
  config : config;
  mu : Mutex.t;
      (* guards free, waiters, stopping, buckets, sweep_at, depth_hwm *)
  drained : Condition.t;  (* stop waits here until no job runs or waits *)
  mutable free : int list;  (* slots no job holds *)
  waiters : waiter Queue.t;
  mutable stopping : bool;
  (* a token bucket per session id, touched only under a rate limit *)
  buckets : (string, Token_bucket.t) Hashtbl.t;
  mutable sweep_at : int;  (* the table size at which an insert sweeps *)
  (* untraced submissions get ids minted from a seed fixed at start and
     the next sequence number, without a lock *)
  trace_seed : int;
  trace_seq : int Atomic.t;
  busy_ns : string array;  (* server.worker.<w>.busy_ns, per slot *)
  mutable depth_hwm : int;  (* queue-depth high-water mark *)
}

(* The least table size at which an insert sweeps the buckets. *)
let sweep_floor = 1024

(* Called with [t.mu] held wherever the waiters or the held slots
   change: admission and release. A running job counts as depth 1, as a
   queued job's does. The high-water mark survives the depth gauge's
   sawtooth, so a console that polls between bursts still sees the
   peak. *)
let publish_load t =
  let waiting = Queue.length t.waiters in
  let busy = t.config.workers - List.length t.free in
  T.set_gauge "server.queue_depth" (float_of_int waiting);
  T.set_gauge "server.workers.busy" (float_of_int busy);
  let depth = max waiting (min busy 1) in
  if depth > t.depth_hwm then begin
    t.depth_hwm <- depth;
    T.set_gauge "server.queue_depth.hwm" (float_of_int depth)
  end

let count_outcome outcome =
  match outcome with
  | Portal.Executed _ -> T.incr "server.outcome.executed"
  | Portal.Cache_hit _ -> T.incr "server.outcome.cache_hit"
  | Portal.Rejected r -> T.incr ("server.outcome.rejected." ^ Portal.reason_label r)

(* Admission-control and deadline rejections are the server's own; each
   gets its distinct journal event so an operator can tell saturation
   (overloaded), abuse (rate_limited) and staleness (deadline) apart at
   a glance. Every one carries the session, tool and reason, then
   [extra]. Runaway rejections keep their journal trail inside
   [Portal.serve]. *)
let reject_server ~session_id ~tool_name ~ctx ~extra reason =
  let outcome = Portal.Rejected reason in
  count_outcome outcome;
  J.emit ~severity:J.Warn ~component:"server"
    ~attrs:
      (Tc.to_attrs ctx
      @ ("session", session_id)
        :: ("tool", tool_name)
        :: ("reason", Portal.reason_message reason)
        :: extra)
    ("job.rejected." ^ Portal.reason_label reason);
  outcome

(* ------------------------------------------------------------------ *)
(* running a job                                                       *)
(* ------------------------------------------------------------------ *)

(* [request.replied] is the request's whole timeline: its [phase.queue]
   is the admission-to-slot wait and its timestamp minus [total_s] is
   the admission, so neither gets an event of its own. *)
let process_job t ~tool ~input ~session_id ~ctx ~enqueued =
  let now = T.now () in
  let wait_s = Float.max 0.0 (now -. enqueued) in
  Tc.record_phase ctx "queue" wait_s;
  let outcome =
    if deadline_expired ~enqueued ~deadline_s:t.config.deadline_s ~now
    then begin
      (* only the configured limit in the message - the measured wait
         goes in the journal attrs, keeping wire output deterministic *)
      reject_server ~session_id ~tool_name:tool.Portal.tool_name ~ctx
        ~extra:[ ("wait_s", Printf.sprintf "%.6f" wait_s) ]
        (Portal.Deadline_exceeded
           (Printf.sprintf "queue wait exceeded the %.3f s deadline"
              t.config.deadline_s))
    end
    else begin
      (* the ambient context lets the portal's Phase.run calls time
         its cache-probe and execute phases into this request without
         plumbing *)
      let outcome =
        Tc.with_current ctx (fun () -> Portal.serve tool input)
      in
      count_outcome outcome;
      outcome
    end
  in
  (* close the timeline and journal it before returning, so a reader
     that observes the outcome also observes the event *)
  let total_s = Float.max 0.0 (T.now () -. enqueued) in
  let reply_s = Float.max 0.0 (total_s -. Tc.phase_total ctx) in
  Tc.record_phase ctx "reply" reply_s;
  List.iter
    (fun (name, d) -> T.observe ("server.phase." ^ name) d)
    (Tc.phases ctx);
  J.emit ~component:"server"
    ~attrs:
      (Tc.to_attrs ctx
      @ [
          ("tool", tool.Portal.tool_name);
          ("session", session_id);
          ( "outcome",
            match outcome with
            | Portal.Executed _ -> "executed"
            | Portal.Cache_hit _ -> "cache_hit"
            | Portal.Rejected _ -> "rejected" );
          ("total_s", Printf.sprintf "%.6f" total_s);
        ]
      @ Tc.phase_attrs ctx)
    "request.replied";
  outcome

(* The slot goes straight to the head waiter, so slots are granted in
   admission order and a freed slot never sits idle while one waits. *)
let release t slot =
  Mutex.protect t.mu (fun () ->
      (match Queue.take_opt t.waiters with
      | Some w ->
        w.w_slot <- slot;
        Condition.signal w.w_cond
      | None ->
        t.free <- slot :: t.free;
        if t.stopping && List.length t.free = t.config.workers then
          Condition.broadcast t.drained);
      publish_load t)

(* Runs on the submitting domain while it holds [slot]: the profiler
   attributes the job to "worker;..." and the busy-time counter feeds the
   server.worker.<slot>.util series. *)
let run_job t slot job =
  let busy_from = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let busy_s = Float.max 0.0 (Unix.gettimeofday () -. busy_from) in
      T.incr ~by:(int_of_float (busy_s *. 1e9)) t.busy_ns.(slot);
      release t slot)
    (fun () -> Vc_util.Phase.run "worker" job)

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) () =
  if config.workers < 1 then
    invalid_arg "Server.start: at least one worker required";
  if config.queue_capacity < 0 then
    invalid_arg "Server.start: negative queue capacity";
  (match config.rate_limit with
  | Some (rate, burst) when not (Token_bucket.valid ~rate ~burst) ->
    invalid_arg "Server.start: rate limit needs a finite rate >= 0 and burst > 0"
  | _ -> ());
  T.set_gauge "server.queue_depth" 0.0;
  T.set_gauge "server.queue_depth.hwm" 0.0;
  T.set_gauge "server.workers.busy" 0.0;
  T.set_gauge "server.workers.total" (float_of_int config.workers);
  let t =
    {
      config;
      mu = Mutex.create ();
      drained = Condition.create ();
      free = List.init config.workers Fun.id;
      waiters = Queue.create ();
      stopping = false;
      buckets = Hashtbl.create 16;
      sweep_at = sweep_floor;
      (* wall clock, not Clock: server-minted ids must differ across
         runs even under a frozen test clock *)
      trace_seed =
        int_of_float (Unix.gettimeofday () *. 1e6)
        lxor (Unix.getpid () * 0x9E3779B1);
      trace_seq = Atomic.make 0;
      busy_ns =
        Array.init config.workers (Printf.sprintf "server.worker.%d.busy_ns");
      depth_hwm = 0;
    }
  in
  J.emit ~component:"server"
    ~attrs:
      [
        ("workers", string_of_int config.workers);
        ("queue_capacity", string_of_int config.queue_capacity);
        ("deadline_s",
         if config.deadline_s = Float.infinity then "none"
         else Printf.sprintf "%.3f" config.deadline_s);
        ("rate_limit",
         match config.rate_limit with
         | None -> "none"
         | Some (rate, burst) -> Printf.sprintf "%.3f/s burst %.1f" rate burst);
      ]
    "server.start";
  t

let stop t =
  let first =
    Mutex.protect t.mu (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          (* every slot free means no job runs, and so none waits: a
             waiter only queues while every slot is held *)
          while List.length t.free < t.config.workers do
            Condition.wait t.drained t.mu
          done;
          true
        end)
  in
  if first then
    J.emit ~component:"server"
      ~attrs:
        [
          ("executed", string_of_int (T.counter "server.outcome.executed"));
          ("cache_hit", string_of_int (T.counter "server.outcome.cache_hit"));
          ("rejected.runaway",
           string_of_int (T.counter "server.outcome.rejected.runaway"));
          ("rejected.overloaded",
           string_of_int (T.counter "server.outcome.rejected.overloaded"));
          ("rejected.rate_limited",
           string_of_int (T.counter "server.outcome.rejected.rate_limited"));
          ("rejected.deadline",
           string_of_int (T.counter "server.outcome.rejected.deadline"));
        ]
      "server.stop"

let queue_depth t = Mutex.protect t.mu (fun () -> Queue.length t.waiters)

(* ------------------------------------------------------------------ *)
(* submission                                                          *)
(* ------------------------------------------------------------------ *)

(* Called with [t.mu] held. Under a rate limit a session's bucket is
   made by its first submission; without one no table is touched. An
   insert that finds the table at [sweep_at] first drops every bucket
   that is full at [now]: such a bucket is in the state
   [Token_bucket.create] builds, so forgetting it changes no reply. A
   [rate = 0.] bucket never refills, so it stays. Sweeping again only
   once the table has doubled keeps the sweeps' cost O(1) per insert,
   amortized. *)
let rate_ok t session_id ~now =
  match t.config.rate_limit with
  | None -> true
  | Some (rate, burst) ->
    let b =
      match Hashtbl.find_opt t.buckets session_id with
      | Some b -> b
      | None ->
        if Hashtbl.length t.buckets >= t.sweep_at then begin
          Hashtbl.filter_map_inplace
            (fun _ b -> if Token_bucket.full b ~now then None else Some b)
            t.buckets;
          t.sweep_at <- max sweep_floor (2 * Hashtbl.length t.buckets)
        end;
        let b = Token_bucket.create ~rate ~burst ~now in
        Hashtbl.add t.buckets session_id b;
        b
    in
    Token_bucket.try_take b ~now

let submit t (req : Portal.request) =
  let session_id = req.Portal.req_session
  and tool = req.Portal.req_tool
  and input = req.Portal.req_input in
  T.incr "server.submitted";
  let tool_name = tool.Portal.tool_name in
  (* a valid client-supplied id is adopted; anything else gets a
     server-minted one so every request has a joinable timeline *)
  let ctx =
    match Option.bind req.Portal.req_trace Tc.of_id with
    | Some ctx -> ctx
    | None ->
      Tc.make
        (Tc.mint_deterministic ~seed:t.trace_seed
           ~seq:(Atomic.fetch_and_add t.trace_seq 1))
  in
  let now = T.now () in
  (* a rate-limited session is turned away before the stopping and
     queue checks, and a token taken stays taken if they reject *)
  let admitted =
    Mutex.protect t.mu (fun () ->
        if not (rate_ok t session_id ~now) then `Rate_limited
        else if t.stopping then `Stopped
        else if Queue.length t.waiters >= t.config.queue_capacity then `Full
        else
          let admitted =
            match t.free with
            | w :: rest ->
              t.free <- rest;
              `Run w
            | [] ->
              let waiter = { w_cond = Condition.create (); w_slot = -1 } in
              Queue.push waiter t.waiters;
              `Wait waiter
          in
          publish_load t;
          admitted)
  in
  let job () = process_job t ~tool ~input ~session_id ~ctx ~enqueued:now in
  match admitted with
  | `Rate_limited ->
    reject_server ~session_id ~tool_name ~ctx ~extra:[]
      (Portal.Rate_limited
         (Printf.sprintf "session %S exceeded its submission rate limit"
            session_id))
  | `Stopped ->
    reject_server ~session_id ~tool_name ~ctx ~extra:[]
      (Portal.Overloaded "server is shutting down")
  | `Full ->
    reject_server ~session_id ~tool_name ~ctx ~extra:[]
      (Portal.Overloaded
         (Printf.sprintf "submission queue full (capacity %d)"
            t.config.queue_capacity))
  | `Run w -> run_job t w job
  | `Wait waiter ->
    let w =
      Mutex.protect t.mu (fun () ->
          while waiter.w_slot < 0 do
            Condition.wait waiter.w_cond t.mu
          done;
          waiter.w_slot)
    in
    run_job t w job

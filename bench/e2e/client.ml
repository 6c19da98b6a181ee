(* The load generator's side of the wire: its own small protocol client
   (not Wire.Client, so a change to the library cannot move the
   measuring stick), host processes, the open and closed loops, and the
   readers for /proc and the host's runtime-events ring. Nothing here
   calls Telemetry or Journal. *)

let ( / ) = Filename.concat
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* one connection                                                      *)
(* ------------------------------------------------------------------ *)

exception Transport of string

type conn = {
  fd : Unix.file_descr;
  mutable out : Bytes.t;
  mutable inb : Bytes.t;
  mutable len : int;  (** bytes of the current reply in [inb] *)
  mutable status_len : int;  (** its status line, without the newline *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     (* a stuck host surfaces as a transport error, not a hang *)
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; out = Bytes.create 65536; inb = Bytes.create 65536; len = 0; status_len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c hdr body =
  let lh = String.length hdr and lb = String.length body in
  let n = lh + lb in
  if Bytes.length c.out < n then c.out <- Bytes.create (2 * n);
  Bytes.blit_string hdr 0 c.out 0 lh;
  Bytes.blit_string body 0 c.out lh lb;
  let rec go off =
    if off < n then go (off + Unix.write c.fd c.out off (n - off))
  in
  go 0

(* Read one reply: a status line, dot-stuffed body lines, and a "."
   line. A body line "." travels as "..", so "\n.\n" only ever ends a
   reply. *)
let recv c =
  c.len <- 0;
  c.status_len <- -1;
  let rec scan i =
    if i >= c.len then fill i
    else if Bytes.get c.inb i <> '\n' then scan (i + 1)
    else begin
      if c.status_len < 0 then c.status_len <- i;
      if i >= 2 && Bytes.get c.inb (i - 1) = '.' && Bytes.get c.inb (i - 2) = '\n'
      then c.len <- i + 1
      else scan (i + 1)
    end
  and fill i =
    if c.len = Bytes.length c.inb then begin
      let b = Bytes.create (2 * c.len) in
      Bytes.blit c.inb 0 b 0 c.len;
      c.inb <- b
    end;
    let got =
      try Unix.read c.fd c.inb c.len (Bytes.length c.inb - c.len)
      with Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))
    in
    if got = 0 then raise (Transport "connection closed by host");
    c.len <- c.len + got;
    scan i
  in
  fill 0

let status c = Bytes.sub_string c.inb 0 c.status_len

(* the reply after its status line: the stuffed body and the "." line *)
let body c = Bytes.sub_string c.inb (c.status_len + 1) (c.len - c.status_len - 1)

(* [body c = s], without copying the body *)
let body_is c s =
  let off = c.status_len + 1 in
  let n = String.length s in
  c.len - off = n
  && (let rec go i = i = n || (Bytes.get c.inb (off + i) = s.[i] && go (i + 1)) in
      go 0)

let has_prefix c p =
  String.length p <= c.status_len
  && (let rec go i = i = String.length p || (Bytes.get c.inb i = p.[i] && go (i + 1)) in
      go 0)

let command c line =
  (try send c (line ^ "\n") "" with Unix.Unix_error (e, _, _) ->
     raise (Transport (Unix.error_message e)));
  recv c;
  status c

(* ------------------------------------------------------------------ *)
(* host processes                                                      *)
(* ------------------------------------------------------------------ *)

type host = { pid : int; port : int; mutable alive : bool }

let host_env ~events_dir =
  let keep kv =
    not
      (List.exists
         (fun p -> String.starts_with ~prefix:p kv)
         [ "VC_CACHE_"; "OCAML_RUNTIME_EVENTS_"; "OCAMLRUNPARAM=" ])
  in
  let base = List.filter keep (Array.to_list (Unix.environment ())) in
  let runparam = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"" in
  let with_param p =
    if runparam = "" && p = "" then []
    else [ "OCAMLRUNPARAM=" ^ String.concat "," (List.filter (( <> ) "") [ runparam; p ]) ]
  in
  Array.of_list
    (base
    @
    match events_dir with
    | None -> with_param ""
    | Some dir ->
      (* 2^17-word rings per domain, drained every few ms: none is lost *)
      [ "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ dir ]
      @ with_param "e=17")

let wait_exit ?(timeout = 30.0) pid =
  let deadline = now () +. timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.002; poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  poll ()

let kill h =
  if h.alive then begin
    h.alive <- false;
    (try Unix.kill h.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit ~timeout:5.0 h.pid)
  end

(* Start `EXE serve ARGS` and read the port it prints. *)
let spawn ~exe ~log ~env args =
  let r, w = Unix.pipe ~cloexec:true () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: "serve" :: args)) env devnull w logfd
  in
  List.iter Unix.close [ w; logfd; devnull ];
  let ic = Unix.in_channel_of_descr r in
  let port =
    match Unix.select [ r ] [] [] 60.0 with
    | [], _, _ -> None
    | _ -> Option.bind (In_channel.input_line ic) int_of_string_opt
  in
  In_channel.close ic;
  match port with
  | Some port -> { pid; port; alive = true }
  | None ->
    kill { pid; port = 0; alive = true };
    failwith ("vcbench: host did not start; see " ^ log)

let hello c =
  if command c "HELLO 2" <> "OK proto 2" then raise (Transport "HELLO refused")

(* setup ends at the first "OK pong" after "HELLO 2" *)
let start_host ~exe ~log ~env args =
  let t0 = now () in
  let h = spawn ~exe ~log ~env args in
  match connect h.port with
  | exception e -> kill h; raise e
  | c ->
    (try
       hello c;
       if command c "PING" <> "OK pong" then raise (Transport "PING unanswered")
     with e -> close c; kill h; raise e);
    (h, c, now () -. t0)

let stop_host h c =
  (try ignore (command c "SHUTDOWN") with Transport _ -> ());
  close c;
  h.alive <- false;
  if not (wait_exit h.pid) then failwith "vcbench: host did not exit cleanly"

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* utime + stime of all the host's threads, in seconds (USER_HZ = 100
   on Linux) *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  (* fields from the 3rd on: utime and stime are the 14th and 15th *)
  let rest = String.sub s (i + 2) (String.length s - i - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* the number on a "Key:  value [unit]" line of /proc/<pid>/status *)
let status_field pid key =
  let prefix = key ^ ":" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then Some (Scanf.sscanf l "%_s@: %f" Fun.id) else None)
  |> Option.value ~default:0.0

let rss_kb pid = status_field pid "VmRSS"
let threads pid = status_field pid "Threads"

(* CPU time the hypervisor gave to other guests, summed over this
   machine's CPUs, in seconds; and the CPU count *)
let steal_s () =
  Scanf.sscanf (read_file "/proc/stat") "cpu %_d %_d %_d %_d %_d %_d %_d %d" (fun s ->
      float_of_int s /. 100.0)

let cpus () =
  List.length
    (List.filter
       (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
       (String.split_on_char '\n' (read_file "/proc/stat")))

let rec dir_bytes path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + dir_bytes (path / f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (path / f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* ------------------------------------------------------------------ *)
(* GC pauses from the host's runtime-events ring                       *)
(* ------------------------------------------------------------------ *)

module Gc_events = struct
  module R = Runtime_events

  type state = {
    started : int64 array;  (** per ring: begin of the open pause, or -1 *)
    mutable window : bool;  (** inside the measured phase *)
    mutable pauses : float list;  (** ms *)
    mutable lost : int;
  }

  type t = { cursor : R.cursor; callbacks : R.Callbacks.t; st : state }

  (* the stop-the-world minor collection and each domain's major slice *)
  let is_pause = function R.EV_MINOR | R.EV_MAJOR_SLICE -> true | _ -> false

  let create ~dir pid =
    let st = { started = Array.make 128 (-1L); window = false; pauses = []; lost = 0 } in
    let runtime_begin ring ts phase =
      if is_pause phase then st.started.(ring) <- R.Timestamp.to_int64 ts
    in
    let runtime_end ring ts phase =
      if is_pause phase && st.started.(ring) >= 0L then begin
        let d = Int64.sub (R.Timestamp.to_int64 ts) st.started.(ring) in
        if st.window then st.pauses <- (Int64.to_float d /. 1e6) :: st.pauses;
        st.started.(ring) <- -1L
      end
    in
    let lost_events _ n = if st.window then st.lost <- st.lost + n in
    {
      cursor = R.create_cursor (Some (dir, pid));
      callbacks = R.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
      st;
    }

  let poll t = ignore (R.read_poll t.cursor t.callbacks None)

  let set_window t on =
    poll t;
    t.st.window <- on

  let free t = R.free_cursor t.cursor
end

(* ------------------------------------------------------------------ *)
(* request loops                                                       *)
(* ------------------------------------------------------------------ *)

(* What a phase records per request, in preallocated arrays: the
   scheduled, actual send and reply times (absolute seconds). A failed
   request has [done_ = infinity]. *)
type record = { due : Float.Array.t; sent : Float.Array.t; done_ : Float.Array.t }

let record n =
  { due = Float.Array.make n 0.0; sent = Float.Array.make n 0.0;
    done_ = Float.Array.make n 0.0 }

type tally = {
  mutable ok : int;
  mutable rejected : int;
  mutable errors : int;
  mutable wrong : int;
  mutable bytes : int;
}

let tally () = { ok = 0; rejected = 0; errors = 0; wrong = 0; bytes = 0 }

let add_tally a b =
  a.ok <- a.ok + b.ok;
  a.rejected <- a.rejected + b.rejected;
  a.errors <- a.errors + b.errors;
  a.wrong <- a.wrong + b.wrong;
  a.bytes <- a.bytes + b.bytes

(* Everything one connection needs to send a phase's requests and check
   the replies. [first.(i)] is the first reply body seen for input [i]
   when [checked.(i)]; later replies must match it, and the oracle
   checks it after the timed phases. *)
type lane = {
  conn : conn;
  index : int;  (** 0 or 1: this lane takes requests index, index+2, ... *)
  bodies : string array;  (** stuffed upload per input *)
  checked : bool array;
  first : string array;
  tally : tally;
}

let exchange lane hdr input =
  let c = lane.conn in
  (try send c hdr lane.bodies.(input) with Unix.Unix_error (e, _, _) ->
     raise (Transport (Unix.error_message e)));
  recv c;
  let t = lane.tally in
  t.bytes <- t.bytes + String.length hdr + String.length lane.bodies.(input) + c.len;
  (* the status must echo the trace id the header carries: "... TRACE
     <id>\n" *)
  let id_len = 16 in
  let off = c.status_len - id_len and hoff = String.length hdr - 1 - id_len in
  let rec same i =
    i = id_len || (Bytes.get c.inb (off + i) = hdr.[hoff + i] && same (i + 1))
  in
  let echoed = off > 0 && same 0 in
  if has_prefix c "OK " && echoed then begin
    t.ok <- t.ok + 1;
    if lane.checked.(input) then begin
      if lane.first.(input) = "" then lane.first.(input) <- body c
      else if not (body_is c lane.first.(input)) then t.wrong <- t.wrong + 1
    end;
    true
  end
  else begin
    t.rejected <- t.rejected + 1;
    false
  end

(* Open loop: each request is due at [t_base + at.(k)] whatever the host
   is doing; latency counts from that time, so a stall is charged to
   every request it delays. [idle] runs between requests (the runtime-
   events poll on the main domain). *)
let open_loop ?(idle = ignore) lane ~hdrs ~(pick : int array) ~(at : float array) ~t_base r =
  let n = Array.length at in
  let k = ref lane.index in
  (try
     while !k < n do
       let due = t_base +. at.(!k) in
       let wait = due -. now () in
       if wait > 0.0 then Unix.sleepf wait;
       let sent = now () in
       let ok = exchange lane hdrs.(!k) pick.(!k) in
       Float.Array.set r.due !k due;
       Float.Array.set r.sent !k sent;
       Float.Array.set r.done_ !k (if ok then now () else Float.infinity);
       idle ();
       k := !k + 2
     done
   with Transport _ -> lane.tally.errors <- lane.tally.errors + 1);
  (* requests never sent after a transport error count as failed *)
  while !k < n do
    Float.Array.set r.due !k (t_base +. at.(!k));
    Float.Array.set r.done_ !k Float.infinity;
    k := !k + 2
  done

(* Closed loop: back to back until [until] or the prerendered requests
   run out; returns (completed, time of the last reply). *)
let closed_loop ?(idle = ignore) lane ~hdrs ~(pick : int array) ~until =
  let n = Array.length pick in
  let k = ref lane.index and completed = ref 0 and last = ref (now ()) in
  (try
     while !k < n && !last < until do
       if exchange lane hdrs.(!k) pick.(!k) then incr completed;
       last := now ();
       idle ();
       k := !k + 2
     done
   with Transport _ -> lane.tally.errors <- lane.tally.errors + 1);
  (!completed, !last)

(* Run [f] for lane 1 on a second domain and for lane 0 on this one. *)
let both lanes f =
  let d = Domain.spawn (fun () -> f lanes.(1)) in
  let r0 = f lanes.(0) in
  let r1 = Domain.join d in
  (r0, r1)

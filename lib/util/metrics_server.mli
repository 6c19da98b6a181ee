(** A zero-dependency, single-threaded HTTP metrics exporter built on the
    [Unix] library shipped with the compiler - the live read side of the
    observability layer.

    The server owns one listening TCP socket and answers:

    - [GET /metrics] - the Prometheus text exposition produced by the
      [metrics] thunk given to {!start} (every binary passes
      [Telemetry.to_prometheus]);
    - [GET /healthz] - ["ok\n"], for load-balancer liveness checks;
    - [GET /readyz] - ["ok\n"] (200) while the process accepts work,
      ["draining\n"] (503) once the {!set_ready_probe} probe says no -
      vcserve flips it when graceful drain starts;
    - any path installed through {!register_route} - the Timeseries
      sampler adds [GET /varz] (JSON console snapshot) and
      [GET /profile] (folded stacks) this way.

    Anything else is a 404 whose body lists the live routes; non-GET
    methods are a 405. Connections are served one at a time on the
    caller's thread ([Connection: close], no keep-alive), which matches
    the single-threaded worker model of the rest of the repository: a
    scrape is a few kilobytes of text, so a serving loop keeps up with
    any reasonable scrape interval. Each connection has 2 seconds from
    accept to send its request and take the response; a client that
    stays silent, or drips bytes, is then dropped, so it cannot hold the
    loop (or a process exit that waits for it).

    Every binary under [bin/] exposes this through the
    [--metrics-port N] flag of {!Telemetry.cli}: the socket is bound (and
    the bound address announced on stderr) before the tool's main work
    starts. Port [0] asks the kernel for an ephemeral port - the
    announcement is how a test harness learns which one. *)

type t
(** A bound, listening exporter. *)

val start :
  ?addr:string ->
  ?announce:bool ->
  ?on_request:(string -> unit) ->
  metrics:(unit -> string) ->
  port:int ->
  unit ->
  t
(** [start ~metrics ~port ()] binds a listening socket on
    [addr] (default ["127.0.0.1"]) at [port] ([0] = kernel-assigned
    ephemeral port) and returns without serving anything yet. [metrics]
    is re-evaluated on every [GET /metrics], so scrapes always see
    current values. [on_request] (default: nothing) is called with the
    request path before routing - {!Telemetry.cli} uses it to count
    scrapes. Unless [announce] is [false], the bound address is printed
    to stderr as [metrics: serving http://ADDR:PORT/metrics] so the
    ephemeral port is discoverable. Also ignores [SIGPIPE] so a scraper
    hanging up mid-response cannot kill the process.
    @raise Unix.Unix_error if the bind fails (port in use, privileged
    port). *)

val port : t -> int
(** The actually-bound port - the resolved one when {!start} was given
    port [0]. *)

val handle_client : t -> Unix.file_descr -> unit
(** Serve one already-connected socket: read the request head, route it,
    write the response, and close the descriptor (always, even on a
    malformed request, a client error or a client that misses the
    2-second deadline). Each read and write gets what is left of that
    deadline as the socket's [SO_RCVTIMEO]/[SO_SNDTIMEO]. Exposed so
    tests can drive the routing logic over a [socketpair] without real
    TCP accept loops. *)

val serve : t -> unit
(** Accept-and-serve loop: serves until {!stop} closes the socket from
    another context (or forever). [EINTR] is retried; per-connection
    handler errors are reported to stderr and do not stop the loop. *)

val serve_forever : t -> 'a
(** {!serve}, then exit once it returns; never returns normally. This
    is what the [--metrics-port] at-exit hook runs. *)

val stop : t -> unit
(** Close the listening socket. Idempotent. *)

(** {1 Extra routes and readiness}

    A process-global registry, deliberately not tied to a {!t}:
    subsystems register their surface once and every exporter in the
    process serves it. *)

type reply = { rp_status : string; rp_content_type : string; rp_body : string }
(** What a registered handler returns, e.g.
    [{ rp_status = "200 OK"; rp_content_type = "application/json";
       rp_body = ... }]. *)

val register_route : string -> (unit -> reply) -> unit
(** [register_route path handler] serves [GET path] from [handler]
    (re-evaluated per request; an exception becomes a 500). Replaces
    any previous handler at the same path.
    @raise Invalid_argument unless [path] starts with ['/']. *)

val unregister_route : string -> unit
(** Remove a registered route (404 afterwards). Idempotent. *)

val registered_routes : unit -> string list
(** The registered paths, sorted - what the 404 body advertises beyond
    the three built-ins. *)

val set_ready_probe : (unit -> bool) -> unit
(** Install the [GET /readyz] probe. Without one, [/readyz] always
    answers 200; with one, a [false] (or raising) probe answers
    [503 draining]. *)

(** {1 Client} *)

val fetch : ?host:string -> port:int -> string -> string * string
(** [fetch ~port path] performs one blocking [GET path] against
    [host:port] (default host ["127.0.0.1"]) and returns
    [(status_line, body)], e.g. [("HTTP/1.1 200 OK", "ok\n")]. Reads to
    EOF - correct against this exporter's [Connection: close] framing.
    This is what [vctop] and the smoke harnesses poll with.
    @raise Unix.Unix_error when the connection fails. *)

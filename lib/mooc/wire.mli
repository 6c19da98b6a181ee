(** The portal service's wire layer: the [vcserve] line protocol as a
    reusable engine, a TCP listener that serves it to remote clients,
    and the matching client - the transport [vcload] replays traces
    over.

    {b Protocol.} Requests are lines:

    {v
    TOOL <name> [<session>] [TRACE <id>]
                              submit the following lines to a tool
    <input lines>             terminated by a line containing only "."
    SESSION <id>              switch the connection's sticky session
    LIST                      list the available tools
    HELLO <version>           negotiate the protocol version (v2+)
    PING                      liveness probe (proto >= 2 only)
    SHUTDOWN                  stop the whole server (drain, then exit)
    QUIT                      close this connection (EOF works too)
    v}

    Each response is one status line, an optional body, and a ["."]
    line: [OK executed], [OK cache_hit], or [ERR <label> <msg>]. Lines
    beginning with ["."] are dot-stuffed (["."] -> [".."]) in both
    directions, SMTP-style, so any payload round-trips. The optional
    [<session>] operand on [TOOL] submits on behalf of that session
    without an extra [SESSION] round trip - what a load generator
    multiplexing many simulated participants over one connection needs.

    {b Request tracing.} The optional [TRACE <id>] operand (a
    {!Vc_util.Trace_ctx.is_valid_id} hex token; [TRACE] is therefore a
    reserved session name) tags the submission with a client-minted
    trace id. The status line then ends in [trace=<id>] - e.g.
    [OK executed trace=1f00c0ffee1f00c0] - and every server-side journal
    event for the request carries a [trace_id] attr, which is what
    [vcstat request] joins client and server journals on. Requests
    without [TRACE] behave exactly as before (the server mints an
    internal id for its own journal, but the wire format is
    unchanged).

    {b Versioning.} A connection starts at protocol version 1 - the
    exact dialect every pre-[HELLO] client spoke, pinned byte-for-byte
    by the [vcserve] golden transcripts. A client may send
    [HELLO <version>] at any time; the server answers
    [OK proto <negotiated>] where [negotiated] is the smaller of the
    requested version and the newest this engine speaks (currently 2),
    and the connection switches to that
    version. Version 2 adds the [PING] -> [OK pong] liveness probe
    (what [vcfront]'s health checker uses); at version 1, [PING] is an
    [ERR protocol] like any other unknown verb, exactly as before. A
    client that never sends [HELLO] cannot observe any difference.

    {b Concurrency.} The TCP listener accepts on the calling domain and
    spawns one domain per connection; all submissions funnel into the
    shared {!Server.t}, whose execution slots and admission control do
    the real scheduling, and each job runs on its connection's domain. {!shutdown} is async-signal-safe: it only flips an
    atomic, closes the listening socket and half-closes the live
    connections (no locks), so a SIGINT handler can call it directly;
    the accept loop then returns and the caller runs the normal drain
    path. *)

(** {1 The protocol engine} *)

type submit_fn = Portal.request -> Portal.outcome
(** The one submission hook every transport shares: the engine parses a
    [TOOL] line and its body into a {!Portal.request} ([req_trace] is
    the validated [TRACE] operand, if any) and hands it over -
    [vcserve] plugs in {!Server.submit}, [vcfront] a forwarding
    closure. *)

val trace_of_status : string -> string option
(** The trailing [trace=<id>] operand of a response status line, if
    present - the client-side parse of the server's echo. *)

val session_loop :
  ?session_id:string ->
  input:In_channel.t ->
  output:Out_channel.t ->
  submit:submit_fn ->
  unit ->
  [ `Eof | `Quit | `Shutdown ]
(** Run one client session over the given channels until EOF, [QUIT] or
    [SHUTDOWN], dispatching each [TOOL] upload through [submit]
    (initial sticky session ["default"]). Both [vcserve]'s stdin/script
    mode and every TCP connection run exactly this loop, so the two
    transports cannot drift. *)

(** {1 TCP server} *)

type listener

val listen : ?addr:string -> port:int -> unit -> listener
(** Bind and listen on [addr] (default ["127.0.0.1"]). [port = 0] picks
    an ephemeral port - read it back with {!port}. *)

val port : listener -> int
val addr : listener -> string

val serve : listener -> submit:submit_fn -> unit
(** Accept connections until {!shutdown} (or a [SHUTDOWN] verb from any
    client) closes the listener, spawning one handler domain per
    connection. When no domain can be spawned (OCaml 5.1 allows 128
    live domains), the connection is answered
    [ERR overloaded too many connections] and closed, counted in
    [wire.conn.rejected] and journaled as a [conn.rejected] warning,
    and the loop keeps accepting. Returns once the accept loop has
    exited; live handler domains may still be draining - see
    {!drain_connections}. *)

val shutdown : listener -> unit
(** Stop accepting and half-close every live connection so handler
    domains observe EOF. Async-signal-safe and idempotent. *)

val drain_connections : ?timeout_s:float -> listener -> bool
(** Wait (default 5 s) for the handler domains to finish; [true] when
    all connections closed in time. *)

val active_connections : listener -> int
(** Connections whose handler is still running. *)

val registered_connections : listener -> int
(** Length of the registry {!shutdown} walks: the live connections plus
    those closed since the last accept, which drops them - bounded by
    the live count, not by every connection the run accepted. *)

(** {1 Client} *)

module Client : sig
  type t

  val connect : ?host:string -> port:int -> unit -> t

  val submit :
    t -> ?session:string -> ?trace:string -> tool:string -> string ->
    string * string
  (** [submit c ~tool input] sends one upload and reads the reply:
      [(status line, body)], e.g. [("OK cache_hit", output)]. With
      [?session] the per-request session operand is used, leaving the
      connection's sticky session alone; with [?trace] the [TRACE]
      operand is sent and the status line echoes [trace=<id>] (see
      {!trace_of_status}). *)

  val hello : t -> int -> int
  (** [hello c v] negotiates the protocol version: sends [HELLO v] and
      returns the server's negotiated version ([v], capped at the
      newest version the server speaks).
      @raise Failure if the server rejects the handshake. *)

  val ping : t -> bool
  (** Send [PING] (requires a prior [hello c 2]) and return whether the
      server answered [OK pong]. *)

  val list_tools : t -> string
  (** The [LIST] response body. *)

  val shutdown_server : t -> unit
  (** Send [SHUTDOWN] and read the acknowledgement. *)

  val close : t -> unit
  (** Send [QUIT] (best effort) and close the socket. *)

  val probe : ?host:string -> port:int -> unit -> bool
  (** The health probe [vcfront] runs against its backends: connect,
      [hello c 2], [ping], close. [true] when the server answered both;
      [false] on any failure, including a server that does not answer:
      each socket call (the connect too) gives up after 1 second, so a
      stalled backend costs the prober a few seconds at most. *)
end

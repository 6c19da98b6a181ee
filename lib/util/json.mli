(** Minimal JSON support - a value type with a strict parser, plus the
    string-building emitter helpers the observability layer renders
    with. Kept deliberately small so the repository stays free of
    third-party dependencies: {!Telemetry} and {!Journal} emit through
    it, {!Regress} and the bench [compare] subcommand parse with it, and
    the test suite validates every renderer against it. *)

(** {1 Values and parsing} *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Fields in source order. *)

val parse : string -> t
(** Strict parse of a complete JSON document.
    @raise Failure with a position on malformed input or trailing
    garbage. *)

val parse_result : string -> (t, string) result
(** {!parse} with the error as a [result]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_num : t -> float option
val to_str : t -> string option

(** {1 Emission}

    Emitters build JSON {e text} directly (no intermediate tree), which
    is what the hot telemetry/journal paths want. [obj] and [arr] take
    already-rendered fragments. *)

val str : string -> string
(** A quoted, escaped JSON string. *)

val add_escaped : Buffer.t -> bytes -> int -> int -> unit
(** [add_escaped b s pos len] appends the [len] bytes of [s] from [pos],
    escaped as the inside of a JSON string (no quotes). {!str} and the
    {!Journal} line writer both escape through it. *)

val num : float -> string
(** Fixed six-decimal rendering, matching the telemetry renderers; a
    non-finite float (NaN or an infinity), which JSON has no number for,
    is [null]. *)

val int : int -> string

val obj : (string * string) list -> string
(** [obj [(k, rendered_v); ...]] - keys are escaped, values are used
    verbatim. *)

val arr : string list -> string

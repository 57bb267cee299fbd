(** A minimal JSON reader for the harness.

    The simulator emits JSON by hand ({!Perseas.stats_to_json},
    [Trace.Export.chrome_json], the bench summaries); this module is the
    matching parser.  Only the tests use it: they check that emitted
    documents actually parse — escapes, nesting and all — without any
    external dependency.

    Supports the full JSON grammar, including [\u] escapes (with
    surrogate pairs, decoded to UTF-8).  Numbers are held as [float],
    which is exact for the integer magnitudes the harness emits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

val parse : string -> (t, string) result
(** Parse a complete document; trailing non-whitespace is an error. *)

val parse_exn : string -> t
(** Like {!parse}; raises [Failure] with the message on error. *)

val member : string -> t -> t option
(** [member key j] is the named field of an object, [None] for a
    missing field or a non-object. *)

val member_exn : string -> t -> t
(** Like {!member}; raises [Failure] when absent. *)

val to_float : t -> float
(** The value of a [Num]; raises [Failure] otherwise — same for the
    other [to_] accessors below. *)

val to_int : t -> int
val to_string : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list

(** A minimal JSON tree, emitter and recursive-descent parser.

    The diagnostics JSON reporter must not pull a new dependency into the
    build (the repo's rule is stdlib + already-vendored opam packages
    only), so this module provides the small slice of JSON the lint
    subsystem needs: exact emission of machine-readable reports, and
    enough parsing for tests and downstream tools to round-trip them.

    Numbers are represented as [float]; integral values are emitted
    without a fractional part, and non-finite values (which JSON cannot
    represent) are emitted as [null]. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering, RFC 8259 string escaping. *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts
    (64) — well above any document the tree writes. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset and a
    reason.  Handles the full value grammar including [\u] escapes
    (decoded to UTF-8); duplicate object keys are kept in order.  A
    document nested deeper than {!max_depth} is an [Error] naming the
    limit, found before any deeper level is parsed. *)

val member : string -> t -> t option
(** First field of that name when the value is an [Obj]. *)

val to_list : t -> t list option
val to_string_value : t -> string option
val to_number : t -> float option

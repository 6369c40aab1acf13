(** A minimal JSON tree, a streaming emitter and a recursive-descent
    parser — the one JSON codec of the tree.

    It lives in [Proxim_util] because every layer that speaks JSON
    needs it: the lint reporters ([Proxim_lint.Diagnostic]), the
    [proxim serve] wire protocol, the CLI and the bench gates.  The
    repo's rule is stdlib plus already-vendored opam packages only, so
    this module provides exactly the slice of JSON those callers use.

    {2 Numbers: the wire contract}

    Numbers are [float]s, and every emitter here prints them by one
    rule:
    - a non-finite value (NaN, ±∞, which JSON cannot represent) is
      [null];
    - an integral value below [1e15] in magnitude is printed as
      [%.0f] (so [3.] is [3] and [-0.] is [-0]);
    - every other value is printed as [%.17g].

    [%.17g] carries 17 significant digits, enough for [float_of_string]
    to recover every finite double bit for bit; [proxim serve]'s
    served == offline guarantee rests on that.  The text is what
    [Printf.sprintf] prints for the same conversion; the emitter calls
    the runtime's float formatter directly instead. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Emission}

    The streaming primitives append to a [Buffer.t]; a writer that
    knows its document's shape (the served report) calls them directly
    and builds no tree.  Output is compact, single-line JSON. *)

val number_text : float -> string
(** One number's text by the rule above: a pure function of the float's
    bits, at most 24 bytes long ([-2.2250738585072014e-308]). *)

val add_number : Buffer.t -> float -> unit
(** Append {!number_text}. *)

(** The texts of numbers a writer prints again and again, in numbered
    slots.  The served report re-prints every arrival after each ECO,
    which moves only those in its fanout cone; through a memo it formats
    only the numbers that changed.  A slot is keyed on the bits of the
    float it was printed from, and {!number_text} is a function of the
    bits alone, so a slot that held another value costs a fresh format,
    never a wrong byte. *)
module Memo : sig
  type t
  (** Each slot is 24 bytes of text (the longest {!number_text}), the
      float it was printed from and a length byte: 33 bytes a slot. *)

  val create : unit -> t
  (** A memo with no slots. *)

  val reserve : t -> int -> unit
  (** [reserve m n] gives [m] at least [n] slots.  A memo that grows
      starts over, every slot empty; one that is large enough is left
      as it is. *)

  val add_number : t -> Buffer.t -> int -> float -> bool
  (** [add_number m buf i v] appends {!number_text}[ v]: copied from
      slot [i] when the slot holds [v]'s bits ([true]), otherwise
      formatted and stored in slot [i] ([false]).  Raises
      [Invalid_argument] when [i] is not a reserved slot. *)
end

val add_string : Buffer.t -> string -> unit
(** Append a quoted string with RFC 8259 escaping: the double quote,
    the backslash, newline, carriage return and tab get their
    two-character escapes, the other control characters below [0x20]
    get [\u00XX] (lowercase hex).  Every other byte, multi-byte UTF-8
    included, is copied as is; a string that needs no escape is copied
    in one block. *)

val add_to : Buffer.t -> t -> unit
(** Append a whole tree, objects' fields in order. *)

val to_string : t -> string
(** [add_to] on a fresh buffer. *)

(** {1 Parsing} *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts
    (64) — well above any document the tree writes. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Handles the full value grammar
    including [\u] escapes (decoded to UTF-8); duplicate object keys are
    kept in order; numbers go through [float_of_string], so every number
    {!add_number} printed reparses to the same bits.

    Guarantees, for any input string:
    - it returns [Ok] or [Error] and raises nothing;
    - [Error] reads ["at offset N: REASON"], [N] the byte offset where
      parsing stopped;
    - a document nested deeper than {!max_depth} is an [Error] naming
      the limit, found before any deeper level is parsed;
    - it allocates the tree plus a bounded number of words per input
      byte: bytes are read in place, a string without escapes costs one
      [String.sub], and only a string with escapes allocates a
      [Buffer]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First field of that name when the value is an [Obj]. *)

val to_list : t -> t list option
val to_string_value : t -> string option
val to_number : t -> float option

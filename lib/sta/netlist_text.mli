(** A small structural netlist text format for gate-level designs.

    {v
    # carry tree
    design carry_tree
    input a b c
    output carry
    cell u1 nand2 a b -> n1
    cell u2 nand2 a c -> n2
    cell u3 nand2 b c -> n3
    cell u5 nand3 n1 n2 n3 -> carry
    end
    v}

    One directive per line; [#] starts a comment; gate names follow
    {!Proxim_gates.Gate.of_name}.  Both LF and CRLF line endings are
    accepted ([\r] is plain whitespace to the scanner).  An optional
    [thresholds VIL VIH VDD] directive records the measurement threshold
    set the design is meant to be analyzed with — it does not affect
    {!parse}'s structural result, but the lint layer checks it against
    the paper's §2 rule.

    [parse] validates through {!Design.create}, so structural errors
    (cycles, double drivers, arity) are reported with the same messages.
    Syntax and arity problems are {e collected}: the parser keeps
    scanning after a bad line and the [Error] message joins every
    complaint (one per line, ["line N:C: ..."] with a 1-based line and
    column, in source order). *)

type raw_cell = {
  line : int;  (** 1-based source line of the [cell] directive *)
  gate_col : int;  (** 1-based column of the gate-name token *)
  cell_name : string;
  gate : Proxim_gates.Gate.t;
  inputs : string list;
      (** as written — may disagree with the gate's fan-in; {!parse}
          rejects that, the lint layer reports it as a diagnostic *)
  output : string;
}

type raw_error = {
  err_line : int;  (** 1-based source line *)
  err_col : int;  (** 1-based column of the offending token *)
  err_msg : string;
}

type raw = {
  raw_name : (string * int) option;  (** design name and its line *)
  raw_inputs : (string * int) list;  (** declared primary inputs, with lines *)
  raw_outputs : (string * int) list;
  raw_cells : raw_cell list;  (** only the cells that parsed, in file order *)
  raw_thresholds : (Proxim_vtc.Vtc.thresholds * int) option;
  raw_errors : raw_error list;
      (** every syntax-level problem, located, in source order *)
}
(** The parsed-but-unvalidated form of a netlist file: everything the
    scanner could make sense of plus everything it could not.  This is
    what the collect-all lint passes ({!Proxim_lint}) consume — unlike
    {!Design.create} they must see the whole broken file, not abort at
    the first structural error. *)

val parse_raw : Proxim_gates.Tech.t -> string -> raw
(** Scan the text without structural validation.  Never fails: problems
    are returned in [raw_errors]. *)

val parse :
  Proxim_gates.Tech.t -> string -> (string * Design.t, string) result
(** [parse tech text] returns [(design_name, design)] or a message with
    the offending line numbers — all syntax/arity errors are reported at
    once, newline-joined; structural errors from {!Design.create} keep
    that function's single-message form. *)

val parse_with_thresholds :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** {!parse} plus the [thresholds] directive, from one scan of the text.
    Records a ["netlist_text.parse"] trace span (category ["sta"]) around
    the scan and the {!Design.create} it makes. *)

val to_string : name:string -> Design.t -> string
(** Render a design back to the format; [parse] of the result round-trips
    (up to comments, whitespace and a [thresholds] directive). *)

(** Structural netlist lints — the collect-all counterpart of
    {!Proxim_sta.Design.create}.

    [Design.create] aborts on the first structural error with
    [Invalid_argument]; these passes instead analyze the whole
    {!Proxim_sta.Netlist_text.raw} form of a file — including one that
    does not parse completely — and report {e every} problem as a
    line-numbered diagnostic:

    - errors re-expressing the constructor's checks: syntax (PX100),
      duplicate cells (PX101), arity (PX102), double drivers (PX103),
      driven primary inputs (PX104), undriven nets (PX105), cycles
      (PX106), undriven primary outputs (PX107), missing design name
      (PX108);
    - warnings the constructor never looks at: unused cell outputs
      (PX110), unused primary inputs (PX111), fanout outliers (PX112),
      primary outputs unreachable from every primary input (PX113);
    - when the file carries a [thresholds] directive, the §2 threshold
      checks of {!Model_lint.check_thresholds} (PX001/PX003).

    A file with no PX1xx {e error}-severity diagnostics is accepted by
    {!Proxim_sta.Netlist_text.parse}. *)

type options = {
  fanout_limit : int;  (** PX112 fires above this many reader pins *)
}

val default_options : options
(** [{ fanout_limit = 8 }]. *)

val check_text :
  ?options:options ->
  ?file:string ->
  Proxim_gates.Tech.t ->
  string ->
  Diagnostic.t list
(** All diagnostics for one netlist text, parsed by
    [Netlist_text.parse_raw], in report order ({!Diagnostic.sort}). *)

(** On-disk persistence for characterized macromodel sets.

    Characterizing a gate costs thousands of transient analyses; a store
    lets a flow characterize once and ship the tables.  The format is a
    plain-text archive: named sections, each holding one {!Single} or
    {!Dual} model, separated by [%%] lines — diff-friendly and stable
    across versions of this library.

    A {!set} is the unit a timing flow consumes: everything known about
    one gate (its thresholds and any characterized single/dual tables),
    convertible to a {!Models.t} for the {!Proxim_core} algorithm. *)

type set = {
  gate_name : string;
  vil : float;
  vih : float;
  vdd : float;
  singles : Single.t list;
  duals : Dual.t list;
}

val characterize :
  ?taus:float array ->
  ?x_tau:float array ->
  ?x_sep:float array ->
  ?edges:Proxim_measure.Measure.edge list ->
  ?with_duals:bool ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  set
(** Build a complete set for the gate: one single-input model per
    (pin, edge) and — when [with_duals] (default true) — one dual-input
    model per (dominant pin, other pin, edge).  [edges] defaults to both
    directions.  This is the expensive call (minutes for a 3-input gate
    with duals; seconds without).  With [pool] the independent tables are
    characterized across the pool's domains; the resulting set is
    bit-identical to a serial run. *)

val to_models : Proxim_gates.Gate.t -> set -> Models.t
(** Wrap the set as the model interface the core algorithm consumes; the
    gate supplies the series/parallel topology for dominance decisions.
    Raises [Not_found] at query time for a (pin, edge) or pair that was
    not characterized. *)

val save : set -> string
val load : string -> set
(** Archive (de)serialization; [load (save s)] round-trips exactly.
    [load] raises [Failure] on malformed input. *)

val save_file : string -> set -> unit
val load_file : string -> set
(** File-level convenience wrappers ([Sys_error] on IO problems). *)

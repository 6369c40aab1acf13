(** Dual-input proximity macromodels [D^(2)] and [T^(2)] (paper §3,
    eqs 3.11–3.12).

    For two inputs switching in the same direction, with [i] the dominant
    input, the delay and output-transition ratios are three-argument
    functions of normalized temporal parameters only:

    {v Delta2/Delta1 = D2( tau_i/Delta1, tau_j/Delta1, s_ij/Delta1 )
       tau2/tau1     = T2( tau_i/tau1,   tau_j/tau1,   s_ij/tau1  ) v}

    Two realizations are provided:

    - {!oracle}: query the golden circuit simulator for each evaluation —
      this is exactly how the paper's §5 validation used HSPICE "as the
      macromodel for processing the dual-input case";
    - {!t}: a 3-D table on the normalized axes (monotone-cubic along the
      curved separation axis, linear across the slew axes), built once
      per (dominant pin, other pin, edge) — the deployable artifact whose
      cost Figure 4-2 accounts.  Tabulation and queries are clamped to
      the side of the dominance boundary where [dom] is genuinely
      dominant; see {!delay}. *)

val oracle :
  ?load:float ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  dom:int ->
  other:int ->
  edge:Proxim_measure.Measure.edge ->
  tau_dom:float ->
  tau_other:float ->
  sep:float ->
  Proxim_measure.Measure.observation
(** Simulate the two-input-switching case ([sep] is the separation from
    the dominant input's threshold crossing to the other's) and measure
    delay and output transition with respect to the dominant input. *)

type t
(** A tabulated dual-input macromodel for one (dom, other, edge) triple. *)

val dom : t -> int
val other : t -> int
val edge : t -> Proxim_measure.Measure.edge

val assist : t -> bool
(** Do the two switching transistors assist each other (parallel branches
    in the driving network) or gate each other (series stack)?  Decides
    on which side of the separation axis the proximity window closes. *)

val delay_grid : t -> Proxim_util.Interp.grid3
val trans_grid : t -> Proxim_util.Interp.grid3
(** The raw normalized ratio tables (axes [ln x1, ln x2, x3]) — exposed
    for the diagnostics layer ({!Proxim_lint}), which checks axis
    monotonicity, entry finiteness and window saturation on them. *)

val find :
  t list ->
  dom:int ->
  other:int ->
  edge:Proxim_measure.Measure.edge ->
  t
(** First matching table; raises [Not_found]. *)

val build :
  ?x_tau:float array ->
  ?x_sep:float array ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  single_dom:Single.t ->
  single_other:Single.t ->
  other:int ->
  t
(** Tabulate both ratio functions on normalized axes.  [x_tau] is the axis
    used for both normalized transition times (default: 7 log-spaced
    points over 0.25..16); [x_sep] the normalized-separation axis
    (default: 12 points over -3..1.5).  The dominant pin and edge come
    from [single_dom].  Each grid point triggers one transient analysis;
    a full table costs [2 * |x_tau|^2 * |x_sep|] runs — with [pool] they
    are fanned out across the pool's domains (bit-identical result). *)

val delay :
  t ->
  single_dom:Single.t ->
  single_other:Single.t ->
  tau_dom:float ->
  tau_other:float ->
  sep:float ->
  float
(** Predicted [Delta^(2)] (absolute, seconds) with respect to the dominant
    input: normalizes the query by [Delta^(1)] from [single_dom], looks up
    the tabulated ratio, and denormalizes.  Separations beyond the
    dominance boundary [Delta1_dom - Delta1_other] (where the other input
    would itself be dominant) are clamped to the boundary — the tabulated
    surface is only meaningful, and only built, on the valid side. *)

val out_transition :
  t ->
  single_dom:Single.t ->
  single_other:Single.t ->
  tau_dom:float ->
  tau_other:float ->
  sep:float ->
  float
(** Predicted [tau_out^(2)] (absolute, seconds). *)

val delay_ratio : t -> x1:float -> x2:float -> x3:float -> float
(** Raw normalized lookup [D^(2)(x1, x2, x3)] — exposed for tests and for
    the storage-complexity accounting. *)

val trans_ratio : t -> x1:float -> x2:float -> x3:float -> float

val save : t -> string
(** Serialize to the {!Store} text format ("dual-v1" section); exact
    round-trip through {!load}. *)

val load : string -> t
(** Parse a {!save}d model.  Raises [Failure] on malformed input. *)

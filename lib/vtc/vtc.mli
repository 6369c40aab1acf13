(** Voltage transfer curves and the paper's threshold-selection rule (§2).

    An n-input gate has [2^n - 1] VTCs, one per non-empty subset of
    switching inputs (the remaining inputs are held at sensitizing static
    levels).  Delay thresholds taken from the wrong member of this family
    can make measured delays negative; the paper's rule — take the
    {b minimum Vil} and the {b maximum Vih} over the whole family — makes
    [Vil < Vm < Vih] hold for every curve, so delay stays positive for any
    input situation. *)

type curve = {
  subset : int list;  (** switching pins, ascending *)
  vin : float array;  (** swept common input voltage *)
  vout : float array;  (** corresponding output voltage *)
  vil : float;  (** lower unity-gain point: dVout/dVin = -1, input low side *)
  vih : float;  (** upper unity-gain point *)
  vm : float;  (** switching threshold: Vout = Vin *)
}

val curve :
  ?points:int ->
  Proxim_gates.Gate.t ->
  subset:int list ->
  curve
(** DC-sweep the given subset of inputs together (the others pinned at
    their sensitizing levels) and extract the three characteristic
    voltages.  [points] is the sweep resolution (default 401).
    Raises [Invalid_argument] on an empty or out-of-range subset. *)

val family :
  ?points:int ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  curve list
(** All [2^n - 1] curves, ordered by subset (singletons first, then pairs,
    ... as generated by binary counting).  The curves are independent DC
    sweeps; with [pool] they are computed across the pool's domains, with
    the same order and bit-identical values as the serial run. *)

type thresholds = {
  vil : float;  (** chosen low threshold: min Vil over the family *)
  vih : float;  (** chosen high threshold: max Vih over the family *)
  vdd : float;
}

val choose : curve list -> thresholds
(** The paper's rule.  Requires a non-empty list; [vdd] is taken from the
    largest swept input value. *)

val thresholds :
  ?points:int ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  thresholds
(** [choose (family gate)] with a smaller default resolution on large
    fan-ins (the full family is exponential in fan-in). *)

val slew_scale : thresholds -> float
(** [vdd / (vih - vil)]: measured output transitions span [vil..vih]
    only, while macromodels consume full-swing ramp widths, so an output
    transition is scaled by this factor when it becomes the next stage's
    input slew. *)

val pp_thresholds : Format.formatter -> thresholds -> unit
(** One-line [Vil= Vih= Vdd=] rendering, shared by the CLI and the lint
    diagnostics. *)

val pp_curve : Format.formatter -> curve -> unit
(** One-line [subset: Vil Vm Vih] summary (the rows of Figure 2-1(c)). *)

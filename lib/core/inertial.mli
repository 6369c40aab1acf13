(** Inertial delay as a proximity effect (paper §6).

    When two inputs of a gate switch in opposite directions — one
    releasing the network that holds the resting output level, the other
    enabling the opposing network — a glitch appears at the output whose
    magnitude depends on the separation between the transitions.  Only
    when the glitch extreme passes the measurement threshold has the
    output "completed a transition"; the minimum separation for which
    that happens {e is} the inertial delay of the gate.

    Glitch polarity follows the output's boolean resting level (computed
    from the pull-down network with the fall pin high, the rise pin low
    and the other pins at their non-controlling levels): a NAND-like
    gate rests high and glitches downward (measured against [Vil]); a
    NOR-like gate rests low and glitches upward (against [Vih]). *)

type glitch = {
  v_extreme : float;  (** most extreme output voltage reached, V *)
  t_extreme : float;  (** when it is reached, s *)
  full_swing : bool;
      (** whether the output completed a transition (the extreme passed
          the relevant measurement threshold) *)
}

val rests_high :
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  fall_pin:int ->
  rise_pin:int ->
  bool
(** The output's boolean resting level for the opposite-transition
    stimulus: pull-down conduction with [fall_pin] high, [rise_pin] low
    and the other pins at their non-controlling levels.  [true] (NAND
    family) means the glitch dips downward from Vdd; [false] (NOR
    family) means it pokes upward from ground. *)

val glitch :
  ?load:float ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  fall_pin:int ->
  rise_pin:int ->
  tau_fall:float ->
  tau_rise:float ->
  sep:float ->
  glitch
(** Simulate the opposite-transition pair on the golden simulator.
    [sep] is the rise-pin threshold crossing minus the fall-pin
    threshold crossing (negative = the rising input comes first).
    For a gate resting high [v_extreme] is the output minimum and
    [full_swing] tests [v_extreme <= Vil]; for a gate resting low it is
    the maximum, tested against [Vih]. *)

val minimum_valid_separation :
  ?load:float ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  fall_pin:int ->
  rise_pin:int ->
  tau_fall:float ->
  tau_rise:float ->
  float
(** The inertial delay: the separation at which the glitch magnitude
    exactly reaches the measurement threshold, found by bisection over a
    search window.  For a gate resting high the glitch completes at or
    below the root (the rising input acting first kills the resting
    level; the window is [-3 ns, +1 ns]); for a gate resting low it
    completes at or above it (window [-1 ns, +3 ns]).  Raises [Failure]
    when the glitch never/always completes inside the window. *)

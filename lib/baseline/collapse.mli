(** Collapse-to-inverter baselines (the prior art the paper improves on:
    references \[8\] Jun et al. and \[13\] Nabavi-Lishi & Rumin).

    Both methods reduce the multi-input gate to an {e equivalent inverter}
    by series/parallel combination of transistor strengths, derive an
    {e equivalent input waveform} from the switching inputs, and then
    evaluate the inverter's response — here on the golden simulator, so
    the baselines are given their best possible inverter evaluation and
    the comparison isolates the {e collapsing} error the paper criticizes.

    Differences between the two variants:

    - {!Jun}: the equivalent waveform is the single {e critical} input's
      waveform — the earliest-crossing input when the switching
      transistors end up in parallel (they assist), the latest when in
      series (the stack waits for the last one).  Output loading and the
      other inputs' transition times are ignored, which is precisely the
      weakness \[13\] points out.
    - {!Nabavi_lishi}: the equivalent waveform blends the in-window
      switching inputs (average transition time, strength-weighted
      crossing), which tracks loading and slew interaction better. *)

type variant = Jun | Nabavi_lishi

type failure =
  | Never_switched
      (** the collapsed equivalent inverter's output never crossed the
          delay threshold within the simulated horizon *)
  | Transition_incomplete
      (** the output crossed the delay threshold but never completed a
          full [Vil..Vih] transition *)

exception Prediction_failed of { gate : string; failure : failure }
(** Raised by {!predict} when the equivalent-inverter simulation produces
    no measurable response.  Carries the gate name so callers (and the
    lint layer) can report the failure with context; a printer is
    registered, so an uncaught exception still renders a readable
    message. *)

type prediction = {
  out_cross : float;
      (** absolute time at which the output crosses the delay threshold *)
  out_transition : float;  (** predicted output transition time, s *)
  wn_eq : float;  (** equivalent inverter NMOS width, m *)
  wp_eq : float;  (** equivalent inverter PMOS width, m *)
  ref_pin : int;
      (** the critical input the prediction is referenced to: the
          earliest-crossing switching pin when the switching transistors
          assist each other, the latest otherwise.  For {!Jun} this is the
          pin whose waveform became the equivalent waveform; for
          {!Nabavi_lishi} the blend is anchored to it.  The STA layer uses
          it as the path predecessor of the collapsed-baseline mode. *)
}

val equivalent_widths :
  Proxim_gates.Gate.t ->
  switching:int list ->
  edge:Proxim_measure.Measure.edge ->
  float * float
(** [(wn_eq, wp_eq)] of the collapsed inverter: series chains combine as
    the harmonic sum of widths, parallel branches as the plain sum;
    non-switching transistors count as conducting or open according to
    their sensitizing level. *)

val predict :
  ?load:float ->
  variant ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  events:Proxim_core.Proximity.event list ->
  prediction
(** Collapse, build the equivalent waveform, simulate the equivalent
    inverter under the gate's load, and measure with the multi-input
    gate's thresholds.  All events must share one edge direction
    ([Invalid_argument] otherwise); raises {!Prediction_failed} when the
    equivalent inverter produces no measurable response. *)

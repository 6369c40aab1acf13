(** The multi-input temporal-proximity algorithm (paper §3–§4).

    Given a set of same-direction input transitions on a multi-input gate,
    compute the gate delay and output transition time by repeated
    application of the dual-input proximity macromodel — without
    collapsing the gate to an equivalent inverter.

    The steps follow Figure 4-1 of the paper:

    + order the inputs by {e dominance}: input [i] precedes [j] when its
      would-be single-input output crossing [t_i + Delta_i^(1)] comes
      first (equivalently [s_ij > Delta_i^(1) - Delta_j^(1)]);
    + seed the cumulative delay with the most dominant input's
      single-input delay;
    + for each further input inside the proximity window, represent the
      inputs processed so far by an {e equivalent waveform} — the dominant
      input time-shifted so that its single-input response crosses the
      measurement threshold exactly when the cumulative response would
      (eq 4.3) — and apply the dual-input macromodel to the pair
      (eqs 4.4–4.5);
    + stop at the first input whose separation exceeds the current
      cumulative delay (the proximity window);
    + optionally add the bounded, linearly decaying correction term that
      repairs the two known failure modes (§4: simultaneous identical
      inputs; very late dominant input). *)

type event = {
  pin : int;
  edge : Proxim_measure.Measure.edge;
  tau : float;  (** full-swing input transition time, s *)
  cross_time : float;  (** input-threshold crossing time, s *)
}

type result = {
  ref_pin : int;  (** the most dominant input — delay is measured from it *)
  ref_cross : float;  (** its threshold-crossing time *)
  delay : float;  (** gate delay with respect to [ref_pin], s *)
  out_transition : float;  (** output transition time, s *)
  used_inputs : int;  (** how many inputs fell inside the proximity window *)
}

val dominance_order :
  Proxim_macromodel.Models.t -> event list -> event list
(** Sort by would-be output crossing [cross_time + Delta^(1)], most
    dominant first: ascending for falling inputs (the parallel conducting
    transistors make the combined response track the earliest would-be
    crossing) and descending for rising inputs (the series stack waits
    for the latest).  Both directions share the paper's crossover point
    [s_ij = Delta_i^(1) - Delta_j^(1)].  Raises [Invalid_argument] on an
    empty list or on mixed edge directions. *)

type correction = {
  delay_err : float;
      (** signed error (golden − algorithm) of the delay for the
          all-inputs-simultaneous near-step case, s *)
  trans_err : float;  (** same for the output transition time, s *)
}

val calibrate_correction :
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  Proxim_macromodel.Models.t ->
  edge:Proxim_measure.Measure.edge ->
  correction
(** Measure the worst case the algorithm gets wrong — a near-step
    transition (20 ps) applied to all inputs at the same time — on the
    golden simulator, run the (uncorrected) algorithm on the same
    stimulus, and record the signed differences. *)

type trans_composition =
  | Additive
      (** compose output transition times like delays (eq 4.5 verbatim):
          [t^(i) = t^(i-1) + (t2 - t1)] *)
  | Rate_additive
      (** compose transition {e rates}:
          [1/t^(i) = 1/t^(i-1) + 1/t2 - 1/t1].  Physically motivated —
          conduction paths superpose their currents, so slews add as
          rates — and measurably tighter on three-input workloads (see
          the ablation bench).  The two coincide for two inputs. *)

(** {2 The array kernel}

    {!dominance_order} and {!evaluate} are thin wrappers over one fold
    that reads its inputs from arrays and writes into caller-owned
    scratch, so a sweep that reuses one {!scratch} per worker times a
    cell without allocating for the fold itself (the model queries
    still box their floats). *)

type scratch = {
  key : float array;
      (** [key.(k)] is input [k]'s would-be output crossing
          [cross.(k) + Delta_k^(1)]: the dominance key, and the would-be
          response a path report gives a losing input *)
  d1 : float array;  (** [Delta_k^(1)], queried once per input *)
  order : int array;
      (** input indices, most dominant first (stable: ties keep the
          given order) *)
  result : float array;
      (** [result.(0)] the delay with respect to the dominant input,
          [result.(1)] the output transition time, s *)
  mutable dominant : int;  (** index of the dominant input, [order.(0)] *)
  mutable used : int;  (** inputs inside the proximity window *)
}

val scratch : int -> scratch
(** Scratch for folds of up to that many inputs. *)

val fold :
  ?correction:correction ->
  ?trans_composition:trans_composition ->
  Proxim_macromodel.Models.t ->
  scratch ->
  edge:Proxim_measure.Measure.edge ->
  n:int ->
  pins:int array ->
  cross:float array ->
  taus:float array ->
  unit
(** Figure 4-1 over the first [n] entries (at least one) of [pins],
    [cross] (threshold-crossing times) and [taus] (transition times),
    every input switching with [edge]: fills every field of the scratch.
    The same expressions as {!evaluate}, so the same bits: [evaluate]
    is this fold over its events in list order. *)

val evaluate :
  ?correction:correction ->
  ?trans_composition:trans_composition ->
  Proxim_macromodel.Models.t ->
  event list ->
  result
(** Run the algorithm.  All events must share one edge direction; at
    least one event is required.  The correction term (default
    zero) is applied at full weight when the last in-window
    input is not later than the dominant one, decaying linearly to zero
    as its separation approaches the cumulative delay (§4). *)

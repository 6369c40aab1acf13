(** Delay, transition-time and separation measurement (the paper's §2
    conventions), stimulus construction, and the golden-reference runner
    that plays the role HSPICE played in the paper.

    Measurement conventions, for the chosen threshold pair
    [(Vil, Vih)] ({!Proxim_vtc.Vtc.thresholds}):

    - a {b rising input} is timed at its [Vil] crossing; the (falling)
      output is timed at its [Vih] crossing;
    - a {b falling input} is timed at its [Vih] crossing; the (rising)
      output is timed at its [Vil] crossing;
    - output transition time is measured between [Vil] and [Vih];
    - the separation [s_ij] between two inputs is the difference of their
      input-threshold crossing times, [t_j - t_i] (positive when [j]
      switches after [i]). *)

type edge = Rise | Fall

val opposite : edge -> edge

val edge_name : edge -> string
(** ["rise"] or ["fall"]: the one spelling of an edge in reports, store
    files and the serve protocol. *)

val edge_of_name : string -> edge option
(** The inverse of {!edge_name}; [None] for any other string. *)

type stimulus = {
  edge : edge;
  tau : float;  (** full-swing ramp width (the paper's "fall time"), s *)
  cross_time : float;  (** time at which the input crosses its threshold *)
}
(** A single input transition, positioned by its measurement-threshold
    crossing time (which is how the paper specifies separations). *)

val input_threshold : Proxim_vtc.Vtc.thresholds -> edge -> float
(** [Vil] for rising inputs, [Vih] for falling ones. *)

exception Unsimulatable of string
(** A stimulus outside the golden simulator's input domain, or an output
    that never completes the measured transition.  Raised before any
    transient runs when a slew is below 1 fs or an input ramp ends more
    than 10 us into the simulation (the transient's cost follows its
    stop time: 5-10 us already take about a second).  A printer is
    registered. *)

val ramp_of_stimulus :
  Proxim_vtc.Vtc.thresholds -> stimulus -> Proxim_waveform.Pwl.t
(** The full-swing PWL ramp realizing the stimulus: swings rail-to-rail
    over [tau] seconds, positioned so the input threshold is crossed at
    [cross_time].  Raises {!Unsimulatable} when [tau] is below 1 fs or
    the ramp ends past 10 us. *)

val input_cross_time :
  Proxim_vtc.Vtc.thresholds -> Proxim_waveform.Pwl.t -> edge -> float option
(** First threshold crossing of an arbitrary input waveform. *)

val separation :
  Proxim_vtc.Vtc.thresholds ->
  i:Proxim_waveform.Pwl.t * edge ->
  j:Proxim_waveform.Pwl.t * edge ->
  float option
(** [s_ij]: crossing time of [j] minus crossing time of [i]. *)

val output_delay :
  Proxim_vtc.Vtc.thresholds ->
  input_edge:edge ->
  input_cross:float ->
  output:Proxim_waveform.Pwl.t ->
  float option
(** Delay from a reference input (timed at [input_cross]) to the first
    output crossing of the matching output threshold in the matching
    direction ([Vih] falling for rising inputs, [Vil] rising for falling
    inputs), looking only at crossings after the start of the waveform. *)

val output_transition_time :
  Proxim_vtc.Vtc.thresholds ->
  output_edge:edge ->
  output:Proxim_waveform.Pwl.t ->
  float option
(** Transition time of the output between [Vil] and [Vih]. *)

(** {1 Golden-reference simulation} *)

type run = {
  instance : Proxim_gates.Gate.instance;
  result : Proxim_spice.Transient.result;
  out_wave : Proxim_waveform.Pwl.t;
  in_waves : Proxim_waveform.Pwl.t array;
}

val simulate :
  ?load:float ->
  ?t_stop:float ->
  Proxim_gates.Gate.t ->
  inputs:Proxim_waveform.Pwl.t array ->
  run
(** Run the circuit simulator on the gate with the given input waveforms.
    [t_stop] defaults to the last input breakpoint plus a settling margin
    comfortably larger than any gate delay at the default load. *)

type observation = {
  delay : float;  (** pin-to-output delay w.r.t. the reference input, s *)
  out_transition : float;  (** output transition time, s *)
}

val single_input :
  ?load:float ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  pin:int ->
  edge:edge ->
  tau:float ->
  observation
(** The paper's single-input experiment: [pin] gets a full-swing ramp of
    width [tau]; every other input is pinned at its sensitizing level.
    Returns the measured delay [Delta^(1)] and output transition
    [tau_out^(1)].  Raises {!Unsimulatable} on a stimulus outside the
    simulator's domain, or if the output never completes its transition
    (which indicates a broken setup, not a physical outcome). *)

val multi_input :
  ?load:float ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  stimuli:(int * stimulus) list ->
  ref_pin:int ->
  observation
(** The general proximity experiment: each listed pin gets its stimulus,
    unlisted pins are pinned at sensitizing levels, and the delay is
    measured with respect to [ref_pin] (which must be listed).  All
    switching stimuli must share the same edge direction. *)

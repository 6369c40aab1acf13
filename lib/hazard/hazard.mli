(** Whole-design static glitch/hazard analysis via the paper's §6
    minimum-separation rule.

    The §6 experiment shows inertial delay is a proximity phenomenon:
    a falling+rising input pair produces an output glitch that completes
    a transition only when the pair's oriented separation reaches the
    gate's minimum separation.  This module lifts that rule to a
    dataflow analysis over the timing-graph IR:

    {b Forward pass}, {!Proxim_verify.Verify.flow}, shared with the
    never-proximate classification (this module re-exports its window
    types): every net carries an optional rise and fall window
    (arrival / slew interval boxes) and three-valued resting levels.
    Same-edge input groups propagate through the interval transfer;
    opposing-edge pairs are tested against a §6 {!rule}, classifying
    each window-bearing cell {!Never} / {!Filtered} / {!May_glitch}.  A
    filtered static hazard with definite levels {e kills} the output
    windows — the §6 filter proving quiet nets downstream.

    {b Backward pass}.  Required times propagate from the
    primary outputs against lower-bound single-input delays, so each
    may-glitch cell gets an interval slack and the endpoints its glitch
    can reach.

    {b Semantic model} (documented approximations): quiet inputs sit at
    the consuming gate's non-controlling level (the characterization
    convention shared with [Sta]/[Verify]); a mixed-edge cell is
    decomposed into independent same-edge groups plus the §6 pairwise
    opposing rule; filtered excursions are timing-neutral (§6 models
    completion, not the residual perturbation).  Gates are monotone
    series/parallel networks, so same-edge groups alone never glitch. *)

module Interval = Proxim_verify.Interval

type awin = Proxim_verify.Verify.awin = {
  w_time : Interval.t;
  w_slew : Interval.t;
}

type logic = Proxim_gates.Ternary.logic = L0 | L1 | LX

type net_state = Proxim_verify.Verify.net_state = {
  ns_rise : awin option;
  ns_fall : awin option;
  ns_init : logic;
  ns_final : logic;
}

type verdict = Proxim_verify.Verify.verdict = Never | Filtered | May_glitch

val verdict_name : verdict -> string
(** ["never"] / ["filtered"] / ["may-glitch"]. *)

type pair = Proxim_verify.Verify.pair = {
  hp_fall_pin : int;
  hp_rise_pin : int;
  hp_starter_edge : Proxim_measure.Measure.edge;
  hp_sep : Interval.t;
  hp_min_sep : Interval.t;
  hp_filtered : bool;
  hp_margin : float;
}

type cell_report = {
  hc_name : string;
  hc_gate : string;
  hc_verdict : verdict;
  hc_pairs : pair list;
  hc_glitch : Interval.t option;
      (** excursion-time window of the possible glitch ([May_glitch]
          only) *)
  hc_reaches : string list;
      (** primary outputs in the cell's fanout cone *)
  hc_slack : Interval.t option;
      (** required-time slack of the glitch at the cell output:
          [required - glitch time] ([May_glitch] with a reachable
          endpoint only) *)
  hc_observable : bool;
      (** the glitch can reach an endpoint within its observability
          window ([hi slack >= 0]) — the PX402 trigger *)
  hc_quiet : bool;
      (** sound for {!quiet_mask}: every admissible concrete run gives
          this cell at most one switching input, or a same-edge group
          with a provably dominant input *)
}

type t
(** A completed hazard analysis. *)

(** {1 The §6 rule} *)

type rule = Proxim_verify.Verify.rule

val model_rule : rule
(** The default, {!Proxim_verify.Verify.model_rule}. *)

val inertial_rule :
  ?load:float ->
  thresholds:Proxim_vtc.Vtc.thresholds ->
  unit ->
  rule
(** The golden-simulator rule: bisect
    {!Proxim_core.Inertial.minimum_valid_separation} at the corners of
    the tau box and widen the observed spread (the
    [Models.delay1_bounds] sampling idiom).  Bisections are memoized per
    (gate, pins, taus).  Orientations that disagree with the gate's
    physical resting polarity, and same-pin pulse pairs (which the
    two-pin simulation cannot drive), fall back conservatively — the
    former never complete, the latter use {!model_rule}.  When the
    bisection cannot bracket, a probe at the favorable end of the search
    window decides between never-completes and always-completes. *)

(** {1 Analysis} *)

val analyze :
  ?mode:Proxim_sta.Sta.mode ->
  ?filter_margin:float ->
  ?required:float ->
  ?rule:rule ->
  models:(Proxim_sta.Design.cell -> Proxim_macromodel.Models.t) ->
  thresholds:Proxim_vtc.Vtc.thresholds ->
  Proxim_sta.Design.t ->
  pi:Proxim_verify.Verify.pi_event list ->
  t
(** The forward edge-pair-window pass ({!Proxim_verify.Verify.flow}),
    then this module's view: the backward required-time pass, the
    endpoint reachability of the may-glitch cells and the reports.

    [pi] events may mix edges freely (unlike [Sta]/[Verify]); two events
    on one net give it both windows (a pulse).  Events on unknown nets
    are inert; events on cell-driven nets raise [Invalid_argument], as
    does [Collapsed] mode.  [mode] (default [Proximity]) selects the
    same-edge group transfer.  [filter_margin] (default 25 ps) is the
    PX403 band: filtered pairs clearing the threshold by less are
    reported.  [required] is the primary-output required time for the
    backward pass; it defaults to the latest upper arrival bound in the
    design (every reachable glitch observable).  [rule] defaults to
    {!model_rule}. *)

val cell_report : t -> cell:string -> cell_report option
(** [None] for unknown or windowless cells. *)

val cells : t -> cell_report list
(** Every window-bearing cell's report, topological order. *)

val net_state : t -> net:string -> net_state option

val unconstrained_pis : t -> string list
(** Primary inputs carrying no event whose fanout cone contains a
    window-bearing multi-input cell — the PX404 trigger (an event there
    could create an opposing pair this analysis has not seen). *)

type summary = {
  total_cells : int;
  classified : int;  (** window-bearing cells *)
  never : int;
  filtered : int;
  may_glitch : int;
  observable : int;  (** may-glitch cells whose glitch reaches a PO *)
}

val summary : t -> summary

(** {1 Consumers} *)

val quiet_mask : t -> bool array
(** The quiet source for {!Proxim_sta.Prune.make}'s [~quiet], in the
    mold of [Verify.prune_mask] (indexed by the design's
    {!Proxim_timing.Graph} cell id): [true] for cells that in {e every}
    admissible concrete run (primary-input events inside the analyzed
    windows) have at most one switching input, or a same-edge input
    group with a provably dominant input — exactly the cases where the
    pruned fast path reproduces the full fold bit-for-bit — and for
    cells no window reaches at all, which never switch. *)

type refinement = { refined_pairs : int; refined_cells : int }
(** How many opposing pairs a {!refine} pass discarded and how many
    cells thereby lost their [May_glitch] verdict. *)

val refine :
  t ->
  impossible:(cell:string -> a:int -> b:int -> bool) ->
  t * refinement
(** Sharpen the verdicts with a static-sensitization oracle (see
    [Proxim_sense]): an opposing-edge pair whose two pins the oracle
    proves can never both carry events under any consistent logic
    assignment is discarded, and the cell's verdict is recomputed from
    the surviving pairs ([Never] when none remain, [Filtered] when all
    survivors are filtered).  Same-pin pulse pairs are always kept — a
    pulse is not a two-frame value change, so the oracle has nothing
    sound to say about it.  A purely re-labeling post-pass: the window
    dataflow, {!net_state} and {!quiet_mask} are untouched (the mask's
    STA fast-path contract rests on the timing analysis alone), so a
    refined analysis stays conservative downstream.  Reporting
    ({!cells}, {!summary}, {!check}, {!report_text}) reflects the
    refined verdicts. *)

val check : ?file:string -> t -> Proxim_lint.Diagnostic.t list
(** The PX4xx findings, sorted: [PX401] per may-glitch cell (its
    governing pair's separation vs the minimum), [PX402] per observable
    may-glitch cell (ranked by slack in the message), [PX403] per
    filtered pair inside the widening band, [PX404] per sensitive quiet
    primary input. *)

val report_text : t -> string
(** Human summary: verdict counts, then may-glitch cells ranked by
    endpoint slack. *)

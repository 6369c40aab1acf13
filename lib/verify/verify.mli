(** Static verification of proximity-delay analyses by interval abstract
    interpretation over the timing-graph IR, and the one forward pass the
    hazard analysis shares.

    Where {!Proxim_sta.Sta} propagates one concrete event per net, this
    module propagates {e intervals} of arrival times and transition
    times: each primary input carries an uncertainty window (default
    ±0), and every derived quantity — single-input would-be responses,
    dominance separations, cumulative proximity delays, composed output
    transitions — is bounded conservatively using the sampled interval
    images of the macromodels
    ({!Proxim_macromodel.Models.delay1_bounds} and friends).

    {b One pass, two views.}  {!flow} is the one topological interval
    pass.  Nets carry a rise and a fall window plus resting levels; each
    cell's same-edge input groups get their abstract inputs computed
    once, and from them the group's output window, the never-proximate
    classification, the §6 opposing pairs and the quiet verdict.  This
    module owns the pass and its single-edge view ({!analyze});
    [Proxim_hazard] owns the mixed-edge view and re-exports the window
    types.  The single-edge view gives:

    - {b Reachability}: a sound arrival/slew interval per switching net
      ({!net_arrival}) — every concrete STA whose primary-input events
      stay inside their windows lands inside these bounds.
    - {b Classification}: each switching multi-input cell, and each
      ordered pair of its switching inputs, is classified
      {!Never_proximate} / {!Always_proximate} / {!May_be_proximate}
      against the paper's proximity window ([Delta^(1) + tau_out^(1)] of
      the dominant input) and dominance crossover
      [s_ab = Delta_a - Delta_b].  The never-proximate verdicts justify
      {!prune_mask}.
    - {b Diagnostics}: {!check} renders the PX3xx verification findings
      ({!Proxim_lint.Diagnostic.PX301}..[PX304]) the same way
      [Proxim_lint] renders its static netlist findings.

    The abstract transfer functions are exact on degenerate (±0-window)
    inputs — in that case the proximity transfer simply runs
    {!Proxim_core.Proximity.evaluate}, so the interval analysis
    reproduces the concrete STA bit-for-bit. *)

(** {1 Inputs} *)

type pi_event = {
  ev_net : string;
  ev_edge : Proxim_measure.Measure.edge;
  ev_time : Interval.t;  (** threshold-crossing time window, s *)
  ev_tau : Interval.t;  (** full-swing transition-time window, s *)
}

val of_sta_event :
  ?time_window:float ->
  ?tau_window:float ->
  string * Proxim_sta.Sta.arrival ->
  pi_event
(** Widen a concrete primary-input event into an interval event:
    [time ± time_window] and [slew ± tau_window] (both default [0.]; the
    slew interval is floored at a tiny positive value).  Raises
    [Invalid_argument] on a negative window. *)

exception Not_primary_input of { flag : string; net : string }
(** A stimulus spec named something that is not a primary-input net of
    the design — [flag] is the option that named it ([--pi],
    [--pi-window], [--const]).  A user typo the CLI maps to exit status
    2.  A printer is registered. *)

val validate_pi_nets : flag:string -> Proxim_sta.Design.t -> string list -> unit
(** Raise {!Not_primary_input} on the first name that is not a
    primary-input net (unknown entirely, or driven by a cell).  The
    analyses themselves keep treating unknown stimulus nets as inert;
    this is the check the CLI runs on every named net before any
    analysis. *)

(** {1 Results} *)

type aarrival = {
  a_time : Interval.t;
  a_slew : Interval.t;
  a_edge : Proxim_measure.Measure.edge;
}
(** The abstract counterpart of {!Proxim_sta.Sta.arrival}. *)

type classification = Never_proximate | Always_proximate | May_be_proximate
(** Whether a cell (or an input pair) can exercise the dual-macromodel
    proximity path under the given primary-input windows:

    - [Never_proximate]: provably not — every admissible concrete run
      has a unique dominant input whose transition window excludes all
      other inputs, so the §3 fold degenerates to the dominant's
      single-input response.  Sound for pruning.
    - [Always_proximate]: provably yes in every admissible run (e.g. a
      gating-direction cell with two switching inputs, or an assisting
      pair certainly inside the dominant's window).
    - [May_be_proximate]: neither bound could be established. *)

val classification_name : classification -> string
(** ["never-proximate"] / ["always-proximate"] / ["may-be-proximate"]. *)

type pair_info = {
  pr_a : int;  (** pin id of input [a] *)
  pr_b : int;  (** pin id of input [b] *)
  pr_class : classification;
  pr_straddles : bool;
      (** the separation interval straddles the dominance crossover:
          both dominance orders are admissible (the would-be response
          intervals intersect) — the PX301 trigger *)
  pr_separation : Interval.t;  (** [t_b - t_a], s *)
  pr_crossover : Interval.t;  (** [s_ab = Delta_a - Delta_b], s *)
}

type cell_info = {
  ci_name : string;
  ci_gate : string;
  ci_edge : Proxim_measure.Measure.edge;  (** input edge direction *)
  ci_switching : int list;  (** switching input pins, pin order *)
  ci_assist : bool;
      (** the switching inputs assist (earliest-dominant direction) *)
  ci_class : classification;
  ci_pairs : pair_info list;  (** unordered switching input pairs *)
  ci_neg_delay : (int * Interval.t) list;
      (** switching pins whose single-input delay interval dips below
          zero — the PX303 trigger *)
  ci_tau_escape : (int * Interval.t * (float * float)) list;
      (** [(pin, slew interval, characterized tau span)] for reachable
          slews escaping a table-backed model's coverage — the PX302
          trigger *)
}

(** {1 The forward pass} *)

type awin = {
  w_time : Interval.t;  (** threshold-crossing window, s *)
  w_slew : Interval.t;  (** full-swing transition-time window, s *)
}

type logic = Proxim_gates.Ternary.logic = L0 | L1 | LX

type net_state = {
  ns_rise : awin option;
  ns_fall : awin option;
  ns_init : logic;  (** boolean level before any event *)
  ns_final : logic;  (** boolean level after all events settle *)
}

type verdict = Never | Filtered | May_glitch
(** The §6 lattice for a window-bearing cell: [Never], no opposing-edge
    input pair can form; [Filtered], every pair provably misses the
    minimum separation, so the inertial filter absorbs the glitch;
    [May_glitch], some pair may reach it. *)

type pair = {
  hp_fall_pin : int;
  hp_rise_pin : int;
  hp_starter_edge : Proxim_measure.Measure.edge;
      (** the edge that starts the excursion in the governing
          orientation (Rise for a rest-high output, Fall for rest-low) *)
  hp_sep : Interval.t;  (** oriented separation [t_ender - t_starter], s *)
  hp_min_sep : Interval.t;  (** §6 minimum-separation bounds, s *)
  hp_filtered : bool;  (** [hi hp_sep < lo hp_min_sep] *)
  hp_margin : float;
      (** [lo hp_min_sep - hi hp_sep], positive iff filtered — the PX403
          band test *)
}
(** One opposing-edge input pair (one pin on both sides when its net
    carries a pulse).  An unknown output resting level evaluates both
    orientations and keeps the least-filtered one. *)

type rule =
  Proxim_sta.Design.cell ->
  Proxim_macromodel.Models.t ->
  starter_pin:int ->
  starter_edge:Proxim_measure.Measure.edge ->
  ender_pin:int ->
  tau_starter:float * float ->
  tau_ender:float * float ->
  float * float
(** Bounds on the minimum oriented separation [sigma_min], conservative
    over both tau boxes: the glitch started by [starter_pin] and
    recovered by [ender_pin] completes exactly when
    [t_ender - t_starter >= sigma_min]. *)

val model_rule : rule
(** The macromodel surrogate,
    {!Proxim_macromodel.Models.min_separation_bounds}: microsecond-cheap
    and defined for every model kind. *)

type fwd = {
  f_cell : Proxim_sta.Design.cell;
  f_info : cell_info option;
      (** the single-edge classification with its PX302/PX303 triggers;
          [None] when both edges reach the cell *)
  f_delays : (int * Interval.t) list;
      (** each window-bearing input's pin and single-input delay bounds *)
  f_pairs : pair list;
  f_verdict : verdict;
  f_glitch : Interval.t option;  (** excursion window ([May_glitch]) *)
  f_quiet : bool;
      (** every admissible run gives the cell one switching input, or
          one same-edge group with a provably dominant input *)
}
(** One window-bearing cell's forward result.  Each same-edge input
    group's abstract inputs are computed once and give its output
    window, the classification, the opposing pairs and the quiet
    verdict. *)

type flow = {
  fl_design : Proxim_sta.Design.t;
  fl_mode : Proxim_sta.Sta.mode;
  fl_nets : net_state option array;  (** by net id, after §6 refinement *)
  fl_cells : fwd option array;  (** by cell id, window-bearing only *)
  fl_unconstrained : string list;
      (** eventless primary inputs whose fanout cone holds a
          window-bearing multi-input cell — the PX304/PX404 trigger *)
}

val flow :
  ?mode:Proxim_sta.Sta.mode ->
  ?rule:rule ->
  models:(Proxim_sta.Design.cell -> Proxim_macromodel.Models.t) ->
  thresholds:Proxim_vtc.Vtc.thresholds ->
  Proxim_sta.Design.t ->
  pi:pi_event list ->
  flow
(** The pass (default mode [Proximity], default [rule] {!model_rule}).
    Edges may mix; several events on one net hull one edge's windows,
    and two edges make a pulse.  A filtered static hazard with definite
    levels kills the output windows.  Events on unknown nets are inert;
    events on cell-driven nets raise [Invalid_argument], as does
    [Collapsed] mode (no interval semantics). *)

(** {1 Analysis} *)

type t
(** A completed verification: per-net abstract arrivals, per-cell
    classifications, and the quiet-PI sensitivity list. *)

val analyze :
  ?mode:Proxim_sta.Sta.mode ->
  models:(Proxim_sta.Design.cell -> Proxim_macromodel.Models.t) ->
  thresholds:Proxim_vtc.Vtc.thresholds ->
  Proxim_sta.Design.t ->
  pi:pi_event list ->
  t
(** {!flow}, then its single-edge view: each window-bearing cell's
    classification, each net's one window as its arrival.  As in
    {!Proxim_sta.Sta.analyze}, the last event naming a net wins and
    events naming nets unknown to the design are ignored; events on
    cell-driven nets raise [Invalid_argument], as does [Collapsed] mode,
    and a cell whose inputs carry both edges raises
    {!Proxim_sta.Sta.Mixed_input_edges} (the first in topological
    order, as the concrete engines do).

    In [Classic] mode the pass bounds the latest single-input response;
    classifications are trivially [Never_proximate] (the mode never
    consults dual models) and {!prune_mask} is constant [false]. *)

val net_arrival : t -> net:string -> aarrival option
(** The abstract arrival of a net; [None] for unknown or quiet nets. *)

val cell_info : t -> cell:string -> cell_info option
(** Per-cell verdict; [None] for unknown or non-switching cells. *)

val unconstrained_pis : t -> string list
(** Primary inputs that carry no event but feed a switching multi-input
    cell — the PX304 trigger (the analysis assumed them quiet). *)

type summary = {
  total_cells : int;
  switching_cells : int;
  never : int;
  always : int;
  may : int;
}

val summary : t -> summary
(** Classification counts over the switching cells. *)

(** {1 Consumers} *)

val prune_mask : t -> bool array
(** The never-proximate source for {!Proxim_sta.Prune.make}'s
    [~never_proximate], indexed by the design's
    {!Proxim_timing.Graph} cell id: [true] exactly for cells classified
    {!Never_proximate} by a [Proximity]-mode verification (all [false]
    for other modes).
    Only valid while every primary-input event stays inside the windows
    {!analyze} was run with.  Always computed from the {e timing-pass}
    classifications: {!refine} never widens this mask, because the STA
    fast path is bit-identical only for cells whose §3 fold provably
    degenerates on timing grounds — a logic-refined Never is a false
    path, not a degenerate fold. *)

type refinement = { refined_pairs : int; refined_cells : int }
(** How many pair / cell verdicts a {!refine} pass converted to
    {!Never_proximate} — the May-to-Never conversion rate's numerator. *)

val refine :
  t ->
  unsensitizable:(cell:string -> a:int -> b:int -> bool) ->
  t * refinement
(** Sharpen the classifications with a static-sensitization oracle
    (see [Proxim_sense]): a pair the oracle proves can never have both
    pins switching under any consistent logic assignment is converted to
    {!Never_proximate}; a cell all of whose pairs become never-proximate
    follows, and an [Always_proximate] verdict resting on a dead pair
    weakens to {!May_be_proximate}.  Reporting ({!cell_info}, {!summary},
    {!check}) reflects the refined verdicts; {!prune_mask} deliberately
    does not (see there). *)

val check : ?file:string -> t -> Proxim_lint.Diagnostic.t list
(** Render the verification findings as sorted PX3xx diagnostics:
    [PX301] per straddling non-never pair, [PX302] per tau-coverage
    escape, [PX303] per negative-delay bound, [PX304] per sensitive
    quiet primary input. *)

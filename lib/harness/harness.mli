(** The differential and soundness harness of the analyses.

    The never-proximate cells of {!Proxim_verify.Verify} and the quiet
    cells of {!Proxim_hazard.Hazard} rest on the §4 fold collapsing to
    the single-input response when inputs are far apart; the glitch
    verdicts of Hazard on the §6 separation rule; the unsensitizable
    pairs of {!Proxim_sense.Sense} on exact two-frame logic.  The
    incremental engine promises the same bits after an ECO update as
    after a fresh sweep, and the SoA arena the same bits as the
    {!Proxim_timing.Reference} records.  Each guarantee is checked here
    by one randomized loop that the test suites call — and, for the
    static analyses, [bench/main.exe] too, so the tests and the
    committed [BENCH_*.json] files run the same code.

    Every function is deterministic in the {!Proxim_util.Prng.t} it is
    handed: the draw order stated for each one is part of its contract,
    so a caller that seeds the generator gets the same designs, stimuli
    and verdicts on every run.  Nothing here fails or prints: the checks
    return counts and the offending nets, and the caller decides (an
    Alcotest failure, or a [false] in a BENCH file). *)

module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Gate = Proxim_gates.Gate
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Vtc = Proxim_vtc.Vtc
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Prune = Proxim_sta.Prune
module Verify = Proxim_verify.Verify
module Hazard = Proxim_hazard.Hazard
module Sense = Proxim_sense.Sense

(** {1 Designs} *)

val layered_design :
  Prng.t -> gates:Gate.t array -> depth:int -> width:int -> Design.t
(** A strictly layered random design: [width] primary inputs
    [pi0 .. pi(width-1)] and [depth] layers of [width] cells each; cell
    [u<l>_<j>] drives net [n<l>_<j>] and reads only nets of layer [l-1]
    (the primary inputs for layer 0), so every input of a cell shares
    one edge parity.  The last layer's nets are the primary outputs.

    Draw order: layer by layer, cell by cell ([j] ascending), one draw
    picks the cell's gate from [gates], then one draw per input picks a
    net of the previous layer, redrawing a pick already taken by the
    same cell.  Requires every gate's fan-in [<= width]. *)

val falling_events :
  Prng.t ->
  quiet_one_in:int ->
  time_hi:float ->
  slew_hi:float ->
  string list ->
  (string * Sta.arrival) list
(** Falling events on a random subset of [nets]: each stays quiet with
    probability [1 / quiet_one_in], else falls at a time uniform in
    [\[0, time_hi\]] with a slew uniform in [\[150 ps, slew_hi\]].

    Draw order: per net in list order, one draw decides quiet or not,
    then a falling net draws its slew, then its time. *)

(** {1 Arrival windows} *)

type window = string -> Measure.edge -> Hazard.awin option
(** An abstract analysis as a lookup: the time and slew windows it
    claims for one edge of one net, [None] when it claims that edge
    never happens there. *)

val verify_windows : Verify.t -> window
(** {!Verify.net_arrival}, for the edge it carries only. *)

val hazard_windows : Hazard.t -> window
(** The per-edge windows of {!Hazard.net_state}. *)

val window_escapes :
  ?pool:Pool.t ->
  Prng.t ->
  draws:int ->
  mode:Sta.mode ->
  models:(Design.cell -> Models.t) ->
  thresholds:Vtc.thresholds ->
  time_window:float ->
  tau_window:float ->
  window:window ->
  Design.t ->
  pi:(string * Sta.arrival) list ->
  string list
(** Window soundness: [draws] times, redraw each event of [pi] uniformly
    inside [slew ± tau_window] and [time ± time_window] (edge kept), run
    the concrete {!Sta.analyze} in [mode] and check every switching
    net's arrival against [window] for its edge — the time and the slew
    must lie in the claimed windows.  Returns one line per escape (the
    net, its concrete arrival and the window it missed), in draw order
    and then report order; [[]] means sound.

    Draw order: per draw, for each primary input in list order, the
    slew first, then the time. *)

(** {1 Two-frame logic} *)

val two_frame : Design.t -> (string * (bool * bool)) list -> string -> bool
(** Exact boolean simulation of both frames: [two_frame design stim]
    evaluates every cell in topological order under the per-net
    [(initial, final)] values of [stim] (other nets start at [false];
    names the design lacks are ignored) and returns whether a net's
    value differs between the frames. *)

type joint = { j_cell : string; j_a : string; j_b : string }
(** One draw that switched both input nets [j_a], [j_b] of cell
    [j_cell] — a pair Sense had proved unsensitizable. *)

val unsensitizable_draws :
  Prng.t ->
  Design.t ->
  Sense.t ->
  stim:(string * Sense.stimulus) list ->
  draws_per_pair:int ->
  int * joint list
(** Sensitization soundness: for every pair the analysis proved
    [Unsensitizable], [draws_per_pair] random assignments of the
    primary inputs [stim] leaves free, each simulated by {!two_frame}
    with the switching and constant inputs of [stim] pinned ([Pulse]
    inputs rest at [false]).  Returns the number of draws and every
    draw that switched both nets of its pair.

    Draw order: cells in {!Sense.cells} order, pairs in order, then per
    draw one boolean per free primary input in design order. *)

(** {1 Pruned against full} *)

type prune_run = {
  pr_name : string;
  pr_prune : Prune.t;
  pr_report : Sta.report;
  pr_counts : Prune.counts;  (** fast-path evaluations by claiming source *)
  pr_evaluations : int;  (** {!Sta.pruned_evaluations} *)
  pr_identical : bool;  (** {!Sta.report_equal} to the full report *)
}

val prune_divergence :
  ?pool:Pool.t ->
  models:(Design.cell -> Models.t) ->
  thresholds:Vtc.thresholds ->
  Design.t ->
  pi:(string * Sta.arrival) list ->
  (string * Prune.t) list ->
  Sta.report * prune_run list
(** Masks only ever remove work: one full [Proximity] analysis of
    [pi], then one per named mask (in list order) on a fresh state.
    Returns the full report and the runs; each run's [pr_identical] is
    the verdict. *)

val diverged : Design.t -> full:Sta.report -> prune_run list -> string option
(** [None] when every run is bit-identical to [full].  Otherwise the
    first diverging run's name, then its {!report_diff} against [full]
    (labels ["full"] and ["pruned"]). *)

(** {1 Reports} *)

val report_diff :
  ?design:Design.t ->
  ?prune:Prune.t ->
  string * Sta.report ->
  string * Sta.report ->
  string option
(** The one report differ: [None] when {!Sta.report_equal} holds.
    Otherwise each net whose arrival differs, with both arrivals under
    their labels ([quiet] for none); given the [design], the net's
    driving cell, the {!Prune.source} that claimed it (when [prune] is
    not empty) and the driver's input arrivals in both reports; then
    each net whose predecessor differs. *)

(** {1 ECO batches} *)

val reseedable_factory : unit -> Sta.factory * (string -> int -> unit)
(** Synthetic models ({!Models.synthetic}) memoized per gate and seed,
    with a re-seeding hook: every cell answers with seed 0 until
    [reseed cell seed] re-characterizes it — what a {!Sta.Touch_cell}
    ECO stands for.  [factory_stats] counts the memo.  Re-seed only
    between analyses: the pool's domains read the seed table unlocked. *)

type eco_run = {
  er_batches : int;  (** batches checked *)
  er_pruned : int;  (** of those, batches also checked pruned == full *)
  er_fast_path : int;
      (** fast-path evaluations the pruned states made: how much work
          the pruned == full checks actually removed *)
  er_divergence : string option;
      (** the first failed check, explained; the run stops there *)
}

val eco_batches :
  ?pool:Pool.t ->
  Prng.t ->
  design:(Prng.t -> Design.t) ->
  mode:Sta.mode ->
  thresholds:Vtc.thresholds ->
  sequences:int ->
  batches:int ->
  eco_run
(** The ECO-batch oracle.  [sequences] times: draw a design with
    [design], take a fresh {!reseedable_factory}, give every primary
    input a falling event (time uniform in [\[0, 1 ns\]], slew in
    [\[150 ps, 600 ps\]]), analyze in [mode] on [pool] and check the
    arena against {!Proxim_timing.Reference.agrees}.  Then [batches]
    times draw a batch of one to three ECOs — each a new event on a
    primary input (6 in 10), a silenced primary input (1 in 10) or a
    re-seeded cell (3 in 10) — and check:
    - {b update == fresh}: after {!Sta.update}, the report equals that of
      a fresh analysis of {!Sta.apply_ecos};
    - {b SoA == Reference}: {!Proxim_timing.Reference.agrees} on the
      updated state;
    - {b pruned == full}: for a [Proximity] batch that re-seeds no cell
      and that {!Proxim_verify.Verify.eco_pruning} accepts, a state
      built with that mask on the stimulus before the batch — exactly
      what [proxim sta] runs — equals the full state before and after
      both take the update.
    A report that diverges is explained by {!report_diff}.

    Draw order: per sequence, [design]'s draws, then per primary input
    in design order its event (time, then slew); per batch, its size,
    then per ECO its kind and the kind's draws (a primary input and its
    event, a primary input, or a cell). *)

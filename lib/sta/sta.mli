(** Single-vector static timing analysis over the shared timing-graph IR.

    Every switching net carries one transition event — an arrival time (at
    the measurement threshold), a slew (full-swing equivalent transition
    time) and an edge direction.  Gates are assumed inverting (true for
    every {!Proxim_gates.Gate.t}), so the output edge is the opposite of
    the input edges.

    Three propagation modes:

    - {b Classic}: each switching input is considered alone
      ([Delta^(1)]); the output arrival is the latest single-input
      response, its slew that input's [tau_out^(1)].  This is what a
      traditional pin-to-pin STA computes and what the paper's
      introduction argues is inaccurate under temporal proximity.
    - {b Proximity}: the switching inputs are fed as events to the
      {!Proxim_core.Proximity} algorithm; the output arrival is the
      dominant input's crossing plus the proximity delay, the slew the
      composed output transition time.
    - {b Collapsed}: the prior-art collapse-to-inverter baselines
      ({!Proxim_baseline.Collapse}), evaluated on the golden simulator —
      expensive, but lets the example flows compare path-level results of
      the methods the paper improves on.

    The analysis itself lives in {!Proxim_timing.Timing}: this module
    builds the {!Design} graph, wraps each mode as a propagation
    {!Proxim_timing.Timing.engine}, and layers the report/path/slack
    views on top.  {!analyze} remains the one-shot entry point;
    {!build_ir}/{!update} expose the incremental (ECO) workflow, and
    {!worst_paths} the K-worst path enumeration. *)

type arrival = Proxim_timing.Timing.arrival = {
  time : float;  (** threshold-crossing time, s *)
  slew : float;
      (** full-swing equivalent transition time, s (the [tau] the
          macromodels consume).  Internally the analyzer converts each
          gate's measured output transition (a Vil..Vih time) to this
          scale using the threshold set. *)
  edge : Proxim_measure.Measure.edge;
}

type mode =
  | Classic
  | Proximity
  | Collapsed of Proxim_baseline.Collapse.variant

exception Mixed_input_edges of { cell : string }
(** Raised by the propagation engines when the switching inputs of one
    cell arrive with inconsistent edge directions — a single-vector
    analysis cannot order the resulting glitch.  Carries the offending
    cell's name; a printer is registered so an uncaught exception still
    renders readably. *)

exception Unknown_eco_target of { kind : string; name : string }
(** Raised by {!update} when an ECO names a net or cell the design does
    not contain ([kind] is ["net"] or ["cell"]), or re-times a net a cell
    drives ([kind] is ["primary input"]: the design has no primary input
    of that name).  The CLI catches this at the boundary and turns it
    into a diagnostic with exit code 2 rather than a backtrace.  A
    printer is registered. *)

type report = {
  arrivals : (string * arrival) list;  (** every switching net, topo order *)
  critical_po : (string * arrival) option;
      (** the latest-arriving primary output *)
  predecessors : (string * string) list;
      (** for every cell output net, the input net that set its timing:
          the latest single-input response in [Classic] mode, the dominant
          input in [Proximity] mode, the collapse reference input in
          [Collapsed] mode — the edges of the critical-path graph *)
}

val report_equal : report -> report -> bool
(** Bit-exact report equality ({!Proxim_timing.Timing.arrival_eq} on
    every entry, same order) — the gate an incremental update, a pruned
    analysis or a served report must pass against a fresh full
    analysis. *)

val critical_path : report -> po:string -> string list
(** The chain of nets from a primary input to [po], following
    {!report.predecessors} backwards; [po] first.  Returns [[]] only when
    [po] never switched; in particular, a switching [po] that is itself a
    primary-input net (a wire fed straight through the pad ring) has no
    predecessor and yields the singleton [[po]]. *)

val po_slacks :
  Design.t -> report -> required:float -> (string * float) list
(** Slack (required - arrival) of every switching primary-output net of
    the design, worst first (a stable sort: equal slacks keep the
    design's output order).  A net listed more than once in
    [report.arrivals] takes its first entry, found through a table
    built in one pass over the report. *)

val analyze :
  ?mode:mode ->
  ?pool:Proxim_util.Pool.t ->
  models:(Design.cell -> Proxim_macromodel.Models.t) ->
  thresholds:Proxim_vtc.Vtc.thresholds ->
  Design.t ->
  pi:(string * arrival) list ->
  report
(** Propagate the primary-input events through the design.  Inputs of a
    cell whose nets carry no event are treated as stable at sensitizing
    levels.  Raises {!Mixed_input_edges} if the switching inputs of one
    cell arrive with inconsistent edges (a single-vector analysis cannot
    order a glitch).

    A thin wrapper: {!build_ir}, {!reanalyze}, then {!report} of that
    state — so a net [pi] names twice carries its last event, and a net
    the design lacks is ignored.  Cells on the same topological level are
    timed concurrently on [pool] (default: {!Proxim_util.Pool.default});
    the report is bit-identical to a serial analysis whatever the pool
    width. *)

(** {1 Incremental (ECO) analysis}

    {!build_ir} captures the design, mode, model factory and each cell's
    models into a reusable analysis state; {!update} re-propagates only
    the fanout cone of an edit, with an early cutoff at cells whose
    recomputed verdict is bit-equal to the stored one.  Because the
    engines are pure functions of the input annotations, an updated state
    is bit-identical to a fresh {!reanalyze} of the same configuration
    (property-tested). *)

type ir
(** An analysis state: the design's timing graph annotated with arrivals
    and per-cell verdicts, plus the propagation engine for one {!mode}. *)

val build_ir :
  ?mode:mode ->
  ?prune:Prune.t ->
  models:(Design.cell -> Proxim_macromodel.Models.t) ->
  thresholds:Proxim_vtc.Vtc.thresholds ->
  Design.t ->
  pi:(string * arrival) list ->
  ir
(** Create an un-propagated state with the given primary-input events
    applied ([pi] nets unknown to the design are ignored, and a net named
    twice keeps its last event).  Call {!reanalyze} to populate it.

    [models] is called once per cell, here, on the calling domain; the
    state keeps each cell's answer, and the sweep reads those instead of
    calling [models] again.  The returned {!Proxim_macromodel.Models.t}
    values are queried from every domain of the pool, so they must be
    safe to share — every model kind here is ({!Proxim_macromodel.Models}
    memoizes through {!Proxim_util.Memo_cache}); a hand-rolled model
    memoizing through a plain [Hashtbl] is not.

    [prune] (default: {!Prune.none}) fuses the masks the static analyses
    produced — never-proximate cells from [Proxim_verify.prune_mask],
    quiet cells from [Proxim_hazard.quiet_mask], unsensitizable cells
    from [Proxim_sense.prune_mask] — under the current primary-input
    assumptions.  Its table is indexed by [design]'s cell ids: a
    non-empty mask whose {!Prune.length} differs from the design's cell
    count raises [Invalid_argument].  In [Proximity] mode those cells
    take a single-input fast path — dominant would-be arrival and
    single-input slew — which is bit-identical to the full evaluation
    {e by construction of each source's verdict} (the fold provably
    reduces to those expressions).  It skips one assist-table lookup and
    the dominance sort, no more: on such a cell the fold makes no
    dual-macromodel query either.  No [proxim] command builds a mask
    ([proxim sta] always runs the fold).  The mask is only consulted in
    [Proximity] mode, and each source is only valid while every
    primary-input event stays inside the uncertainty windows (and
    logic assumptions) its analysis was run with: re-run the analyses
    (or drop the mask) before applying ECOs that move events outside
    them.  The fast-path hits are counted per state, by claiming source
    ({!pruned_counts}), so one mask may back several states. *)

val design : ir -> Design.t
val timing : ir -> Design.cell Proxim_timing.Timing.t
(** The underlying annotated graph — for direct access to arrivals,
    verdicts and {!Proxim_timing.Paths}. *)

val mode : ir -> mode

val pruned_counts : ir -> Prune.counts
(** Cumulative count of this state's cell evaluations answered by the
    single-input fast path since {!build_ir}, attributed to the source
    that claimed each cell (all 0 unless a [prune] mask was given).
    Incremented atomically — level-parallel analyses count exactly. *)

val pruned_evaluations : ir -> int
(** [Prune.total (pruned_counts ir)]. *)

val reanalyze : ?pool:Proxim_util.Pool.t -> ir -> Proxim_timing.Timing.stats
(** Full from-scratch propagation of the current sources and the models
    the state holds. *)

type eco =
  | Set_pi of string * arrival option
      (** change (or clear) a primary input's event *)
  | Touch_cell of string
      (** mark one cell re-characterized: {!update} asks the model
          factory for the cell's models afresh, recomputes its verdict
          with them, and propagates the change through its fanout cone.
          Pair with a factory whose answer for the cell actually changed
          (e.g. {!swap_models}, or a closure over mutable
          characterization data). *)

val update :
  ?pool:Proxim_util.Pool.t -> ir -> eco list -> Proxim_timing.Timing.stats
(** Apply the edits and incrementally re-propagate their fanout cone.
    The returned {!Proxim_timing.Timing.stats} report how many cells were
    actually re-evaluated — the incremental win over {!reanalyze}.
    Every target is resolved before any edit applies: a batch naming an
    unknown net or cell, or a [Set_pi] on a cell-driven net, raises
    {!Unknown_eco_target} and leaves the analysis unchanged.  A batch
    the engine fails on (e.g. {!Mixed_input_edges}) is rolled back: the
    sources are restored and their cone re-timed before the exception
    propagates, so the analysis is again the pre-batch one. *)

val apply_ecos : (string * arrival) list -> eco list -> (string * arrival) list
(** The stimulus after a batch — what a fresh analysis must be given to
    match an {!update}: each [Set_pi] drops every entry of its net and,
    for a new event, appends it; [Touch_cell] leaves the stimulus as it
    is. *)

val swap_models :
  ?pool:Proxim_util.Pool.t ->
  ir ->
  (Design.cell -> Proxim_macromodel.Models.t) ->
  Proxim_timing.Timing.stats
(** Replace the model factory wholesale (a re-characterized library):
    call it once per cell, as {!build_ir} does, and re-propagate with
    every cell dirty.  Structurally a full pass, but the bit-equality
    cutoff still prunes the fanout of cells whose new models answer
    identically. *)

val report : ir -> report
(** The classic report view of the current annotations.  [arrivals] lead
    with the switching primary inputs in declaration order, then every
    switching cell output in topological order. *)

val slacks : ir -> required:float -> (string * float) list
(** [po_slacks (design ir) (report ir) ~required], read straight from
    the annotations: each primary output's arrival, ranked by the same
    code, without building the report's arrival and predecessor
    lists. *)

(** {1 K-worst paths} *)

type path = {
  path_arrival : float;  (** estimated endpoint arrival via this path, s *)
  path_nets : string list;  (** endpoint first, back to the source net *)
}

val worst_paths : ir -> po:string -> k:int -> path list
(** The up-to-[k] worst paths ending at net [po] — the
    {!Proxim_timing.Paths} enumeration with nets resolved to names.  The
    top path is the timing-setting chain: it reproduces {!critical_path}
    and the reported arrival exactly.  Lower ranks order the
    alternatives by single-input would-be estimates, latest first (see
    {!Proxim_timing.Paths}).  [[]] when [po] is unknown or never
    switched.  Raises [Invalid_argument] when [k < 1]. *)

val with_pi_all :
  Design.t ->
  (string * arrival) list ->
  arrival option ->
  (string * arrival) list
(** [with_pi_all design named pi_all]: the [named] events, then
    [pi_all]'s event on every primary input they leave unnamed — the
    stimulus of [proxim sta --pi-all] and of the served ["pi_all"]. *)

val default_thresholds :
  Design.t -> Proxim_vtc.Vtc.thresholds option -> Proxim_vtc.Vtc.thresholds
(** The measurement thresholds a design is analyzed with: its netlist's
    [thresholds] directive when it has one, else the §2 VTC choice for
    the gate of its first cell (an inverter's for a design without
    cells). *)

(** {1 Model factories} *)

type factory = {
  models : Design.cell -> Proxim_macromodel.Models.t;
  factory_stats : unit -> Proxim_util.Memo_cache.stats;
      (** merged hit/miss/entry counters over the factory's gate/load
          memo cache and the internal caches of every model built so far
          — the cache-effectiveness numbers `proxim sta` and the bench
          report *)
}

val oracle_factory : Design.t -> Proxim_vtc.Vtc.thresholds -> factory
(** A [models] function backed by the golden simulator: each cell gets
    oracle models built at its actual fanout load (memoized domain-safely
    per gate type and 1 fF load bucket). *)

val synthetic_factory : ?seed:int -> ?work:int -> unit -> factory
(** A [models] function over {!Proxim_macromodel.Models.synthetic}
    analytic models, one per gate type (synthetic models carry no load
    dependence).  No simulator behind it: this is the factory the
    randomized equivalence tests, the incremental benchmark and quick
    CLI experiments use.  The options are forwarded to
    {!Proxim_macromodel.Models.synthetic}.  The models keep no query
    cache, so [factory_stats] counts only the per-gate-type lookups and
    memory stays proportional to the gate library. *)

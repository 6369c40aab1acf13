(** A uniform model interface consumed by the {!Proxim_core} algorithm.

    The `ProximityDelay` algorithm needs four oracles: single-input delay
    and transition time, and dual-input delay and transition time with
    respect to a dominant input.  This record abstracts over where they
    come from — the golden simulator (the paper's validation methodology)
    or the tabulated macromodels (the deployable artifact). *)

type t = {
  fan_in : int;
  name : string;
  tau_range : (float * float) option;
      (** the characterized input-transition-time span, when the model is
          table-backed ({!of_tables}): queries outside it clamp silently
          (PCHIP extrapolation policy).  [None] for {!synthetic} /
          {!of_oracle}, which evaluate at any [tau].  The verify layer
          raises PX302 when reachable intervals escape this span. *)
  cache_stats : unit -> Proxim_util.Memo_cache.stats;
      (** hit/miss/entry counters of the model's internal memoization
          (merged over the single- and dual-input caches).  [hits] counts
          queries answered without a new golden-simulator run — including
          waits on a computation already in flight on another domain.
          All zero for models that keep no cache ({!synthetic}). *)
  assist : edge:Proxim_measure.Measure.edge -> first:int -> set:int -> bool;
      (** do the switching transistors of the pins in [set] (a bitmask,
          [first]'s bit implied) assist each other in the driving
          network for this input edge, taking [first] as the pin whose
          sensitization holds the others (see
          {!Proxim_gates.Gate.switching_assist}, whose pin list this
          keys as its head and its members)?  Decides the dominance
          direction: assisting inputs -> earliest would-be response
          wins; gating inputs -> latest.  NAND-falling / NOR-rising
          assist; NAND-rising / NOR-falling gate.  Every model here
          answers from {!Proxim_gates.Gate.assist_table}, built with the
          model. *)
  delay1 : pin:int -> edge:Proxim_measure.Measure.edge -> tau:float -> float;
      (** [Delta^(1)]: single-input delay, s *)
  trans1 : pin:int -> edge:Proxim_measure.Measure.edge -> tau:float -> float;
      (** [tau_out^(1)]: single-input output transition time, s *)
  delay2 :
    dom:int ->
    other:int ->
    edge:Proxim_measure.Measure.edge ->
    tau_dom:float ->
    tau_other:float ->
    sep:float ->
    float;
      (** [Delta^(2)] with respect to the dominant input, s *)
  trans2 :
    dom:int ->
    other:int ->
    edge:Proxim_measure.Measure.edge ->
    tau_dom:float ->
    tau_other:float ->
    sep:float ->
    float;
      (** [tau_out^(2)] with respect to the dominant input, s *)
}

val assist_of :
  Proxim_gates.Gate.t ->
  edge:Proxim_measure.Measure.edge ->
  first:int ->
  set:int ->
  bool
(** [assist_of gate] is the [assist] field of a model of [gate]: its
    {!Proxim_gates.Gate.assist_table}, built when [assist_of gate] is
    applied — once per model. *)

val merge_stats :
  Proxim_util.Memo_cache.stats ->
  Proxim_util.Memo_cache.stats ->
  Proxim_util.Memo_cache.stats
(** Pointwise sum of two counter records — the combinator behind every
    [cache_stats] closure here, exported so model factories (and the CLI)
    can aggregate statistics across many models. *)

val synthetic : ?seed:int -> ?work:int -> Proxim_gates.Gate.t -> t
(** Purely analytic models: smooth closed-form single- and dual-input
    responses with the right qualitative shape (positive delays, slew
    dependence, assisting inputs speeding the response up and gating
    inputs slowing it down, influence saturating with separation) but no
    transient simulation behind them.  Micro-second-cheap and fully
    deterministic, which is what the randomized incremental-vs-full
    equivalence suite and the ECO benchmark need — thousands of analyses
    with none of the simulator's cost.  Not calibrated to any technology;
    never use them for accuracy experiments.

    [seed] perturbs the per-pin base delays by up to ±5 % (so swapping
    [synthetic ~seed:1] for [synthetic ~seed:2] models a
    re-characterized library), and [work] adds an artificial per-query
    evaluation cost (a pure float loop) for benchmarks that want model
    evaluation to dominate.

    Every query evaluates its closed form directly, and [cache_stats] is
    always {!Proxim_util.Memo_cache.zero_stats}.  No cache is needed: a
    response is a pure function of its arguments that costs a few flops,
    less than hashing the key would, and the keys — continuous
    arrival/slew floats — rarely repeat, so a memo would only retain one
    entry per evaluation.  Thread-safe by construction: the closures
    share no mutable state. *)

val of_oracle :
  ?load:float ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  t
(** Every query runs a transient analysis (memoized on the exact query).
    This mirrors the paper's use of HSPICE as the dual-input macromodel.
    The memo cache is domain-safe and sharded: concurrent queries from a
    {!Proxim_util.Pool} job never race, and two domains asking for the
    same query run a single transient (the second waits). *)

val of_tables :
  ?taus:float array ->
  ?x_tau:float array ->
  ?x_sep:float array ->
  ?share_others:bool ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  t
(** Queries are answered from {!Single} / {!Dual} tables, built lazily on
    first use of each (pin, edge) / (dom, other, edge) combination and
    memoized (domain-safely: a table being built by one domain is awaited
    by, not duplicated on, the others).  Building a dual table is
    expensive (hundreds of transient runs); with [pool] those runs are
    spread across the pool's domains, and the table is bit-identical to
    a serial build.  Once built, queries are microseconds.

    [share_others] (default false) implements the paper's Figure 4-2
    observation that [n] dual-input macromodels suffice in practice: one
    table per (dominant pin, edge), built against a representative other
    pin and reused for every other input — [2n] tables total instead of
    [n^2].  The ablation bench quantifies the accuracy cost. *)

(** {2 Sampled interval bounds}

    Conservative [(lo, hi)] envelopes of the four oracles over boxes of
    arguments, for the interval abstract interpreter ([Proxim_verify]).
    Each axis is an inclusive [(lo, hi)] interval.  Bounds are obtained
    by sampling a small grid over the box (endpoints always included; the
    separation axis additionally samples [sep = 0] when the box straddles
    it, where gating influence peaks) and widening the observed min/max
    by a fraction of the observed spread as a curvature margin.  A
    degenerate box — every axis a single point — is one evaluation with
    zero spread, so the bounds are {e exact}: with ±0 PI windows the
    interval analysis collapses onto the concrete STA.  All evaluations
    go through the model's own closures (and so its caches, if any). *)

val bounds_over : 'a list -> ('a -> float) -> float * float
(** [bounds_over pts f]: the observed min/max of [f] over the sample
    points [pts], widened by a quarter of the spread on each side — the
    one sampled-bound heuristic every bound below, and the hazard
    analysis's simulator rule, rest on.  A zero spread is not widened,
    so a single point (or an infinite sentinel) comes back exact.
    Raises [Invalid_argument] on an empty [pts]. *)

val delay1_bounds :
  t ->
  pin:int ->
  edge:Proxim_measure.Measure.edge ->
  tau:float * float ->
  float * float

val trans1_bounds :
  t ->
  pin:int ->
  edge:Proxim_measure.Measure.edge ->
  tau:float * float ->
  float * float

val delay2_bounds :
  t ->
  dom:int ->
  other:int ->
  edge:Proxim_measure.Measure.edge ->
  tau_dom:float * float ->
  tau_other:float * float ->
  sep:float * float ->
  float * float

val trans2_bounds :
  t ->
  dom:int ->
  other:int ->
  edge:Proxim_measure.Measure.edge ->
  tau_dom:float * float ->
  tau_other:float * float ->
  sep:float * float ->
  float * float

val min_separation_bounds :
  t ->
  starter_pin:int ->
  starter_edge:Proxim_measure.Measure.edge ->
  ender_pin:int ->
  tau_starter:float * float ->
  tau_ender:float * float ->
  float * float
(** Conservative bounds on the §6 minimum oriented separation
    [sigma_min]: the glitch started by [starter_pin] (switching with
    [starter_edge]) and recovered by [ender_pin] (the opposite edge)
    completes an output transition exactly when
    [t_ender - t_starter >= sigma_min].  Evaluated as a surrogate from
    the single-input delay/transition bounds
    ([D_starter - D_ender + kappa * T_starter], [kappa = 0.5]) with the
    standard spread widening — the calibration source for the hazard
    analyzer's model-backed rule ([Proxim_hazard]); simulator-backed
    rules bisect {!Proxim_core.Inertial.minimum_valid_separation}
    instead. *)

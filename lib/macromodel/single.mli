(** Single-input macromodels [D^(1)] and [T^(1)] (paper §3, eqs 3.7–3.8).

    Dimensional analysis reduces the single-switching-input delay and
    output transition time to one-argument functions:

    {v Delta/tau = D1( C_L / (K Vdd tau) ),
       tau_out/tau = T1( C_L / (K Vdd tau) ) v}

    The tables are built once per (gate, pin, edge) by sweeping the input
    transition time on the golden simulator, and are then valid for any
    [(tau, C_L)] combination whose dimensionless argument falls in (or
    clamps to) the tabulated range — this is the mechanism by which one
    table serves every load. *)

type t

val pin : t -> int
val edge : t -> Proxim_measure.Measure.edge

val samples : t -> float array * float array * float array
(** The raw tabulated knots [(ln_argument, delay_ratio, trans_ratio)] —
    copies, in axis order.  Exposed for the diagnostics layer
    ({!Proxim_lint}) and the storage-complexity accounting. *)

val default_taus : float array
(** The default [build] sweep: 16 log-spaced input transition times over
    20 ps..5 ns.  Exported so coverage checks ({!Proxim_lint},
    [Proxim_verify]) know the characterized span when [build] was called
    without [taus]. *)

val build :
  ?taus:float array ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  pin:int ->
  edge:Proxim_measure.Measure.edge ->
  t
(** Sweep [taus] (default: 16 log-spaced points over 20 ps..5 ns) at the
    gate's default load and tabulate the two normalized ratios against the
    dimensionless argument, with monotone (PCHIP) interpolation.  With
    [pool], the sweep's transient analyses run across the pool's domains;
    the table is bit-identical to a serial build. *)

val build_many :
  ?taus:float array ->
  ?pool:Proxim_util.Pool.t ->
  Proxim_gates.Gate.t ->
  Proxim_vtc.Vtc.thresholds ->
  (int * Proxim_measure.Measure.edge) array ->
  t array
(** Build one table per [(pin, edge)] spec, batching every (table, tau)
    transient of the whole set into a single pool job — with [n] specs
    the job carries [n * length taus] tasks, so the pool's domains stay
    fed across the entire characterization instead of draining between
    per-table builds.  Each returned table is bit-identical to the
    corresponding {!build} call. *)

val delay : ?c_load:float -> t -> tau:float -> float
(** Predicted [Delta^(1)] for an input of transition time [tau].
    [c_load] defaults to the load the table was built at. *)

val out_transition : ?c_load:float -> t -> tau:float -> float
(** Predicted output transition time [tau_out^(1)]. *)

val tau_of_delay : ?c_load:float -> t -> delay:float -> float
(** Inverse query: the input transition time whose predicted delay is
    [delay] (used when building dual-input tables on normalized axes).
    Requires [delay > 0]; solved by bisection on the monotone model. *)

val argument : ?c_load:float -> t -> tau:float -> float
(** The dimensionless argument [(C_L + C_parasitic) / (K Vdd tau)] for
    diagnostics. *)

val save : t -> string
(** Serialize to the line-oriented text format of {!Store} ("single-v1"
    section).  Round-trips exactly through {!load}. *)

val load : string -> t
(** Parse a {!save}d model.  Raises [Failure] with a line-precise message
    on malformed input. *)

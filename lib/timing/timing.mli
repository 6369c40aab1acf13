(** The annotated propagation engine over the timing-graph IR.

    A {!t} carries one timing annotation per net (arrival time, slew,
    edge) and one {!verdict} per cell (the output annotation, the winning
    pin, and the per-pin would-be response candidates that the K-worst
    path enumeration consumes).  How a cell turns input events into an
    output event is a pluggable {!engine} — {!Proxim_sta.Sta} provides
    Classic, Proximity and collapse-to-inverter engines over the same IR.

    Annotations are {e stored} in a flat structure-of-arrays arena
    ({!Soa}): parallel [Bigarray.float64] / int / byte planes indexed
    by dense net and cell ids, swept level by level as index ranges.
    The record types below are a view layer decoded on demand, so
    consumers ({!Paths}, the verify/hazard layers, reports) read the
    same shapes they always did; {!Reference} keeps the historical
    records-of-options evaluator alive as a bit-identity oracle.

    {!analyze} is a full from-scratch propagation; {!update} is the
    incremental (ECO) variant: after a source-arrival change or a cell
    re-characterization, only the affected fanout cone is re-evaluated,
    with an early cutoff at cells whose recomputed verdict is bit-equal
    to the stored one.  Because an engine is a pure function of the input
    annotations, {!update} is bit-identical to a fresh {!analyze} of the
    edited configuration (property-tested in [test/test_timing.ml]). *)

module Pool = Proxim_util.Pool

type arrival = {
  time : float;  (** threshold-crossing time, s *)
  slew : float;  (** full-swing equivalent transition time, s *)
  edge : Proxim_measure.Measure.edge;
}

type candidate = {
  pin : int;
  from_net : int;
  would_be : float;
      (** the output arrival had this pin set the timing alone; for the
          winning pin engines store the {e actual} output arrival, so the
          top-1 enumerated path reproduces the reported arrival exactly *)
}

type verdict = {
  out : arrival;
  winner : int;  (** pin index that set the timing *)
  candidates : candidate array;  (** one per switching input, pin order *)
}

type input = { in_pin : int; in_net : int; in_arrival : arrival }

type 'cell engine = int -> 'cell -> input list -> verdict option
(** [engine id payload inputs] times one cell from its switching inputs
    ([None] = the cell stays quiet).  [id] is the cell's dense
    {!Graph} id, so per-cell side tables (a prune mask, say) are one
    array read away; [payload] is {!Graph.payload} of that id.  Must be
    deterministic and pure with respect to the annotations — it may be
    called from several pool domains at once, and the incremental
    engine's cutoff assumes equal inputs give bit-equal verdicts. *)

type 'cell t

val create : 'cell Graph.t -> engine:'cell engine -> 'cell t
(** A state with no annotations: every source quiet, every verdict
    [None]. *)

val graph : 'cell t -> 'cell Graph.t

val engine : 'cell t -> 'cell engine
(** The engine the state was created with — what {!Reference} re-runs
    to cross-check the SoA propagation. *)

val arena_bytes : 'cell t -> int
(** Resident footprint of the SoA annotation arena, in bytes. *)

val set_source : 'cell t -> net:int -> arrival option -> unit
(** Set (or clear, with [None]) the arrival event of a source net —
    a primary input.  Raises [Invalid_argument] for driven nets.  The
    change is not propagated until {!update} is called with the net in
    [dirty_nets]. *)

val arrival : 'cell t -> net:int -> arrival option
val verdict : 'cell t -> cell:int -> verdict option

val arrival_eq : arrival -> arrival -> bool
(** Bit-exact equality ([Int64.bits_of_float] on the float planes, so
    [0.] and [-0.] differ) — the relation behind the incremental
    engine's early cutoff. *)

val verdict_eq : verdict option -> verdict option -> bool
(** Bit-exact equality over whole verdicts, candidates included. *)

val predecessor : 'cell t -> net:int -> (int * int) option
(** [(pred_net, winner_pin)] of a driven, switching net: the input net
    that set its driver's timing. *)

type stats = {
  evaluated : int;  (** cells whose engine ran *)
  changed : int;  (** evaluated cells whose verdict actually changed *)
  total_cells : int;
}

val parallel_threshold : int
(** Levels narrower than this many cells are timed serially on the
    caller; at or above it, the level's sorted dense-id array is split
    into ~2 contiguous chunks per pool domain and fanned out through
    {!Pool.parallel_for} (the steal loop rebalances uneven engine
    costs).  Verdicts are always applied on the caller in index order,
    so results are bit-identical either way. *)

val analyze : ?pool:Pool.t -> 'cell t -> stats
(** Full propagation from scratch: clears every verdict, then evaluates
    all cells level-by-level.  Levels at least {!parallel_threshold}
    wide are timed concurrently on [pool] (default {!Pool.default});
    results are bit-identical to a serial run at any pool width. *)

val update :
  ?pool:Pool.t -> 'cell t -> dirty_nets:int list -> dirty_cells:int list -> stats
(** Incremental re-propagation: seeds the worklist with the readers of
    [dirty_nets] (sources whose arrival was edited) and with
    [dirty_cells] (cells whose model/parameters changed), then walks the
    fanout cone level-by-level, stopping at cells whose recomputed
    verdict is bit-equal to the stored one. *)

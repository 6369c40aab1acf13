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
    Engines never see a record: {!t} fills a reusable {!cursor} with a
    cell's switching inputs straight from the planes, the engine writes
    its answer back into the same cursor, and {!t} compares that answer
    with the planes bit for bit and commits it in place.  A sweep
    allocates nothing per cell on {!t}'s side.  The record types below
    are a view layer decoded on demand, so consumers ({!Paths}, the
    verify/hazard layers, reports) read the shapes they always did;
    {!Reference} keeps a records-of-options evaluator alive as a
    bit-identity oracle.

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

(** {1 The engine contract} *)

type cursor = {
  mutable count : int;
      (** switching inputs of the cell in flight: entries [0 .. count-1]
          of the four input arrays, in ascending pin order *)
  pins : int array;  (** pin index of input [k] *)
  nets : int array;  (** dense net id of input [k] *)
  times : float array;  (** arrival time of input [k], s *)
  slews : float array;  (** slew of input [k], s *)
  mutable edge : Proxim_measure.Measure.edge;
      (** the edge every input shares; meaningless when [mixed] *)
  mutable mixed : bool;  (** the inputs arrive with both edges *)
  result : float array;
      (** written by the engine: [result.(0)] the output arrival time,
          [result.(1)] its slew (a float array, so writing allocates
          nothing) *)
  mutable out_edge : Proxim_measure.Measure.edge;
      (** written by the engine: the output edge *)
  mutable winner : int;
      (** written by the engine: the pin (not the input index) that set
          the timing *)
  would : float array;
      (** written by the engine: [would.(k)] is input [k]'s would-be
          output arrival — the winner's entry the actual output arrival
          (see {!candidate}) *)
}
(** One cell's inputs and, after the engine ran, its answer.  Capacity
    (the arrays' length) is the graph's largest fan-in; only the first
    [count] entries are meaningful. *)

type 'cell engine = cursor -> int -> 'cell -> unit
(** [engine cursor] binds the engine to one cursor; [(engine cursor) id
    payload] then times cell [id] ([payload] is {!Graph.payload} of that
    id, and [id] the dense {!Graph} id, so per-cell side tables such as a
    prune mask are one array read away).

    {b Ownership.}  Cursors belong to {!t}: it allocates one per pool
    chunk it may run at once (and {!Reference} one of its own), binds the
    engine to each exactly once, and reuses both for every cell that
    chunk evaluates.  The binding step is where an engine allocates its
    per-cursor scratch; the per-cell call should allocate nothing it
    does not have to.

    {b What the engine must write.}  It is only called for a cell with
    at least one switching input ([count >= 1]); cells without one are
    quiet and get no verdict.  It reads the input fields and must write
    [result.(0)], [result.(1)], [out_edge], [winner] and
    [would.(0 .. count-1)] — or raise (a [mixed] cell, say).  A cell
    that switches cannot be declared quiet.

    {b Purity across domains.}  The answer must be a deterministic
    function of the input fields and the engine's own configuration:
    bound instances run on several pool domains at once, each on its own
    cursor, and the incremental engine's cutoff assumes equal inputs give
    bit-equal answers.  State shared between instances (model caches,
    hit counters) must be domain-safe. *)

val new_cursor : 'cell Graph.t -> cursor
(** A cursor sized for the graph's largest fan-in, before any engine is
    bound to it — what {!Reference} evaluates through. *)

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
  evaluated : int;
      (** cells re-timed: the engine ran, or the cell had no switching
          input and is quiet *)
  changed : int;  (** evaluated cells whose verdict actually changed *)
  total_cells : int;
}

val parallel_threshold : int
(** Levels narrower than this many cells are timed serially on the
    caller; at or above it, the level's sorted dense-id array is split
    into ~2 contiguous chunks per pool domain and fanned out through
    {!Pool.parallel_for} (domains claim chunks from one shared cursor,
    which rebalances uneven engine costs), each chunk on its own engine
    cursor.  A worker commits its own cells' slots; the caller then
    counts the changes and enqueues their readers in index order, so
    results are bit-identical either way. *)

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
    verdict is bit-equal to the stored one.  An engine exception leaves
    the worklist empty for the next call and propagates; the cells
    committed before it keep their new verdicts, and every one of them
    lies in the edit's fanout cone, so an update that reverts the edit
    restores the from-scratch result. *)

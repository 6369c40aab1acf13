(** The shared timing-graph IR.

    One arena holds the interned nets and cells of a gate-level design:
    fanin/fanout adjacency, the driver of every net, a topological order
    and topological levels.  {!Design}, the {!Sta} propagation engines and
    the structural lints all build on this instead of maintaining private
    hash-table graphs and ad-hoc traversals.

    Nets and cells are dense integer ids ([0..net_count-1] and
    [0..cell_count-1]), so per-node annotations are plain arrays — the
    incremental timing engine ({!Timing}) stores its arrival/slew/edge
    annotations that way. *)

(** {1 Generic digraph algorithms}

    Shared by consumers whose graphs are not (yet) well-formed designs —
    the collect-all netlist lints run these over broken netlists with
    duplicate drivers and cycles. *)

val cycles :
  n:int -> succ:(int -> int list) -> roots:int list -> (int * int list) list
(** DFS from each root in order; every back edge reports once as
    [(entry, cycle)] where [entry] is the re-entered node and [cycle]
    lists the member nodes in edge order starting at [entry].  A
    self-loop reports [(u, [u])]. *)

val reachable : n:int -> succ:(int -> int list) -> roots:int list -> bool array
(** Nodes reachable from [roots] (roots included). *)

(** {1 The arena} *)

type 'cell t

(** {2 Construction}

    Every loader builds its arena through one {!builder}: the binary
    reader, the text parser and the generator (through
    [Proxim_sta.Design.create]) alike.  Each net name and each cell name
    is hashed once, into tables sized from the caller's counts; {!finish}
    then numbers, validates and links the whole arena with array passes
    over ids.

    {b Net numbering.}  Net ids are assigned where each net is first met
    in this order: the primary inputs, then every cell's inputs in
    declaration and pin order, then the outputs no cell reads (in
    declaration order), then the remaining primary outputs.  The order
    in which names were interned does not matter; names interned in
    exactly this order (a binary netlist's net table) keep their keys
    as ids, and {!finish} skips the renumbering.

    {b Validation order.}  {!finish} reports the first defect it meets,
    checking in this order:
    + a repeated cell name ({!Duplicate_cell}, the first repeat);
    + per cell in declaration order, an output net already driven
      ({!Driven_twice}) or that is a primary input ({!Input_driven});
    + per cell and pin, an input net neither driven nor a primary input
      ({!Undriven_input});
    + per primary output in order, the same ({!Undriven_output});
    + a combinational cycle ({!Cycle_through}, the first cell the
      topological traversal re-enters). *)

type defect =
  | Duplicate_cell of string  (** cell name *)
  | Driven_twice of string  (** net name *)
  | Input_driven of string  (** a primary input some cell drives *)
  | Undriven_input of string  (** net name *)
  | Undriven_output of string  (** primary output name *)
  | Cycle_through of string  (** cell name *)

val defect_message : defect -> string
(** ["duplicate cell u1"], ["net driven twice: x"], ["primary input
    driven: a"], ["undriven net x"], ["undriven primary output y"],
    ["combinational cycle through u1"]. *)

type 'cell builder

val builder : cells:int -> nets:int -> 'cell builder
(** An empty arena under construction, its tables sized for [cells]
    cells and [nets] nets (both may be exceeded; the tables then grow). *)

val intern : 'cell builder -> string -> int
(** The builder's key for a net name, interning it on first sight.  Keys
    are not net ids: {!finish} numbers the nets. *)

val intern_sub : 'cell builder -> string -> pos:int -> len:int -> int
(** {!intern} of [String.sub s pos len], copying the name only the
    first time it is seen.  Raises [Invalid_argument] on a slice outside
    [s]. *)

val interned : 'cell builder -> int -> string
(** The name a key stands for: one shared string per net. *)

val add_primary_input : 'cell builder -> int -> unit
val add_primary_output : 'cell builder -> int -> unit

val add_cell :
  'cell builder -> string -> 'cell -> inputs:int array -> output:int -> bool
(** Append a cell: its name, payload, input net keys in pin order (the
    array is kept and renumbered in place) and output net key.  [false]
    iff the name repeats an earlier cell's. *)

val finish : 'cell builder -> ('cell t, defect) result
(** Number the nets, validate in the order above, and build the
    adjacency, topological order (DFS postorder over the cells in
    declaration order, fanin first) and levels.  The builder must not be
    used afterwards. *)

(** {2 The string-level front end} *)

type 'cell spec = {
  spec_name : string;
  spec_payload : 'cell;
  spec_inputs : string array;  (** input net names, pin order *)
  spec_output : string;
}

exception Cycle of { through : string }
(** Raised by {!build} on a combinational cycle; [through] names a cell
    on the cycle (the first one the traversal re-enters). *)

val build :
  cells:'cell spec list ->
  primary_inputs:string list ->
  primary_outputs:string list ->
  'cell t
(** A {!builder} fed from names, for tests and small callers.  Raises
    {!Cycle} on a combinational cycle and [Invalid_argument]
    ["Graph.build: "] ^ {!defect_message} on any other defect. *)

val net_count : 'cell t -> int
val cell_count : 'cell t -> int
val net_name : 'cell t -> int -> string
val net_id : 'cell t -> string -> int option
val cell_name : 'cell t -> int -> string
val cell_id : 'cell t -> string -> int option
val payload : 'cell t -> int -> 'cell
val cell_inputs : 'cell t -> int -> int array
val cell_output : 'cell t -> int -> int

val driver : 'cell t -> net:int -> int option
(** The cell driving [net]; [None] for sources (primary inputs). *)

val driver_id : 'cell t -> net:int -> int
(** {!driver} without the option: the driving cell id, or [-1] for
    sources.  The propagation hot path reads every input net's driver
    once per evaluation — this form costs one array load and no
    allocation. *)

val iter_readers : 'cell t -> net:int -> (int -> int -> unit) -> unit
(** [iter_readers g ~net f] calls [f cell pin] for every pin reading
    [net], in declaration order.  The readers are three int planes in
    compressed-row form (an offset per net into a cell plane and a pin
    plane, filled by counting in {!finish}): the walk itself allocates
    nothing. *)

val primary_inputs : 'cell t -> int array
val primary_outputs : 'cell t -> int array

val topological : 'cell t -> int array
(** Cells, drivers before readers. *)

val cell_level : 'cell t -> int -> int
(** Topological level: one above the deepest driven input, 0 for cells
    fed by primary inputs only. *)

val level_count : 'cell t -> int

val level : 'cell t -> int -> int array
(** Cells of one level, in topological order.  Cells of a level never
    feed each other, so they can be timed concurrently. *)

val fanin_cone : 'cell t -> cells:int list -> bool array
(** Per-cell membership of the transitive fanin cone of the given cells
    (the cells themselves included) — the set of cells whose outputs can
    possibly influence theirs.  The sensitization engine sizes its
    implication budget against this cone. *)

val fanout_cone : 'cell t -> nets:int list -> cells:int list -> bool array
(** Per-cell membership of the transitive fanout cone of the given nets
    and cells (the cells themselves included) — the set an edit to those
    nodes can possibly affect. *)

val reaches : 'cell t -> cell:(int -> bool) -> bool array
(** Per-net: whether the net's transitive fanout cone holds a cell
    satisfying [cell] — a reader of the net does, or drives a net that
    reaches one.  One reverse-topological pass, [cell] called once per
    cell: the same answer as testing {!fanout_cone} of every net, in
    O(cells + pins). *)

(** Gate-level combinational designs for the STA example flows.

    A design is a set of cells (instances of {!Proxim_gates.Gate.t})
    wired by named nets.  Each net has exactly one driver (a cell output
    or a primary input); combinational loops are rejected. *)

type cell = {
  name : string;
  gate : Proxim_gates.Gate.t;
  input_nets : string array;  (** one net per gate pin, pin order *)
  output_net : string;
}

type t

val create :
  cells:cell list ->
  primary_inputs:string list ->
  primary_outputs:string list ->
  t
(** Build and validate a design: a {!builder} fed from the lists, keeping
    each [cell] record as the graph's payload.  Raises [Invalid_argument]
    with the first defect, checked in this order:
    + per cell in order, ["Design.create: duplicate cell C"] or
      ["Design.create: arity mismatch on C"] (pin count against the
      gate's fan-in);
    + per cell in order, ["Design.create: net driven twice: N"] or
      ["Design.create: primary input driven: N"];
    + per cell and pin, ["Design.create: undriven net N"];
    + per primary output, ["Design.create: undriven primary output N"];
    + ["Design.create: combinational cycle through C"].

    Nets are numbered in {!graph} as {!Proxim_timing.Graph} documents:
    primary inputs, then every cell's inputs in declaration and pin
    order, then the outputs no cell reads, then the remaining primary
    outputs.  Records a ["design.create"] trace span (category
    ["sta"]). *)

(** {1 Construction from ids}

    The one construction path: {!create}, {!Netlist_text} and
    {!Synthgen} (through {!create}) and {!Netlist_bin} (directly) all
    feed a builder, which hashes each net and cell name once. *)

type builder

val builder : cells:int -> nets:int -> builder
(** Tables sized for about [cells] cells and [nets] nets. *)

val net_sub : builder -> string -> pos:int -> len:int -> int
(** The key of the net named [String.sub s pos len], interned on first
    sight: the name is copied only then. *)

val add_primary_input : builder -> int -> unit
val add_primary_output : builder -> int -> unit

val add_cell : builder -> string -> Proxim_gates.Gate.t -> int array -> int -> unit
(** [add_cell b name gate inputs output] appends a cell given its input
    and output net keys; its record's net names are the interned ones. *)

val finish : builder -> t
(** Validate and build, exactly as {!create} does (same order, same
    messages, same span). *)

val cells : t -> cell list
(** In declaration order; built from {!graph} on each call. *)

val primary_inputs : t -> string list
val primary_outputs : t -> string list
(** As given, duplicates included; built from {!graph} on each call. *)

val topological : t -> cell list
(** Cells in dependency order (drivers before readers). *)

val fanout_load : t -> net:string -> float
(** Capacitive load seen by the driver of [net]: the sum of the input
    capacitances of all cell pins reading it (in {!readers} order), plus
    20 fF for the interconnect, plus 50 fF if the net is a primary output
    (pad/probe load). *)

val driver : t -> net:string -> cell option
(** The cell driving [net]; [None] for primary inputs. *)

val readers : t -> net:string -> (cell * int) list
(** Cells (with the pin index) reading [net]. *)

val graph : t -> cell Proxim_timing.Graph.t
(** The design's timing-graph IR: interned nets and cells with adjacency,
    topological order and levels.  {!topological}, {!driver} and
    {!readers} are views over it; the {!Sta} propagation engines and the
    incremental timing analysis annotate it directly. *)

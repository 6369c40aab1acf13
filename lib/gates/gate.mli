(** Structural generators for static CMOS gates.

    A gate is described by its pull-down network over input pins as a
    series/parallel expression; the pull-up network is the dual.  This
    covers inverters, n-input NAND/NOR and AOI/OAI complex gates — every
    topology used in the paper and in the STA examples.

    Transistor-level detail follows the paper's setup: one NMOS/PMOS pair
    per pin, fixed widths per polarity, diffusion parasitics lumped as
    node-to-ground capacitors, an explicit load capacitor at the output,
    ideal PWL sources driving the inputs, and a stiff Vdd source. *)

type network =
  | Pin of int
  | Series of network list
  | Parallel of network list

val dual : network -> network
(** Series/parallel dual (pull-up from pull-down). *)

val network_pins : network -> int list
(** Sorted, deduplicated pin indices used in the expression. *)

type t = {
  name : string;
  tech : Tech.t;
  fan_in : int;
  pulldown : network;
  wn : float;  (** NMOS width, m *)
  wp : float;  (** PMOS width, m *)
  load : float;  (** default external output load, F *)
}

val nand : ?wn:float -> ?wp:float -> ?load:float -> Tech.t -> fan_in:int -> t
(** n-input NAND; pin 0 sits next to the output, pin [fan_in - 1] next to
    ground in the NMOS stack.  Defaults: [wn = 4 um], [wp = 8 um],
    [load = 100 fF].  Requires [fan_in >= 1]. *)

val nor : ?wn:float -> ?wp:float -> ?load:float -> Tech.t -> fan_in:int -> t
(** n-input NOR; pin 0 sits next to the output in the PMOS stack. *)

val inverter : ?wn:float -> ?wp:float -> ?load:float -> Tech.t -> t

val aoi21 : ?wn:float -> ?wp:float -> ?load:float -> Tech.t -> t
(** AND-OR-INVERT: pull-down [(p0 AND p1) OR p2]. *)

val oai21 : ?wn:float -> ?wp:float -> ?load:float -> Tech.t -> t

val custom :
  name:string -> ?wn:float -> ?wp:float -> ?load:float -> Tech.t ->
  pulldown:network -> t
(** Any series/parallel pull-down.  Pins must be numbered contiguously
    from 0; raises [Invalid_argument] otherwise. *)

val pin_name : int -> string
(** [pin_name 0 = "a"], ["b"], ... (after ["z"]: ["p26"], ["p27"], ...). *)

val of_name : Tech.t -> string -> (t, string) result
(** Gate factory by conventional name: ["inv"], ["nandN"], ["norN"]
    (N in 1..6), ["aoi21"], ["oai21"].  [Error] carries a human-readable
    message listing the accepted forms. *)

val input_capacitance : t -> float
(** Gate capacitance presented by one input pin, F. *)

val output_parasitic : t -> float
(** Diffusion capacitance contributed at the output node by the
    transistors whose drains connect to it, F.  The effective load the
    output sees is [load + output_parasitic]; macromodels use this sum in
    their dimensionless argument. *)

val network_conducts : network -> on:(int -> bool) -> bool
(** Does the series/parallel network conduct when exactly the pins [on]
    selects are switched on?  The one boolean evaluator of a transistor
    network ({!switching_assist}, {!eval_bool} and the collapse baselines
    all decide through it). *)

val eval_bool : t -> (int -> bool) -> bool
(** [eval_bool g on] is the gate's boolean output when input [p] is high
    exactly when [on p]: high exactly when the pull-down network does
    not conduct.  The boolean restriction of {!Ternary.eval_gate},
    shared by the glitch polarity rule, the sensitization engine and the
    harness's logic oracle. *)

val switching_assist : t -> pins:int list -> output_rising:bool -> bool
(** Do the transistors of the switching [pins] {e assist} each other in
    the network that drives the output for this transition — i.e. does a
    single conducting one suffice (parallel branches), as opposed to all
    being required (a series stack)?  [output_rising = true] selects the
    pull-up network (inputs falling), [false] the pull-down.  This decides
    the dominance direction of the proximity algorithm: assisting inputs
    make the combined response track the {e earliest} would-be crossing,
    gating inputs the {e latest}.  NAND: assist on falling inputs, gate on
    rising; NOR: the mirror image.  Raises [Invalid_argument] on an empty
    pin list. *)

val assist_table : t -> (output_rising:bool -> first:int -> set:int -> bool)
(** [assist_table g] answers {!switching_assist} from a table filled
    once: apply it to the gate once and keep the lookup.  The key is the
    direction, the list's first pin and the set of its pins as a bitmask
    ([set]'s bit [first] is implied), which is everything
    {!switching_assist} reads of the list, so the answers are the same.
    Gates of up to 8 inputs are tabulated (2 x fan-in x 2{^fan-in}
    bytes); wider ones evaluate the networks per query.  The lookup
    raises [Invalid_argument] when [first] or a pin of [set] is not an
    input of [g]. *)

val noncontrolling_sensitization : t -> pin:int -> float array
(** Static levels (one per pin, V) that let the output depend on [pin]
    alone: the entry at [pin] itself is the non-controlling level too (the
    starting level from which that input will switch).  For a NAND this is
    all-Vdd; for a NOR all-0; for complex gates it picks the assignment
    that turns on series siblings and turns off parallel siblings of the
    pull-down path through [pin]. *)

type instance = {
  gate : t;
  net : Proxim_circuit.Netlist.t;
  out : Proxim_circuit.Netlist.node;
  vdd_node : Proxim_circuit.Netlist.node;
  input_nodes : Proxim_circuit.Netlist.node array;
  input_sources : string array;
      (** vsource name per pin, usable with simulator [overrides] *)
}

val instantiate :
  ?load:float -> t -> inputs:Proxim_waveform.Pwl.t array -> instance
(** Build a simulatable netlist with the given input waveforms (one per
    pin; raises [Invalid_argument] on arity mismatch).  [load] overrides
    the gate's default output load. *)

val emit :
  t ->
  builder:Proxim_circuit.Netlist.builder ->
  prefix:string ->
  out:Proxim_circuit.Netlist.node ->
  vdd:Proxim_circuit.Netlist.node ->
  inputs:Proxim_circuit.Netlist.node array ->
  unit
(** Add this gate's transistors and diffusion parasitics to an existing
    netlist under construction — the building block for flattening whole
    gate-level designs to one transistor-level netlist.  Device and
    internal-node names are prefixed with [prefix] to stay unique.  No
    sources and no external load are added.  Raises [Invalid_argument] on
    arity mismatch. *)

(** Circuit netlists.

    A netlist is a set of named nodes (node 0 is ground, named ["0"]) and a
    list of devices connecting them.  Netlists are built imperatively
    through a {!builder} — mirroring how a SPICE deck is written — and then
    frozen into an immutable {!t} consumed by the simulator.

    Supported devices cover everything the paper's experiments need:
    MOSFETs (via {!Proxim_device.Mosfet}), linear capacitors and resistors,
    and independent voltage sources driven by PWL waveforms
    ({!Proxim_waveform.Pwl}). *)

type node = int
(** Node handle.  [ground = 0]. *)

val ground : node

type device =
  | Mosfet of { name : string; params : Proxim_device.Mosfet.params;
                g : node; d : node; s : node }
  | Capacitor of { name : string; farads : float; a : node; b : node }
  | Resistor of { name : string; ohms : float; a : node; b : node }
  | Vsource of { name : string; wave : Proxim_waveform.Pwl.t;
                 pos : node; neg : node }

type t = private {
  node_count : int;  (** including ground *)
  node_names : string array;  (** indexed by node id *)
  devices : device array;
}

(** {1 Building} *)

type builder

val create : unit -> builder

val node : builder -> string -> node
(** [node b name] returns the node called [name], creating it on first
    use.  The name ["0"] (and ["gnd"]) refer to ground. *)

val add_mosfet :
  builder -> name:string -> params:Proxim_device.Mosfet.params ->
  g:node -> d:node -> s:node -> unit

val add_capacitor : builder -> name:string -> farads:float -> a:node -> b:node -> unit
(** Requires [farads > 0.]. *)

val add_resistor : builder -> name:string -> ohms:float -> a:node -> b:node -> unit
(** Requires [ohms > 0.]. *)

val add_vsource :
  builder -> name:string -> wave:Proxim_waveform.Pwl.t -> pos:node -> neg:node -> unit

val add_vdc : builder -> name:string -> volts:float -> pos:node -> neg:node -> unit
(** Convenience: a constant voltage source. *)

val freeze : builder -> t
(** Validate and seal the netlist.  Raises [Invalid_argument] when a
    device name is duplicated or a node is referenced but dangling (no
    DC path checks are performed — the simulator's gmin handles floating
    internal nodes). *)

(** {1 Queries} *)

val find_node : t -> string -> node
(** Raises [Not_found] for unknown names. *)

val device_count : t -> int

val pp : Format.formatter -> t -> unit
(** SPICE-deck-like listing, for debugging and golden tests. *)

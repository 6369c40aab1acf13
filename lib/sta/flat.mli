(** Flatten a gate-level design to one transistor-level netlist.

    This is the integration bridge between the STA view and the golden
    simulator: the same {!Design.t} that the timing analyzer reasons about
    can be expanded to transistors and simulated end-to-end, so
    block-level STA predictions are checked against "silicon" rather than
    against per-gate characterizations only.

    Modeling choices (matching how the per-gate models were built):
    - each cell's transistors and diffusion parasitics are emitted under a
      ["<cell>/"] prefix;
    - every cell input pin contributes its gate capacitance to its net
      (the MOSFET model itself is capacitance-free);
    - every net gets the same wire capacitance {!Design.fanout_load} uses,
      and primary outputs the same pad capacitance;
    - primary inputs are driven by ideal PWL sources named
      ["Vin_<net>"]. *)

type t = {
  design : Design.t;
  net : Proxim_circuit.Netlist.t;
  node_of_net : (string * Proxim_circuit.Netlist.node) list;
  vdd_node : Proxim_circuit.Netlist.node;
}

val flatten :
  Design.t -> pi_waves:(string * Proxim_waveform.Pwl.t) list -> t
(** Build the flat netlist.  Every primary input must be given a waveform;
    raises [Invalid_argument] otherwise.  All cells must share one
    technology card (checked). *)

val simulate : t -> t_stop:float -> Proxim_spice.Transient.result

val probe :
  t -> Proxim_spice.Transient.result -> net:string -> Proxim_waveform.Pwl.t
(** Waveform of a named net; raises [Not_found] for unknown nets. *)

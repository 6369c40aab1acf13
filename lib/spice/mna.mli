(** Modified Nodal Analysis system assembly.

    Internal to the simulator but exposed for white-box tests.  The unknown
    vector is laid out as the voltages of nodes [1 .. node_count-1]
    (ground eliminated) followed by one branch current per voltage source,
    in netlist declaration order.

    Sign conventions: the KCL residual of a node is the sum of currents
    {i leaving} the node; a voltage source's branch current flows from its
    positive terminal through the source to its negative terminal. *)

type t

val build : Proxim_circuit.Netlist.t -> t

val size : t -> int
(** Number of unknowns. *)

val node_unknowns : t -> int
(** Number of node-voltage unknowns (= node_count - 1). *)

val source_count : t -> int

val source_names : t -> string array
(** Branch order of the voltage sources. *)

val source_wave : t -> int -> Proxim_waveform.Pwl.t
(** Waveform of the [i]-th source. *)

val cap_count : t -> int

val cap_voltages : t -> x:float array -> float array -> unit
(** [cap_voltages t ~x v] writes the voltage across each capacitor
    ([va - vb]) under state [x] into [v.(0 .. cap_count - 1)]. *)

(** {1 Assembly}

    One analysis (a DC sweep, a transient) builds one {!workspace} and
    one set of {!companions} and reuses them for every Newton iteration
    of every point or step: assembling, factoring and solving then
    allocate nothing. *)

type companions = { geq : float array; ieq : float array }
(** Per-capacitor companion models, one entry per capacitor: the branch
    current is [geq.(k) * vab - ieq.(k)]. *)

val companions : t -> companions
(** Zeroed planes sized {!cap_count}. *)

type workspace = {
  jac : Proxim_util.Linalg.mat;
      (** [size] x [size]; {!Proxim_util.Linalg.lu_factor} exchanges its
          rows, which {!assemble} refills by index *)
  res : float array;  (** KCL and branch residuals *)
  rhs : float array;  (** the Newton right-hand side, [-res] *)
  dx : float array;  (** the Newton update *)
  perm : int array;  (** the LU row order *)
  mos_v : float array;  (** MOSFET terminal voltages [vg; vd; vs] *)
  mos_out : float array;  (** {!Proxim_device.Mosfet.eval_into}'s results *)
}

val workspace : t -> workspace
(** Fresh arrays sized from [t]. *)

val assemble :
  t ->
  workspace ->
  x:float array ->
  gmin:float ->
  source_values:float array ->
  companions:companions option ->
  unit
(** Fill the workspace's [jac] and [res] (both zeroed first) with the
    linearization of the circuit equations at state [x].

    [source_values.(k)] is the instantaneous EMF of branch [k].
    [companions] supplies the capacitors' companion models; [None] means
    DC analysis (capacitors open).  Each Jacobian and residual entry
    accumulates its stamps in a fixed order: gmin, resistors, capacitors,
    MOSFETs, then voltage sources, each in netlist declaration order. *)

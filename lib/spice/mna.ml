module Netlist = Proxim_circuit.Netlist
module Mosfet = Proxim_device.Mosfet

type cap_info = { ca : int; cb : int; farads : float }

type vsrc_info = {
  vname : string;
  pos : int;
  neg : int;
  wave : Proxim_waveform.Pwl.t;
}

type mos_info = { params : Mosfet.params; mg : int; md : int; ms : int }

type res_info = { ra : int; rb : int; conductance : float }

type t = {
  n_nodes : int;  (** unknown node voltages *)
  mosfets : mos_info array;
  resistors : res_info array;
  caps : cap_info array;
  vsrcs : vsrc_info array;
}

let build net =
  let mosfets = ref [] and resistors = ref [] in
  let caps = ref [] and vsrcs = ref [] in
  Array.iter
    (fun d ->
      match d with
      | Netlist.Mosfet { params; g; d; s; _ } ->
        mosfets := { params; mg = g; md = d; ms = s } :: !mosfets
      | Netlist.Resistor { ohms; a; b; _ } ->
        resistors := { ra = a; rb = b; conductance = 1. /. ohms } :: !resistors
      | Netlist.Capacitor { farads; a; b; _ } ->
        caps := { ca = a; cb = b; farads } :: !caps
      | Netlist.Vsource { name; wave; pos; neg } ->
        vsrcs := { vname = name; pos; neg; wave } :: !vsrcs)
    net.Netlist.devices;
  {
    n_nodes = net.Netlist.node_count - 1;
    mosfets = Array.of_list (List.rev !mosfets);
    resistors = Array.of_list (List.rev !resistors);
    caps = Array.of_list (List.rev !caps);
    vsrcs = Array.of_list (List.rev !vsrcs);
  }

let node_unknowns t = t.n_nodes
let source_count t = Array.length t.vsrcs
let size t = t.n_nodes + source_count t
let source_names t = Array.map (fun v -> v.vname) t.vsrcs
let source_wave t i = t.vsrcs.(i).wave
let cap_count t = Array.length t.caps

(* The stamps below are inlined top-level functions over the arrays they
   touch: a float passed to a closure or to a function that is not
   inlined would be boxed on every call. *)
let[@inline] volt (x : float array) n = if n = 0 then 0. else x.(n - 1)

let cap_voltages t ~x (v : float array) =
  for k = 0 to Array.length t.caps - 1 do
    let c = t.caps.(k) in
    v.(k) <- volt x c.ca -. volt x c.cb
  done

type companions = { geq : float array; ieq : float array }

let companions t =
  let n = cap_count t in
  { geq = Array.make n 0.; ieq = Array.make n 0. }

type workspace = {
  jac : Proxim_util.Linalg.mat;
  res : float array;
  rhs : float array;
  dx : float array;
  perm : int array;
  mos_v : float array;
  mos_out : float array;
}

let workspace t =
  let n = size t in
  {
    jac = Proxim_util.Linalg.make_mat n;
    res = Array.make n 0.;
    rhs = Array.make n 0.;
    dx = Array.make n 0.;
    perm = Array.make n 0;
    mos_v = Array.make 3 0.;
    mos_out = Array.make 4 0.;
  }

(* add [g] between the KCL row of [node] and the column of [col] *)
let[@inline] add_j (jac : Proxim_util.Linalg.mat) node col g =
  if node > 0 && col > 0 then begin
    let row = jac.(node - 1) in
    row.(col - 1) <- row.(col - 1) +. g
  end

let[@inline] add_r (res : float array) node i =
  if node > 0 then res.(node - 1) <- res.(node - 1) +. i

(* a conductance [g] between nodes [a] and [b] *)
let[@inline] add_g jac a b g =
  add_j jac a a g;
  add_j jac a b (-.g);
  add_j jac b b g;
  add_j jac b a (-.g)

let assemble t ws ~x ~gmin ~source_values ~companions =
  let n = size t in
  let jac = ws.jac and res = ws.res in
  for i = 0 to n - 1 do
    res.(i) <- 0.;
    Array.fill jac.(i) 0 n 0.
  done;
  (* gmin from every node to ground *)
  for node = 1 to t.n_nodes do
    add_r res node (gmin *. x.(node - 1));
    add_j jac node node gmin
  done;
  (* resistors *)
  for k = 0 to Array.length t.resistors - 1 do
    let { ra; rb; conductance = g } = t.resistors.(k) in
    let i = g *. (volt x ra -. volt x rb) in
    add_r res ra i;
    add_r res rb (-.i);
    add_g jac ra rb g
  done;
  (* capacitors through their companion models *)
  (match companions with
   | None -> ()
   | Some { geq; ieq } ->
     for k = 0 to Array.length t.caps - 1 do
       let { ca; cb; _ } = t.caps.(k) in
       let g = geq.(k) in
       let i = (g *. (volt x ca -. volt x cb)) -. ieq.(k) in
       add_r res ca i;
       add_r res cb (-.i);
       add_g jac ca cb g
     done);
  (* MOSFETs (with a gmin drain-source shunt: keeps internal stack nodes
     weakly tied when the whole channel is cut off, which conditions the
     Newton iteration) *)
  let v = ws.mos_v and e = ws.mos_out in
  for k = 0 to Array.length t.mosfets - 1 do
    let { params; mg; md; ms } = t.mosfets.(k) in
    let ish = gmin *. (volt x md -. volt x ms) in
    add_r res md ish;
    add_r res ms (-.ish);
    add_g jac md ms gmin;
    v.(0) <- volt x mg;
    v.(1) <- volt x md;
    v.(2) <- volt x ms;
    Mosfet.eval_into params v e;
    (* [e.(0)], the drain current, flows into the drain terminal: it
       leaves node [md] through the channel and re-enters the circuit at
       node [ms] *)
    let id = e.(0) and dg = e.(1) and dd = e.(2) and ds = e.(3) in
    add_r res md id;
    add_r res ms (-.id);
    add_j jac md mg dg;
    add_j jac md md dd;
    add_j jac md ms ds;
    add_j jac ms mg (-.dg);
    add_j jac ms md (-.dd);
    add_j jac ms ms (-.ds)
  done;
  (* voltage sources: KCL coupling plus the branch (EMF) equations *)
  for k = 0 to Array.length t.vsrcs - 1 do
    let { pos; neg; _ } = t.vsrcs.(k) in
    let row = t.n_nodes + k in
    let ib = x.(row) in
    add_r res pos ib;
    add_r res neg (-.ib);
    if pos > 0 then jac.(pos - 1).(row) <- jac.(pos - 1).(row) +. 1.;
    if neg > 0 then jac.(neg - 1).(row) <- jac.(neg - 1).(row) -. 1.;
    res.(row) <- volt x pos -. volt x neg -. source_values.(k);
    if pos > 0 then jac.(row).(pos - 1) <- jac.(row).(pos - 1) +. 1.;
    if neg > 0 then jac.(row).(neg - 1) <- jac.(row).(neg - 1) -. 1.
  done

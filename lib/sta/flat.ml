module Netlist = Proxim_circuit.Netlist
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Pwl = Proxim_waveform.Pwl
module Transient = Proxim_spice.Transient

type t = {
  design : Design.t;
  net : Netlist.t;
  node_of_net : (string * Netlist.node) list;
  vdd_node : Netlist.node;
}

let all_nets design =
  let nets = Hashtbl.create 32 in
  let add n = if not (Hashtbl.mem nets n) then Hashtbl.add nets n () in
  List.iter add (Design.primary_inputs design);
  List.iter
    (fun (c : Design.cell) ->
      add c.Design.output_net;
      Array.iter add c.Design.input_nets)
    (Design.cells design);
  Hashtbl.fold (fun n () acc -> n :: acc) nets []
  |> List.sort compare

let shared_tech design =
  match Design.cells design with
  | [] -> invalid_arg "Flat.flatten: empty design"
  | first :: rest ->
    let tech = first.Design.gate.Gate.tech in
    List.iter
      (fun (c : Design.cell) ->
        if c.Design.gate.Gate.tech.Tech.name <> tech.Tech.name then
          invalid_arg "Flat.flatten: mixed technology cards")
      rest;
    tech

let flatten design ~pi_waves =
  let tech = shared_tech design in
  List.iter
    (fun net ->
      if not (List.mem_assoc net pi_waves) then
        invalid_arg ("Flat.flatten: primary input without waveform: " ^ net))
    (Design.primary_inputs design);
  let b = Netlist.create () in
  let vdd_node = Netlist.node b "vdd" in
  let nets = all_nets design in
  let node_of_net = List.map (fun n -> (n, Netlist.node b n)) nets in
  let node net = List.assoc net node_of_net in
  (* cell transistors *)
  List.iter
    (fun (c : Design.cell) ->
      let inputs = Array.map node c.Design.input_nets in
      Gate.emit c.Design.gate ~builder:b
        ~prefix:(c.Design.name ^ "/")
        ~out:(node c.Design.output_net) ~vdd:vdd_node ~inputs)
    (Design.cells design);
  (* per-net loads: gate capacitance of reading pins + wire (+ pad),
     exactly what Design.fanout_load charges the driver with *)
  List.iter
    (fun net_name ->
      let pin_caps =
        List.fold_left
          (fun acc ((c : Design.cell), _pin) ->
            acc +. Gate.input_capacitance c.Design.gate)
          0.
          (Design.readers design ~net:net_name)
      in
      let wire = Design.fanout_load design ~net:net_name -. pin_caps in
      let total = pin_caps +. wire in
      if total > 0. then
        Netlist.add_capacitor b
          ~name:("cnet_" ^ net_name)
          ~farads:total ~a:(node net_name) ~b:Netlist.ground)
    nets;
  (* sources *)
  Netlist.add_vdc b ~name:"Vdd" ~volts:tech.Tech.vdd ~pos:vdd_node
    ~neg:Netlist.ground;
  List.iter
    (fun pi ->
      let wave = List.assoc pi pi_waves in
      Netlist.add_vsource b ~name:("Vin_" ^ pi) ~wave ~pos:(node pi)
        ~neg:Netlist.ground)
    (Design.primary_inputs design);
  { design; net = Netlist.freeze b; node_of_net; vdd_node }

let simulate t ~t_stop = Transient.run t.net ~t_stop

let probe t result ~net =
  match List.assoc_opt net t.node_of_net with
  | Some node -> Transient.probe result node
  | None -> raise Not_found

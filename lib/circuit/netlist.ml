type node = int

let ground = 0

type device =
  | Mosfet of { name : string; params : Proxim_device.Mosfet.params;
                g : node; d : node; s : node }
  | Capacitor of { name : string; farads : float; a : node; b : node }
  | Resistor of { name : string; ohms : float; a : node; b : node }
  | Vsource of { name : string; wave : Proxim_waveform.Pwl.t;
                 pos : node; neg : node }

type t = {
  node_count : int;
  node_names : string array;
  devices : device array;
}

type builder = {
  mutable names : string list;  (** reversed, excluding ground *)
  tbl : (string, node) Hashtbl.t;
  mutable devs : device list;  (** reversed *)
  mutable next : node;
}

let create () =
  let tbl = Hashtbl.create 16 in
  Hashtbl.add tbl "0" ground;
  Hashtbl.add tbl "gnd" ground;
  { names = []; tbl; devs = []; next = 1 }

let node b name =
  match Hashtbl.find_opt b.tbl name with
  | Some n -> n
  | None ->
    let n = b.next in
    b.next <- n + 1;
    Hashtbl.add b.tbl name n;
    b.names <- name :: b.names;
    n

let add_device b d = b.devs <- d :: b.devs

let add_mosfet b ~name ~params ~g ~d ~s =
  add_device b (Mosfet { name; params; g; d; s })

let add_capacitor b ~name ~farads ~a ~b:bn =
  if farads <= 0. then invalid_arg "Netlist.add_capacitor: farads <= 0";
  add_device b (Capacitor { name; farads; a; b = bn })

let add_resistor b ~name ~ohms ~a ~b:bn =
  if ohms <= 0. then invalid_arg "Netlist.add_resistor: ohms <= 0";
  add_device b (Resistor { name; ohms; a; b = bn })

let add_vsource b ~name ~wave ~pos ~neg =
  add_device b (Vsource { name; wave; pos; neg })

let add_vdc b ~name ~volts ~pos ~neg =
  add_vsource b ~name ~wave:(Proxim_waveform.Pwl.constant volts) ~pos ~neg

let device_name = function
  | Mosfet { name; _ } | Capacitor { name; _ }
  | Resistor { name; _ } | Vsource { name; _ } -> name

let freeze b =
  let devices = Array.of_list (List.rev b.devs) in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      let name = device_name d in
      if Hashtbl.mem seen name then
        invalid_arg ("Netlist.freeze: duplicate device name " ^ name);
      Hashtbl.add seen name ())
    devices;
  let node_names = Array.make b.next "0" in
  List.iteri
    (fun i name -> node_names.(b.next - 1 - i) <- name)
    b.names;
  { node_count = b.next; node_names; devices }

let find_node t name =
  let rec search i =
    if i >= t.node_count then raise Not_found
    else if String.equal t.node_names.(i) name then i
    else search (i + 1)
  in
  if String.equal name "gnd" then ground else search 0

let node_name t n = t.node_names.(n)

let device_count t = Array.length t.devices

let pp ppf t =
  Format.fprintf ppf "* netlist: %d nodes, %d devices@." t.node_count
    (Array.length t.devices);
  let name = node_name t in
  Array.iter
    (fun d ->
      match d with
      | Mosfet { name = dn; params; g; d; s } ->
        let pol =
          match params.Proxim_device.Mosfet.polarity with
          | Proxim_device.Mosfet.Nmos -> "nmos"
          | Proxim_device.Mosfet.Pmos -> "pmos"
        in
        Format.fprintf ppf "M%s %s %s %s %s W=%.3g L=%.3g@." dn (name d)
          (name g) (name s) pol params.Proxim_device.Mosfet.w
          params.Proxim_device.Mosfet.l
      | Capacitor { name = dn; farads; a; b } ->
        Format.fprintf ppf "C%s %s %s %.3g@." dn (name a) (name b) farads
      | Resistor { name = dn; ohms; a; b } ->
        Format.fprintf ppf "R%s %s %s %.3g@." dn (name a) (name b) ohms
      | Vsource { name = dn; pos; neg; _ } ->
        Format.fprintf ppf "V%s %s %s PWL@." dn (name pos) (name neg))
    t.devices

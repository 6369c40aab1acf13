module Netlist = Proxim_circuit.Netlist
module Pwl = Proxim_waveform.Pwl

type network = Pin of int | Series of network list | Parallel of network list

let rec dual = function
  | Pin i -> Pin i
  | Series l -> Parallel (List.map dual l)
  | Parallel l -> Series (List.map dual l)

let network_pins nw =
  let rec collect acc = function
    | Pin i -> i :: acc
    | Series l | Parallel l -> List.fold_left collect acc l
  in
  List.sort_uniq compare (collect [] nw)

type t = {
  name : string;
  tech : Tech.t;
  fan_in : int;
  pulldown : network;
  wn : float;
  wp : float;
  load : float;
}

let default_wn = 4e-6
let default_wp = 8e-6
let default_load = 100e-15

let validate_pins nw =
  let pins = network_pins nw in
  let expected = List.init (List.length pins) (fun i -> i) in
  if pins <> expected then
    invalid_arg "Gate: pins must be numbered contiguously from 0";
  List.length pins

let custom ~name ?(wn = default_wn) ?(wp = default_wp) ?(load = default_load)
    tech ~pulldown =
  let fan_in = validate_pins pulldown in
  { name; tech; fan_in; pulldown; wn; wp; load }

let nand ?wn ?wp ?load tech ~fan_in =
  assert (fan_in >= 1);
  let pulldown = Series (List.init fan_in (fun i -> Pin i)) in
  custom ~name:(Printf.sprintf "nand%d" fan_in) ?wn ?wp ?load tech ~pulldown

let nor ?wn ?wp ?load tech ~fan_in =
  assert (fan_in >= 1);
  let pulldown = Parallel (List.init fan_in (fun i -> Pin i)) in
  custom ~name:(Printf.sprintf "nor%d" fan_in) ?wn ?wp ?load tech ~pulldown

let inverter ?wn ?wp ?load tech =
  custom ~name:"inv" ?wn ?wp ?load tech ~pulldown:(Pin 0)

let aoi21 ?wn ?wp ?load tech =
  custom ~name:"aoi21" ?wn ?wp ?load tech
    ~pulldown:(Parallel [ Series [ Pin 0; Pin 1 ]; Pin 2 ])

let oai21 ?wn ?wp ?load tech =
  custom ~name:"oai21" ?wn ?wp ?load tech
    ~pulldown:(Series [ Parallel [ Pin 0; Pin 1 ]; Pin 2 ])

let pin_name i =
  if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i))
  else Printf.sprintf "p%d" i

let of_name tech name =
  let fail () =
    Error
      (Printf.sprintf
         "unknown gate %s (expected inv, nandN or norN with N in 1..6, \
          aoi21, oai21)"
         name)
  in
  match String.lowercase_ascii name with
  | "inv" | "not" -> Ok (inverter tech)
  | "aoi21" -> Ok (aoi21 tech)
  | "oai21" -> Ok (oai21 tech)
  | s ->
    let with_prefix prefix mk =
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        match int_of_string_opt (String.sub s plen (String.length s - plen)) with
        | Some n when n >= 1 && n <= 6 -> Some (Ok (mk n))
        | Some _ | None -> Some (fail ())
      else None
    in
    let nand_result = with_prefix "nand" (fun n -> nand tech ~fan_in:n) in
    let nor_result = with_prefix "nor" (fun n -> nor tech ~fan_in:n) in
    (match (nand_result, nor_result) with
     | Some r, _ | _, Some r -> r
     | None, None -> fail ())

let input_capacitance g =
  g.tech.Tech.cg_per_width *. (g.wn +. g.wp)

(* Number of transistors whose diffusion touches the [top] (respectively
   [bottom]) terminal of a series/parallel expression. *)
let rec touching_top = function
  | Pin _ -> 1
  | Parallel l -> List.fold_left (fun acc c -> acc + touching_top c) 0 l
  | Series [] -> 0
  | Series (first :: _) -> touching_top first

let rec touching_bottom = function
  | Pin _ -> 1
  | Parallel l -> List.fold_left (fun acc c -> acc + touching_bottom c) 0 l
  | Series [] -> 0
  | Series l -> (
    match List.rev l with [] -> 0 | last :: _ -> touching_bottom last)

let output_parasitic g =
  (* the pull-down hangs from the output by its top, the pull-up reaches
     the output at its bottom *)
  let n_down = touching_top g.pulldown in
  let n_up = touching_bottom (dual g.pulldown) in
  g.tech.Tech.cd_per_width
  *. ((float_of_int n_down *. g.wn) +. (float_of_int n_up *. g.wp))

(* Sensitization: walk the pull-down expression; the subtree containing
   [pin] recurses, series siblings are forced conducting (NMOS gates high)
   and parallel siblings forced non-conducting (NMOS gates low). *)
let noncontrolling_sensitization g ~pin =
  let vdd = g.tech.Tech.vdd in
  let levels = Array.make g.fan_in nan in
  let rec contains = function
    | Pin i -> i = pin
    | Series l | Parallel l -> List.exists contains l
  in
  let set_all level nw =
    List.iter (fun i -> levels.(i) <- level) (network_pins nw)
  in
  let rec walk nw =
    match nw with
    | Pin i -> assert (i = pin)
    | Series l ->
      List.iter
        (fun child -> if contains child then walk child else set_all vdd child)
        l
    | Parallel l ->
      List.iter
        (fun child -> if contains child then walk child else set_all 0. child)
        l
  in
  if pin < 0 || pin >= g.fan_in then invalid_arg "noncontrolling_sensitization";
  walk g.pulldown;
  (* the switching pin's own "stable" level is its non-controlling value in
     the pull-down network: conducting for series context = vdd start?  The
     paper starts a NAND input at Vdd (non-controlling is high for NAND).
     For the pin itself we report the level at which the pull-down path is
     blocked only by this pin: for NMOS that is 0 -> the pin's rest level
     before a rising transition.  Report vdd (the non-controlling level for
     series stacks) so NAND matches the paper; complex gates get the level
     that keeps their own branch conducting. *)
  levels.(pin) <- vdd;
  levels

(* Does the network conduct under a boolean pin assignment? *)
let rec network_conducts nw ~on =
  match nw with
  | Pin p -> on p
  | Series l -> List.for_all (fun c -> network_conducts c ~on) l
  | Parallel l -> List.exists (fun c -> network_conducts c ~on) l

let eval_bool g on = not (network_conducts g.pulldown ~on)

let switching_assist g ~pins ~output_rising =
  let first =
    match pins with
    | [] -> invalid_arg "Gate.switching_assist: no switching pins"
    | p :: _ -> p
  in
  let vdd = g.tech.Tech.vdd in
  let base = noncontrolling_sensitization g ~pin:first in
  let driving_network, stable_on =
    if output_rising then
      (* inputs falling -> pull-up drives; a stable pin's PMOS conducts
         when held low *)
      (dual g.pulldown, fun p -> base.(p) < vdd /. 2.)
    else (g.pulldown, fun p -> base.(p) > vdd /. 2.)
  in
  let on p = if List.mem p pins then p = first else stable_on p in
  network_conducts driving_network ~on

(* [switching_assist] reads its pin list only through the head and
   membership, so (direction, first pin, pin set) is its whole key: up
   to [assist_tabulated] inputs the answers are filled in once, 2 x
   fan_in x 2^fan_in bytes (4 KB at fan-in 8); wider gates evaluate the
   networks per query. *)
let assist_tabulated = 8

let assist_table g =
  let n = g.fan_in in
  let direct ~output_rising ~first ~set =
    let others =
      List.filter
        (fun p -> p <> first && (set lsr p) land 1 = 1)
        (List.init (min n (Sys.int_size - 1)) Fun.id)
    in
    switching_assist g ~pins:(first :: others) ~output_rising
  in
  let check ~first ~set =
    if first < 0 || first >= n || (n < Sys.int_size - 1 && set lsr n <> 0)
    then
      invalid_arg
        (Printf.sprintf "Gate.assist_table: pins outside the %d inputs of %s"
           n g.name)
  in
  if n > assist_tabulated then fun ~output_rising ~first ~set ->
    check ~first ~set;
    direct ~output_rising ~first ~set
  else begin
    let slot rising first set =
      ((((if rising then 1 else 0) * n) + first) lsl n) lor set
    in
    let table = Bytes.make (2 * n lsl n) '\000' in
    List.iter
      (fun output_rising ->
        for first = 0 to n - 1 do
          for set = 0 to (1 lsl n) - 1 do
            if direct ~output_rising ~first ~set then
              Bytes.set table (slot output_rising first set) '\001'
          done
        done)
      [ false; true ];
    fun ~output_rising ~first ~set ->
      check ~first ~set;
      Bytes.unsafe_get table (slot output_rising first set) = '\001'
  end


type instance = {
  gate : t;
  net : Netlist.t;
  out : Netlist.node;
  vdd_node : Netlist.node;
  input_nodes : Netlist.node array;
  input_sources : string array;
}

(* Add the transistors and diffusion parasitics of one gate to a netlist
   builder.  [extra_load] (if any) is folded into the output parasitic
   capacitor rather than emitted separately. *)
let emit_into g ~builder:b ~prefix ~out ~vdd ~inputs:input_nodes ~extra_load =
  if Array.length input_nodes <> g.fan_in then
    invalid_arg "Gate.emit: arity mismatch";
  let parasitic = Hashtbl.create 8 in
  let add_parasitic node farads =
    if node <> Netlist.ground && node <> vdd then begin
      let cur = Option.value ~default:0. (Hashtbl.find_opt parasitic node) in
      Hashtbl.replace parasitic node (cur +. farads)
    end
  in
  let fresh_node =
    let counter = ref 0 in
    fun stack ->
      incr counter;
      Netlist.node b (Printf.sprintf "%s%s%d" prefix stack !counter)
  in
  let mos_counter = ref 0 in
  let emit_mos params ~g:gn ~d ~s ~w =
    incr mos_counter;
    Netlist.add_mosfet b
      ~name:(Printf.sprintf "%sm%d" prefix !mos_counter)
      ~params ~g:gn ~d ~s;
    let cd = g.tech.Tech.cd_per_width *. w in
    add_parasitic d cd;
    add_parasitic s cd
  in
  (* wire a series/parallel expression between [top] and [bottom] *)
  let rec build nw ~top ~bottom ~params_of ~w ~stack =
    match nw with
    | Pin i -> emit_mos (params_of ()) ~g:input_nodes.(i) ~d:top ~s:bottom ~w
    | Parallel l ->
      List.iter (fun child -> build child ~top ~bottom ~params_of ~w ~stack) l
    | Series l ->
      let rec chain current = function
        | [] -> assert false
        | [ last ] -> build last ~top:current ~bottom ~params_of ~w ~stack
        | child :: rest ->
          let mid = fresh_node stack in
          build child ~top:current ~bottom:mid ~params_of ~w ~stack;
          chain mid rest
      in
      chain top l
  in
  build g.pulldown ~top:out ~bottom:Netlist.ground
    ~params_of:(fun () -> Tech.nmos g.tech ~w:g.wn)
    ~w:g.wn ~stack:"n";
  build (dual g.pulldown) ~top:vdd ~bottom:out
    ~params_of:(fun () -> Tech.pmos g.tech ~w:g.wp)
    ~w:g.wp ~stack:"p";
  add_parasitic out extra_load;
  Hashtbl.iter
    (fun node farads ->
      Netlist.add_capacitor b
        ~name:(Printf.sprintf "%sc_node%d" prefix node)
        ~farads ~a:node ~b:Netlist.ground)
    parasitic

let emit g ~builder ~prefix ~out ~vdd ~inputs =
  emit_into g ~builder ~prefix ~out ~vdd ~inputs ~extra_load:0.

let instantiate ?load g ~inputs =
  if Array.length inputs <> g.fan_in then
    invalid_arg "Gate.instantiate: arity mismatch";
  let load = match load with Some l -> l | None -> g.load in
  let b = Netlist.create () in
  let out = Netlist.node b "z" in
  let vdd_node = Netlist.node b "vdd" in
  let input_nodes =
    Array.init g.fan_in (fun i -> Netlist.node b (pin_name i))
  in
  let input_sources = Array.init g.fan_in (fun i -> "Vin_" ^ pin_name i) in
  emit_into g ~builder:b ~prefix:"" ~out ~vdd:vdd_node ~inputs:input_nodes
    ~extra_load:load;
  Netlist.add_vdc b ~name:"Vdd" ~volts:g.tech.Tech.vdd ~pos:vdd_node
    ~neg:Netlist.ground;
  Array.iteri
    (fun i wave ->
      Netlist.add_vsource b ~name:input_sources.(i) ~wave
        ~pos:input_nodes.(i) ~neg:Netlist.ground)
    inputs;
  let net = Netlist.freeze b in
  { gate = g; net; out; vdd_node; input_nodes; input_sources }

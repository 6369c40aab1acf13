module Gate = Proxim_gates.Gate
module Graph = Proxim_timing.Graph
module Trace = Proxim_obs.Trace

type cell = {
  name : string;
  gate : Gate.t;
  input_nets : string array;
  output_net : string;
}

type t = {
  graph : cell Graph.t;
  po_net : bool array;  (* net id -> is a primary output *)
}

type builder = {
  g : cell Graph.builder;
  mutable first_bad : string option;  (* the first per-cell defect *)
}

let builder ~cells ~nets = { g = Graph.builder ~cells ~nets; first_bad = None }
let net b name = Graph.intern b.g name
let net_sub b s ~pos ~len = Graph.intern_sub b.g s ~pos ~len
let add_primary_input b key = Graph.add_primary_input b.g key
let add_primary_output b key = Graph.add_primary_output b.g key

(* a repeated name or a wrong pin count, whichever cell comes first *)
let add b c ~inputs ~output =
  let fresh = Graph.add_cell b.g c.name c ~inputs ~output in
  if b.first_bad = None then
    if not fresh then b.first_bad <- Some ("duplicate cell " ^ c.name)
    else if Array.length inputs <> c.gate.Gate.fan_in then
      b.first_bad <- Some ("arity mismatch on " ^ c.name)

let add_cell b name gate inputs output =
  let input_nets = Array.make (Array.length inputs) "" in
  for pin = 0 to Array.length inputs - 1 do
    input_nets.(pin) <- Graph.interned b.g inputs.(pin)
  done;
  add b
    { name; gate; input_nets; output_net = Graph.interned b.g output }
    ~inputs ~output

let build b =
  let fail m = invalid_arg ("Design.create: " ^ m) in
  Option.iter fail b.first_bad;
  match Graph.finish b.g with
  | Error d -> fail (Graph.defect_message d)
  | Ok graph ->
    let po_net = Array.make (Graph.net_count graph) false in
    Array.iter (fun n -> po_net.(n) <- true) (Graph.primary_outputs graph);
    { graph; po_net }

let span f = Trace.with_span ~cat:"sta" "design.create" f
let finish b = span (fun () -> build b)

let create ~cells ~primary_inputs ~primary_outputs =
  span @@ fun () ->
  let n = List.length cells in
  let b = builder ~cells:n ~nets:(n + List.length primary_inputs) in
  List.iter (fun p -> add_primary_input b (net b p)) primary_inputs;
  List.iter (fun p -> add_primary_output b (net b p)) primary_outputs;
  List.iter
    (fun c ->
      add b c
        ~inputs:(Array.map (net b) c.input_nets)
        ~output:(net b c.output_net))
    cells;
  build b

let graph t = t.graph
let cells t = List.init (Graph.cell_count t.graph) (Graph.payload t.graph)
let names t ids = Array.to_list (Array.map (Graph.net_name t.graph) ids)
let primary_inputs t = names t (Graph.primary_inputs t.graph)
let primary_outputs t = names t (Graph.primary_outputs t.graph)

let topological t =
  Array.to_list (Array.map (Graph.payload t.graph) (Graph.topological t.graph))

let readers t ~net =
  match Graph.net_id t.graph net with
  | None -> []
  | Some id ->
    Array.to_list
      (Array.map
         (fun (c, pin) -> (Graph.payload t.graph c, pin))
         (Graph.readers t.graph ~net:id))

let driver t ~net =
  match Graph.net_id t.graph net with
  | None -> None
  | Some id ->
    Option.map (Graph.payload t.graph) (Graph.driver t.graph ~net:id)

let wire_cap = 20e-15
let pad_cap = 50e-15

let fanout_load t ~net =
  let pin_caps, pad =
    match Graph.net_id t.graph net with
    | None -> (0., 0.)
    | Some id ->
      ( Array.fold_left
          (fun acc (c, _pin) ->
            acc +. Gate.input_capacitance (Graph.payload t.graph c).gate)
          0. (Graph.readers t.graph ~net:id),
        if t.po_net.(id) then pad_cap else 0. )
  in
  pin_caps +. wire_cap +. pad

module Gate = Proxim_gates.Gate
module Graph = Proxim_timing.Graph
module Netlist_text = Proxim_sta.Netlist_text

type options = { fanout_limit : int }

let default_options = { fanout_limit = 8 }

let check_raw ?(options = default_options) ?file (raw : Netlist_text.raw) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let mk ?severity ?line ?col ?context code fmt =
    Diagnostic.make ?severity ?file ?line ?col ?context code fmt
  in
  (* PX100: everything the scanner could not make sense of *)
  List.iter
    (fun (e : Netlist_text.raw_error) ->
      add (mk ~line:e.err_line ~col:e.err_col PX100 "%s" e.err_msg))
    raw.Netlist_text.raw_errors;
  (* PX108 *)
  if raw.Netlist_text.raw_name = None then
    add (mk PX108 "missing 'design' directive");
  let cells = raw.Netlist_text.raw_cells in
  let pis = List.map fst raw.Netlist_text.raw_inputs in
  (* hash sets, not list scans: [is_pi] runs for every cell output and
     input pin, [is_po] for every unread output *)
  let member_of nets =
    let set = Hashtbl.create (List.length nets) in
    List.iter (fun net -> Hashtbl.replace set net ()) nets;
    Hashtbl.mem set
  in
  let is_pi = member_of pis in
  let is_po = member_of (List.map fst raw.Netlist_text.raw_outputs) in
  (* PX101: duplicate cell names (first definition wins downstream) *)
  let cell_lines = Hashtbl.create 16 in
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      match Hashtbl.find_opt cell_lines c.Netlist_text.cell_name with
      | Some first ->
        add
          (mk ~line:c.Netlist_text.line ~context:c.Netlist_text.cell_name
             PX101 "duplicate cell name %S (first defined at line %d)"
             c.Netlist_text.cell_name first)
      | None ->
        Hashtbl.add cell_lines c.Netlist_text.cell_name c.Netlist_text.line)
    cells;
  (* PX102: arity *)
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      let want = c.Netlist_text.gate.Gate.fan_in in
      let got = List.length c.Netlist_text.inputs in
      if got <> want then
        add
          (mk ~line:c.Netlist_text.line ~col:c.Netlist_text.gate_col
             ~context:c.Netlist_text.cell_name PX102
             "gate %s wants %d inputs, got %d" c.Netlist_text.gate.Gate.name
             want got))
    cells;
  (* drivers: PX103 (double drivers), PX104 (driven primary inputs) *)
  let driver : (string, Netlist_text.raw_cell) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      let net = c.Netlist_text.output in
      (match Hashtbl.find_opt driver net with
       | Some first ->
         add
           (mk ~line:c.Netlist_text.line ~context:net PX103
              "net %S driven by both %s (line %d) and %s" net
              first.Netlist_text.cell_name first.Netlist_text.line
              c.Netlist_text.cell_name)
       | None -> Hashtbl.add driver net c);
      if is_pi net then
        add
          (mk ~line:c.Netlist_text.line ~context:net PX104
             "cell %s drives primary input %S" c.Netlist_text.cell_name net))
    cells;
  let driven net = Hashtbl.mem driver net in
  (* readers *)
  let readers : (string, Netlist_text.raw_cell list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      List.iter
        (fun net ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt readers net) in
          Hashtbl.replace readers net (c :: cur))
        c.Netlist_text.inputs)
    cells;
  let fanout net =
    List.length (Option.value ~default:[] (Hashtbl.find_opt readers net))
  in
  (* PX105: undriven nets, reported once per net at the first reader *)
  let reported_undriven = Hashtbl.create 8 in
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      List.iter
        (fun net ->
          if
            (not (driven net)) && (not (is_pi net))
            && not (Hashtbl.mem reported_undriven net)
          then begin
            Hashtbl.add reported_undriven net ();
            add
              (mk ~line:c.Netlist_text.line ~context:net PX105
                 "net %S read by cell %s is driven by nothing and is not a \
                  primary input"
                 net c.Netlist_text.cell_name)
          end)
        c.Netlist_text.inputs)
    cells;
  (* PX107: undriven primary outputs *)
  List.iter
    (fun (net, line) ->
      if (not (driven net)) && not (is_pi net) then
        add
          (mk ~line ~context:net PX107
             "primary output %S is driven by nothing and is not a primary \
              input"
             net))
    raw.Netlist_text.raw_outputs;
  (* PX106: combinational cycles, found by the shared graph algorithms
     (Proxim_timing.Graph.cycles): DFS over reader -> driver edges, one
     diagnostic per back edge.  The first declared driver of a net wins,
     matching the PX103 arbitration above, so broken netlists still get a
     deterministic cycle report. *)
  let cell_arr = Array.of_list cells in
  let n_cells = Array.length cell_arr in
  let driver_idx : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (c : Netlist_text.raw_cell) ->
      if not (Hashtbl.mem driver_idx c.Netlist_text.output) then
        Hashtbl.add driver_idx c.Netlist_text.output i)
    cell_arr;
  let fanin i =
    List.filter_map
      (fun net -> Hashtbl.find_opt driver_idx net)
      cell_arr.(i).Netlist_text.inputs
  in
  List.iter
    (fun (entry, members) ->
      let entry_cell = cell_arr.(entry) in
      let names =
        List.map (fun i -> cell_arr.(i).Netlist_text.cell_name) members
      in
      add
        (mk ~line:entry_cell.Netlist_text.line
           ~context:entry_cell.Netlist_text.cell_name PX106
           "combinational cycle: %s"
           (String.concat " -> " (names @ [ List.hd names ]))))
    (Graph.cycles ~n:n_cells ~succ:fanin ~roots:(List.init n_cells Fun.id));
  (* PX110: cell outputs nobody consumes *)
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      let net = c.Netlist_text.output in
      if fanout net = 0 && not (is_po net) then
        add
          (mk ~line:c.Netlist_text.line ~context:net PX110
             "output %S of cell %s is read by nothing and is not a primary \
              output"
             net c.Netlist_text.cell_name))
    cells;
  (* PX111: dead primary inputs (feeding a primary output through a
     direct feed-through still counts as used) *)
  List.iter
    (fun (net, line) ->
      if fanout net = 0 && not (is_po net) then
        add (mk ~line ~context:net PX111 "primary input %S is read by no cell" net))
    raw.Netlist_text.raw_inputs;
  (* PX112: fanout outliers *)
  Hashtbl.iter
    (fun net rs ->
      let n = List.length rs in
      if n > options.fanout_limit then
        let line =
          Option.map
            (fun (c : Netlist_text.raw_cell) -> c.Netlist_text.line)
            (Hashtbl.find_opt driver net)
        in
        add
          (mk ?line ~context:net PX112
             "net %S fans out to %d pins (limit %d) — the load model and the \
              characterized tables get unreliable out here"
             net n options.fanout_limit))
    readers;
  (* PX113: primary outputs no primary-input event can ever reach —
     forward reachability (Proxim_timing.Graph.reachable) over
     input-net -> output-net edges from the primary inputs.  Nets are
     interned on the fly since a broken netlist has no arena yet. *)
  let net_idx : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let n_nets = ref 0 in
  let net_succ : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let intern net =
    match Hashtbl.find_opt net_idx net with
    | Some i -> i
    | None ->
      let i = !n_nets in
      incr n_nets;
      Hashtbl.add net_idx net i;
      i
  in
  let pi_roots = List.map intern pis in
  List.iter
    (fun (c : Netlist_text.raw_cell) ->
      let out = intern c.Netlist_text.output in
      List.iter
        (fun input ->
          let i = intern input in
          let cur = Option.value ~default:[] (Hashtbl.find_opt net_succ i) in
          Hashtbl.replace net_succ i (out :: cur))
        c.Netlist_text.inputs)
    cells;
  let net_reachable =
    Graph.reachable ~n:!n_nets
      ~succ:(fun i -> Option.value ~default:[] (Hashtbl.find_opt net_succ i))
      ~roots:pi_roots
  in
  List.iter
    (fun (net, line) ->
      let unreachable =
        match Hashtbl.find_opt net_idx net with
        | Some i -> not net_reachable.(i)
        | None -> true
      in
      if driven net && unreachable then
        add
          (mk ~line ~context:net PX113
             "primary output %S is unreachable from every primary input" net))
    raw.Netlist_text.raw_outputs;
  (* threshold directive, if any: the §2 checks with a source location *)
  (match raw.Netlist_text.raw_thresholds with
   | None -> ()
   | Some (th, line) ->
     List.iter add
       (Model_lint.check_thresholds ?file ~line ~name:"thresholds directive" th));
  Diagnostic.sort (List.rev !diags)

let check_text ?options ?file tech text =
  check_raw ?options ?file (Netlist_text.parse_raw tech text)

module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Proximity = Proxim_core.Proximity
module Collapse = Proxim_baseline.Collapse
module Pool = Proxim_util.Pool
module Memo_cache = Proxim_util.Memo_cache
module Graph = Proxim_timing.Graph
module Timing = Proxim_timing.Timing
module Paths = Proxim_timing.Paths
module Trace = Proxim_obs.Trace
module Metrics = Proxim_obs.Metrics

let c_pruned = Metrics.Counter.v "sta.pruned_evaluations"
let h_analyze = Metrics.Histogram.v "sta.analyze_seconds"
let h_update = Metrics.Histogram.v "sta.update_seconds"

type arrival = Timing.arrival = {
  time : float;
  slew : float;
  edge : Measure.edge;
}

exception Mixed_input_edges of { cell : string }

exception No_switching_inputs of { cell : string }

exception Unknown_eco_target of { kind : string; name : string }

let () =
  Printexc.register_printer (function
    | Mixed_input_edges { cell } ->
      Some
        (Printf.sprintf
           "Sta.analyze: mixed input edges at cell %s (a single-vector \
            analysis cannot order a glitch)"
           cell)
    | No_switching_inputs { cell } ->
      Some
        (Printf.sprintf
           "Sta.analyze: internal invariant broken — cell %s was evaluated \
            with no switching inputs"
           cell)
    | Unknown_eco_target { kind; name } ->
      Some (Printf.sprintf "Sta.update: unknown %s %s" kind name)
    | _ -> None)

type mode = Classic | Proximity | Collapsed of Collapse.variant

type report = {
  arrivals : (string * arrival) list;
  critical_po : (string * arrival) option;
  predecessors : (string * string) list;
}

let report_equal r1 r2 =
  let named_eq (n1, a1) (n2, a2) =
    String.equal n1 n2 && Timing.arrival_eq a1 a2
  in
  List.equal named_eq r1.arrivals r2.arrivals
  && Option.equal named_eq r1.critical_po r2.critical_po
  && r1.predecessors = r2.predecessors

(* ---- propagation engines over the timing-graph IR ---- *)

let check_edges cell (inputs : Timing.input list) =
  match inputs with
  | [] -> None
  | { Timing.in_arrival = first; _ } :: rest ->
    if
      List.exists
        (fun (i : Timing.input) -> i.Timing.in_arrival.edge <> first.edge)
        rest
    then raise (Mixed_input_edges { cell = cell.Design.name });
    Some first.edge

let events_of_inputs inputs =
  List.map
    (fun (i : Timing.input) ->
      {
        Proximity.pin = i.Timing.in_pin;
        edge = i.Timing.in_arrival.edge;
        tau = i.Timing.in_arrival.slew;
        cross_time = i.Timing.in_arrival.time;
      })
    inputs

(* Per-pin would-be responses: the output arrival had this pin set the
   timing alone (the classic single-input view).  The winner's entry is
   overwritten with the actual output arrival, so the K-worst enumeration
   reproduces the reported arrival exactly on the top path. *)
let candidates_of (m : Models.t) ~edge ~out_time ~winner inputs =
  (* filled straight from the input list — no intermediate list of boxed
     records on what is the hottest allocation site of every engine *)
  match inputs with
  | [] -> [||]
  | (first : Timing.input) :: _ ->
    let n = List.length inputs in
    let cand (i : Timing.input) =
      let would_be =
        if i.Timing.in_pin = winner then out_time
        else
          i.Timing.in_arrival.time
          +. m.Models.delay1 ~pin:i.Timing.in_pin ~edge
               ~tau:i.Timing.in_arrival.slew
      in
      { Timing.pin = i.Timing.in_pin; from_net = i.Timing.in_net; would_be }
    in
    let out = Array.make n (cand first) in
    let rec fill k = function
      | [] -> ()
      | i :: rest ->
        if k > 0 then out.(k) <- cand i;
        fill (k + 1) rest
    in
    fill 0 inputs;
    out

(* latest single-input response wins; its transition time becomes the
   output slew, and the winning pin becomes the path predecessor *)
let classic_verdict (m : Models.t) ~cell ~edge ~slew_scale inputs =
  let responses =
    List.map
      (fun (i : Timing.input) ->
        let d =
          m.Models.delay1 ~pin:i.Timing.in_pin ~edge
            ~tau:i.Timing.in_arrival.slew
        in
        let t =
          m.Models.trans1 ~pin:i.Timing.in_pin ~edge
            ~tau:i.Timing.in_arrival.slew
        in
        (i.Timing.in_arrival.time +. d, t, i.Timing.in_pin))
      inputs
  in
  let time, slew, winner =
    match responses with
    | [] -> raise (No_switching_inputs { cell })
    | first :: rest ->
      List.fold_left
        (fun ((bt, _, _) as best) ((t, _, _) as r) ->
          if t > bt then r else best)
        first rest
  in
  let out = { time; slew = slew *. slew_scale; edge = Measure.opposite edge } in
  {
    Timing.out;
    winner;
    candidates = candidates_of m ~edge ~out_time:time ~winner inputs;
  }

(* Fast path for cells a static analysis proved never-proximate: the
   dominant (earliest would-be) input alone decides the output, every
   other input falls outside its transition window, and the correction
   weight is zero.  Under those facts [Proximity.evaluate] computes
   exactly [t_dom +. d1_dom] and [t1_dom] — the fold never fires a dual
   query — so recomputing those two expressions here is bit-identical
   while skipping the assist lookup, the dominance sort and the fold.
   The winner scan keeps the first strict minimum in pin order, which is
   where the stable dominance sort puts it; never-proximate verdicts
   guarantee the minimum is unique anyway. *)
let pruned_proximity_verdict (m : Models.t) ~cell ~edge ~slew_scale inputs =
  let keyed =
    List.map
      (fun (i : Timing.input) ->
        let d1 =
          m.Models.delay1 ~pin:i.Timing.in_pin ~edge
            ~tau:i.Timing.in_arrival.slew
        in
        (i, i.Timing.in_arrival.time +. d1))
      inputs
  in
  let win, time =
    match keyed with
    | [] -> raise (No_switching_inputs { cell })
    | first :: rest ->
      List.fold_left
        (fun ((_, bt) as best) ((_, t) as k) -> if t < bt then k else best)
        first rest
  in
  let t1 =
    m.Models.trans1 ~pin:win.Timing.in_pin ~edge ~tau:win.Timing.in_arrival.slew
  in
  let out = { time; slew = t1 *. slew_scale; edge = Measure.opposite edge } in
  let winner = win.Timing.in_pin in
  {
    Timing.out;
    winner;
    candidates = candidates_of m ~edge ~out_time:time ~winner inputs;
  }

let proximity_verdict (m : Models.t) ~edge ~slew_scale inputs =
  let r = Proximity.evaluate m (events_of_inputs inputs) in
  let time = r.Proximity.ref_cross +. r.Proximity.delay in
  let out =
    {
      time;
      slew = r.Proximity.out_transition *. slew_scale;
      edge = Measure.opposite edge;
    }
  in
  let winner = r.Proximity.ref_pin in
  {
    Timing.out;
    winner;
    candidates = candidates_of m ~edge ~out_time:time ~winner inputs;
  }

(* The collapsed baseline has no per-pin macromodel to rank alternatives
   with, so every candidate carries the predicted arrival (degenerate
   would-be responses): the enumerated paths follow the ref pins but the
   near-critical alternatives are not differentiated. *)
let collapsed_verdict variant ~design ~thresholds ~slew_scale cell ~edge inputs
    =
  let load =
    Design.fanout_load design ~net:cell.Design.output_net
  in
  let p =
    Collapse.predict ~load variant cell.Design.gate thresholds
      ~events:(events_of_inputs inputs)
  in
  let out =
    {
      time = p.Collapse.out_cross;
      slew = p.Collapse.out_transition *. slew_scale;
      edge = Measure.opposite edge;
    }
  in
  {
    Timing.out;
    winner = p.Collapse.ref_pin;
    candidates =
      Array.of_list
        (List.map
           (fun (i : Timing.input) ->
             {
               Timing.pin = i.Timing.in_pin;
               from_net = i.Timing.in_net;
               would_be = p.Collapse.out_cross;
             })
           inputs);
  }

(* an analysis state counts its fast-path evaluations in one atomic per
   claiming source, at this slot *)
let hit_slot = function
  | Prune.Unsensitizable -> 0
  | Prune.Quiet -> 1
  | Prune.Never_proximate -> 2

let make_engine ~prune ~hits ~mode ~models ~thresholds ~design :
    Design.cell Timing.engine =
  let slew_scale = Proxim_vtc.Vtc.slew_scale thresholds in
  fun id cell inputs ->
    match check_edges cell inputs with
    | None -> None (* fully quiet cell *)
    | Some edge ->
      Some
        (match mode with
        | Classic ->
          classic_verdict (!models cell) ~cell:cell.Design.name ~edge
            ~slew_scale inputs
        | Proximity -> (
          match Prune.source prune id with
          | Some src ->
            Atomic.incr hits.(hit_slot src);
            Metrics.Counter.incr c_pruned;
            pruned_proximity_verdict (!models cell) ~cell:cell.Design.name
              ~edge ~slew_scale inputs
          | None -> proximity_verdict (!models cell) ~edge ~slew_scale inputs)
        | Collapsed variant ->
          collapsed_verdict variant ~design ~thresholds ~slew_scale cell ~edge
            inputs)

(* ---- the analysis state ---- *)

type ir = {
  design : Design.t;
  timing : Design.cell Timing.t;
  ir_mode : mode;
  models : (Design.cell -> Models.t) ref;
  hits : int Atomic.t array;
}

let set_pi ir (net, a) =
  match Graph.net_id (Design.graph ir.design) net with
  | None -> () (* a pi event for a net the design never mentions is inert *)
  | Some id -> Timing.set_source ir.timing ~net:id (Some a)

let build_ir ?(mode = Proximity) ?(prune = Prune.none) ~models ~thresholds
    design ~pi =
  let cells = Graph.cell_count (Design.graph design) in
  let masked = Prune.length prune in
  (* an id-indexed mask from another design would prune the wrong cells *)
  if masked <> 0 && masked <> cells then
    invalid_arg
      (Printf.sprintf "Sta.build_ir: prune mask covers %d cells, design has %d"
         masked cells);
  let models = ref models in
  let hits = Array.init 3 (fun _ -> Atomic.make 0) in
  let engine = make_engine ~prune ~hits ~mode ~models ~thresholds ~design in
  let ir =
    {
      design;
      timing = Timing.create (Design.graph design) ~engine;
      ir_mode = mode;
      models;
      hits;
    }
  in
  List.iter (set_pi ir) pi;
  ir

let design ir = ir.design
let timing ir = ir.timing
let mode ir = ir.ir_mode

let pruned_counts ir =
  let n src = Atomic.get ir.hits.(hit_slot src) in
  {
    Prune.unsensitizable = n Prune.Unsensitizable;
    quiet = n Prune.Quiet;
    never_proximate = n Prune.Never_proximate;
  }

let pruned_evaluations ir = Prune.total (pruned_counts ir)

let reanalyze ?pool ir =
  Trace.with_span ~cat:"sta" "sta.analyze" @@ fun () ->
  Metrics.Histogram.time h_analyze @@ fun () -> Timing.analyze ?pool ir.timing

type eco =
  | Set_pi of string * arrival option
  | Touch_cell of string

let update ?pool ir ecos =
  let body () =
    Metrics.Histogram.time h_update @@ fun () ->
    let g = Design.graph ir.design in
    let dirty_nets = ref [] in
    let dirty_cells = ref [] in
    List.iter
      (function
        | Set_pi (net, a) -> (
          match Graph.net_id g net with
          | None -> raise (Unknown_eco_target { kind = "net"; name = net })
          | Some id ->
            Timing.set_source ir.timing ~net:id a;
            dirty_nets := id :: !dirty_nets)
        | Touch_cell name -> (
          match Graph.cell_id g name with
          | None -> raise (Unknown_eco_target { kind = "cell"; name })
          | Some c -> dirty_cells := c :: !dirty_cells))
      ecos;
    Timing.update ?pool ir.timing ~dirty_nets:!dirty_nets
      ~dirty_cells:!dirty_cells
  in
  (* ECO updates are the latency-critical entry point: skip even the
     span-argument allocation unless a trace is being recorded *)
  if Trace.enabled () then
    Trace.with_span ~cat:"sta" "sta.update"
      ~args:[ ("ecos", string_of_int (List.length ecos)) ]
      body
  else body ()

let apply_ecos pi ecos =
  List.fold_left
    (fun pi -> function
      | Touch_cell _ -> pi
      | Set_pi (net, a) -> (
        (* every entry: a net named twice keeps the last, and a stale one
           would outlive the edit *)
        let rest = List.filter (fun (n, _) -> not (String.equal n net)) pi in
        match a with None -> rest | Some a -> rest @ [ (net, a) ]))
    pi ecos

let swap_models ?pool ir models =
  ir.models := models;
  Timing.update ?pool ir.timing ~dirty_nets:[]
    ~dirty_cells:(List.init (Graph.cell_count (Design.graph ir.design)) Fun.id)

(* ---- reports ---- *)

let source_arrivals ir =
  let g = Design.graph ir.design in
  Array.to_list (Graph.primary_inputs g)
  |> List.filter_map (fun net ->
       Option.map
         (fun a -> (Graph.net_name g net, a))
         (Timing.arrival ir.timing ~net))

let derived_arrivals ir =
  let g = Design.graph ir.design in
  Array.to_list (Graph.topological g)
  |> List.filter_map (fun c ->
       Option.map
         (fun (v : Timing.verdict) ->
           (Graph.net_name g (Graph.cell_output g c), v.Timing.out))
         (Timing.verdict ir.timing ~cell:c))

let report_with ir ~heads =
  let g = Design.graph ir.design in
  let arrivals = heads @ derived_arrivals ir in
  let critical_po =
    List.fold_left
      (fun best net ->
        match
          Option.bind (Graph.net_id g net) (fun id ->
              Timing.arrival ir.timing ~net:id)
        with
        | None -> best
        | Some a -> (
          match best with
          | Some (_, (b : arrival)) when b.time >= a.time -> best
          | Some _ | None -> Some (net, a)))
      None
      (Design.primary_outputs ir.design)
  in
  let predecessors =
    Array.to_list (Graph.topological g)
    |> List.filter_map (fun c ->
         let out = Graph.cell_output g c in
         Option.map
           (fun (pred, _pin) ->
             (Graph.net_name g out, Graph.net_name g pred))
           (Timing.predecessor ir.timing ~net:out))
  in
  { arrivals; critical_po; predecessors }

let report ir = report_with ir ~heads:(source_arrivals ir)

let analyze ?(mode = Proximity) ?prune ?pool ~models ~thresholds design ~pi =
  let ir = build_ir ~mode ?prune ~models ~thresholds design ~pi in
  ignore (reanalyze ?pool ir : Timing.stats);
  (* arrivals lead with the caller's pi list verbatim, like the historical
     hashtable-based analyzer did *)
  report_with ir ~heads:pi

let critical_path report ~po =
  if not (List.mem_assoc po report.arrivals) then []
  else begin
    let rec walk net acc =
      match List.assoc_opt net report.predecessors with
      | None -> net :: acc (* reached a primary input *)
      | Some pred -> walk pred (net :: acc)
    in
    List.rev (walk po [])
  end

type path = { path_arrival : float; path_nets : string list }

let worst_paths ir ~po ~k =
  let g = Design.graph ir.design in
  match Graph.net_id g po with
  | None -> []
  | Some id ->
    Paths.k_worst ir.timing ~po:id ~k
    |> List.map (fun (p : Paths.path) ->
         {
           path_arrival = p.Paths.p_arrival;
           path_nets = Paths.nets_of_path g p;
         })

(* The one slack ranking: each output in the design's order with the
   arrival it is listed at, worst slack first (stable, so ties keep the
   design's order). *)
let rank_slacks ~required outputs =
  outputs
  |> List.filter_map (fun (net, a) ->
       Option.map (fun (a : arrival) -> (net, required -. a.time)) a)
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)

let po_slacks design report ~required =
  (* the first arrival listed for a net wins, as with [List.assoc] *)
  let first = Hashtbl.create (List.length report.arrivals) in
  List.iter
    (fun (net, a) -> if not (Hashtbl.mem first net) then Hashtbl.add first net a)
    report.arrivals;
  Design.primary_outputs design
  |> List.map (fun net -> (net, Hashtbl.find_opt first net))
  |> rank_slacks ~required

let slacks ir ~required =
  let g = Design.graph ir.design in
  Array.to_list (Graph.primary_outputs g)
  |> List.map (fun net ->
       (Graph.net_name g net, Timing.arrival ir.timing ~net))
  |> rank_slacks ~required

let with_pi_all design named = function
  | None -> named
  | Some a ->
    named
    @ List.filter_map
        (fun net -> if List.mem_assoc net named then None else Some (net, a))
        (Design.primary_inputs design)

let default_thresholds design file_th =
  match (file_th, Design.cells design) with
  | Some th, _ -> th
  | None, c :: _ -> Vtc.thresholds c.Design.gate
  | None, [] -> Vtc.thresholds (Gate.inverter Proxim_gates.Tech.generic_5v)

(* ---- model factories ---- *)

type factory = {
  models : Design.cell -> Models.t;
  factory_stats : unit -> Memo_cache.stats;
}

(* wrap a (key, build) scheme into a factory whose stats merge the
   gate/load-bucket memo cache with the internal caches of every model it
   has built.  The created-model list is mutex-guarded: find_or_compute
   runs the builder outside any shard lock, and several domains may be
   building models for distinct keys at once. *)
let factory_of ~cache ~key_of ~build =
  let created = ref [] in
  let created_mutex = Mutex.create () in
  let models cell =
    Memo_cache.find_or_compute cache (key_of cell) (fun () ->
        let m = build cell in
        Mutex.protect created_mutex (fun () -> created := m :: !created);
        m)
  in
  let factory_stats () =
    let models_built = Mutex.protect created_mutex (fun () -> !created) in
    List.fold_left
      (fun acc (m : Models.t) ->
        Models.merge_stats acc (m.Models.cache_stats ()))
      (Memo_cache.stats cache) models_built
  in
  { models; factory_stats }

(* bucket the load at 1 fF so structurally identical cells share models *)
let load_bucket load = int_of_float ((load *. 1e15) +. 0.5)

let oracle_factory ?opts ?wire_cap design th =
  let cache = Memo_cache.create ~shards:4 ~local:true () in
  factory_of ~cache
    ~key_of:(fun (cell : Design.cell) ->
      let load =
        Design.fanout_load ?wire_cap design ~net:cell.Design.output_net
      in
      (cell.Design.gate.Gate.name, load_bucket load))
    ~build:(fun (cell : Design.cell) ->
      let load =
        Design.fanout_load ?wire_cap design ~net:cell.Design.output_net
      in
      Models.of_oracle ?opts ~load cell.Design.gate th)

let synthetic_factory ?seed ?spread ?work () =
  let cache = Memo_cache.create ~shards:4 ~local:true () in
  factory_of ~cache
    ~key_of:(fun (cell : Design.cell) -> cell.Design.gate.Gate.name)
    ~build:(fun (cell : Design.cell) ->
      Models.synthetic ?seed ?spread ?work cell.Design.gate)

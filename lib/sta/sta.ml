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

let valid_event a =
  Float.is_finite a.time && Float.is_finite a.slew && a.slew > 0.

exception Mixed_input_edges of { cell : string }

exception Unknown_eco_target of { kind : string; name : string }

let () =
  Printexc.register_printer (function
    | Mixed_input_edges { cell } ->
      Some
        (Printf.sprintf
           "Sta.analyze: mixed input edges at cell %s (a single-vector \
            analysis cannot order a glitch)"
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

(* Every engine reads the cell's switching inputs from the cursor and
   writes its answer back into it: the output arrival, its slew, the
   winning pin, and per input the would-be response — the output arrival
   had that pin set the timing alone (the classic single-input view),
   the winner's entry the actual output arrival, so the K-worst
   enumeration reproduces the reported arrival exactly on the top
   path. *)

let[@inline] set_output (cur : Timing.cursor) ~edge ~time ~slew ~winner =
  cur.Timing.result.(0) <- time;
  cur.Timing.result.(1) <- slew;
  cur.Timing.out_edge <- Measure.opposite edge;
  cur.Timing.winner <- winner

(* The single-input rules.  Every input's would-be response
   [t + Delta^(1)] goes into [would]; the first latest one ([latest],
   Classic: what a pin-to-pin STA reports) or the first earliest one
   wins, its single-input transition time becomes the output slew, and
   its pin the path predecessor.

   The earliest rule is the fast path for cells a static analysis proved
   never-proximate: the dominant (earliest would-be) input alone decides
   the output, every other input falls outside its transition window,
   and the correction weight is zero.  Under those facts [Proximity.fold]
   computes exactly [t_dom +. d1_dom] and [t1_dom] — the fold never
   fires a dual query — so these two expressions are bit-identical to it
   while skipping the assist lookup, the dominance sort and the fold.
   The scan keeps the first strict minimum in pin order, which is where
   the stable dominance sort puts it; never-proximate verdicts guarantee
   the minimum is unique anyway. *)
let single_input ~latest (m : Models.t) (cur : Timing.cursor) ~edge
    ~slew_scale =
  let best = ref 0 in
  for k = 0 to cur.Timing.count - 1 do
    let w =
      cur.Timing.times.(k)
      +. m.Models.delay1 ~pin:cur.Timing.pins.(k) ~edge
           ~tau:cur.Timing.slews.(k)
    in
    cur.Timing.would.(k) <- w;
    let b = cur.Timing.would.(!best) in
    if k > 0 && (if latest then w > b else w < b) then best := k
  done;
  let w = !best in
  let pin = cur.Timing.pins.(w) in
  set_output cur ~edge ~time:cur.Timing.would.(w)
    ~slew:
      (m.Models.trans1 ~pin ~edge ~tau:cur.Timing.slews.(w) *. slew_scale)
    ~winner:pin

(* Fig 4-1 on the cursor's inputs, over the bound cursor's scratch *)
let proximity (m : Models.t) fold (cur : Timing.cursor) ~edge ~slew_scale =
  let n = cur.Timing.count in
  Proximity.fold m fold ~edge ~n ~pins:cur.Timing.pins ~cross:cur.Timing.times
    ~taus:cur.Timing.slews;
  let dom = fold.Proximity.dominant in
  let time = cur.Timing.times.(dom) +. fold.Proximity.result.(0) in
  for k = 0 to n - 1 do
    cur.Timing.would.(k) <- fold.Proximity.key.(k)
  done;
  cur.Timing.would.(dom) <- time;
  set_output cur ~edge ~time
    ~slew:(fold.Proximity.result.(1) *. slew_scale)
    ~winner:cur.Timing.pins.(dom)

(* The collapsed baseline has no per-pin macromodel to rank alternatives
   with, so every input's would-be response is the predicted arrival:
   the enumerated paths follow the ref pins but the near-critical
   alternatives are not differentiated. *)
let collapsed variant ~design ~thresholds ~slew_scale cell
    (cur : Timing.cursor) ~edge =
  let load = Design.fanout_load design ~net:cell.Design.output_net in
  let events =
    List.init cur.Timing.count (fun k ->
        {
          Proximity.pin = cur.Timing.pins.(k);
          edge;
          tau = cur.Timing.slews.(k);
          cross_time = cur.Timing.times.(k);
        })
  in
  let p =
    Collapse.predict ~load variant cell.Design.gate thresholds ~events
  in
  Array.fill cur.Timing.would 0 cur.Timing.count p.Collapse.out_cross;
  set_output cur ~edge ~time:p.Collapse.out_cross
    ~slew:(p.Collapse.out_transition *. slew_scale)
    ~winner:p.Collapse.ref_pin

(* an analysis state counts its fast-path evaluations in one atomic per
   claiming source, at this slot *)
let hit_slot = function
  | Prune.Unsensitizable -> 0
  | Prune.Quiet -> 1
  | Prune.Never_proximate -> 2

let make_engine ~prune ~hits ~mode ~cell_models ~thresholds ~design :
    Design.cell Timing.engine =
  let slew_scale = Proxim_vtc.Vtc.slew_scale thresholds in
  fun cur ->
    (* this cursor's own fold scratch: engines bound to other cursors run
       on other domains *)
    let fold = Proximity.scratch (Array.length cur.Timing.pins) in
    fun id cell ->
      if cur.Timing.mixed then
        raise (Mixed_input_edges { cell = cell.Design.name });
      let edge = cur.Timing.edge in
      match mode with
      | Classic ->
        single_input ~latest:true cell_models.(id) cur ~edge ~slew_scale
      | Proximity -> (
        match Prune.source prune id with
        | Some src ->
          Atomic.incr hits.(hit_slot src);
          Metrics.Counter.incr c_pruned;
          single_input ~latest:false cell_models.(id) cur ~edge ~slew_scale
        | None -> proximity cell_models.(id) fold cur ~edge ~slew_scale)
      | Collapsed variant ->
        collapsed variant ~design ~thresholds ~slew_scale cell cur ~edge

(* ---- the analysis state ---- *)

(* [cell_models.(id)] is what [factory] answered for cell [id], asked on
   the calling domain: the sweep reads the array and never calls the
   factory.  The collapsed baselines read no macromodel, so in that mode
   the array is empty and the factory is never asked. *)
type ir = {
  design : Design.t;
  timing : Design.cell Timing.t;
  ir_mode : mode;
  mutable factory : Design.cell -> Models.t;
  cell_models : Models.t array;
  hits : int Atomic.t array;
}

let reads_models = function Classic | Proximity -> true | Collapsed _ -> false

let resolve ir id =
  if reads_models ir.ir_mode then
    ir.cell_models.(id) <-
      ir.factory (Graph.payload (Design.graph ir.design) id)

let set_pi ir (net, a) =
  match Graph.net_id (Design.graph ir.design) net with
  | None -> () (* a pi event for a net the design never mentions is inert *)
  | Some id -> Timing.set_source ir.timing ~net:id (Some a)

let build_ir ?(mode = Proximity) ?(prune = Prune.none) ~models ~thresholds
    design ~pi =
  let g = Design.graph design in
  let cells = Graph.cell_count g in
  let masked = Prune.length prune in
  (* an id-indexed mask from another design would prune the wrong cells *)
  if masked <> 0 && masked <> cells then
    invalid_arg
      (Printf.sprintf "Sta.build_ir: prune mask covers %d cells, design has %d"
         masked cells);
  let cell_models =
    if reads_models mode then
      Array.init cells (fun id -> models (Graph.payload g id))
    else [||]
  in
  let hits = Array.init 3 (fun _ -> Atomic.make 0) in
  let engine =
    make_engine ~prune ~hits ~mode ~cell_models ~thresholds ~design
  in
  let ir =
    {
      design;
      timing = Timing.create g ~engine;
      ir_mode = mode;
      factory = models;
      cell_models;
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
    let source net =
      match Graph.net_id g net with
      | None -> raise (Unknown_eco_target { kind = "net"; name = net })
      | Some id when Graph.driver_id g ~net:id >= 0 ->
        raise (Unknown_eco_target { kind = "primary input"; name = net })
      | Some id -> id
    in
    (* every target is resolved before any source moves: a batch naming
       one bad target raises with the analysis as it was *)
    let dirty_nets = ref [] in
    let dirty_cells = ref [] in
    List.iter
      (function
        | Set_pi (net, _) -> dirty_nets := source net :: !dirty_nets
        | Touch_cell name -> (
          match Graph.cell_id g name with
          | None -> raise (Unknown_eco_target { kind = "cell"; name })
          | Some c -> dirty_cells := c :: !dirty_cells))
      ecos;
    let dirty_nets = !dirty_nets and dirty_cells = !dirty_cells in
    let before =
      List.map (fun net -> (net, Timing.arrival ir.timing ~net)) dirty_nets
    in
    List.iter (resolve ir) dirty_cells;
    List.iter
      (function
        | Set_pi (net, a) -> Timing.set_source ir.timing ~net:(source net) a
        | Touch_cell _ -> ())
      ecos;
    try Timing.update ?pool ir.timing ~dirty_nets ~dirty_cells
    with e ->
      (* an engine failure mid-walk (a cell given mixed input edges) has
         moved the sources and committed part of the cone: put the
         sources back and walk the same cone again, which re-times every
         committed cell from its pre-batch inputs *)
      let bt = Printexc.get_raw_backtrace () in
      List.iter (fun (net, a) -> Timing.set_source ir.timing ~net a) before;
      (try ignore (Timing.update ?pool ir.timing ~dirty_nets ~dirty_cells)
       with _ -> () (* a shut-down pool: nothing more can be done *));
      Printexc.raise_with_backtrace e bt
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
  ir.factory <- models;
  let cells = List.init (Graph.cell_count (Design.graph ir.design)) Fun.id in
  List.iter (resolve ir) cells;
  Timing.update ?pool ir.timing ~dirty_nets:[] ~dirty_cells:cells

(* ---- reports ---- *)

let source_arrivals ir =
  let g = Design.graph ir.design in
  Array.to_list (Graph.primary_inputs g)
  |> List.filter_map (fun net ->
       Option.map
         (fun a -> (Graph.net_name g net, a))
         (Timing.arrival ir.timing ~net))

(* [f] of every switching cell's output net, topological order: the
   arrival (or predecessor) is read straight off the annotations, no
   verdict decoded *)
let per_output ir f =
  let g = Design.graph ir.design in
  let topo = Graph.topological g in
  let acc = ref [] in
  for i = Array.length topo - 1 downto 0 do
    let net = Graph.cell_output g topo.(i) in
    match f net with
    | Some x -> acc := (Graph.net_name g net, x) :: !acc
    | None -> ()
  done;
  !acc

let derived_arrivals ir =
  per_output ir (fun net -> Timing.arrival ir.timing ~net)

let report ir =
  let g = Design.graph ir.design in
  let arrivals = source_arrivals ir @ derived_arrivals ir in
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
    per_output ir (fun net ->
        Option.map
          (fun (pred, _pin) -> Graph.net_name g pred)
          (Timing.predecessor ir.timing ~net))
  in
  { arrivals; critical_po; predecessors }

let analyze ?mode ?pool ~models ~thresholds design ~pi =
  let ir = build_ir ?mode ~models ~thresholds design ~pi in
  ignore (reanalyze ?pool ir : Timing.stats);
  report ir

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
  match file_th with
  | Some th -> th
  | None ->
    let g = Design.graph design in
    Vtc.thresholds
      (if Graph.cell_count g > 0 then (Graph.payload g 0).Design.gate
       else Gate.inverter Proxim_gates.Tech.generic_5v)

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

let oracle_factory design th =
  let cache = Memo_cache.create () in
  factory_of ~cache
    ~key_of:(fun (cell : Design.cell) ->
      let load = Design.fanout_load design ~net:cell.Design.output_net in
      (cell.Design.gate.Gate.name, load_bucket load))
    ~build:(fun (cell : Design.cell) ->
      let load = Design.fanout_load design ~net:cell.Design.output_net in
      Models.of_oracle ~load cell.Design.gate th)

let synthetic_factory ?seed ?work () =
  let cache = Memo_cache.create () in
  factory_of ~cache
    ~key_of:(fun (cell : Design.cell) -> cell.Design.gate.Gate.name)
    ~build:(fun (cell : Design.cell) ->
      Models.synthetic ?seed ?work cell.Design.gate)

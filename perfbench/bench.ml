(* The repository's benchmark: two workloads that drive proxim through
   the public entry points the CLI and the daemon use, check the outputs,
   and print every metric by name and unit.  See README.md beside this
   file for why each workload exists and how to read the metrics.

   Every run pins one domain and does a fixed number of ops: on a shared
   2-vCPU host, 2-domain pools and clock-bounded loops made op medians and
   peak RSS wander (README.md lists the measurements). *)

module Sta = Proxim_sta.Sta
module Design = Proxim_sta.Design
module Synthgen = Proxim_sta.Synthgen
module Netlist_bin = Proxim_sta.Netlist_bin
module Netlist_text = Proxim_sta.Netlist_text
module Prune = Proxim_sta.Prune
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Timing = Proxim_timing.Timing
module Reference = Proxim_timing.Reference
module Graph = Proxim_timing.Graph
module Verify = Proxim_verify.Verify
module Interval = Proxim_verify.Interval
module Hazard = Proxim_hazard.Hazard
module Serve = Proxim_serve.Serve
module Json = Proxim_serve.Serve.Json
module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Memo_cache = Proxim_util.Memo_cache
module Stats = Proxim_util.Stats
module Metrics = Proxim_obs.Metrics
module T = Tracer

let tech = Tech.generic_5v
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)

type workload = Sta_bulk | Eco_serve

let workload_name = function Sta_bulk -> "sta_bulk" | Eco_serve -> "eco_serve"

type cfg = {
  workload : workload;
  seed : int;
  seconds : int;
  trace : bool;
  tiny : bool;  (** self-test sizes *)
  perturb : bool;  (** corrupt one expected output bit: the check must fail *)
  proxim : string;  (** the proxim CLI executable (eco_serve's daemon) *)
  work : string;  (** directory for generated inputs, the socket and logs *)
  input : string;  (** the sta workloads' netlist file *)
}

(* Generator depth of every workload's design: the generator default,
   which CI's million-cell smoke path also uses. *)
let depth = 16
let bulk_cells cfg = if cfg.tiny then 2_000 else 25_000
let serve_cells cfg = if cfg.tiny then 400 else 3_000

(* the simulating path, timed only in sta_bulk's traced run: a 120-cell
   text netlist analyzed [oracle_ops] times *)
let oracle_cells cfg = if cfg.tiny then 32 else 120
let oracle_ops = 3

(* Set-ups per run; setup_s is their median. *)
let setups = 3

(* Op counts are fixed per run: [--seconds] sets them through a nominal
   rate measured on a shared 2-vCPU host (ops per second; eco_serve counts
   rounds over both sessions), and no loop reads the clock to decide when
   to stop, since heap size and peak RSS track the op count. *)
let nominal_rate = function Sta_bulk -> 1.2 | Eco_serve -> 10.0

let timed_ops cfg =
  if cfg.tiny then match cfg.workload with Eco_serve -> 24 | Sta_bulk -> 4
  else
    max 4
      (int_of_float
         (Float.round (float_of_int cfg.seconds *. nominal_rate cfg.workload)))

(* eco_serve: two closed-loop sessions, their warm-up rounds in every
   set-up, and the timed rounds per session *)
let sessions = 2
let warm_rounds cfg = if cfg.tiny then 2 else 10
let session_rounds cfg = timed_ops cfg / sessions
let paths_k_bulk = 10
let paths_k_serve = 5
let required_s = 5e-9

(* Every stream the workload draws from is a function of the seed and a
   fixed tag, so one seed gives the same design, events and script. *)
let rng cfg tag =
  Prng.create (Int64.add (Int64.mul (Int64.of_int cfg.seed) 1_000_003L) tag)

(* Seeded per-PI events.  Every generated layer inverts, so all primary
   inputs switch with one edge; mixed edges would be rejected by the
   single-vector analysis. *)
let draw_arrival r =
  let time = Prng.float r ~lo:0. ~hi:200e-12 in
  let slew = Prng.float r ~lo:100e-12 ~hi:600e-12 in
  { Sta.time; slew; edge = Measure.Fall }

let pi_events cfg design =
  let r = rng cfg 1L in
  List.map (fun net -> (net, draw_arrival r)) (Design.primary_inputs design)

(* `proxim sta`'s threshold choice: the file's directive, else the VTC
   rule on the first cell's gate *)
let thresholds_for design file_th =
  match file_th with
  | Some th -> th
  | None -> (
    match Design.cells design with
    | c :: _ -> Vtc.thresholds c.Design.gate
    | [] -> failwith "design has no cells")

let mb bytes = float_of_int bytes /. 1048576.
let ms s = 1e3 *. s
let p50 a = Stats.percentile a 50.
let p95 a = Stats.percentile a 95.

(* ------------------------------------------------------------------ *)
(* what the CLI prints, and the checker's bit-exact digest              *)

let ps s = s *. 1e12
let edge_name = function Measure.Rise -> "rise" | Measure.Fall -> "fall"

(* the lines `proxim sta` prints for one analysis *)
let print_results buf (report : Sta.report) paths =
  Buffer.add_string buf "arrivals:\n";
  List.iter
    (fun (net, (a : Sta.arrival)) ->
      Printf.bprintf buf "  %-14s %8.1f ps  slew %7.1f ps  %s\n" net
        (ps a.Sta.time) (ps a.Sta.slew) (edge_name a.Sta.edge))
    report.Sta.arrivals;
  match report.Sta.critical_po with
  | None -> Buffer.add_string buf "no primary output switches\n"
  | Some (po, a) ->
    Printf.bprintf buf "critical output: %s at %.1f ps\n" po (ps a.Sta.time);
    List.iteri
      (fun i (p : Sta.path) ->
        Printf.bprintf buf "path #%d (%8.1f ps): %s\n" (i + 1)
          (ps p.Sta.path_arrival)
          (String.concat " <- " p.Sta.path_nets))
      paths

let flip_bit (a : Sta.arrival) =
  {
    a with
    Sta.time =
      Int64.float_of_bits (Int64.logxor (Int64.bits_of_float a.Sta.time) 1L);
  }

(* the self-test's corrupted expectation: one arrival bit flipped *)
let perturb_report (r : Sta.report) =
  match r.Sta.arrivals with
  | (n, a) :: tl -> { r with Sta.arrivals = (n, flip_bit a) :: tl }
  | [] -> r

let digest (r : Sta.report) paths =
  let b = Buffer.create 65536 in
  let arr (n, (a : Sta.arrival)) =
    Printf.bprintf b "%s %Lx %Lx %s\n" n
      (Int64.bits_of_float a.Sta.time)
      (Int64.bits_of_float a.Sta.slew)
      (edge_name a.Sta.edge)
  in
  List.iter arr r.Sta.arrivals;
  Option.iter arr r.Sta.critical_po;
  List.iter (fun (a, p) -> Printf.bprintf b "%s<%s\n" a p) r.Sta.predecessors;
  List.iter
    (fun (p : Sta.path) ->
      Printf.bprintf b "%Lx %s\n"
        (Int64.bits_of_float p.Sta.path_arrival)
        (String.concat "<" p.Sta.path_nets))
    paths;
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* the sta ops: one `proxim sta` invocation each, in-process            *)

type sta_op = {
  design : Design.t;
  th : Vtc.thresholds;
  pi : (string * Sta.arrival) list;
  ir : Sta.ir;
  report : Sta.report;
  paths : Sta.path list;
  stats : Timing.stats;
  cache : Memo_cache.stats;
  models : Design.cell -> Models.t;
}

let header buf name design =
  let g = Design.graph design in
  Printf.bprintf buf "design %s: %d cells, %d nets, %d levels\n" name
    (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g)

let print_cache buf (c : Memo_cache.stats) =
  Printf.bprintf buf "model cache: %d hits, %d misses, %d waits, %d entries\n"
    c.Memo_cache.hits c.Memo_cache.misses c.Memo_cache.waits
    c.Memo_cache.entries

(* How an op runs each of its layer calls: in a span (a no-op while
   tracing is off), or between memory readings in the probe child. *)
type layers = { call : 'a. string -> (unit -> 'a) -> 'a }

let spans = { call = T.span }

(* build, sweep, report, K worst paths: the tail every sta op shares *)
let analyze_and_report ?prune ~layers ~models ~th ~k design pi buf =
  let ir =
    layers.call "sta.build_ir" (fun () ->
        Sta.build_ir ~mode:Sta.Proximity ?prune ~models ~thresholds:th design
          ~pi)
  in
  let stats = layers.call "timing.reanalyze" (fun () -> Sta.reanalyze ir) in
  let report = layers.call "sta.report" (fun () -> Sta.report ir) in
  let paths =
    match report.Sta.critical_po with
    | None -> []
    | Some (po, _) ->
      layers.call "paths.k_worst" (fun () -> Sta.worst_paths ir ~po ~k)
  in
  print_results buf report paths;
  (ir, stats, report, paths)

(* `proxim sta X.pxb --models synthetic --no-prune --paths 10` *)
let bulk_op ?(layers = spans) cfg ~file =
  let name, design, file_th =
    match
      layers.call "netlist_bin.read" (fun () -> Netlist_bin.read_file tech file)
    with
    | Ok v -> v
    | Error m -> failwith m
  in
  let pi = pi_events cfg design in
  let th =
    layers.call "vtc.thresholds" (fun () -> thresholds_for design file_th)
  in
  let factory = Sta.synthetic_factory () in
  let buf = Buffer.create (1 lsl 20) in
  header buf name design;
  let ir, stats, report, paths =
    analyze_and_report ~layers ~models:factory.Sta.models ~th ~k:paths_k_bulk
      design pi buf
  in
  let cache = factory.Sta.factory_stats () in
  print_cache buf cache;
  { design; th; pi; ir; report; paths; stats; cache; models = factory.Sta.models }

(* time inside the oracle models' queries: golden transients on memo
   misses, memo lookups otherwise *)
let traced_models models cell =
  let m : Models.t = models cell in
  let q f = T.span "measure.transient" f in
  {
    m with
    Models.delay1 = (fun ~pin ~edge ~tau -> q (fun () -> m.Models.delay1 ~pin ~edge ~tau));
    trans1 = (fun ~pin ~edge ~tau -> q (fun () -> m.Models.trans1 ~pin ~edge ~tau));
    delay2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        q (fun () -> m.Models.delay2 ~dom ~other ~edge ~tau_dom ~tau_other ~sep));
    trans2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        q (fun () -> m.Models.trans2 ~dom ~other ~edge ~tau_dom ~tau_other ~sep));
  }

(* `proxim sta X.ntl`: oracle models, verify + hazard prune masks *)
let oracle_op cfg ~file =
  let text = In_channel.with_open_text file In_channel.input_all in
  (* load_design's two passes: the validating parse and the raw scan
     that finds a thresholds directive *)
  let name, design, file_th =
    T.span "netlist_text.parse" (fun () ->
        match Netlist_text.parse tech text with
        | Error m -> failwith m
        | Ok (name, design) ->
          let raw = Netlist_text.parse_raw tech text in
          (name, design, Option.map fst raw.Netlist_text.raw_thresholds))
  in
  let pi = pi_events cfg design in
  let th = T.span "vtc.thresholds" (fun () -> thresholds_for design file_th) in
  let factory = Sta.oracle_factory design th in
  let models =
    if T.enabled () then traced_models factory.Sta.models
    else factory.Sta.models
  in
  let buf = Buffer.create 65536 in
  header buf name design;
  (* the prune mask `proxim sta` builds when no ECO is given: point
     intervals at the PI events *)
  let events =
    List.map
      (fun (n, (a : Sta.arrival)) ->
        {
          Verify.ev_net = n;
          ev_edge = a.Sta.edge;
          ev_time = Interval.make a.Sta.time a.Sta.time;
          ev_tau = Interval.make a.Sta.slew a.Sta.slew;
        })
      pi
  in
  let v =
    T.span "verify.analyze" (fun () ->
        Verify.analyze ~mode:Sta.Proximity ~models ~thresholds:th design
          ~pi:events)
  in
  let s = Verify.summary v in
  Printf.bprintf buf
    "static verification: %d of %d switching cells never-proximate\n"
    s.Verify.never s.Verify.switching_cells;
  let h =
    T.span "hazard.analyze" (fun () ->
        Hazard.analyze ~mode:Sta.Proximity ~models ~thresholds:th design
          ~pi:events)
  in
  Printf.bprintf buf "hazard analysis: %d of %d classified cells proven quiet\n"
    (List.length (List.filter (fun c -> c.Hazard.hc_quiet) (Hazard.cells h)))
    (Hazard.summary h).Hazard.classified;
  let prune =
    Prune.make ~quiet:(Hazard.quiet_mask h) ~never_proximate:(Verify.prune_mask v)
      ()
  in
  let ir, stats, report, paths =
    analyze_and_report ~prune ~layers:spans ~models ~th ~k:1 design pi buf
  in
  let cache = factory.Sta.factory_stats () in
  print_cache buf cache;
  { design; th; pi; ir; report; paths; stats; cache; models }

(* ------------------------------------------------------------------ *)
(* child processes                                                     *)

let live_children : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  live_children := List.filter (( <> ) pid) !live_children;
  st

(* a run never leaves a process behind, even when it fails *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid : Unix.process_status))
        !live_children)

let spawn prog args ~stdout ~stderr =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null stdout stderr)
  in
  live_children := pid :: !live_children;
  pid

(* run [prog args] to completion and return its standard output *)
let run_capture prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn prog args ~stdout:w ~stderr:Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match reap pid with
  | Unix.WEXITED 0 -> out
  | _ -> failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

(* Run this program in [mode] in a fresh process and return the fields of
   the JSON object it prints last. *)
let child cfg mode =
  let out =
    run_capture Sys.executable_name
      ([
         mode; "--workload"; workload_name cfg.workload; "--seed";
         string_of_int cfg.seed; "--seconds"; string_of_int cfg.seconds;
         "--input"; cfg.input; "--trace"; (if cfg.trace then "1" else "0");
       ]
      @ (if cfg.tiny then [ "--tiny" ] else [])
      @ if cfg.perturb then [ "--perturb" ] else [])
  in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  match Json.of_string last with
  | Ok (Json.Obj fields) -> fields
  | _ -> failwith (mode ^ " printed no result: " ^ last)

let numbers fields =
  List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_number v)) fields

let print_fields fields =
  print_endline
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Number v)) fields)))

(* sta_bulk's memory probe, a fresh process after the timed ops in a
   traced run: one untimed op gives the VmRSS delta and the allocation of
   the probed calls.  VmRSS because the heap never shrinks after the first
   op, allocation because [Tracer.alloc_span] empties the minor heap, which
   would slow the timed ops. *)
let probed = [ "netlist_bin.read"; "timing.reanalyze"; "paths.k_worst" ]

let probe_main cfg =
  let rss = ref [] in
  let probe name f =
    Gc.minor ();
    let kb0 = T.vm_rss_kb () in
    let v = T.alloc_span name f in
    rss := (name ^ "_rss_mb", float_of_int (T.vm_rss_kb () - kb0) /. 1024.) :: !rss;
    v
  in
  let layers =
    { call = (fun name f -> if List.mem name probed then probe name f else f ()) }
  in
  T.set_enabled true;
  ignore (bulk_op ~layers cfg ~file:cfg.input : sta_op);
  T.set_enabled false;
  T.collect "op";
  let alloc name = (name ^ "_alloc_mb", T.median "op" name T.alloc_mb) in
  print_fields (!rss @ List.map alloc probed)

(* ------------------------------------------------------------------ *)
(* results                                                             *)

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
}

let end_to_end = [ ("setup_s", "s"); ("op_cpu_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("netlist_bin.read_ms", "ms"); ("design.create_ms", "ms");
    ("netlist_bin.read_alloc_mb", "MB"); ("netlist_bin.read_rss_mb", "MB");
    ("timing.reanalyze_ms", "ms"); ("timing.reanalyze_alloc_mb", "MB");
    ("timing.reanalyze_rss_mb", "MB"); ("timing.cells_evaluated", "count");
    ("sta.build_ir_ms", "ms"); ("models.cache_entries", "count");
    ("paths.k_worst_ms", "ms"); ("paths.k_worst_alloc_mb", "MB");
    ("sta.report_ms", "ms"); ("serve.eco_rtt_ms", "ms");
    ("sta.update_ms", "ms"); ("timing.cells_evaluated_per_eco", "count");
    ("serve.paths_rtt_ms", "ms"); ("serve.slacks_rtt_ms", "ms");
    ("serve.report_rtt_ms", "ms"); ("sta.po_slacks_ms", "ms");
    ("serve.report_to_json_ms", "ms"); ("json.to_string_ms", "ms");
    ("json.of_string_ms", "ms"); ("frame.report_kb", "KB");
    ("serve.eco_handle_ms", "ms"); ("serve.query_handle_ms", "ms");
    ("serve.wire_ms", "ms"); ("serve.contention_ms", "ms");
    ("models.cache_misses", "count"); ("measure.transient_ms", "ms");
    ("verify.analyze_ms", "ms"); ("hazard.analyze_ms", "ms");
    ("netlist_text.parse_ms", "ms"); ("vtc.thresholds_ms", "ms");
    ("synthgen.generate_ms", "ms"); ("proximity.delay_err_max_pct", "%");
    ("proximity.trans_err_max_pct", "%"); ("host.steal_pct", "%");
    ("process.cpu_s", "s"); ("trace.overhead_ms", "ms");
    ("trace.overhead_pct", "%"); ("wall.op_p50_ms", "ms");
    ("wall.op_p95_ms", "ms"); ("wall.work_per_s", "1/s");
  ]

(* The wall-clock figures of the timed ops: the median and 95th percentile
   op (or round), and work per second, cells (sta_bulk) or rounds over
   both sessions (eco_serve).  Printed on every run and reported in the
   traced one, but not end-to-end metrics: on the shared host they moved
   with its CPU steal, eco_serve's by about 5 % per point of steal, and
   their spread over a set of ten runs reached 68 % of the median
   (README.md).  The end-to-end op_cpu_ms counts CPU time, which moved far
   less. *)
let wall lat ~work ~elapsed =
  [
    ("wall.op_p50_ms", ms (p50 lat)); ("wall.op_p95_ms", ms (p95 lat));
    ("wall.work_per_s", work /. elapsed);
  ]

(* A traced run traces its ops in the pattern untraced, untraced, traced,
   traced, ...  Each traced op is compared with the untraced op two before
   it, which ran close in time: the host's speed drifts within a run. *)
let traced_op cfg i = cfg.trace && i mod 4 >= 2

(* the median over traced ops of the op's time minus that of the untraced
   op two before it, also as a share of the median untraced op *)
let overhead lat traced =
  let pick t xs = Array.of_list (List.filteri (fun i _ -> traced.(i) = t) xs) in
  let untraced = pick false (Array.to_list lat) in
  let d = pick true (List.mapi (fun i t -> t -. lat.(max 0 (i - 2))) (Array.to_list lat)) in
  if Array.length d = 0 || Array.length untraced = 0 then
    [ ("trace.overhead_ms", 0.); ("trace.overhead_pct", 0.) ]
  else
    [
      ("trace.overhead_ms", ms (p50 d));
      ("trace.overhead_pct", 100. *. p50 d /. p50 untraced);
    ]

(* sta_bulk's per-layer self times: (metric, bucket, span) *)
let bulk_spans =
  [
    ("netlist_bin.read_ms", "op", "netlist_bin.read");
    ("design.create_ms", "create", "design.create");
    ("timing.reanalyze_ms", "op", "timing.reanalyze");
    ("sta.build_ir_ms", "op", "sta.build_ir");
    ("paths.k_worst_ms", "op", "paths.k_worst");
    ("sta.report_ms", "op", "sta.report");
    ("vtc.thresholds_ms", "op", "vtc.thresholds");
  ]

(* ------------------------------------------------------------------ *)
(* accuracy: the paper's §5 check on configurations from the design     *)

(* Max |error| of the reported delay and output transition over a seeded
   sample of cells with two or more switching inputs, against a direct
   golden multi-input simulation of each cell with its reported input
   events and its fanout load.  Delay is taken from the input that set the
   timing, as the report does. *)
let accuracy_sample = 48

let accuracy cfg (o : sta_op) ~failed =
  let g = Design.graph o.design and t = Sta.timing o.ir in
  let slew_scale = o.th.Vtc.vdd /. (o.th.Vtc.vih -. o.th.Vtc.vil) in
  let multi =
    Array.of_list
      (List.filter_map
         (fun c ->
           let ins =
             List.filter_map
               (fun (pin, net) ->
                 Option.map (fun a -> (pin, a)) (Timing.arrival t ~net))
               (List.mapi (fun pin net -> (pin, net))
                  (Array.to_list (Graph.cell_inputs g c)))
           in
           match Timing.verdict t ~cell:c with
           | Some v when List.length ins >= 2 -> Some (c, ins, v)
           | _ -> None)
         (Array.to_list (Graph.topological g)))
  in
  Prng.shuffle (rng cfg 3L) multi;
  let sample = Array.sub multi 0 (min accuracy_sample (Array.length multi)) in
  let dmax = ref 0. and tmax = ref 0. in
  Array.iter
    (fun (c, ins, (v : Timing.verdict)) ->
      let cell = Graph.payload g c in
      (* shift the events so the earliest ramp starts near t = 0; delays
         are measured from the reference crossing, so the shift is exact *)
      let t_min =
        List.fold_left (fun m (_, (a : Timing.arrival)) -> Float.min m a.Timing.time) infinity ins
      and tau_max =
        List.fold_left (fun m (_, (a : Timing.arrival)) -> Float.max m a.Timing.slew) 0. ins
      in
      let shift = tau_max +. 0.2e-9 -. t_min in
      let stimuli =
        List.map
          (fun (pin, (a : Timing.arrival)) ->
            ( pin,
              {
                Measure.edge = a.Timing.edge;
                tau = a.Timing.slew;
                cross_time = a.Timing.time +. shift;
              } ))
          ins
      in
      let load = Design.fanout_load o.design ~net:cell.Design.output_net in
      match
        Measure.multi_input ~load cell.Design.gate o.th ~stimuli
          ~ref_pin:v.Timing.winner
      with
      | exception e ->
        Printf.eprintf "golden simulation of %s failed: %s\n%!"
          cell.Design.name (Printexc.to_string e);
        incr failed
      | gold ->
        let ref_time = (List.assoc v.Timing.winner ins).Timing.time in
        let delay = v.Timing.out.Timing.time -. ref_time in
        let trans = v.Timing.out.Timing.slew /. slew_scale in
        let pct x gold = 100. *. Float.abs (x -. gold) /. gold in
        dmax := Float.max !dmax (pct delay gold.Measure.delay);
        tmax := Float.max !tmax (pct trans gold.Measure.out_transition))
    sample;
  [ ("proximity.delay_err_max_pct", !dmax); ("proximity.trans_err_max_pct", !tmax) ]

(* ------------------------------------------------------------------ *)
(* sta_bulk                                                            *)

(* The simulating path, `proxim sta X.ntl` with oracle models and prune
   masks, run [oracle_ops] times with spans in sta_bulk's traced run.  Its
   golden transients made run medians swing with the host beyond any
   end-to-end bound (README.md), so it is not a workload of its own.  The
   ops must give one report, equal to the --no-prune analysis; any
   exception, a simulator No_convergence included, fails its op. *)
let oracle_layers cfg ~failed =
  let file = Filename.concat cfg.work "oracle.ntl" in
  let name, design =
    Synthgen.generate ~seed:cfg.seed ~depth ~tech ~cells:(oracle_cells cfg) ()
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Netlist_text.to_string ~name design));
  let ops = ref [] in
  for _ = 1 to oracle_ops do
    T.set_enabled true;
    (match oracle_op cfg ~file with
     | o -> ops := o :: !ops
     | exception e ->
       Printf.eprintf "oracle op failed: %s\n%!" (Printexc.to_string e);
       incr failed);
    T.set_enabled false;
    T.collect "oracle"
  done;
  match !ops with
  | [] -> []
  | o :: _ as all ->
    if List.exists (fun (o' : sta_op) -> digest o'.report o'.paths <> digest o.report o.paths) all
    then incr failed;
    let ir =
      Sta.build_ir ~mode:Sta.Proximity ~models:o.models ~thresholds:o.th o.design
        ~pi:o.pi
    in
    ignore (Sta.reanalyze ir : Timing.stats);
    let report = Sta.report ir in
    let report = if cfg.perturb then perturb_report report else report in
    let paths =
      match report.Sta.critical_po with
      | None -> []
      | Some (po, _) -> Sta.worst_paths ir ~po ~k:1
    in
    if digest report paths <> digest o.report o.paths then begin
      prerr_endline "pruned report differs from the --no-prune analysis";
      incr failed
    end;
    let m name = T.median "oracle" name T.self_ms in
    [
      ("models.cache_misses", float_of_int o.cache.Memo_cache.misses);
      ("measure.transient_ms", m "measure.transient");
      ("verify.analyze_ms", m "verify.analyze");
      ("hazard.analyze_ms", m "hazard.analyze");
      ("netlist_text.parse_ms", m "netlist_text.parse");
    ]
    @ accuracy cfg o ~failed

(* One sta_bulk op in this fresh process, as one `proxim sta` invocation
   runs it: the op's time, its output digest and the process's peak RSS.
   A traced op also gives each layer's self time, then times the
   Design.create that read_file makes as a call of its own, after the op.
   With [check], the op's IR must agree with the records-of-options
   Timing.Reference. *)
let op_main cfg ~check =
  T.set_enabled cfg.trace;
  let c0 = T.self_cpu_s () and t0 = now () in
  let o = bulk_op cfg ~file:cfg.input in
  let op_s = now () -. t0 and op_cpu_s = T.self_cpu_s () -. c0 in
  T.set_enabled false;
  let peak_rss_mb = mb (Metrics.peak_rss_bytes ()) in
  T.collect "op";
  if cfg.trace then begin
    T.set_enabled true;
    ignore
      (T.span "design.create" (fun () ->
           Design.create ~cells:(Design.cells o.design)
             ~primary_inputs:(Design.primary_inputs o.design)
             ~primary_outputs:(Design.primary_outputs o.design))
        : Design.t);
    T.set_enabled false;
    T.collect "create"
  end;
  let agrees =
    (not check)
    || begin
      (if cfg.perturb then
         let g = Design.graph o.design in
         match o.pi with
         | (net, a) :: _ ->
           Timing.set_source (Sta.timing o.ir)
             ~net:(Option.get (Graph.net_id g net))
             (Some (flip_bit a))
         | [] -> ());
      Reference.agrees (Sta.timing o.ir)
    end
  in
  let count n = Json.Number (float_of_int n) in
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("digest", Json.String (Digest.to_hex (digest o.report o.paths)));
             ("op_s", Json.Number op_s); ("op_cpu_s", Json.Number op_cpu_s);
             ("peak_rss_mb", Json.Number peak_rss_mb);
             ("agrees", Json.Bool agrees);
             ("timing.cells_evaluated", count o.stats.Timing.evaluated);
             ("models.cache_entries", count o.cache.Memo_cache.entries);
           ]
          @
          if cfg.trace then
            List.map (fun (k, b, name) -> (k, Json.Number (T.median b name T.self_ms))) bulk_spans
          else [])))

let field f k = Option.bind (List.assoc_opt k f) Json.to_number

(* the median and the mean of field [k] over ops' fields; 0 when none has
   it *)
let median_field ops k =
  match List.filter_map (fun f -> field f k) ops with
  | [] -> 0.
  | xs -> p50 (Array.of_list xs)

let mean_field ops k =
  match List.filter_map (fun f -> field f k) ops with
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Set up [setups] times (generate, write, one discarded warm-up op), then
   run the fixed op count.  Every op is a fresh process, as every `proxim
   sta` invocation is: in one process, each op's model memo stayed
   reachable after the op (below), so the heap grew by about 22 MB per op
   at 25k cells, and op times alternated between two groups about 25 %
   apart with the phase of the major GC.  The checks: identical digests
   across ops, and the last op's IR agrees with Timing.Reference.

   The memo: [Models.synthetic] gives every model a [Memo_cache] with a
   domain-local table under a fresh [Domain.DLS] key, and OCaml 5.1 never
   frees a key's value, so a process that builds many factories keeps
   every memo it filled. *)
let run_bulk cfg =
  let cells = bulk_cells cfg in
  let file = Filename.concat cfg.work "bulk.pxb" in
  let cfg = { cfg with input = file } in
  let op ~traced ~check =
    child { cfg with trace = traced } (if check then "op-check" else "op")
  in
  let setup_s =
    Array.init setups (fun _ ->
        T.set_enabled cfg.trace;
        let t0 = now () in
        let name, design =
          T.span "synthgen.generate" (fun () ->
              Synthgen.generate ~seed:cfg.seed ~depth ~tech ~cells ())
        in
        T.set_enabled false;
        Netlist_bin.write_file ~name design file;
        ignore (op ~traced:false ~check:false : (string * Json.t) list);
        let dt = now () -. t0 in
        T.collect "setup";
        dt)
  in
  let n = timed_ops cfg in
  let traced = Array.init n (traced_op cfg) in
  let lat = Array.make n 0. and ops = Array.make n None in
  let failed = ref 0 in
  for i = 0 to n - 1 do
    match op ~traced:traced.(i) ~check:(i = n - 1) with
    | exception e ->
      Printf.eprintf "op %d failed: %s\n%!" i (Printexc.to_string e);
      incr failed
    | f ->
      lat.(i) <- Option.value (field f "op_s") ~default:0.;
      ops.(i) <- Some f
  done;
  let ok = List.filter_map Fun.id (Array.to_list ops) in
  let digests = List.sort_uniq compare (List.map (fun f -> List.assoc_opt "digest" f) ok) in
  if List.length digests > 1 then begin
    prerr_endline "the ops' reports differ";
    incr failed
  end;
  let counts =
    match ops.(n - 1) with
    | None -> []
    | Some f ->
      if List.assoc_opt "agrees" f <> Some (Json.Bool true) then begin
        prerr_endline "final IR disagrees with Timing.Reference";
        incr failed
      end;
      List.map
        (fun k -> (k, Option.value (field f k) ~default:0.))
        [ "timing.cells_evaluated"; "models.cache_entries" ]
  in
  let pick t =
    List.filter_map Fun.id (List.filteri (fun i _ -> traced.(i) = t) (Array.to_list ops))
  in
  let probe = if cfg.trace then numbers (child cfg "probe") else [] in
  let oracle = if cfg.trace then oracle_layers cfg ~failed else [] in
  {
    attempted = n + List.length (T.samples "oracle");
    failed = !failed;
    e2e =
      [
        ("setup_s", p50 setup_s); ("op_cpu_ms", ms (mean_field ok "op_cpu_s"));
        ("peak_rss_mb", median_field (pick false) "peak_rss_mb");
      ];
    layers =
      wall lat ~work:(float_of_int (cells * n)) ~elapsed:(Array.fold_left ( +. ) 0. lat)
      @ List.map (fun (k, _, _) -> (k, median_field (pick true) k)) bulk_spans
      @ probe
      @ [ ("synthgen.generate_ms", T.median "setup" "synthgen.generate" T.self_ms) ]
      @ overhead lat traced @ counts @ oracle;
  }

(* ------------------------------------------------------------------ *)
(* eco_serve                                                           *)

type session = {
  fd : Unix.file_descr;
  draws : Prng.t;  (** this session's ECO script *)
  mutable crit : string;  (** critical PO of the latest report *)
  mutable final : Json.t option;  (** the latest "report" payload *)
  mutable s_failed : int;
}

type daemon = { pid : int; sessions : session array }

let num n = Json.Number (float_of_int n)
let obj op fields = Json.Obj (("op", Json.String op) :: fields)

let eco_request = function
  | Sta.Set_pi (net, Some a) ->
    obj "eco"
      [
        ( "ecos",
          Json.List
            [
              Json.Obj
                [
                  ("kind", Json.String "set_pi"); ("net", Json.String net);
                  ("arrival", Serve.arrival_to_json a);
                ];
            ] );
      ]
  | Sta.Set_pi (_, None) | Sta.Touch_cell _ -> invalid_arg "eco_request"

(* Session [i]'s script: one seeded set_pi per round, on a random PI *)
let script_rng cfg i = rng cfg (Int64.of_int (100 + i))

let draw_eco r ~pis =
  let net = pis.(Prng.int r ~lo:0 ~hi:(Array.length pis - 1)) in
  Sta.Set_pi (net, Some (draw_arrival r))

(* every ECO session [i] sends in a run, in order: its warm-up rounds,
   the traced run's one-session rounds (session 0 only), the timed ones *)
let session_script cfg ~pis i =
  let n =
    warm_rounds cfg
    + (if cfg.trace && i = 0 then session_rounds cfg / 2 else 0)
    + session_rounds cfg
  in
  let r = script_rng cfg i in
  let rec draw k acc = if k = 0 then List.rev acc else draw (k - 1) (draw_eco r ~pis :: acc) in
  draw n []

let critical_po report_json =
  match Option.bind report_json (Json.member "critical_po") with
  | Some (Json.List [ Json.String po; _ ]) -> Some po
  | _ -> None

let rpc s req =
  match Serve.request s.fd req with
  | Ok j when Serve.ok j -> Some j
  | Ok j ->
    Printf.eprintf "error response: %s\n%!" (Json.to_string j);
    None
  | Error m ->
    Printf.eprintf "request failed: %s\n%!" m;
    None
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "request failed: %s\n%!" (Unix.error_message e);
    None

(* One round: a seeded set_pi ECO, then paths (k=5) from the critical PO
   of the previous report, slacks and the full report.  [rtt] receives
   the four round trips when given; returns whether every request
   succeeded and how many cells the ECO re-evaluated. *)
let round s ~pis ?rtt () =
  let eco = draw_eco s.draws ~pis in
  let call i req =
    let t0 = now () in
    let r = rpc s req in
    Option.iter (fun a -> a.(i) <- now () -. t0) rtt;
    r
  in
  let e = call 0 (eco_request eco) in
  let p = call 1 (obj "paths" [ ("po", Json.String s.crit); ("k", num paths_k_serve) ]) in
  let l = call 2 (obj "slacks" [ ("required", Json.Number required_s) ]) in
  let r = call 3 (obj "report" []) in
  (match r with
   | Some j ->
     s.final <- Json.member "report" j;
     Option.iter (fun po -> s.crit <- po) (critical_po s.final)
   | None -> ());
  let evaluated =
    match Option.bind (Option.bind e (Json.member "stats")) (Json.member "evaluated") with
    | Some v -> int_of_float (Option.value (Json.to_number v) ~default:0.)
    | None -> 0
  in
  (e <> None && p <> None && l <> None && r <> None, evaluated)

let shutdown_daemon d =
  ignore (rpc d.sessions.(0) (obj "shutdown" []) : Json.t option);
  Array.iter (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) d.sessions;
  match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "the daemon did not shut down cleanly"

(* Start `proxim serve --domains 1`, generate the design inside it, attach
   both sessions with the seeded PI events, and run the warm-up rounds. *)
let serve_setup cfg ~pis ~pi =
  let sock = Filename.concat cfg.work "serve.sock" in
  let log =
    Unix.openfile (Filename.concat cfg.work "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        spawn cfg.proxim
          [ "serve"; "--listen"; "unix:" ^ sock; "--domains"; "1" ]
          ~stdout:log ~stderr:log)
  in
  let deadline = now () +. 30. in
  let rec connect () =
    match Serve.connect (`Unix sock) with
    | fd -> fd
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.002;
      connect ()
  in
  let pi_json =
    Json.List (List.map (fun (n, a) -> Json.List [ Json.String n; Serve.arrival_to_json a ]) pi)
  in
  let sessions =
    Array.init sessions (fun i ->
        {
          fd = connect ();
          draws = script_rng cfg i;
          crit = "";
          final = None;
          s_failed = 0;
        })
  in
  let d = { pid; sessions } in
  let must what = function Some j -> j | None -> failwith ("set-up failed: " ^ what) in
  ignore
    (must "gen"
       (rpc sessions.(0)
          (obj "gen"
             [
               ("cells", num (serve_cells cfg)); ("depth", num depth);
               ("seed", num cfg.seed); ("name", Json.String "bench");
             ]))
      : Json.t);
  Array.iter
    (fun s ->
      ignore
        (must "attach"
           (rpc s
              (obj "attach"
                 [
                   ("design", Json.String "bench"); ("models", Json.String "synthetic");
                   ("pi", pi_json);
                 ]))
          : Json.t);
      s.final <- Json.member "report" (must "report" (rpc s (obj "report" [])));
      (match critical_po s.final with
       | Some po -> s.crit <- po
       | None -> failwith "set-up failed: no critical output");
      for _ = 1 to warm_rounds cfg do
        if not (fst (round s ~pis ())) then failwith "set-up failed: warm-up round"
      done)
    sessions;
  d

(* Closed-loop rounds, one systhread per session on its own connection.
   Returns each session's round latencies, the request round trips of
   recorded rounds, the ECOs' re-evaluation counts and the phase's wall
   time. *)
let serve_phase sessions ~pis ~rounds ~record =
  let k = Array.length sessions in
  let lat = Array.init k (fun _ -> Array.make rounds 0.) in
  let rtts = Array.init k (fun _ -> Array.init rounds (fun _ -> Array.make 4 0.)) in
  let evals = Array.init k (fun _ -> Array.make rounds 0) in
  let t0 = now () in
  let body i () =
    let s = sessions.(i) in
    for r = 0 to rounds - 1 do
      let rtt = if record r then Some rtts.(i).(r) else None in
      let t = now () in
      let ok, ev = round s ~pis ?rtt () in
      lat.(i).(r) <- now () -. t;
      evals.(i).(r) <- ev;
      if not ok then s.s_failed <- s.s_failed + 1
    done
  in
  let threads = Array.init k (fun i -> Thread.create (body i) ()) in
  Array.iter Thread.join threads;
  (lat, rtts, evals, now () -. t0)

(* the daemon's metrics registry through the `metrics` op *)
type daemon_metrics = {
  peak_rss_mb : float;
  cache_entries : float;
  hist : string -> float * float;  (** (count, sum seconds) *)
}

let daemon_metrics s =
  match rpc s (obj "metrics" [ ("format", Json.String "json") ]) with
  | None -> failwith "metrics request failed"
  | Some j ->
    let m = Option.value (Json.member "metrics" j) ~default:Json.Null in
    let get path =
      List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some m) path
      |> Fun.flip Option.bind Json.to_number
      |> Option.value ~default:0.
    in
    {
      peak_rss_mb = get [ "gauges"; "process.peak_rss_bytes" ] /. 1048576.;
      cache_entries =
        get [ "counters"; "cache.misses" ] -. get [ "counters"; "cache.evictions" ];
      hist = (fun name -> (get [ "histograms"; name; "count" ], get [ "histograms"; name; "sum" ]));
    }

(* Replay one session's script in-process, with no socket, through the
   calls the daemon makes: attach, then per round Sta.update, the paths
   query, the slacks query (report + po_slacks) and the report query with
   its encoding and the client's decode.  Untraced, only the ECOs are
   replayed.  Returns the final report and the report frame's size. *)
let replay design ~pi ~factory ~script ~queries =
  let th = T.span "vtc.thresholds" (fun () -> thresholds_for design None) in
  let ir =
    T.span "sta.build_ir" (fun () ->
        Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds:th
          design ~pi)
  in
  ignore
    (T.alloc_span "timing.reanalyze" (fun () -> Sta.reanalyze ir) : Timing.stats);
  T.collect "attach";
  let crit report =
    match report.Sta.critical_po with Some (po, _) -> po | None -> ""
  in
  let po = ref (crit (Sta.report ir)) and frame_kb = ref 0. in
  List.iter
    (fun eco ->
      ignore (T.span "sta.update" (fun () -> Sta.update ir [ eco ]) : Timing.stats);
      if queries then begin
        ignore
          (T.alloc_span "paths.k_worst" (fun () ->
               Sta.worst_paths ir ~po:!po ~k:paths_k_serve)
            : Sta.path list);
        let r = T.span "sta.report" (fun () -> Sta.report ir) in
        ignore (T.span "sta.po_slacks" (fun () -> Sta.po_slacks design r ~required:required_s) : (string * float) list);
        let r = T.span "sta.report" (fun () -> Sta.report ir) in
        let j = T.span "serve.report_to_json" (fun () -> Serve.report_to_json r) in
        let s =
          T.span "json.to_string" (fun () ->
              Json.to_string (Json.Obj [ ("ok", Json.Bool true); ("report", j) ]))
        in
        frame_kb := float_of_int (String.length s) /. 1024.;
        ignore (T.span "json.of_string" (fun () -> Json.of_string s) : (Json.t, string) Stdlib.result);
        po := crit r;
        T.collect "round"
      end)
    script;
  (Sta.report ir, !frame_kb)

(* The offline side of eco_serve, in a fresh process so that neither the
   socket phase nor its threads touch the heap being measured: regenerate
   the design and both sessions' scripts from the seed, replay them, and
   print each final report's digest (traced: and the replay's per-layer
   figures).  The sessions share one synthetic factory, as in the daemon. *)
let replay_main cfg =
  let _, design = Synthgen.generate ~seed:cfg.seed ~depth ~tech ~cells:(serve_cells cfg) () in
  let pis = Array.of_list (Design.primary_inputs design) in
  let pi = pi_events cfg design in
  let factory = Sta.synthetic_factory ~seed:0 () in
  T.set_enabled cfg.trace;
  let finals =
    List.init sessions (fun i ->
        let report, kb =
          replay design ~pi ~factory ~script:(session_script cfg ~pis i) ~queries:cfg.trace
        in
        let report = if cfg.perturb then perturb_report report else report in
        (Printf.sprintf "digest%d" i, Json.String (Digest.to_hex (digest report [])), kb))
  in
  T.set_enabled false;
  let m b name f = T.median b name f in
  let layers =
    [
      ("timing.reanalyze_ms", m "attach" "timing.reanalyze" T.self_ms);
      ("timing.reanalyze_alloc_mb", m "attach" "timing.reanalyze" T.alloc_mb);
      ("sta.build_ir_ms", m "attach" "sta.build_ir" T.self_ms);
      ("vtc.thresholds_ms", m "attach" "vtc.thresholds" T.self_ms);
      ("paths.k_worst_ms", m "round" "paths.k_worst" T.self_ms);
      ("paths.k_worst_alloc_mb", m "round" "paths.k_worst" T.alloc_mb);
      ("sta.report_ms", m "round" "sta.report" T.self_ms);
      ("sta.update_ms", m "round" "sta.update" T.self_ms);
      ("sta.po_slacks_ms", m "round" "sta.po_slacks" T.self_ms);
      ("serve.report_to_json_ms", m "round" "serve.report_to_json" T.self_ms);
      ("json.to_string_ms", m "round" "json.to_string" T.self_ms);
      ("json.of_string_ms", m "round" "json.of_string" T.self_ms);
      ("frame.report_kb", List.fold_left (fun _ (_, _, kb) -> kb) 0. finals);
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          (List.map (fun (k, d, _) -> (k, d)) finals
          @ List.map (fun (k, v) -> (k, Json.Number v)) layers)))

let run_serve cfg =
  let cells = serve_cells cfg in
  (* the client's copy of the design the daemon generates: the names of
     its primary inputs, for the events and the ECOs *)
  T.set_enabled cfg.trace;
  let _, design =
    T.span "synthgen.generate" (fun () -> Synthgen.generate ~seed:cfg.seed ~depth ~tech ~cells ())
  in
  T.set_enabled false;
  T.collect "setup";
  let pis = Array.of_list (Design.primary_inputs design) in
  let pi = pi_events cfg design in
  let setup_s = Array.make setups 0. in
  let d = ref None in
  for i = 0 to setups - 1 do
    let t0 = now () in
    let di = serve_setup cfg ~pis ~pi in
    setup_s.(i) <- now () -. t0;
    if i < setups - 1 then shutdown_daemon di else d := Some di
  done;
  let d = Option.get !d in
  let n = session_rounds cfg in
  (* traced runs first time one session alone, for serve.contention_ms *)
  let solo =
    if not cfg.trace then 0.
    else
      let lat, _, _, _ =
        serve_phase [| d.sessions.(0) |] ~pis ~rounds:(session_rounds cfg / 2) ~record:(fun _ -> false)
      in
      p50 lat.(0)
  in
  let before = daemon_metrics d.sessions.(0) in
  let record r = traced_op cfg r in
  let cpu0 = T.self_cpu_s () +. T.proc_cpu_s d.pid in
  let lat, rtts, evals, elapsed = serve_phase d.sessions ~pis ~rounds:n ~record in
  let cpu = T.self_cpu_s () +. T.proc_cpu_s d.pid -. cpu0 in
  let after = daemon_metrics d.sessions.(0) in
  shutdown_daemon d;
  (* each session's final report must equal an offline replay of its
     script through Sta.update *)
  let offline = child cfg "replay" in
  let failed = ref 0 in
  Array.iteri
    (fun i s ->
      failed := !failed + s.s_failed;
      let expected = List.assoc_opt (Printf.sprintf "digest%d" i) offline in
      match Option.map Serve.report_of_json s.final with
      | Some (Ok served)
        when Some (Json.String (Digest.to_hex (digest served []))) = expected -> ()
      | _ ->
        prerr_endline "a served report differs from its offline replay";
        incr failed)
    d.sessions;
  let all = Array.concat (Array.to_list lat) in
  let traced = Array.concat (List.init sessions (fun _ -> Array.init n record)) in
  let recorded =
    List.concat_map
      (fun per -> List.filteri (fun r _ -> record r) (Array.to_list per))
      (Array.to_list rtts)
  in
  let rtt i =
    if recorded = [] then 0.
    else ms (p50 (Array.of_list (List.map (fun a -> a.(i)) recorded)))
  in
  let handle name =
    let c0, s0 = before.hist name and c1, s1 = after.hist name in
    if c1 > c0 then ((s1 -. s0) /. (c1 -. c0), c1 -. c0) else (0., 0.)
  in
  let eco_h, eco_n = handle "serve.eco_seconds" and q_h, q_n = handle "serve.query_seconds" in
  let recorded_rtt_mean =
    let xs = List.concat_map Array.to_list recorded in
    if xs = [] then 0. else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let handle_mean =
    if eco_n +. q_n > 0. then ((eco_h *. eco_n) +. (q_h *. q_n)) /. (eco_n +. q_n) else 0.
  in
  let all_evals = Array.concat (Array.to_list evals) in
  let rounds = Array.length all in
  {
    attempted = rounds;
    failed = !failed;
    e2e =
      [
        ("setup_s", p50 setup_s); ("op_cpu_ms", ms (cpu /. float_of_int rounds));
        ("peak_rss_mb", after.peak_rss_mb);
      ];
    layers =
      wall all ~work:(float_of_int rounds) ~elapsed
      @ numbers offline
      @ [
         ("serve.eco_rtt_ms", rtt 0); ("serve.paths_rtt_ms", rtt 1);
         ("serve.slacks_rtt_ms", rtt 2); ("serve.report_rtt_ms", rtt 3);
         ("serve.eco_handle_ms", ms eco_h); ("serve.query_handle_ms", ms q_h);
         ("serve.wire_ms", if cfg.trace then ms (recorded_rtt_mean -. handle_mean) else 0.);
         ("serve.contention_ms", if cfg.trace then ms (p50 all -. solo) else 0.);
         ( "timing.cells_evaluated_per_eco",
           float_of_int (Array.fold_left ( + ) 0 all_evals) /. float_of_int (max 1 (Array.length all_evals)) );
         ("models.cache_entries", after.cache_entries);
         ("synthgen.generate_ms", T.median "setup" "synthgen.generate" T.self_ms);
       ]
      @ overhead all traced;
  }

(* ------------------------------------------------------------------ *)
(* main                                                                *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "a metric is not a finite number"

let print_result cfg (r : result) ~steal_pct ~cpu_s =
  let layers = r.layers @ [ ("host.steal_pct", steal_pct); ("process.cpu_s", cpu_s) ] in
  let value name table = Option.value (List.assoc_opt name table) ~default:0. in
  let shown = if cfg.trace then List.map (fun (n, u) -> (n, value n layers, u)) per_layer
    else List.map (fun (n, u) -> (n, value n r.e2e, u)) end_to_end in
  Printf.printf "%s seed %d: %d ops attempted, %d failed\n" (workload_name cfg.workload) cfg.seed
    r.attempted r.failed;
  List.iter (fun (n, v, u) -> Printf.printf "  %-32s %16.4f %s\n" n v u) shown;
  Printf.printf "  wall clock: op p50 %.1f ms, p95 %.1f ms, %.4g work/s\n"
    (value "wall.op_p50_ms" layers) (value "wall.op_p95_ms" layers)
    (value "wall.work_per_s" layers);
  Printf.printf "  host.steal_pct %.3f %%, process.cpu_s %.3f s\n" steal_pct cpu_s;
  let metrics =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      shown
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload sta_bulk|eco_serve --seed N \
     --seconds S --trace 0|1 --proxim PATH --work DIR [--tiny] [--perturb]";
  exit 2

let parse_args argv =
  let cfg =
    ref
      {
        workload = Sta_bulk; seed = 1; seconds = 10; trace = false; tiny = false;
        perturb = false; proxim = ""; work = "."; input = "";
      }
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: tl ->
      let workload =
        match w with
        | "sta_bulk" -> Sta_bulk
        | "eco_serve" -> Eco_serve
        | _ -> usage ()
      in
      cfg := { !cfg with workload };
      go tl
    | "--seed" :: n :: tl -> cfg := { !cfg with seed = int_arg n }; go tl
    | "--seconds" :: n :: tl -> cfg := { !cfg with seconds = int_arg n }; go tl
    | "--trace" :: ("0" | "1" as t) :: tl -> cfg := { !cfg with trace = t = "1" }; go tl
    | "--proxim" :: p :: tl -> cfg := { !cfg with proxim = p }; go tl
    | "--work" :: d :: tl -> cfg := { !cfg with work = d }; go tl
    | "--input" :: f :: tl -> cfg := { !cfg with input = f }; go tl
    | "--tiny" :: tl -> cfg := { !cfg with tiny = true }; go tl
    | "--perturb" :: tl -> cfg := { !cfg with perturb = true }; go tl
    | _ -> usage ()
  in
  go argv;
  !cfg

let () =
  (* one domain everywhere: the daemon gets --domains 1 too *)
  Pool.set_default_domains 1;
  (* a vanished daemon must surface as a failed request, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "op" :: rest -> op_main (parse_args rest) ~check:false
  | _ :: "op-check" :: rest -> op_main (parse_args rest) ~check:true
  | _ :: "probe" :: rest -> probe_main (parse_args rest)
  | _ :: "replay" :: rest -> replay_main (parse_args rest)
  | _ :: "run" :: rest ->
    let cfg = parse_args rest in
    if cfg.seconds < 1 || (cfg.workload = Eco_serve && cfg.proxim = "") then usage ();
    let steal0, total0 = T.proc_stat () and cpu0 = T.cpu_s () in
    let r =
      match cfg.workload with
      | Sta_bulk -> run_bulk cfg
      | Eco_serve -> run_serve cfg
    in
    let steal1, total1 = T.proc_stat () in
    let steal_pct =
      if total1 > total0 then 100. *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
      else 0.
    in
    print_result cfg r ~steal_pct ~cpu_s:(T.cpu_s () -. cpu0)
  | _ -> usage ()

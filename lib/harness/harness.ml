(* The randomized soundness loops of the static analyses, shared by the
   test suites and the bench.  See harness.mli for the contracts. *)

module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Memo_cache = Proxim_util.Memo_cache
module Gate = Proxim_gates.Gate
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Vtc = Proxim_vtc.Vtc
module Graph = Proxim_timing.Graph
module Timing = Proxim_timing.Timing
module Reference = Proxim_timing.Reference
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Prune = Proxim_sta.Prune
module Interval = Proxim_verify.Interval
module Verify = Proxim_verify.Verify
module Hazard = Proxim_hazard.Hazard
module Sense = Proxim_sense.Sense

(* --- designs ---------------------------------------------------------- *)

let layered_design rng ~gates ~depth ~width =
  let pis = Array.init width (Printf.sprintf "pi%d") in
  let prev = ref pis in
  let cells = ref [] in
  for layer = 0 to depth - 1 do
    let layer_cells =
      Array.init width (fun j ->
          let gate = gates.(Prng.int rng ~lo:0 ~hi:(Array.length gates - 1)) in
          let rec pick chosen n =
            if n = 0 then chosen
            else
              let i = Prng.int rng ~lo:0 ~hi:(width - 1) in
              if List.mem i chosen then pick chosen n
              else pick (i :: chosen) (n - 1)
          in
          let ins = pick [] gate.Gate.fan_in in
          {
            Design.name = Printf.sprintf "u%d_%d" layer j;
            gate;
            input_nets = Array.of_list (List.map (fun i -> (!prev).(i)) ins);
            output_net = Printf.sprintf "n%d_%d" layer j;
          })
    in
    cells := Array.to_list layer_cells @ !cells;
    prev := Array.map (fun c -> c.Design.output_net) layer_cells
  done;
  Design.create ~cells:(List.rev !cells)
    ~primary_inputs:(Array.to_list pis)
    ~primary_outputs:(Array.to_list !prev)

let falling_events rng ~quiet_one_in ~time_hi ~slew_hi nets =
  List.filter_map
    (fun net ->
      if Prng.int rng ~lo:0 ~hi:(quiet_one_in - 1) = 0 then None
      else
        (* slew before time, here and in [jitter]: the order the seeded
           BENCH values and test draws were recorded in *)
        let slew = Prng.float rng ~lo:150e-12 ~hi:slew_hi in
        let time = Prng.float rng ~lo:0. ~hi:time_hi in
        Some (net, { Sta.time; slew; edge = Measure.Fall }))
    nets

(* --- arrival windows -------------------------------------------------- *)

let jitter rng ~time_window ~tau_window pi =
  List.map
    (fun (net, (a : Sta.arrival)) ->
      let slew =
        Prng.float rng ~lo:(a.Sta.slew -. tau_window)
          ~hi:(a.Sta.slew +. tau_window)
      in
      let time =
        Prng.float rng ~lo:(a.Sta.time -. time_window)
          ~hi:(a.Sta.time +. time_window)
      in
      (net, { a with Sta.time; slew }))
    pi

type window = string -> Measure.edge -> Hazard.awin option

let verify_windows v net edge =
  match Verify.net_arrival v ~net with
  | Some (a : Verify.aarrival) when a.Verify.a_edge = edge ->
    Some { Hazard.w_time = a.Verify.a_time; w_slew = a.Verify.a_slew }
  | _ -> None

let hazard_windows h net edge =
  Option.bind (Hazard.net_state h ~net) (fun ns ->
      match edge with
      | Measure.Rise -> ns.Hazard.ns_rise
      | Measure.Fall -> ns.Hazard.ns_fall)

let window_escapes ?pool rng ~draws ~mode ~models ~thresholds ~time_window
    ~tau_window ~window design ~pi =
  let escapes = ref [] in
  for _ = 1 to draws do
    let report =
      Sta.analyze ~mode ?pool ~models ~thresholds design
        ~pi:(jitter rng ~time_window ~tau_window pi)
    in
    List.iter
      (fun (net, (a : Sta.arrival)) ->
        match window net a.Sta.edge with
        | None ->
          escapes :=
            Printf.sprintf "%s switches (%s) concretely but carries no window"
              net (Measure.edge_name a.Sta.edge)
            :: !escapes
        | Some w ->
          if
            not
              (Interval.contains w.Hazard.w_time a.Sta.time
              && Interval.contains w.Hazard.w_slew a.Sta.slew)
          then
            escapes :=
              Printf.sprintf
                "%s escapes its window: time %g not in %s or slew %g not in %s"
                net a.Sta.time
                (Interval.to_string w.Hazard.w_time)
                a.Sta.slew
                (Interval.to_string w.Hazard.w_slew)
              :: !escapes)
      report.Sta.arrivals
  done;
  List.rev !escapes

(* --- two-frame logic -------------------------------------------------- *)

let two_frame design stim =
  let g = Design.graph design in
  let n = Graph.net_count g in
  let init = Array.make n false and final = Array.make n false in
  List.iter
    (fun (net, (i0, f0)) ->
      match Graph.net_id g net with
      | Some id ->
        init.(id) <- i0;
        final.(id) <- f0
      | None -> ())
    stim;
  Array.iter
    (fun cid ->
      let cell : Design.cell = Graph.payload g cid in
      let ins = Graph.cell_inputs g cid in
      let o = Graph.cell_output g cid in
      init.(o) <- Gate.eval_bool cell.Design.gate (fun p -> init.(ins.(p)));
      final.(o) <-
        Gate.eval_bool cell.Design.gate (fun p -> final.(ins.(p))))
    (Graph.topological g);
  fun net ->
    let id = Option.get (Graph.net_id g net) in
    init.(id) <> final.(id)

type joint = { j_cell : string; j_a : string; j_b : string }

let unsensitizable_draws rng design s ~stim ~draws_per_pair =
  let free =
    List.filter
      (fun n -> not (List.mem_assoc n stim))
      (Design.primary_inputs design)
  in
  let pinned =
    List.filter_map
      (fun (net, st) ->
        match st with
        | Sense.Switch Measure.Rise -> Some (net, (false, true))
        | Sense.Switch Measure.Fall -> Some (net, (true, false))
        | Sense.Const b -> Some (net, (b, b))
        | Sense.Pulse -> None)
      stim
  in
  let g = Design.graph design in
  let draws = ref 0 and joints = ref [] in
  List.iter
    (fun ci ->
      let cell : Design.cell =
        Graph.payload g (Option.get (Graph.cell_id g ci.Sense.sc_name))
      in
      List.iter
        (fun p ->
          match p.Sense.sp_decision with
          | Sense.Unsensitizable _ ->
            let na = cell.Design.input_nets.(p.Sense.sp_a) in
            let nb = cell.Design.input_nets.(p.Sense.sp_b) in
            for _ = 1 to draws_per_pair do
              incr draws;
              let assignment =
                pinned
                @ List.map
                    (fun net ->
                      let b = Prng.int rng ~lo:0 ~hi:1 = 1 in
                      (net, (b, b)))
                    free
              in
              let changed = two_frame design assignment in
              if changed na && changed nb then
                joints :=
                  { j_cell = ci.Sense.sc_name; j_a = na; j_b = nb } :: !joints
            done
          | _ -> ())
        ci.Sense.sc_pairs)
    (Sense.cells s);
  (!draws, List.rev !joints)

(* --- pruned against full ---------------------------------------------- *)

type prune_run = {
  pr_name : string;
  pr_prune : Prune.t;
  pr_report : Sta.report;
  pr_counts : Prune.counts;
  pr_evaluations : int;
  pr_identical : bool;
}

let prune_divergence ?pool ~models ~thresholds design ~pi masks =
  let run prune =
    let ir =
      Sta.build_ir ~mode:Sta.Proximity ~prune ~models ~thresholds design ~pi
    in
    ignore (Sta.reanalyze ?pool ir : Timing.stats);
    (Sta.report ir, Sta.pruned_counts ir, Sta.pruned_evaluations ir)
  in
  let full, _, _ = run Prune.none in
  ( full,
    List.map
      (fun (pr_name, pr_prune) ->
        let pr_report, pr_counts, pr_evaluations = run pr_prune in
        {
          pr_name;
          pr_prune;
          pr_report;
          pr_counts;
          pr_evaluations;
          pr_identical = Sta.report_equal full pr_report;
        })
      masks )

(* --- reports ------------------------------------------------------------- *)

let show_arrival (a : Sta.arrival) =
  Printf.sprintf "%s %.17g/%.17g" (Measure.edge_name a.Sta.edge) a.Sta.time
    a.Sta.slew

let report_diff ?design ?(prune = Prune.none) (la, (ra : Sta.report))
    (lb, (rb : Sta.report)) =
  if Sta.report_equal ra rb then None
  else begin
    let buf = Buffer.create 256 in
    let pf fmt = Printf.bprintf buf fmt in
    (* a net listed twice keeps its first entry *)
    let table l =
      let h = Hashtbl.create 64 in
      List.iter
        (fun (n, v) -> if not (Hashtbl.mem h n) then Hashtbl.add h n v)
        l;
      h
    in
    let ta = table ra.Sta.arrivals and tb = table rb.Sta.arrivals in
    let show t net =
      Option.fold ~none:"quiet" ~some:show_arrival (Hashtbl.find_opt t net)
    in
    let both net =
      Printf.sprintf "%s %s | %s %s" la (show ta net) lb (show tb net)
    in
    let explain_driver design net =
      let g = Design.graph design in
      let driver n = Graph.driver g ~net:n in
      match Option.bind (Graph.net_id g net) driver with
      | None -> pf "  primary input\n"
      | Some c ->
        let cell : Design.cell = Graph.payload g c in
        pf "  driver %s (%s)%s\n" cell.Design.name cell.Design.gate.Gate.name
          (if Prune.is_empty prune then ""
           else
             Option.fold ~none:", not pruned"
               ~some:(fun s -> ", claimed by " ^ Prune.source_name s)
               (Prune.source prune c));
        Array.iter
          (fun i -> pf "    input %s: %s\n" i (both i))
          cell.Design.input_nets
    in
    (* [a]'s nets in its order, then those only [b] lists *)
    let only_b (n, _) = not (Hashtbl.mem ta n) in
    List.map fst (ra.Sta.arrivals @ List.filter only_b rb.Sta.arrivals)
    |> List.iter (fun net ->
           if
             not
               (Option.equal Timing.arrival_eq (Hashtbl.find_opt ta net)
                  (Hashtbl.find_opt tb net))
           then begin
             pf "net %s: %s\n" net (both net);
             Option.iter (fun d -> explain_driver d net) design
           end);
    (* a cell output has a predecessor exactly when it switches, so a
       net only [b] lists is reported above *)
    let pb = table rb.Sta.predecessors in
    List.iter
      (fun (net, via) ->
        let via' = Option.value (Hashtbl.find_opt pb net) ~default:"none" in
        if via' <> via then
          pf "net %s: predecessor %s in %s, %s in %s\n" net via la via' lb)
      ra.Sta.predecessors;
    if Buffer.length buf = 0 then
      pf "the reports differ only in entry order or critical output\n";
    Some (Buffer.contents buf)
  end

let diverged design ~full runs =
  List.find_map
    (fun r ->
      report_diff ~design ~prune:r.pr_prune ("full", full)
        ("pruned", r.pr_report)
      |> Option.map
           (Printf.sprintf "%s mask diverged from the full analysis\n%s"
              r.pr_name))
    runs

(* --- ECO batches -------------------------------------------------------- *)

let reseedable_factory () =
  let seeds : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let cache = Memo_cache.create () in
  let models (cell : Design.cell) =
    let seed =
      Option.value (Hashtbl.find_opt seeds cell.Design.name) ~default:0
    in
    Memo_cache.find_or_compute cache
      (cell.Design.gate.Gate.name, seed)
      (fun () -> Models.synthetic ~seed cell.Design.gate)
  in
  ( { Sta.models; factory_stats = (fun () -> Memo_cache.stats cache) },
    fun cell seed -> Hashtbl.replace seeds cell seed )

type eco_run = { er_batches : int; er_divergence : string option }

(* spread wide enough that some cells' inputs fall outside each other's
   proximity window (so the §4 fold's early stop is exercised), close
   enough that most cells still fold *)
let random_arrival rng =
  let time = Prng.float rng ~lo:0. ~hi:1e-9 in
  let slew = Prng.float rng ~lo:150e-12 ~hi:600e-12 in
  { Sta.time; slew; edge = Measure.Fall }

let eco_name = function
  | Sta.Set_pi (net, None) -> "silence " ^ net
  | Sta.Set_pi (net, Some a) -> Printf.sprintf "%s %s" net (show_arrival a)
  | Sta.Touch_cell cell -> "reseed " ^ cell

let eco_batches ?pool rng ~design ~mode ~thresholds ~sequences ~batches =
  let exception Diverged of string in
  let checked = ref 0 in
  let sequence seq =
    let design = design rng in
    let factory, reseed = reseedable_factory () in
    let models = factory.Sta.models in
    let analyzed pi =
      let ir = Sta.build_ir ~mode ~models ~thresholds design ~pi in
      ignore (Sta.reanalyze ?pool ir : Timing.stats);
      ir
    in
    let fail where what =
      raise (Diverged (Printf.sprintf "sequence %d, %s: %s" seq where what))
    in
    let agrees where ir =
      if not (Reference.agrees (Sta.timing ir)) then
        fail where "the arena disagrees with Timing.Reference"
    in
    let same where a b = Option.iter (fail where) (report_diff ~design a b) in
    let pis = Array.of_list (Design.primary_inputs design) in
    let cells = Array.of_list (Design.cells design) in
    let pick a = a.(Prng.int rng ~lo:0 ~hi:(Array.length a - 1)) in
    let pi =
      ref (List.map (fun net -> (net, random_arrival rng)) (Array.to_list pis))
    in
    let ir = analyzed !pi in
    agrees "the first analysis" ir;
    let seed = ref 0 in
    for batch = 1 to batches do
      let eco _ =
        match Prng.int rng ~lo:0 ~hi:9 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
          let net = pick pis in
          Sta.Set_pi (net, Some (random_arrival rng))
        | 6 -> Sta.Set_pi (pick pis, None)
        | _ ->
          let cell = (pick cells).Design.name in
          incr seed;
          reseed cell !seed;
          Sta.Touch_cell cell
      in
      (* List.init applies [eco] left to right: the draw order *)
      let ecos = List.init (Prng.int rng ~lo:1 ~hi:3) eco in
      let where =
        Printf.sprintf "batch %d (%s)" batch
          (String.concat "; " (List.map eco_name ecos))
      in
      ignore (Sta.update ?pool ir ecos : Timing.stats);
      let pi' = Sta.apply_ecos !pi ecos in
      let full = Sta.report ir in
      same where ("update", full) ("fresh", Sta.report (analyzed pi'));
      agrees where ir;
      incr checked;
      pi := pi'
    done
  in
  let divergence =
    match
      for seq = 1 to sequences do
        sequence seq
      done
    with
    | () -> None
    | exception Diverged m -> Some m
  in
  { er_batches = !checked; er_divergence = divergence }

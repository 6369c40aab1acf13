(* The randomized soundness loops of the static analyses, shared by the
   test suites and the bench.  See harness.mli for the contracts. *)

module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Gate = Proxim_gates.Gate
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Vtc = Proxim_vtc.Vtc
module Graph = Proxim_timing.Graph
module Timing = Proxim_timing.Timing
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

let edge_name = function Measure.Rise -> "rise" | Measure.Fall -> "fall"

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
              net (edge_name a.Sta.edge)
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
      init.(o) <- Sense.eval_gate_bool cell.Design.gate (fun p -> init.(ins.(p)));
      final.(o) <-
        Sense.eval_gate_bool cell.Design.gate (fun p -> final.(ins.(p))))
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

let explain design prune ~full ~pruned =
  let g = Design.graph design in
  let buf = Buffer.create 256 in
  let pf fmt = Printf.bprintf buf fmt in
  let arrival (r : Sta.report) net = List.assoc_opt net r.Sta.arrivals in
  let show r net =
    match arrival r net with
    | Some (a : Sta.arrival) ->
      Printf.sprintf "%s %.17g/%.17g" (edge_name a.Sta.edge) a.Sta.time
        a.Sta.slew
    | None -> "quiet"
  in
  let both net =
    Printf.sprintf "full %s | pruned %s" (show full net) (show pruned net)
  in
  for n = 0 to Graph.net_count g - 1 do
    let net = Graph.net_name g n in
    if
      not
        (Option.equal Timing.arrival_eq (arrival full net) (arrival pruned net))
    then begin
      pf "net %s: %s\n" net (both net);
      match Graph.driver g ~net:n with
      | None -> pf "  primary input\n"
      | Some c ->
        let cell : Design.cell = Graph.payload g c in
        pf "  driver %s (%s), %s\n" cell.Design.name cell.Design.gate.Gate.name
          (Option.fold ~none:"not pruned"
             ~some:(fun s -> "claimed by " ^ Prune.source_name s)
             (Prune.source prune c));
        Array.iter
          (fun i -> pf "    input %s: %s\n" i (both i))
          cell.Design.input_nets
    end
  done;
  List.iter
    (fun (net, via) ->
      let via' =
        Option.value (List.assoc_opt net pruned.Sta.predecessors) ~default:"none"
      in
      if via' <> via then
        pf "net %s: predecessor %s in full, %s pruned\n" net via via')
    full.Sta.predecessors;
  Buffer.contents buf

let diverged design ~full runs =
  List.find_opt (fun r -> not r.pr_identical) runs
  |> Option.map (fun r ->
         Printf.sprintf "%s mask diverged from the full analysis\n%s" r.pr_name
           (explain design r.pr_prune ~full ~pruned:r.pr_report))

(* Static hazard analysis: §6 classification, window propagation and
   killing, randomized soundness against the concrete STA, the
   inertial-rule oracle, the quiet-cell prune mask and the PX4xx / CLI
   surface. *)

module Measure = Proxim_measure.Measure
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Models = Proxim_macromodel.Models
module Inertial = Proxim_core.Inertial
module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Prune = Proxim_sta.Prune
module Diagnostic = Proxim_lint.Diagnostic
module Interval = Proxim_verify.Interval
module Verify = Proxim_verify.Verify
module Hazard = Proxim_hazard.Hazard

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let nand3 = Gate.nand tech ~fan_in:3
let nor2 = Gate.nor tech ~fan_in:2
let inv = Gate.inverter tech

let synthetic_models =
  let tbl = Hashtbl.create 8 in
  fun (cell : Design.cell) ->
    let key = cell.Design.gate.Gate.name in
    match Hashtbl.find_opt tbl key with
    | Some m -> m
    | None ->
      let m = Models.synthetic cell.Design.gate in
      Hashtbl.add tbl key m;
      m

let thresholds = { Vtc.vil = 1.25; vih = 3.75; vdd = 5.0 }

(* measured threshold sets for the golden-simulator (inertial) rule *)
let nand2_thresholds = lazy (Vtc.thresholds ~points:201 nand2)
let nor2_thresholds = lazy (Vtc.thresholds ~points:201 nor2)

let ev ?(w = 0.) ?(tw = 0.) edge net time slew =
  Verify.of_sta_event ~time_window:w ~tau_window:tw
    (net, { Sta.time; slew; edge })

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* the examples/hazard_demo.ntl topology *)
let demo_design () =
  Design.create
    ~cells:
      [
        { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
          output_net = "n1" };
        { Design.name = "u2"; gate = nand2; input_nets = [| "n1"; "d" |];
          output_net = "y" };
        { Design.name = "u3"; gate = nand2; input_nets = [| "c"; "e" |];
          output_net = "z" };
      ]
    ~primary_inputs:[ "a"; "b"; "c"; "e"; "d" ]
    ~primary_outputs:[ "y"; "z" ]

let demo_events () =
  [
    ev Measure.Fall "a" 500e-12 400e-12;
    ev Measure.Rise "b" 0. 300e-12;
    ev Measure.Fall "c" 100e-12 400e-12;
    ev Measure.Rise "e" 0. 300e-12;
  ]

let demo () =
  Hazard.analyze ~models:synthetic_models ~thresholds (demo_design ())
    ~pi:(demo_events ())

let report h name =
  match Hazard.cell_report h ~cell:name with
  | Some r -> r
  | None -> Alcotest.fail (name ^ " has no cell report")

(* ------------------------------------------------------------------ *)
(* Classification on the demo design                                   *)

let test_demo_classification () =
  let h = demo () in
  let u1 = report h "u1" and u2 = report h "u2" and u3 = report h "u3" in
  Alcotest.(check string) "u1 may-glitch"
    (Hazard.verdict_name Hazard.May_glitch)
    (Hazard.verdict_name u1.Hazard.hc_verdict);
  Alcotest.(check string) "u2 may-glitch (pulse through n1)"
    (Hazard.verdict_name Hazard.May_glitch)
    (Hazard.verdict_name u2.Hazard.hc_verdict);
  Alcotest.(check string) "u3 filtered"
    (Hazard.verdict_name Hazard.Filtered)
    (Hazard.verdict_name u3.Hazard.hc_verdict);
  (* the governing orientation of a rest-high nand2 is rise-starts *)
  (match u1.Hazard.hc_pairs with
  | [ p ] ->
    Alcotest.(check bool) "rise starts" true
      (p.Hazard.hp_starter_edge = Measure.Rise);
    Alcotest.(check bool) "separation is 500 ps" true
      (feq (Interval.lo p.Hazard.hp_sep) 500e-12
      && Interval.degenerate p.Hazard.hp_sep);
    Alcotest.(check bool) "not filtered" false p.Hazard.hp_filtered
  | _ -> Alcotest.fail "u1 should have exactly one pair");
  (* u3's near miss sits inside the default 25 ps band *)
  (match u3.Hazard.hc_pairs with
  | [ p ] ->
    Alcotest.(check bool) "filtered" true p.Hazard.hp_filtered;
    Alcotest.(check bool) "margin in the PX403 band" true
      (p.Hazard.hp_margin > 0. && p.Hazard.hp_margin <= 25e-12)
  | _ -> Alcotest.fail "u3 should have exactly one pair");
  (* observability: u1's glitch reaches y through u2 *)
  Alcotest.(check (list string)) "u1 reaches y" [ "y" ] u1.Hazard.hc_reaches;
  Alcotest.(check bool) "u1 observable" true u1.Hazard.hc_observable;
  Alcotest.(check bool) "u3 not observable" false u3.Hazard.hc_observable;
  let s = Hazard.summary h in
  Alcotest.(check int) "classified" 3 s.Hazard.classified;
  Alcotest.(check int) "may-glitch" 2 s.Hazard.may_glitch;
  Alcotest.(check int) "filtered" 1 s.Hazard.filtered;
  Alcotest.(check int) "observable" 2 s.Hazard.observable;
  Alcotest.(check (list string)) "d unconstrained" [ "d" ]
    (Hazard.unconstrained_pis h)

let codes_of diags =
  List.map (fun d -> Diagnostic.code_name d.Diagnostic.code) diags

let test_demo_diagnostics () =
  let diags = Hazard.check ~file:"demo.ntl" (demo ()) in
  let codes = codes_of diags in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " present") true (List.mem c codes))
    [ "PX401"; "PX402"; "PX403"; "PX404" ];
  (* PX403 is informational, the rest warn *)
  List.iter
    (fun d ->
      let expect =
        if d.Diagnostic.code = Diagnostic.PX403 then Diagnostic.Info
        else Diagnostic.Warning
      in
      Alcotest.(check bool)
        (Diagnostic.code_name d.Diagnostic.code ^ " severity")
        true
        (d.Diagnostic.severity = expect))
    diags;
  Alcotest.(check int) "warnings fail the run" 1
    (Diagnostic.exit_code ~fail_on:Diagnostic.Warning diags);
  (* the code filter applies before the exit computation: keeping only
     the info-severity PX403 turns the same run green *)
  let only_403 = Diagnostic.filter_codes [ Diagnostic.PX403 ] diags in
  Alcotest.(check int) "filtered run passes" 0
    (Diagnostic.exit_code ~fail_on:Diagnostic.Warning only_403)

(* ------------------------------------------------------------------ *)
(* §6 filtering kills the windows of a provably static output          *)

let test_filtered_window_kill () =
  let design =
    Design.create
      ~cells:
        [
          { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
            output_net = "n1" };
          { Design.name = "u2"; gate = inv; input_nets = [| "n1" |];
            output_net = "y" };
        ]
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y" ]
  in
  (* a falls only 100 ps after b rises: inside the minimum separation,
     so the excursion is filtered and the output is statically 1 *)
  let h =
    Hazard.analyze ~models:synthetic_models ~thresholds design
      ~pi:[ ev Measure.Fall "a" 100e-12 400e-12; ev Measure.Rise "b" 0. 300e-12 ]
  in
  Alcotest.(check string) "u1 filtered"
    (Hazard.verdict_name Hazard.Filtered)
    (Hazard.verdict_name (report h "u1").Hazard.hc_verdict);
  (match Hazard.net_state h ~net:"n1" with
  | None -> Alcotest.fail "n1 has no state"
  | Some ns ->
    Alcotest.(check bool) "n1 windows killed" true
      (ns.Hazard.ns_rise = None && ns.Hazard.ns_fall = None);
    Alcotest.(check bool) "n1 statically 1" true
      (ns.Hazard.ns_init = Hazard.L1 && ns.Hazard.ns_final = Hazard.L1));
  (* nothing downstream of a proven-quiet net classifies *)
  Alcotest.(check bool) "u2 windowless" true
    (Hazard.cell_report h ~cell:"u2" = None);
  let s = Hazard.summary h in
  Alcotest.(check int) "one cell classified" 1 s.Hazard.classified

let test_same_edge_never () =
  (* all-fall stimulus: monotone gates alternate edges level by level,
     no opposing pair can ever form *)
  let design =
    Design.create
      ~cells:
        [
          { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
            output_net = "n1" };
          { Design.name = "u2"; gate = nand2; input_nets = [| "a"; "c" |];
            output_net = "n2" };
          { Design.name = "u3"; gate = nand2; input_nets = [| "n1"; "n2" |];
            output_net = "y" };
        ]
      ~primary_inputs:[ "a"; "b"; "c" ] ~primary_outputs:[ "y" ]
  in
  let h =
    Hazard.analyze ~models:synthetic_models ~thresholds design
      ~pi:
        [
          ev Measure.Fall "a" 0. 400e-12;
          ev Measure.Fall "b" 150e-12 300e-12;
          ev Measure.Fall "c" 80e-12 350e-12;
        ]
  in
  let s = Hazard.summary h in
  Alcotest.(check int) "all classified" 3 s.Hazard.classified;
  Alcotest.(check int) "all never" 3 s.Hazard.never;
  Alcotest.(check (list string)) "no diagnostics" []
    (codes_of (Hazard.check h))

(* ------------------------------------------------------------------ *)
(* Soundness: concrete proximity STA stays inside the hazard windows   *)

let small_design () =
  Design.create
    ~cells:
      [
        { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
          output_net = "n1" };
        { Design.name = "u2"; gate = inv; input_nets = [| "c" |];
          output_net = "n2" };
        { Design.name = "u3"; gate = nor2; input_nets = [| "n1"; "n2" |];
          output_net = "y" };
      ]
    ~primary_inputs:[ "a"; "b"; "c" ] ~primary_outputs:[ "y" ]

let test_soundness_random () =
  let design = small_design () in
  let rng = Prng.create 0x4A22EDL in
  let pool = Pool.create ~domains:1 in
  List.iter
    (fun mode ->
      for _ = 1 to 15 do
        let base net =
          ( net,
            {
              Sta.time = Prng.float rng ~lo:0. ~hi:300e-12;
              slew = Prng.float rng ~lo:150e-12 ~hi:600e-12;
              edge = Measure.Fall;
            } )
        in
        let pi = [ base "a"; base "b"; base "c" ] in
        let tw = 30e-12 and sw = 15e-12 in
        let h =
          Hazard.analyze ~mode ~models:synthetic_models ~thresholds design
            ~pi:
              (List.map
                 (Verify.of_sta_event ~time_window:tw ~tau_window:sw)
                 pi)
        in
        for _ = 1 to 7 do
          let concrete =
            List.map
              (fun (net, (a : Sta.arrival)) ->
                ( net,
                  {
                    a with
                    Sta.time =
                      Prng.float rng ~lo:(a.Sta.time -. tw)
                        ~hi:(a.Sta.time +. tw);
                    slew =
                      Prng.float rng ~lo:(a.Sta.slew -. sw)
                        ~hi:(a.Sta.slew +. sw);
                  } ))
              pi
          in
          let report =
            Sta.analyze ~mode ~pool ~models:synthetic_models ~thresholds
              design ~pi:concrete
          in
          List.iter
            (fun (net, (a : Sta.arrival)) ->
              match Hazard.net_state h ~net with
              | None -> Alcotest.fail (net ^ " missing from hazard state")
              | Some ns ->
                let win =
                  match a.Sta.edge with
                  | Measure.Rise -> ns.Hazard.ns_rise
                  | Measure.Fall -> ns.Hazard.ns_fall
                in
                (match win with
                | None ->
                  Alcotest.fail
                    (net ^ " switches concretely but carries no window")
                | Some w ->
                  if
                    not
                      (Interval.contains w.Hazard.w_time a.Sta.time
                      && Interval.contains w.Hazard.w_slew a.Sta.slew)
                  then
                    Alcotest.fail
                      (Printf.sprintf
                         "%s escapes its window: time %g not in %s or slew \
                          %g not in %s"
                         net a.Sta.time
                         (Interval.to_string w.Hazard.w_time)
                         a.Sta.slew
                         (Interval.to_string w.Hazard.w_slew))))
            report.Sta.arrivals
        done
      done)
    [ Sta.Proximity; Sta.Classic ];
  Pool.shutdown pool;
  (* 15 configurations x 7 draws x 2 modes = 210 concrete assignments *)
  Alcotest.(check pass) "concrete runs inside hazard windows" () ()

(* Never cells really are hazard-free: across random mixed-edge
   stimuli, whenever the analysis says Never, the concrete events at
   that cell contain no opposing-edge pair at all *)
let test_never_is_never_random () =
  let design = demo_design () in
  let rng = Prng.create 0x5EEDL in
  for _ = 1 to 100 do
    let edge () = if Prng.int rng ~lo:0 ~hi:1 = 0 then Measure.Fall else Measure.Rise in
    let pi =
      List.filter_map
        (fun net ->
          if Prng.int rng ~lo:0 ~hi:3 = 0 then None
          else
            Some
              ( net,
                {
                  Sta.time = Prng.float rng ~lo:0. ~hi:600e-12;
                  slew = Prng.float rng ~lo:150e-12 ~hi:500e-12;
                  edge = edge ();
                } ))
        [ "a"; "b"; "c"; "e"; "d" ]
    in
    let h =
      Hazard.analyze ~models:synthetic_models ~thresholds design
        ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
    in
    List.iter
      (fun (r : Hazard.cell_report) ->
        if r.Hazard.hc_verdict = Hazard.Never then
          Alcotest.(check bool)
            (r.Hazard.hc_name ^ " never-verdict has no opposing pair")
            true
            (r.Hazard.hc_pairs = []))
      (Hazard.cells h)
  done;
  Alcotest.(check pass) "100 random stimuli" () ()

(* ------------------------------------------------------------------ *)
(* The inertial (golden-simulator) rule                                *)

let test_inertial_rule_filtered_concrete () =
  (* one real nand2: the analysis classifies the pair filtered under the
     bisected inertial rule, and ~100 concrete separations drawn from
     the same windows indeed never complete a transition *)
  let th = Lazy.force nand2_thresholds in
  let design =
    Design.create
      ~cells:
        [
          { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
            output_net = "y" };
        ]
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y" ]
  in
  let tau_fall = 400e-12 and tau_rise = 300e-12 in
  let rule = Hazard.inertial_rule ~thresholds:th () in
  let models (cell : Design.cell) = Models.synthetic cell.Design.gate in
  let w = 50e-12 in
  let h =
    Hazard.analyze ~rule ~models ~thresholds:th design
      ~pi:
        [
          ev ~w Measure.Fall "a" 50e-12 tau_fall;
          ev Measure.Rise "b" 0. tau_rise;
        ]
  in
  let u1 = report h "u1" in
  Alcotest.(check string) "filtered under the inertial rule"
    (Hazard.verdict_name Hazard.Filtered)
    (Hazard.verdict_name u1.Hazard.hc_verdict);
  let rng = Prng.create 0x6A7EL in
  for _ = 1 to 100 do
    (* oriented separation sigma = t_fall - t_rise in [0, 100 ps];
       Inertial's sep argument is t_rise - t_fall = -sigma *)
    let sigma = Prng.float rng ~lo:0. ~hi:100e-12 in
    let g =
      Inertial.glitch nand2 th ~fall_pin:0 ~rise_pin:1 ~tau_fall ~tau_rise
        ~sep:(-.sigma)
    in
    if g.Inertial.full_swing then
      Alcotest.fail
        (Printf.sprintf
           "glitch completes at sigma = %.1f ps inside a Filtered window"
           (sigma *. 1e12))
  done;
  Alcotest.(check pass) "100 concrete separations stay filtered" () ()

let test_inertial_rule_conservative () =
  (* the tau-box rule output must contain the directly bisected minimum
     separation at an interior tau point *)
  let th = Lazy.force nand2_thresholds in
  let cell =
    { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
      output_net = "y" }
  in
  let m = Models.synthetic nand2 in
  let rule = Hazard.inertial_rule ~thresholds:th () in
  let lo_r, hi_r = (280e-12, 320e-12) and lo_f = 380e-12 and hi_f = 420e-12 in
  let bounds =
    rule cell m ~starter_pin:1 ~starter_edge:Measure.Rise ~ender_pin:0
      ~tau_starter:(lo_r, hi_r) ~tau_ender:(lo_f, hi_f)
  in
  let mid =
    -.Inertial.minimum_valid_separation nand2 th ~fall_pin:0 ~rise_pin:1
        ~tau_fall:400e-12 ~tau_rise:300e-12
  in
  let lo, hi = bounds in
  Alcotest.(check bool)
    (Printf.sprintf "interior sigma_min %.1f ps inside [%.1f, %.1f] ps"
       (mid *. 1e12) (lo *. 1e12) (hi *. 1e12))
    true
    (lo <= mid && mid <= hi);
  (* the opposite orientation of a NAND never completes *)
  let never =
    rule cell m ~starter_pin:0 ~starter_edge:Measure.Fall ~ender_pin:1
      ~tau_starter:(400e-12, 400e-12) ~tau_ender:(300e-12, 300e-12)
  in
  Alcotest.(check bool) "fall-starts orientation is infinite" true
    (fst never = infinity);
  (* nor2 mirrors: fall starts the excursion *)
  let th_nor = Lazy.force nor2_thresholds in
  let cell_nor = { cell with Design.gate = nor2 } in
  let rule_nor = Hazard.inertial_rule ~thresholds:th_nor () in
  let nor_bounds =
    rule_nor cell_nor (Models.synthetic nor2) ~starter_pin:0
      ~starter_edge:Measure.Fall ~ender_pin:1
      ~tau_starter:(400e-12, 400e-12) ~tau_ender:(300e-12, 300e-12)
  in
  Alcotest.(check bool) "nor2 fall-starts is finite" true
    (Float.is_finite (fst nor_bounds) && Float.is_finite (snd nor_bounds))

(* ------------------------------------------------------------------ *)
(* quiet_mask: pruned STA is bit-identical                             *)

let aeq (a : Sta.arrival) (b : Sta.arrival) =
  feq a.Sta.time b.Sta.time && feq a.Sta.slew b.Sta.slew
  && a.Sta.edge = b.Sta.edge

let reports_eq (r1 : Sta.report) (r2 : Sta.report) =
  List.length r1.Sta.arrivals = List.length r2.Sta.arrivals
  && List.for_all2
       (fun (n1, a1) (n2, a2) -> n1 = n2 && aeq a1 a2)
       r1.Sta.arrivals r2.Sta.arrivals
  && r1.Sta.predecessors = r2.Sta.predecessors

let test_quiet_mask_bit_identical () =
  let design = small_design () in
  (* only a and c switch: u1 has one window-bearing input, u3 two but
     never-dominant far apart is not needed -- u1/u2 are quiet *)
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall });
      ("c", { Sta.time = 50e-12; slew = 300e-12; edge = Measure.Fall });
    ]
  in
  let h =
    Hazard.analyze ~models:synthetic_models ~thresholds design
      ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
  in
  let mask = Hazard.quiet_mask h in
  let id name = Option.get (Graph.cell_id (Design.graph design) name) in
  Alcotest.(check bool) "u1 quiet (single window input)" true mask.(id "u1");
  Alcotest.(check bool) "u2 quiet (single input)" true mask.(id "u2");
  let pool = Pool.create ~domains:1 in
  let run ?prune () =
    let ir =
      Sta.build_ir ~mode:Sta.Proximity ?prune ~models:synthetic_models
        ~thresholds design ~pi
    in
    ignore (Sta.reanalyze ~pool ir);
    (Sta.report ir, Sta.pruned_evaluations ir)
  in
  let r_full, _ = run () in
  let r_pruned, n_pruned = run ~prune:(Prune.make ~quiet:mask ()) () in
  Pool.shutdown pool;
  Alcotest.(check bool) "fast path taken" true (n_pruned > 0);
  Alcotest.(check bool) "bit-identical" true (reports_eq r_full r_pruned)

(* regression: the never-dominant collapse is an *earliest-wins* lemma.
   A gating group (NOR-falling here) folds to the latest input, so a far
   separation must NOT mark the cell quiet — doing so made the pruned
   fast path (earliest) diverge from the full fold (latest).  The
   assisting mirror (NAND-falling) at the same separation is quiet. *)
let test_quiet_mask_gating_not_quiet () =
  let mk gate =
    Design.create
      ~cells:
        [
          { Design.name = "u1"; gate; input_nets = [| "a"; "b" |];
            output_net = "y" };
        ]
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y" ]
  in
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall });
      ("b", { Sta.time = 2e-9; slew = 300e-12; edge = Measure.Fall });
    ]
  in
  let events =
    List.map (Verify.of_sta_event ~time_window:20e-12 ~tau_window:10e-12) pi
  in
  let mask_of gate =
    let design = mk gate in
    let h =
      Hazard.analyze ~models:synthetic_models ~thresholds design ~pi:events
    in
    let u1 = Option.get (Graph.cell_id (Design.graph design) "u1") in
    (Hazard.quiet_mask h).(u1)
  in
  Alcotest.(check bool) "gating nor2 group is not quiet" false (mask_of nor2);
  Alcotest.(check bool) "assisting nand2 group is quiet" true (mask_of nand2);
  (* and the pruned analysis of the gating design stays bit-identical *)
  let design = mk nor2 in
  let h =
    Hazard.analyze ~models:synthetic_models ~thresholds design ~pi:events
  in
  let pool = Pool.create ~domains:1 in
  let run ?prune () =
    let ir =
      Sta.build_ir ~mode:Sta.Proximity ?prune ~models:synthetic_models
        ~thresholds design ~pi
    in
    ignore (Sta.reanalyze ~pool ir);
    Sta.report ir
  in
  let r_full = run () in
  let r_pruned = run ~prune:(Prune.make ~quiet:(Hazard.quiet_mask h) ()) () in
  Pool.shutdown pool;
  Alcotest.(check bool) "gating design bit-identical" true
    (reports_eq r_full r_pruned)

let test_quiet_mask_bit_identical_random () =
  let rng = Prng.create 0xC0FFEEL in
  let pool = Pool.create ~domains:1 in
  let gate_pool = [| nand2; nor2; nand3; inv |] in
  for _ = 1 to 10 do
    let width = 6 in
    let pis = List.init width (Printf.sprintf "pi%d") in
    let prev = ref (Array.of_list pis) in
    let cells = ref [] in
    for layer = 0 to 2 do
      let layer_cells =
        Array.init width (fun j ->
            let gate =
              gate_pool.(Prng.int rng ~lo:0 ~hi:(Array.length gate_pool - 1))
            in
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
              input_nets =
                Array.of_list (List.map (fun i -> (!prev).(i)) ins);
              output_net = Printf.sprintf "n%d_%d" layer j;
            })
      in
      cells := Array.to_list layer_cells @ !cells;
      prev := Array.map (fun c -> c.Design.output_net) layer_cells
    done;
    let design =
      Design.create ~cells:(List.rev !cells) ~primary_inputs:pis
        ~primary_outputs:(Array.to_list !prev)
    in
    let pi =
      List.filter_map
        (fun net ->
          if Prng.int rng ~lo:0 ~hi:2 = 0 then None
          else
            Some
              ( net,
                {
                  Sta.time = Prng.float rng ~lo:0. ~hi:600e-12;
                  slew = Prng.float rng ~lo:150e-12 ~hi:500e-12;
                  edge = Measure.Fall;
                } ))
        pis
    in
    let h =
      Hazard.analyze ~models:synthetic_models ~thresholds design
        ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
    in
    let run ?prune () =
      let ir =
        Sta.build_ir ~mode:Sta.Proximity ?prune ~models:synthetic_models
          ~thresholds design ~pi
      in
      ignore (Sta.reanalyze ~pool ir);
      Sta.report ir
    in
    let r1 = run ()
    and r2 = run ~prune:(Prune.make ~quiet:(Hazard.quiet_mask h) ()) () in
    if not (reports_eq r1 r2) then begin
      let mask = Hazard.quiet_mask h in
      let g = Design.graph design in
      let pruned =
        List.filter_map (fun (c : Design.cell) ->
            if mask.(Option.get (Graph.cell_id g c.Design.name)) then
              Some c.Design.name
            else None)
          (Design.cells design)
      in
      Printf.eprintf "pruned cells: %s\n" (String.concat " " pruned);
      List.iter
        (fun (c : Design.cell) ->
          let l = function
            | Hazard.L0 -> "0"
            | Hazard.L1 -> "1"
            | Hazard.LX -> "X"
          in
          let st =
            match Hazard.net_state h ~net:c.Design.output_net with
            | None -> "nostate"
            | Some ns ->
              Printf.sprintf "%s->%s rise:%b fall:%b" (l ns.Hazard.ns_init)
                (l ns.Hazard.ns_final)
                (ns.Hazard.ns_rise <> None)
                (ns.Hazard.ns_fall <> None)
          in
          let v =
            match Hazard.cell_report h ~cell:c.Design.name with
            | None -> "unclassified"
            | Some r -> Hazard.verdict_name r.Hazard.hc_verdict
          in
          let in_st net =
            match Hazard.net_state h ~net with
            | None -> net ^ ":quiet"
            | Some ns ->
              Printf.sprintf "%s:%s->%s%s%s" net (l ns.Hazard.ns_init)
                (l ns.Hazard.ns_final)
                (if ns.Hazard.ns_rise <> None then "R" else "")
                (if ns.Hazard.ns_fall <> None then "F" else "")
          in
          Printf.eprintf "  CELL %s %s (%s) -> %s: %s [%s]\n" c.Design.name
            c.Design.gate.Proxim_gates.Gate.name
            (String.concat ","
               (List.map in_st (Array.to_list c.Design.input_nets)))
            c.Design.output_net st v)
        (Design.cells design);
      List.iter2
        (fun (n1, (a1 : Sta.arrival)) (n2, (a2 : Sta.arrival)) ->
          if n1 <> n2 || not (aeq a1 a2) then begin
            Printf.eprintf
              "  %s/%s: full time %.17g slew %.17g | pruned time %.17g slew \
               %.17g\n"
              n1 n2 a1.Sta.time a1.Sta.slew a2.Sta.time a2.Sta.slew;
            List.iter
              (fun (c : Design.cell) ->
                if c.Design.output_net = n1 then begin
                  Printf.eprintf "    cell %s gate %s inputs:\n" c.Design.name
                    c.Design.gate.Proxim_gates.Gate.name;
                  Array.iter
                    (fun net ->
                      let win = function
                        | None -> "-"
                        | Some (w : Hazard.awin) ->
                          Printf.sprintf "t=%s tau=%s"
                            (Interval.to_string w.Hazard.w_time)
                            (Interval.to_string w.Hazard.w_slew)
                      in
                      let conc =
                        match List.assoc_opt net r1.Sta.arrivals with
                        | None -> "quiet"
                        | Some (a : Sta.arrival) ->
                          Printf.sprintf "%.17g/%.17g" a.Sta.time a.Sta.slew
                      in
                      match Hazard.net_state h ~net with
                      | None ->
                        Printf.eprintf "      %s: no state, concrete %s\n" net
                          conc
                      | Some ns ->
                        Printf.eprintf
                          "      %s: rise %s fall %s, concrete %s\n" net
                          (win ns.Hazard.ns_rise) (win ns.Hazard.ns_fall) conc)
                    c.Design.input_nets
                end)
              (Design.cells design)
          end)
        r1.Sta.arrivals r2.Sta.arrivals;
      Alcotest.fail "quiet-pruned analysis diverged from the full one"
    end
  done;
  Pool.shutdown pool;
  Alcotest.(check pass) "10 random designs bit-identical" () ()

(* ------------------------------------------------------------------ *)
(* Input validation                                                    *)

let test_analyze_validation () =
  let design = small_design () in
  Alcotest.(check bool) "collapsed mode rejected" true
    (try
       ignore
         (Hazard.analyze
            ~mode:(Sta.Collapsed Proxim_baseline.Collapse.Jun)
            ~models:synthetic_models ~thresholds design ~pi:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "driven net rejected" true
    (try
       ignore
         (Hazard.analyze ~models:synthetic_models ~thresholds design
            ~pi:[ ev Measure.Fall "n1" 0. 300e-12 ]);
       false
     with Invalid_argument _ -> true);
  (* unknown nets are inert, like Sta/Verify *)
  let h =
    Hazard.analyze ~models:synthetic_models ~thresholds design
      ~pi:[ ev Measure.Fall "nope" 0. 300e-12 ]
  in
  Alcotest.(check int) "nothing classifies" 0
    (Hazard.summary h).Hazard.classified;
  (* window-net validation is a typed error *)
  Alcotest.check_raises "unknown window net"
    (Verify.Not_primary_input { flag = "--pi-window"; net = "nosuch" })
    (fun () ->
      Verify.validate_pi_nets ~flag:"--pi-window" design [ "a"; "nosuch" ]);
  Alcotest.check_raises "driven window net"
    (Verify.Not_primary_input { flag = "--pi-window"; net = "n1" })
    (fun () -> Verify.validate_pi_nets ~flag:"--pi-window" design [ "n1" ])

(* ------------------------------------------------------------------ *)
(* CLI surface                                                         *)

let cli =
  match
    List.find_opt Sys.file_exists
      [ "../bin/proxim_cli.exe"; "_build/default/bin/proxim_cli.exe" ]
  with
  | Some p -> p
  | None -> "proxim"

(* the hazard_demo topology plus an unused input f, so `proxim lint`
   reliably reports a warning (PX111) for the filter test below *)
let demo_netlist =
  {|design hazard_demo
input a b c e d f
output y z
thresholds 1.263 3.737 5.0
cell u1 nand2 a b -> n1
cell u2 nand2 n1 d -> y
cell u3 nand2 c e -> z
end
|}

let demo_stimulus =
  "--pi a:fall:400:500 --pi b:rise:300:0 --pi c:fall:400:100 --pi \
   e:rise:300:0"

let with_demo_file f =
  let file = Filename.temp_file "proxim_hazard" ".ntl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc demo_netlist);
      f file)

let run fmt =
  Printf.ksprintf
    (fun args -> Sys.command (Printf.sprintf "%s >/dev/null 2>&1" args))
    fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let test_cli_exit_codes () =
  with_demo_file (fun file ->
      let file = Filename.quote file in
      Alcotest.(check int) "warnings exit 1" 1
        (run "%s hazards %s %s" cli file demo_stimulus);
      Alcotest.(check int) "--fail-on error passes" 0
        (run "%s hazards %s %s --fail-on error" cli file demo_stimulus);
      (* --codes filters BEFORE --fail-on: keeping only the info-level
         PX403 turns the failing run green *)
      Alcotest.(check int) "--codes filter applies before exit" 0
        (run "%s hazards %s %s --codes PX403" cli file demo_stimulus);
      Alcotest.(check int) "--codes keeping a warning still fails" 1
        (run "%s hazards %s %s --codes PX401" cli file demo_stimulus);
      (* the same contract on lint (PX111 on the unused input f warns)
         and verify (PX304 on the quiet inputs warns) *)
      Alcotest.(check int) "lint warns" 1 (run "%s lint %s" cli file);
      Alcotest.(check int) "lint --codes filter applies before exit" 0
        (run "%s lint %s --codes PX103" cli file);
      Alcotest.(check int) "verify warns" 1
        (run "%s verify %s --pi a:fall:400:0" cli file);
      Alcotest.(check int) "verify --codes filter applies before exit" 0
        (run "%s verify %s --pi a:fall:400:0 --codes PX302" cli file);
      Alcotest.(check int) "bare --codes prints the table" 0
        (run "%s hazards %s --codes" cli file);
      (* a typo'd --pi-window net is a usage error *)
      Alcotest.(check int) "unknown window net exits 2" 2
        (run "%s hazards %s %s --pi-window nosuch=25" cli file demo_stimulus);
      Alcotest.(check int) "verify shares the window validation" 2
        (run "%s verify %s --pi a:fall:400:0 --pi-window nosuch=25" cli file);
      Alcotest.(check int) "unknown code exits 2" 2
        (run "%s hazards %s %s --codes PXNOPE" cli file demo_stimulus);
      (* sarif output is valid JSON carrying the expected rule ids *)
      let sarif =
        Printf.sprintf "%s hazards %s %s --format sarif --fail-on error" cli
          file demo_stimulus
      in
      let ic = Unix.open_process_in sarif in
      let out = In_channel.input_all ic in
      ignore (Unix.close_process_in ic);
      (match Proxim_util.Json.of_string out with
      | Error m -> Alcotest.fail ("sarif is not valid JSON: " ^ m)
      | Ok _ -> ());
      List.iter
        (fun frag ->
          Alcotest.(check bool) (frag ^ " in sarif") true (contains out frag))
        [ "PX401"; "PX402"; "PX403"; "PX404"; "2.1.0" ])

let () =
  Alcotest.run "hazard"
    [
      ( "classification",
        [
          Alcotest.test_case "demo verdicts" `Quick test_demo_classification;
          Alcotest.test_case "demo diagnostics" `Quick test_demo_diagnostics;
          Alcotest.test_case "filtered window kill" `Quick
            test_filtered_window_kill;
          Alcotest.test_case "same-edge never" `Quick test_same_edge_never;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "windows contain concrete STA" `Slow
            test_soundness_random;
          Alcotest.test_case "never has no opposing pair" `Quick
            test_never_is_never_random;
        ] );
      ( "inertial rule",
        [
          Alcotest.test_case "filtered pairs stay filtered" `Slow
            test_inertial_rule_filtered_concrete;
          Alcotest.test_case "conservative over tau box" `Slow
            test_inertial_rule_conservative;
        ] );
      ( "quiet mask",
        [
          Alcotest.test_case "bit-identical" `Quick
            test_quiet_mask_bit_identical;
          Alcotest.test_case "gating group not quiet" `Quick
            test_quiet_mask_gating_not_quiet;
          Alcotest.test_case "bit-identical random" `Slow
            test_quiet_mask_bit_identical_random;
        ] );
      ( "validation",
        [ Alcotest.test_case "inputs" `Quick test_analyze_validation ] );
      ( "cli",
        [ Alcotest.test_case "exit codes" `Quick test_cli_exit_codes ] );
    ]

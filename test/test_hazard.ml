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
module Harness = Proxim_harness.Harness

open Testkit

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let nand3 = Gate.nand tech ~fan_in:3
let nor2 = Gate.nor tech ~fan_in:2
let inv = Gate.inverter tech

let synthetic_models = (Sta.synthetic_factory ()).Sta.models

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
        match
          Harness.window_escapes ~pool rng ~draws:7 ~mode
            ~models:synthetic_models ~thresholds ~time_window:tw
            ~tau_window:sw ~window:(Harness.hazard_windows h) design ~pi
        with
        | [] -> ()
        | e :: _ -> Alcotest.fail e
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

(* the quiet-pruned analysis of [design] under [pi] must be bit-identical
   to the full one; returns its fast-path evaluations *)
let check_quiet_pruned design ~pi mask =
  let pool = Pool.create ~domains:1 in
  let full, runs =
    Harness.prune_divergence ~pool ~models:synthetic_models ~thresholds design
      ~pi [ ("quiet", Prune.make ~quiet:mask ()) ]
  in
  Pool.shutdown pool;
  Option.iter Alcotest.fail (Harness.diverged design ~full runs);
  (List.hd runs).Harness.pr_evaluations

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
  Alcotest.(check bool) "fast path taken" true
    (check_quiet_pruned design ~pi mask > 0)

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
  ignore (check_quiet_pruned design ~pi (Hazard.quiet_mask h) : int)

(* the harness must see a wrong mask: forcing the fast path on a cell
   whose inputs fall 10 ps apart changes its output, and the
   explanation names the net, its driver and the claiming source *)
let test_wrong_mask_explained () =
  let design = small_design () in
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall });
      ("b", { Sta.time = 10e-12; slew = 300e-12; edge = Measure.Fall });
    ]
  in
  let u1 = Option.get (Graph.cell_id (Design.graph design) "u1") in
  let mask = Array.init 3 (fun c -> c = u1) in
  let full, runs =
    Harness.prune_divergence ~models:synthetic_models ~thresholds design ~pi
      [ ("quiet", Prune.make ~quiet:mask ()) ]
  in
  match Harness.diverged design ~full runs with
  | None -> Alcotest.fail "the wrong mask went unseen"
  | Some text ->
    List.iter
      (fun frag ->
        Alcotest.(check bool) (frag ^ " explained") true (contains text frag))
      [ "quiet mask diverged"; "net n1: full rise";
        "driver u1 (nand2), claimed by quiet"; "input b: full fall" ]

let test_quiet_mask_bit_identical_random () =
  let rng = Prng.create 0xC0FFEEL in
  for _ = 1 to 10 do
    let design =
      Harness.layered_design rng ~gates:[| nand2; nor2; nand3; inv |]
        ~depth:3 ~width:6
    in
    let pi =
      Harness.falling_events rng ~quiet_one_in:3 ~time_hi:600e-12
        ~slew_hi:500e-12 (Design.primary_inputs design)
    in
    let h =
      Hazard.analyze ~models:synthetic_models ~thresholds design
        ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
    in
    ignore (check_quiet_pruned design ~pi (Hazard.quiet_mask h) : int)
  done;
  Alcotest.(check pass) "10 random designs bit-identical" () ()

(* ------------------------------------------------------------------ *)
(* Unconstrained inputs (PX304 / PX404)                                *)

(* the definition the one-pass scan replaced: a quiet primary input is
   listed when its fanout cone holds a multi-input cell the analysis
   classified *)
let unconstrained_reference design ~quiet ~classified =
  let g = Design.graph design in
  List.filter
    (fun net ->
      quiet net
      &&
      let cone =
        Graph.fanout_cone g ~nets:[ Option.get (Graph.net_id g net) ] ~cells:[]
      in
      List.exists
        (fun (c : Design.cell) ->
          cone.(Option.get (Graph.cell_id g c.Design.name))
          && classified c.Design.name
          && c.Design.gate.Gate.fan_in >= 2)
        (Design.cells design))
    (Design.primary_inputs design)

let test_unconstrained_reference () =
  let rng = Prng.create 0x0C0DEL in
  let listed = ref 0 and unlisted = ref 0 in
  for _ = 1 to 30 do
    let design =
      Harness.layered_design rng ~gates:[| nand2; nor2; nand3; inv |]
        ~depth:(Prng.int rng ~lo:2 ~hi:4) ~width:(Prng.int rng ~lo:4 ~hi:9)
    in
    let pi =
      List.filter_map
        (fun net ->
          if Prng.int rng ~lo:0 ~hi:3 > 0 then None
          else
            Some
              (ev Measure.Fall net (Prng.float rng ~lo:0. ~hi:600e-12) 300e-12))
        (Design.primary_inputs design)
    in
    let v = Verify.analyze ~models:synthetic_models ~thresholds design ~pi in
    let h = Hazard.analyze ~models:synthetic_models ~thresholds design ~pi in
    let expect_v =
      unconstrained_reference design
        ~quiet:(fun net -> Verify.net_arrival v ~net = None)
        ~classified:(fun cell ->
          match Verify.cell_info v ~cell with
          | Some ci -> ci.Verify.ci_switching <> []
          | None -> false)
    in
    let expect_h =
      unconstrained_reference design
        ~quiet:(fun net -> Hazard.net_state h ~net = None)
        ~classified:(fun cell -> Hazard.cell_report h ~cell <> None)
    in
    Alcotest.(check (list string)) "verify" expect_v
      (Verify.unconstrained_pis v);
    Alcotest.(check (list string)) "hazard" expect_h
      (Hazard.unconstrained_pis h);
    listed := !listed + List.length expect_v;
    unlisted :=
      !unlisted + List.length (Design.primary_inputs design)
      - List.length expect_v
  done;
  (* both outcomes occur *)
  Alcotest.(check bool) "some inputs listed" true (!listed > 0);
  Alcotest.(check bool) "some inputs not listed" true (!unlisted > 0)

(* ------------------------------------------------------------------ *)
(* Verify is the single-edge view of the hazard dataflow               *)

let same_window a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Hazard.awin), Some (b : Hazard.awin) ->
    let same i j =
      feq (Interval.lo i) (Interval.lo j) && feq (Interval.hi i) (Interval.hi j)
    in
    same a.Hazard.w_time b.Hazard.w_time && same a.Hazard.w_slew b.Hazard.w_slew
  | _ -> false

(* Over layered designs every cell sees one edge, so both analyses see
   the same stimulus: each net's Verify arrival is Hazard's window for
   that edge to the bit (the other edge empty), the never-proximate
   cells are the quiet ones, and PX304 lists what PX404 lists *)
let test_verify_is_hazard_view () =
  let rng = Prng.create 0xF10E5L in
  let quiet_cells = ref 0 and windows = ref 0 in
  for _ = 1 to 12 do
    let design =
      Harness.layered_design rng ~gates:[| nand2; nor2; nand3; inv |]
        ~depth:3 ~width:6
    in
    let g = Design.graph design in
    let falls =
      Harness.falling_events rng ~quiet_one_in:3 ~time_hi:600e-12
        ~slew_hi:500e-12 (Design.primary_inputs design)
    in
    let rises =
      List.map (fun (n, a) -> (n, { a with Sta.edge = Measure.Rise })) falls
    in
    List.iter
      (fun (mode, pi, w) ->
        let pi =
          List.map
            (Verify.of_sta_event ~time_window:w ~tau_window:(w /. 2.))
            pi
        in
        let v = Verify.analyze ~mode ~models:synthetic_models ~thresholds design ~pi in
        let h = Hazard.analyze ~mode ~models:synthetic_models ~thresholds design ~pi in
        for id = 0 to Graph.net_count g - 1 do
          let net = Graph.net_name g id in
          List.iter
            (fun edge ->
              let vw = Harness.verify_windows v net edge in
              if vw <> None then incr windows;
              Alcotest.(check bool) (net ^ " window") true
                (same_window vw (Harness.hazard_windows h net edge)))
            [ Measure.Rise; Measure.Fall ]
        done;
        let quiet = Hazard.quiet_mask h in
        Array.iteri
          (fun c never ->
            Alcotest.(check bool) "never-proximate is quiet" true
              ((not never) || quiet.(c)))
          (Verify.prune_mask v);
        if mode = Sta.Proximity then begin
          let n_quiet =
            List.length
              (List.filter (fun r -> r.Hazard.hc_quiet) (Hazard.cells h))
          in
          quiet_cells := !quiet_cells + n_quiet;
          Alcotest.(check int) "never count = quiet classified cells"
            (Verify.summary v).Verify.never n_quiet
        end;
        Alcotest.(check (list string)) "PX304 = PX404"
          (Verify.unconstrained_pis v) (Hazard.unconstrained_pis h))
      [
        (Sta.Proximity, falls, 0.); (Sta.Proximity, falls, 40e-12);
        (Sta.Proximity, rises, 0.); (Sta.Proximity, rises, 40e-12);
        (Sta.Classic, falls, 0.); (Sta.Classic, falls, 40e-12);
        (Sta.Classic, rises, 0.); (Sta.Classic, rises, 40e-12);
      ]
  done;
  Alcotest.(check bool) "windows compared" true (!windows > 0);
  Alcotest.(check bool) "quiet cells compared" true (!quiet_cells > 0)

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
      let out = capture sarif in
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
          Alcotest.test_case "wrong mask explained" `Quick
            test_wrong_mask_explained;
        ] );
      ( "unconstrained",
        [
          Alcotest.test_case "fanout-cone reference" `Quick
            test_unconstrained_reference;
        ] );
      ( "one pass",
        [
          Alcotest.test_case "verify is the single-edge view" `Quick
            test_verify_is_hazard_view;
        ] );
      ( "validation",
        [ Alcotest.test_case "inputs" `Quick test_analyze_validation ] );
      ( "cli",
        [ Alcotest.test_case "exit codes" `Quick test_cli_exit_codes ] );
    ]

(* Tests for the ProximityDelay algorithm, the correction term, the
   inertial-delay model and the storage accounting. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Proximity = Proxim_core.Proximity
module Inertial = Proxim_core.Inertial
module Storage = Proxim_core.Storage
module Prng = Proxim_util.Prng

let tech = Tech.generic_5v
let nand3 = Gate.nand tech ~fan_in:3
let th = lazy (Vtc.thresholds ~points:201 nand3)
let models = lazy (Models.of_oracle nand3 (Lazy.force th))

let ev pin tau cross =
  { Proximity.pin; edge = Measure.Fall; tau; cross_time = cross }

(* ------------------------------------------------------------------ *)
(* Dominance ordering                                                  *)

let test_dominance_simple () =
  let m = Lazy.force models in
  (* same tau: the input whose crossing is earlier responds earlier *)
  let a = ev 0 300e-12 1e-9 and b = ev 1 300e-12 2e-9 in
  match Proximity.dominance_order m [ b; a ] with
  | [ first; second ] ->
    Alcotest.(check int) "earlier input dominates" 0 first.Proximity.pin;
    Alcotest.(check int) "later second" 1 second.Proximity.pin
  | _ -> Alcotest.fail "wrong length"

let test_dominance_fast_late_input_wins () =
  let m = Lazy.force models in
  (* paper Fig 3-2: a slow early input loses to a fast slightly-later one
     when t_b + Delta_b < t_a + Delta_a *)
  let slow_early = ev 0 2000e-12 1.0e-9 in
  let fast_late = ev 1 80e-12 1.05e-9 in
  match Proximity.dominance_order m [ slow_early; fast_late ] with
  | first :: _ ->
    Alcotest.(check int) "fast late input dominates" 1 first.Proximity.pin
  | [] -> Alcotest.fail "empty"

let test_dominance_crossover_threshold () =
  let m = Lazy.force models in
  (* the crossover happens at s = Delta_a^(1) - Delta_b^(1) *)
  let tau_a = 2000e-12 and tau_b = 80e-12 in
  let da = m.Models.delay1 ~pin:0 ~edge:Measure.Fall ~tau:tau_a in
  let db = m.Models.delay1 ~pin:1 ~edge:Measure.Fall ~tau:tau_b in
  let crossover = da -. db in
  let base = 2e-9 in
  let order s =
    match
      Proximity.dominance_order m
        [ ev 0 tau_a base; ev 1 tau_b (base +. s) ]
    with
    | first :: _ -> first.Proximity.pin
    | [] -> assert false
  in
  Alcotest.(check int) "before crossover b dominates" 1
    (order (crossover -. 20e-12));
  Alcotest.(check int) "after crossover a dominates" 0
    (order (crossover +. 20e-12))

let test_dominance_validation () =
  let m = Lazy.force models in
  Alcotest.check_raises "empty" (Invalid_argument "Proximity: no input events")
    (fun () -> ignore (Proximity.dominance_order m []));
  Alcotest.check_raises "mixed edges"
    (Invalid_argument "Proximity: mixed edge directions") (fun () ->
      ignore
        (Proximity.dominance_order m
           [
             ev 0 1e-10 1e-9;
             { Proximity.pin = 1; edge = Measure.Rise; tau = 1e-10; cross_time = 1e-9 };
           ]))

(* ------------------------------------------------------------------ *)
(* The algorithm                                                       *)

let golden_of_events events ~ref_pin =
  Proximity.golden nand3 (Lazy.force th) events ~ref_pin

let test_single_event_equals_single_model () =
  let m = Lazy.force models in
  let e = ev 0 400e-12 1e-9 in
  let r = Proximity.evaluate m [ e ] in
  let d1 = m.Models.delay1 ~pin:0 ~edge:Measure.Fall ~tau:400e-12 in
  Alcotest.(check (float 1e-15)) "single event" d1 r.Proximity.delay;
  Alcotest.(check int) "one input used" 1 r.Proximity.used_inputs

let test_two_events_match_golden () =
  let m = Lazy.force models in
  let events = [ ev 0 500e-12 2e-9; ev 1 200e-12 2.05e-9 ] in
  let r = Proximity.evaluate m events in
  let golden = golden_of_events events ~ref_pin:r.Proximity.ref_pin in
  (* for two inputs the algorithm IS the dual-input model: near-exact *)
  Alcotest.(check bool) "delay within 2%" true
    (Float.abs (r.Proximity.delay -. golden.Measure.delay)
     < 0.02 *. golden.Measure.delay)

let test_far_input_ignored () =
  let m = Lazy.force models in
  let near = ev 0 400e-12 2e-9 in
  let far = ev 1 400e-12 5e-9 in
  let r_single = Proximity.evaluate m [ near ] in
  let r_both = Proximity.evaluate m [ near; far ] in
  Alcotest.(check int) "only one used" 1 r_both.Proximity.used_inputs;
  Alcotest.(check (float 1e-15)) "same delay" r_single.Proximity.delay
    r_both.Proximity.delay

let test_three_events_accuracy_band () =
  (* the paper's Table 5-1 headline: delay within ~ +-8.5%, transition
     within ~ +-13% of circuit simulation *)
  let m = Lazy.force models in
  let rng = Prng.create 2024L in
  for _ = 1 to 8 do
    let tau () = Prng.float rng ~lo:50e-12 ~hi:2000e-12 in
    let base = 2.5e-9 in
    let events =
      [
        ev 0 (tau ()) base;
        ev 1 (tau ()) (base +. Prng.float rng ~lo:(-500e-12) ~hi:500e-12);
        ev 2 (tau ()) (base +. Prng.float rng ~lo:(-500e-12) ~hi:500e-12);
      ]
    in
    let r = Proximity.evaluate m events in
    let golden = golden_of_events events ~ref_pin:r.Proximity.ref_pin in
    let derr =
      Float.abs (r.Proximity.delay -. golden.Measure.delay)
      /. golden.Measure.delay
    in
    let terr =
      Float.abs (r.Proximity.out_transition -. golden.Measure.out_transition)
      /. golden.Measure.out_transition
    in
    Alcotest.(check bool)
      (Printf.sprintf "delay err %.1f%% < 10%%" (derr *. 100.))
      true (derr < 0.10);
    Alcotest.(check bool)
      (Printf.sprintf "transition err %.1f%% < 20%%" (terr *. 100.))
      true (terr < 0.20)
  done

let test_rate_vs_additive_composition () =
  let m = Lazy.force models in
  let base = 2e-9 in
  let events = [ ev 0 300e-12 base; ev 1 300e-12 base; ev 2 300e-12 base ] in
  let r_rate =
    Proximity.evaluate ~trans_composition:Proximity.Rate_additive m events
  in
  let r_add =
    Proximity.evaluate ~trans_composition:Proximity.Additive m events
  in
  let golden = golden_of_events events ~ref_pin:r_rate.Proximity.ref_pin in
  let err r =
    Float.abs (r -. golden.Measure.out_transition)
    /. golden.Measure.out_transition
  in
  (* delay identical; transition differs, rate-additive at least as good
     on the simultaneous three-input case *)
  Alcotest.(check (float 1e-15)) "same delay" r_add.Proximity.delay
    r_rate.Proximity.delay;
  Alcotest.(check bool) "rate-additive no worse" true
    (err r_rate.Proximity.out_transition
     <= err r_add.Proximity.out_transition +. 1e-9)

let test_correction_weight_vanishes_at_window_edge () =
  let m = Lazy.force models in
  let corr = { Proximity.delay_err = 100e-12; trans_err = 0. } in
  let near = ev 0 300e-12 2e-9 in
  let d1 = m.Models.delay1 ~pin:0 ~edge:Measure.Fall ~tau:300e-12 in
  (* the second input sits just inside the window: weight ~ 0 *)
  let almost_out = ev 1 300e-12 (2e-9 +. (0.98 *. d1)) in
  let r_with = Proximity.evaluate ~correction:corr m [ near; almost_out ] in
  let r_without = Proximity.evaluate m [ near; almost_out ] in
  Alcotest.(check bool) "tiny correction near edge" true
    (Float.abs (r_with.Proximity.delay -. r_without.Proximity.delay) < 5e-12)

let test_correction_full_weight_when_simultaneous () =
  let m = Lazy.force models in
  let corr = { Proximity.delay_err = 100e-12; trans_err = 50e-12 } in
  let events = [ ev 0 300e-12 2e-9; ev 1 300e-12 2e-9 ] in
  let r_with = Proximity.evaluate ~correction:corr m events in
  let r_without = Proximity.evaluate m events in
  Alcotest.(check (float 1e-15)) "full delay correction"
    (r_without.Proximity.delay +. 100e-12)
    r_with.Proximity.delay;
  Alcotest.(check (float 1e-15)) "full transition correction"
    (r_without.Proximity.out_transition +. 50e-12)
    r_with.Proximity.out_transition

let test_calibrate_correction_improves_step_case () =
  let th = Lazy.force th in
  let m = Lazy.force models in
  let corr =
    Proximity.calibrate_correction nand3 th m ~edge:Measure.Fall
  in
  (* by construction the corrected algorithm is exact on the calibration
     stimulus *)
  let tau = 20e-12 in
  let cross = tau +. 0.3e-9 in
  let events = [ ev 0 tau cross; ev 1 tau cross; ev 2 tau cross ] in
  let r = Proximity.evaluate ~correction:corr m events in
  let golden = golden_of_events events ~ref_pin:r.Proximity.ref_pin in
  Alcotest.(check bool) "calibration point exact" true
    (Float.abs (r.Proximity.delay -. golden.Measure.delay) < 1e-13)

let test_nor_gate_accuracy () =
  (* regression for the topology-aware dominance: NOR gates invert the
     series/parallel structure, and a NAND-keyed rule mispredicts them by
     tens of percent *)
  let nor3 = Gate.nor tech ~fan_in:3 in
  let th = Vtc.thresholds ~points:201 nor3 in
  let m = Models.of_oracle nor3 th in
  List.iter
    (fun edge ->
      let base = 2.5e-9 in
      let events =
        [
          { Proximity.pin = 0; edge; tau = 400e-12; cross_time = base };
          { Proximity.pin = 1; edge; tau = 150e-12; cross_time = base +. 120e-12 };
          { Proximity.pin = 2; edge; tau = 900e-12; cross_time = base -. 200e-12 };
        ]
      in
      let r = Proximity.evaluate m events in
      let g = Proximity.golden nor3 th events ~ref_pin:r.Proximity.ref_pin in
      let err =
        Float.abs (r.Proximity.delay -. g.Measure.delay) /. g.Measure.delay
      in
      Alcotest.(check bool)
        (Printf.sprintf "nor3 %s err %.1f%% < 10%%"
           (Measure.edge_name edge)
           (err *. 100.))
        true (err < 0.10))
    [ Measure.Rise; Measure.Fall ]

(* ------------------------------------------------------------------ *)
(* Inertial / glitch (§6)                                              *)

let test_glitch_blocked_when_close () =
  let th = Lazy.force th in
  (* fall on a and rise on b at the same moment: the falling input blocks
     the pull-down before the output can discharge *)
  let g =
    Inertial.glitch nand3 th ~fall_pin:0 ~rise_pin:1 ~tau_fall:500e-12
      ~tau_rise:100e-12 ~sep:0.
  in
  Alcotest.(check bool) "no full swing" false g.Inertial.full_swing;
  Alcotest.(check bool) "output dips" true (g.Inertial.v_extreme < 5.)

let test_glitch_completes_when_rise_early () =
  let th = Lazy.force th in
  let g =
    Inertial.glitch nand3 th ~fall_pin:0 ~rise_pin:1 ~tau_fall:500e-12
      ~tau_rise:100e-12 ~sep:(-2.5e-9)
  in
  Alcotest.(check bool) "full swing" true g.Inertial.full_swing;
  Alcotest.(check bool) "reaches low rail" true (g.Inertial.v_extreme < 0.5)

let test_glitch_monotone_in_separation () =
  let th = Lazy.force th in
  let v sep =
    (Inertial.glitch nand3 th ~fall_pin:0 ~rise_pin:1 ~tau_fall:500e-12
       ~tau_rise:100e-12 ~sep)
      .Inertial.v_extreme
  in
  let vs = List.map v [ -2e-9; -1e-9; -0.5e-9; 0. ] in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "deeper when earlier" true (a <= b +. 1e-3);
      check rest
    | [ _ ] | [] -> ()
  in
  check vs

let test_minimum_valid_separation () =
  let th = Lazy.force th in
  let s_min =
    Inertial.minimum_valid_separation nand3 th ~fall_pin:0 ~rise_pin:1
      ~tau_fall:500e-12 ~tau_rise:100e-12
  in
  (* the inertial delay of this gate is sub-ns and negative separation *)
  Alcotest.(check bool) "in sane range" true (s_min > -3e-9 && s_min < 0.5e-9);
  (* just inside: blocked; just outside: completes *)
  let inside =
    Inertial.glitch nand3 th ~fall_pin:0 ~rise_pin:1 ~tau_fall:500e-12
      ~tau_rise:100e-12 ~sep:(s_min +. 100e-12)
  in
  let outside =
    Inertial.glitch nand3 th ~fall_pin:0 ~rise_pin:1 ~tau_fall:500e-12
      ~tau_rise:100e-12 ~sep:(s_min -. 100e-12)
  in
  Alcotest.(check bool) "inside blocked" false inside.Inertial.full_swing;
  Alcotest.(check bool) "outside completes" true outside.Inertial.full_swing

(* ------------------------------------------------------------------ *)
(* Storage accounting (Fig 4-2)                                        *)

let test_storage_counts () =
  Alcotest.(check int) "full: n models" 3
    (Storage.model_count Storage.Full ~fan_in:3);
  Alcotest.(check int) "matrix: n^2 models" 9
    (Storage.model_count Storage.Pair_matrix ~fan_in:3);
  Alcotest.(check int) "compositional: 2n" 6
    (Storage.model_count Storage.Compositional ~fan_in:3);
  Alcotest.(check int) "full arity 2n-1" 5
    (Storage.max_arguments Storage.Full ~fan_in:3);
  Alcotest.(check int) "dual arity 3" 3
    (Storage.max_arguments Storage.Compositional ~fan_in:3)

let test_storage_cells () =
  let p = 10 in
  Alcotest.(check (float 1.)) "full 3-in" (3. *. 1e5)
    (Storage.table_cells Storage.Full ~fan_in:3 ~points_per_axis:p);
  Alcotest.(check (float 1.)) "compositional 3-in"
    ((3. *. 10.) +. (3. *. 1000.))
    (Storage.table_cells Storage.Compositional ~fan_in:3 ~points_per_axis:p);
  Alcotest.(check (float 1.)) "doubled" 2.
    (Storage.with_transition 1.)

let test_storage_compositional_wins_at_scale () =
  List.iter
    (fun n ->
      let full = Storage.table_cells Storage.Full ~fan_in:n ~points_per_axis:8 in
      let comp =
        Storage.table_cells Storage.Compositional ~fan_in:n ~points_per_axis:8
      in
      Alcotest.(check bool)
        (Printf.sprintf "fan-in %d" n)
        true (comp < full))
    [ 3; 4; 6; 8 ]

let () =
  Alcotest.run "core"
    [
      ( "dominance",
        [
          Alcotest.test_case "simple order" `Quick test_dominance_simple;
          Alcotest.test_case "fast late wins" `Quick
            test_dominance_fast_late_input_wins;
          Alcotest.test_case "crossover threshold" `Quick
            test_dominance_crossover_threshold;
          Alcotest.test_case "validation" `Quick test_dominance_validation;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "single event" `Quick
            test_single_event_equals_single_model;
          Alcotest.test_case "two events golden" `Quick
            test_two_events_match_golden;
          Alcotest.test_case "far input ignored" `Quick test_far_input_ignored;
          Alcotest.test_case "accuracy band" `Slow
            test_three_events_accuracy_band;
          Alcotest.test_case "compositions" `Quick
            test_rate_vs_additive_composition;
          Alcotest.test_case "nor topology" `Slow test_nor_gate_accuracy;
        ] );
      ( "correction",
        [
          Alcotest.test_case "weight at window edge" `Quick
            test_correction_weight_vanishes_at_window_edge;
          Alcotest.test_case "full weight simultaneous" `Quick
            test_correction_full_weight_when_simultaneous;
          Alcotest.test_case "calibration exact" `Quick
            test_calibrate_correction_improves_step_case;
        ] );
      ( "inertial",
        [
          Alcotest.test_case "blocked glitch" `Quick test_glitch_blocked_when_close;
          Alcotest.test_case "completed transition" `Quick
            test_glitch_completes_when_rise_early;
          Alcotest.test_case "monotone" `Quick test_glitch_monotone_in_separation;
          Alcotest.test_case "minimum separation" `Slow
            test_minimum_valid_separation;
        ] );
      ( "storage",
        [
          Alcotest.test_case "counts" `Quick test_storage_counts;
          Alcotest.test_case "cells" `Quick test_storage_cells;
          Alcotest.test_case "scaling" `Quick
            test_storage_compositional_wins_at_scale;
        ] );
    ]

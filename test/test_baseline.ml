(* Tests for the collapse-to-inverter baselines. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Proximity = Proxim_core.Proximity
module Collapse = Proxim_baseline.Collapse

let tech = Tech.generic_5v
let nand3 = Gate.nand ~wn:4e-6 ~wp:8e-6 tech ~fan_in:3
let th = lazy (Vtc.thresholds ~points:201 nand3)

let ev pin edge tau cross =
  { Proximity.pin; edge; tau; cross_time = cross }

let test_equivalent_widths_nand_falling_pair () =
  (* two switching inputs, one stable-high: pull-down is a full series
     stack (wn/3); pull-up has two conducting PMOS in parallel (2 wp) *)
  let wn_eq, wp_eq =
    Collapse.equivalent_widths nand3 ~switching:[ 0; 1 ] ~edge:Measure.Fall
  in
  Alcotest.(check (float 1e-12)) "wn/3" (4e-6 /. 3.) wn_eq;
  Alcotest.(check (float 1e-12)) "2wp" 16e-6 wp_eq

let test_equivalent_widths_all_switching () =
  let wn_eq, wp_eq =
    Collapse.equivalent_widths nand3 ~switching:[ 0; 1; 2 ] ~edge:Measure.Rise
  in
  Alcotest.(check (float 1e-12)) "wn/3" (4e-6 /. 3.) wn_eq;
  Alcotest.(check (float 1e-12)) "3wp" 24e-6 wp_eq

let test_equivalent_widths_nor () =
  let nor2 = Gate.nor ~wn:4e-6 ~wp:8e-6 tech ~fan_in:2 in
  let wn_eq, wp_eq =
    Collapse.equivalent_widths nor2 ~switching:[ 0; 1 ] ~edge:Measure.Rise
  in
  Alcotest.(check (float 1e-12)) "parallel nmos" 8e-6 wn_eq;
  Alcotest.(check (float 1e-12)) "series pmos" 4e-6 wp_eq

let test_predict_validates () =
  let th = Lazy.force th in
  Alcotest.check_raises "no events"
    (Invalid_argument "Collapse.predict: no events") (fun () ->
      ignore (Collapse.predict Collapse.Jun nand3 th ~events:[]));
  Alcotest.check_raises "mixed edges"
    (Invalid_argument "Collapse.predict: mixed edges") (fun () ->
      ignore
        (Collapse.predict Collapse.Jun nand3 th
           ~events:
             [
               ev 0 Measure.Fall 1e-10 1e-9;
               ev 1 Measure.Rise 1e-10 1e-9;
             ]))

let golden events ~ref_pin =
  Proximity.golden nand3 (Lazy.force th) events ~ref_pin

let test_baseline_in_right_ballpark () =
  (* the collapse methods are approximations, but they should predict an
     output crossing within ~40% of the golden one for an easy case *)
  let th = Lazy.force th in
  let events =
    [ ev 0 Measure.Fall 300e-12 2e-9; ev 1 Measure.Fall 300e-12 2e-9 ]
  in
  let g = golden events ~ref_pin:0 in
  let golden_cross = 2e-9 +. g.Measure.delay in
  List.iter
    (fun variant ->
      let p = Collapse.predict variant nand3 th ~events in
      let err =
        Float.abs (p.Collapse.out_cross -. golden_cross) /. g.Measure.delay
      in
      Alcotest.(check bool) "ballpark" true (err < 0.4))
    [ Collapse.Jun; Collapse.Nabavi_lishi ]

let test_jun_picks_earliest_for_falling () =
  (* for a falling pair (parallel assist) Jun uses the earliest input; the
     prediction must therefore not move when the LATER input moves a bit *)
  let th = Lazy.force th in
  let base =
    Collapse.predict Collapse.Jun nand3 th
      ~events:[ ev 0 Measure.Fall 300e-12 2e-9; ev 1 Measure.Fall 200e-12 2.1e-9 ]
  in
  let moved =
    Collapse.predict Collapse.Jun nand3 th
      ~events:[ ev 0 Measure.Fall 300e-12 2e-9; ev 1 Measure.Fall 200e-12 2.2e-9 ]
  in
  Alcotest.(check (float 1e-15)) "insensitive to later input"
    base.Collapse.out_cross moved.Collapse.out_cross

let test_nabavi_tracks_both_inputs () =
  let th = Lazy.force th in
  let base =
    Collapse.predict Collapse.Nabavi_lishi nand3 th
      ~events:[ ev 0 Measure.Fall 300e-12 2e-9; ev 1 Measure.Fall 200e-12 2.1e-9 ]
  in
  let moved =
    Collapse.predict Collapse.Nabavi_lishi nand3 th
      ~events:[ ev 0 Measure.Fall 300e-12 2e-9; ev 1 Measure.Fall 200e-12 2.2e-9 ]
  in
  Alcotest.(check bool) "sensitive to both inputs" true
    (Float.abs (base.Collapse.out_cross -. moved.Collapse.out_cross) > 1e-12)

let test_proximity_beats_baselines () =
  (* the paper's claim: the compositional proximity model is more accurate
     than collapse-to-inverter, here on a staggered 3-input case *)
  let th = Lazy.force th in
  let models = Proxim_macromodel.Models.of_oracle nand3 th in
  let events =
    [
      ev 0 Measure.Fall 500e-12 2.0e-9;
      ev 1 Measure.Fall 150e-12 2.12e-9;
      ev 2 Measure.Fall 900e-12 1.95e-9;
    ]
  in
  let r = Proximity.evaluate models events in
  let g = golden events ~ref_pin:r.Proximity.ref_pin in
  let golden_cross = r.Proximity.ref_cross +. g.Measure.delay in
  let err_prox = Float.abs (r.Proximity.ref_cross +. r.Proximity.delay -. golden_cross) in
  let err_of variant =
    let p = Collapse.predict variant nand3 th ~events in
    Float.abs (p.Collapse.out_cross -. golden_cross)
  in
  Alcotest.(check bool) "better than Jun" true (err_prox < err_of Collapse.Jun);
  Alcotest.(check bool) "better than Nabavi-Lishi" true
    (err_prox < err_of Collapse.Nabavi_lishi)

let () =
  Alcotest.run "baseline"
    [
      ( "collapse",
        [
          Alcotest.test_case "nand falling pair" `Quick
            test_equivalent_widths_nand_falling_pair;
          Alcotest.test_case "all switching" `Quick
            test_equivalent_widths_all_switching;
          Alcotest.test_case "nor" `Quick test_equivalent_widths_nor;
          Alcotest.test_case "validation" `Quick test_predict_validates;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "ballpark" `Quick test_baseline_in_right_ballpark;
          Alcotest.test_case "jun critical input" `Quick
            test_jun_picks_earliest_for_falling;
          Alcotest.test_case "nabavi blends" `Quick test_nabavi_tracks_both_inputs;
          Alcotest.test_case "proximity wins" `Slow test_proximity_beats_baselines;
        ] );
    ]

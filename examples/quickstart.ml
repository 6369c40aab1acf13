(* Quickstart: measure how much the temporal proximity of two input
   transitions changes a NAND3's delay, and predict it with the paper's
   ProximityDelay algorithm.

   Run with:  dune exec examples/quickstart.exe *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Proximity = Proxim_core.Proximity

let ps s = s *. 1e12

let () =
  (* 1. Pick a technology and build a gate.  [Tech.generic_5v] is a
     self-contained 0.8 um / 5 V card; gates carry their sizing and a
     default output load. *)
  let tech = Tech.generic_5v in
  let nand3 = Gate.nand tech ~fan_in:3 in

  (* 2. Extract measurement thresholds from the gate's family of voltage
     transfer curves (paper §2: min Vil / max Vih over all 2^n - 1 VTCs,
     which guarantees positive delays for any input situation). *)
  let th = Vtc.thresholds nand3 in
  Printf.printf "thresholds: Vil = %.3f V, Vih = %.3f V (Vdd = %.1f V)\n\n"
    th.Vtc.vil th.Vtc.vih th.Vtc.vdd;

  (* 3. Single-input view: input a falls in 500 ps, b and c stay at Vdd.
     This is what a classic delay calculator would look at. *)
  let single = Measure.single_input nand3 th ~pin:0 ~edge:Measure.Fall ~tau:500e-12 in
  Printf.printf "a alone (fall 500 ps):  delay = %.1f ps, output rise = %.1f ps\n"
    (ps single.Measure.delay)
    (ps single.Measure.out_transition);

  (* 4. Now let input b fall 100 ps after a.  Golden truth from the
     built-in circuit simulator: *)
  let events =
    [
      { Proximity.pin = 0; edge = Measure.Fall; tau = 500e-12; cross_time = 2.0e-9 };
      { Proximity.pin = 1; edge = Measure.Fall; tau = 100e-12; cross_time = 2.1e-9 };
    ]
  in
  let models = Models.of_oracle nand3 th in
  let predicted = Proximity.evaluate models events in
  let golden =
    Proximity.golden nand3 th events ~ref_pin:predicted.Proximity.ref_pin
  in
  Printf.printf "a + b 100 ps apart:     delay = %.1f ps (golden simulation)\n"
    (ps golden.Measure.delay);
  Printf.printf
    "ProximityDelay says:    delay = %.1f ps, measured from input '%s' (%d \
     inputs in window)\n"
    (ps predicted.Proximity.delay)
    (Gate.pin_name predicted.Proximity.ref_pin)
    predicted.Proximity.used_inputs;
  Printf.printf
    "\nproximity effect: the second falling input adds a parallel pull-up\n\
     path, cutting the delay by %.0f%% versus the single-input view --\n\
     the effect the paper models and a pin-to-pin delay calculator misses.\n"
    ((single.Measure.delay -. golden.Measure.delay)
     /. single.Measure.delay *. 100.)

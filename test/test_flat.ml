(* Tests for design flattening and the end-to-end STA-vs-flat-simulation
   check: the strongest integration test in the repo — proximity-aware STA
   predictions are compared against a transistor-level simulation of the
   whole block. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Pwl = Proxim_waveform.Pwl
module Measure = Proxim_measure.Measure
module Netlist = Proxim_circuit.Netlist
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Flat = Proxim_sta.Flat

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2

let cell name gate inputs output =
  { Design.name; gate; input_nets = inputs; output_net = output }

let two_level () =
  Design.create
    ~cells:
      [
        cell "u1" nand2 [| "a"; "b" |] "n1";
        cell "u2" nand2 [| "c"; "d" |] "n2";
        cell "u3" nand2 [| "n1"; "n2" |] "y";
      ]
    ~primary_inputs:[ "a"; "b"; "c"; "d" ]
    ~primary_outputs:[ "y" ]

let rise t = Pwl.ramp ~t0:t ~width:200e-12 ~v_from:0. ~v_to:5.

let test_flatten_structure () =
  let d = two_level () in
  let pi_waves =
    List.map (fun n -> (n, rise 0.5e-9)) (Design.primary_inputs d)
  in
  let flat = Flat.flatten d ~pi_waves in
  (* 3 cells x 4 transistors = 12 mosfets; 5 sources (vdd + 4 PI) *)
  let mosfets, vsrcs =
    Array.fold_left
      (fun (m, v) dev ->
        match dev with
        | Netlist.Mosfet _ -> (m + 1, v)
        | Netlist.Vsource _ -> (m, v + 1)
        | Netlist.Capacitor _ | Netlist.Resistor _ -> (m, v))
      (0, 0) flat.Flat.net.Netlist.devices
  in
  Alcotest.(check int) "12 transistors" 12 mosfets;
  Alcotest.(check int) "5 sources" 5 vsrcs;
  (* every net got a node *)
  List.iter
    (fun n ->
      Alcotest.(check bool) n true (List.mem_assoc n flat.Flat.node_of_net))
    [ "a"; "b"; "c"; "d"; "n1"; "n2"; "y" ]

let test_flatten_requires_waves () =
  let d = two_level () in
  Alcotest.(check bool) "missing wave rejected" true
    (try
       ignore (Flat.flatten d ~pi_waves:[ ("a", rise 0.) ]);
       false
     with Invalid_argument _ -> true)

let test_flat_logic_settles_correctly () =
  let d = two_level () in
  (* a=b=1 (rising), c=d=0: n1 -> 0, n2 -> 1, y = nand(0,1) -> 1 *)
  let pi_waves =
    [ ("a", rise 0.5e-9); ("b", rise 0.5e-9);
      ("c", Pwl.constant 0.); ("d", Pwl.constant 0.) ]
  in
  let flat = Flat.flatten d ~pi_waves in
  let result = Flat.simulate flat ~t_stop:4e-9 in
  let v net = Pwl.value (Flat.probe flat result ~net) 4e-9 in
  Alcotest.(check bool) "n1 low" true (v "n1" < 0.2);
  Alcotest.(check bool) "n2 high" true (v "n2" > 4.8);
  Alcotest.(check bool) "y high" true (v "y" > 4.8)

let test_sta_matches_flat_simulation () =
  (* End-to-end: rising a/b near-simultaneously; follow the transition
     a -> n1(fall) -> y(rise) and compare STA net arrivals with the flat
     transistor-level simulation, measured with the same thresholds. *)
  let d = two_level () in
  let th = Vtc.thresholds ~points:201 nand2 in
  let models = (Sta.oracle_factory d th).Sta.models in
  let slew_a = 250e-12 and slew_b = 150e-12 in
  let t_a = 1.0e-9 and t_b = 1.05e-9 in
  let pi =
    [
      ("a", { Sta.time = t_a; slew = slew_a; edge = Measure.Rise });
      ("b", { Sta.time = t_b; slew = slew_b; edge = Measure.Rise });
    ]
  in
  let report = Sta.analyze ~mode:Sta.Proximity ~models ~thresholds:th d ~pi in
  (* flat simulation with the same stimuli; c,d stay low so n2 stays high
     and u3 is sensitized *)
  let stim slew cross =
    Measure.ramp_of_stimulus th { Measure.edge = Measure.Rise; tau = slew; cross_time = cross }
  in
  let pi_waves =
    [ ("a", stim slew_a t_a); ("b", stim slew_b t_b);
      ("c", Pwl.constant 0.); ("d", Pwl.constant 0.) ]
  in
  let flat = Flat.flatten d ~pi_waves in
  let result = Flat.simulate flat ~t_stop:6e-9 in
  let check_net net edge =
    match List.assoc_opt net report.Sta.arrivals with
    | None -> Alcotest.failf "no STA arrival for %s" net
    | Some (a : Sta.arrival) -> (
      let wave = Flat.probe flat result ~net in
      let crossing =
        match edge with
        | Measure.Fall ->
          Pwl.first_crossing ~direction:Pwl.Falling wave th.Vtc.vih
        | Measure.Rise ->
          Pwl.first_crossing ~direction:Pwl.Rising wave th.Vtc.vil
      in
      match crossing with
      | None -> Alcotest.failf "net %s never switched in simulation" net
      | Some t_sim ->
        let err = Float.abs (a.Sta.time -. t_sim) in
        Alcotest.(check bool)
          (Printf.sprintf "%s STA %.1fps vs flat %.1fps" net
             (a.Sta.time *. 1e12) (t_sim *. 1e12))
          true
          (* per-stage models were characterized on isolated gates; allow
             a modest budget for stage-coupling effects *)
          (err < 25e-12))
  in
  check_net "n1" Measure.Fall;
  check_net "y" Measure.Rise

let () =
  Alcotest.run "flat"
    [
      ( "structure",
        [
          Alcotest.test_case "flatten" `Quick test_flatten_structure;
          Alcotest.test_case "requires waves" `Quick test_flatten_requires_waves;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "logic settles" `Quick
            test_flat_logic_settles_correctly;
          Alcotest.test_case "STA vs flat simulation" `Slow
            test_sta_matches_flat_simulation;
        ] );
    ]

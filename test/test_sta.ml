(* Tests for the gate-level design container and the STA modes. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let inv = Gate.inverter tech

let cell name gate inputs output =
  { Design.name; gate; input_nets = inputs; output_net = output }

(* two NAND2s feeding a NAND2: a 2-level tree *)
let tree () =
  Design.create
    ~cells:
      [
        cell "u1" nand2 [| "a"; "b" |] "n1";
        cell "u2" nand2 [| "c"; "d" |] "n2";
        cell "u3" nand2 [| "n1"; "n2" |] "y";
      ]
    ~primary_inputs:[ "a"; "b"; "c"; "d" ]
    ~primary_outputs:[ "y" ]

let test_create_and_topo () =
  let d = tree () in
  let topo = List.map (fun c -> c.Design.name) (Design.topological d) in
  let pos name =
    let rec idx i = function
      | [] -> Alcotest.failf "missing %s" name
      | x :: tl -> if String.equal x name then i else idx (i + 1) tl
    in
    idx 0 topo
  in
  Alcotest.(check bool) "u1 before u3" true (pos "u1" < pos "u3");
  Alcotest.(check bool) "u2 before u3" true (pos "u2" < pos "u3")

let test_create_validation () =
  let dup () =
    Design.create
      ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u1" inv [| "x" |] "y" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.check_raises "duplicate cell"
    (Invalid_argument "Design.create: duplicate cell u1") (fun () ->
      ignore (dup ()));
  let double_drive () =
    Design.create
      ~cells:[ cell "u1" inv [| "a" |] "x"; cell "u2" inv [| "a" |] "x" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "x" ]
  in
  Alcotest.check_raises "double drive"
    (Invalid_argument "Design.create: net driven twice: x") (fun () ->
      ignore (double_drive ()));
  let undriven () =
    Design.create
      ~cells:[ cell "u1" inv [| "ghost" |] "y" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.check_raises "undriven"
    (Invalid_argument "Design.create: undriven net ghost") (fun () ->
      ignore (undriven ()));
  let cyclic () =
    Design.create
      ~cells:
        [ cell "u1" nand2 [| "a"; "y" |] "x"; cell "u2" inv [| "x" |] "y" ]
      ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Design.create: combinational cycle through u1")
    (fun () -> ignore (cyclic ()))

let test_fanout_load () =
  let d = tree () in
  (* n1 feeds one nand2 pin + default wire cap *)
  let expected = Gate.input_capacitance nand2 +. 20e-15 in
  Alcotest.(check (float 1e-18)) "internal net" expected
    (Design.fanout_load d ~net:"n1");
  (* y is a primary output: wire + pad *)
  Alcotest.(check (float 1e-18)) "po net" (20e-15 +. 50e-15)
    (Design.fanout_load d ~net:"y");
  Alcotest.(check bool) "driver lookup" true
    (match Design.driver d ~net:"n1" with
     | Some c -> String.equal c.Design.name "u1"
     | None -> false);
  Alcotest.(check int) "readers" 1 (List.length (Design.readers d ~net:"n1"))

let thresholds = lazy (Vtc.thresholds ~points:201 nand2)

let test_analyze_propagates () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).Sta.models in
  let arr t = { Sta.time = t; slew = 200e-12; edge = Measure.Rise } in
  let pi = [ ("a", arr 0.); ("b", arr 20e-12); ("c", arr 0.); ("d", arr 10e-12) ] in
  let report = Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d ~pi in
  (match report.Sta.critical_po with
   | Some (net, a) ->
     Alcotest.(check string) "critical is y" "y" net;
     Alcotest.(check bool) "positive time" true (a.Sta.time > 0.);
     Alcotest.(check bool) "rise in, rise out after 2 inversions" true
       (a.Sta.edge = Measure.Rise)
   | None -> Alcotest.fail "no critical PO");
  (* every internal net got an arrival *)
  let nets = List.map fst report.Sta.arrivals in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n nets))
    [ "n1"; "n2"; "y" ]

let test_proximity_differs_from_classic () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).Sta.models in
  (* near-simultaneous falling inputs at the NAND inputs: classic (max of
     single-input delays) must disagree with proximity-aware timing *)
  let arr t = { Sta.time = t; slew = 300e-12; edge = Measure.Fall } in
  let pi = [ ("a", arr 0.); ("b", arr 10e-12); ("c", arr 0.); ("d", arr 5e-12) ] in
  let classic = Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d ~pi in
  let prox = Sta.analyze ~mode:Sta.Proximity ~models ~thresholds:th d ~pi in
  match (classic.Sta.critical_po, prox.Sta.critical_po) with
  | Some (_, ac), Some (_, ap) ->
    Alcotest.(check bool) "different arrival" true
      (Float.abs (ac.Sta.time -. ap.Sta.time) > 1e-12)
  | _, _ -> Alcotest.fail "missing PO arrival"

let test_quiet_inputs_stay_quiet () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).Sta.models in
  (* only the left NAND switches; n2 and u3 still see one event through n1 *)
  let arr t = { Sta.time = t; slew = 200e-12; edge = Measure.Fall } in
  let pi = [ ("a", arr 0.); ("b", arr 10e-12) ] in
  let report = Sta.analyze ~mode:Sta.Proximity ~models ~thresholds:th d ~pi in
  let nets = List.map fst report.Sta.arrivals in
  Alcotest.(check bool) "n2 quiet" false (List.mem "n2" nets);
  Alcotest.(check bool) "n1 switched" true (List.mem "n1" nets);
  Alcotest.(check bool) "y switched" true (List.mem "y" nets)

let test_critical_path_and_slack () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).Sta.models in
  let arr t = { Sta.time = t; slew = 250e-12; edge = Measure.Fall } in
  (* make d clearly the slowest input so the path is d -> n2 -> y *)
  let pi = [ ("a", arr 0.); ("b", arr 0.); ("c", arr 0.); ("d", arr 150e-12) ] in
  let report = Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d ~pi in
  let path = Sta.critical_path report ~po:"y" in
  Alcotest.(check (list string)) "path" [ "y"; "n2"; "d" ] path;
  Alcotest.(check (list string)) "unknown po" []
    (Sta.critical_path report ~po:"nope");
  let slacks = Sta.po_slacks d report ~required:1e-9 in
  (match slacks with
   | [ ("y", slack) ] ->
     (match report.Sta.critical_po with
      | Some (_, a) ->
        Alcotest.(check (float 1e-15)) "slack" (1e-9 -. a.Sta.time) slack
      | None -> Alcotest.fail "no critical po")
   | _ -> Alcotest.fail "expected one po slack")

(* [Sta.analyze] reports the analysis it ran: a PO that is also a PI
   named twice carries its last event, once, a net the design lacks is
   not listed, its slacks are [Sta.slacks]', and equal slacks keep the
   design's output order *)
let test_po_slacks_first_match () =
  let d =
    Design.create
      ~cells:[ cell "u1" inv [| "b" |] "y" ]
      ~primary_inputs:[ "a"; "b"; "c" ]
      ~primary_outputs:[ "y"; "c"; "a" ]
  in
  let th = { Vtc.vil = 1.263; vih = 3.737; vdd = 5.0 } in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let arr t = { Sta.time = t; slew = 2e-10; edge = Measure.Fall } in
  let pi =
    [ ("a", arr 9e-10); ("b", arr 0.); ("c", arr 3e-10); ("a", arr 3e-10);
      ("nope", arr 0.) ]
  in
  let report = Sta.analyze ~models ~thresholds:th d ~pi in
  let ir = Sta.build_ir ~models ~thresholds:th d ~pi in
  ignore (Sta.reanalyze ir);
  Alcotest.(check bool) "the report of its analysis" true
    (Sta.report_equal report (Sta.report ir));
  Alcotest.(check (list string)) "each switching net once"
    [ "a"; "b"; "c"; "y" ]
    (List.map fst report.Sta.arrivals);
  let required = 1e-9 in
  let y = List.assoc "y" report.Sta.arrivals in
  Alcotest.(check bool) "y settles before the pads" true (y.Sta.time < 3e-10);
  let slacks = Sta.po_slacks d report ~required in
  Alcotest.(check (list (pair string (float 0.))))
    "last event wins, ties in output order"
    [ ("c", required -. 3e-10); ("a", required -. 3e-10);
      ("y", required -. y.Sta.time) ]
    slacks;
  Alcotest.(check (list (pair string (float 0.))))
    "po_slacks is Sta.slacks" (Sta.slacks ir ~required) slacks

let test_mixed_edges_rejected () =
  let d = tree () in
  let th = Lazy.force thresholds in
  let models = (Sta.oracle_factory d th).Sta.models in
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 2e-10; edge = Measure.Rise });
      ("b", { Sta.time = 0.; slew = 2e-10; edge = Measure.Fall });
    ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sta.analyze ~models ~thresholds:th d ~pi);
       false
     with Sta.Mixed_input_edges { cell = _ } -> true)

let () =
  Alcotest.run "sta"
    [
      ( "design",
        [
          Alcotest.test_case "topological" `Quick test_create_and_topo;
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "fanout load" `Quick test_fanout_load;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "propagation" `Slow test_analyze_propagates;
          Alcotest.test_case "proximity differs" `Slow
            test_proximity_differs_from_classic;
          Alcotest.test_case "quiet inputs" `Slow test_quiet_inputs_stay_quiet;
          Alcotest.test_case "critical path + slack" `Slow
            test_critical_path_and_slack;
          Alcotest.test_case "po slacks first match" `Quick
            test_po_slacks_first_match;
          Alcotest.test_case "mixed edges" `Quick test_mixed_edges_rejected;
        ] );
    ]

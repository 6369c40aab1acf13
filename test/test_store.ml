(* Tests for macromodel serialization (Single/Dual/Store) and the Liberty
   exporter. *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Single = Proxim_macromodel.Single
module Dual = Proxim_macromodel.Dual
module Store = Proxim_macromodel.Store
module Liberty = Proxim_macromodel.Liberty
module Proximity = Proxim_core.Proximity
module Floatx = Proxim_util.Floatx

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let th = lazy (Vtc.thresholds ~points:201 nand2)

let coarse_taus = Floatx.logspace 50e-12 2e-9 6
let coarse_x_tau = Floatx.logspace 0.5 4. 3
let coarse_x_sep = Floatx.linspace (-2.) 1.2 4

let single_model =
  lazy (Single.build ~taus:coarse_taus nand2 (Lazy.force th) ~pin:0 ~edge:Measure.Fall)

let single_other =
  lazy
    (Single.build ~taus:coarse_taus nand2 (Lazy.force th) ~pin:1
       ~edge:Measure.Fall)

let dual_model =
  lazy
    (Dual.build ~x_tau:coarse_x_tau ~x_sep:coarse_x_sep nand2 (Lazy.force th)
       ~single_dom:(Lazy.force single_model)
       ~single_other:(Lazy.force single_other) ~other:1)

let test_single_roundtrip () =
  let s = Lazy.force single_model in
  let s' = Single.load (Single.save s) in
  Alcotest.(check int) "pin" (Single.pin s) (Single.pin s');
  Alcotest.(check bool) "edge" true (Single.edge s = Single.edge s');
  List.iter
    (fun tau ->
      Alcotest.(check (float 0.)) "delay identical" (Single.delay s ~tau)
        (Single.delay s' ~tau);
      Alcotest.(check (float 0.)) "transition identical"
        (Single.out_transition s ~tau)
        (Single.out_transition s' ~tau))
    [ 60e-12; 300e-12; 1.5e-9 ]

let test_single_load_rejects_garbage () =
  List.iter
    (fun text ->
      Alcotest.(check bool)
        ("rejects " ^ String.escaped (String.sub text 0 (min 12 (String.length text))))
        true
        (try
           ignore (Single.load text);
           false
         with Failure _ -> true))
    [ ""; "nonsense"; "single-v1\npin x"; "single-v1\npin 0\nedge sideways" ]

let test_dual_roundtrip () =
  let d = Lazy.force dual_model in
  let d' = Dual.load (Dual.save d) in
  Alcotest.(check int) "dom" (Dual.dom d) (Dual.dom d');
  Alcotest.(check int) "other" (Dual.other d) (Dual.other d');
  List.iter
    (fun (x1, x2, x3) ->
      Alcotest.(check (float 0.)) "delay ratio identical"
        (Dual.delay_ratio d ~x1 ~x2 ~x3)
        (Dual.delay_ratio d' ~x1 ~x2 ~x3);
      Alcotest.(check (float 0.)) "trans ratio identical"
        (Dual.trans_ratio d ~x1 ~x2 ~x3)
        (Dual.trans_ratio d' ~x1 ~x2 ~x3))
    [ (1., 1., 0.); (0.7, 2.1, -1.3); (3.2, 0.6, 0.8) ]

let test_store_roundtrip () =
  let th = Lazy.force th in
  let set =
    {
      Store.gate_name = "nand2";
      vil = th.Vtc.vil;
      vih = th.Vtc.vih;
      vdd = th.Vtc.vdd;
      singles = [ Lazy.force single_model ];
      duals = [ Lazy.force dual_model ];
    }
  in
  let set' = Store.load (Store.save set) in
  Alcotest.(check string) "gate name" set.Store.gate_name set'.Store.gate_name;
  Alcotest.(check (float 0.)) "vil" set.Store.vil set'.Store.vil;
  Alcotest.(check int) "singles" 1 (List.length set'.Store.singles);
  Alcotest.(check int) "duals" 1 (List.length set'.Store.duals)

let test_store_file_roundtrip () =
  let th = Lazy.force th in
  let set =
    {
      Store.gate_name = "nand2";
      vil = th.Vtc.vil;
      vih = th.Vtc.vih;
      vdd = th.Vtc.vdd;
      singles = [ Lazy.force single_model ];
      duals = [];
    }
  in
  let path = Filename.temp_file "proxim_store" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.save_file path set;
      let set' = Store.load_file path in
      Alcotest.(check string) "name" "nand2" set'.Store.gate_name)

let test_characterize_without_duals () =
  let th = Lazy.force th in
  let set =
    Store.characterize ~taus:coarse_taus ~edges:[ Measure.Fall ]
      ~with_duals:false nand2 th
  in
  Alcotest.(check int) "one single per pin" 2 (List.length set.Store.singles);
  Alcotest.(check int) "no duals" 0 (List.length set.Store.duals)

let test_store_to_models () =
  let th = Lazy.force th in
  let set =
    Store.characterize ~taus:coarse_taus ~x_tau:coarse_x_tau
      ~x_sep:coarse_x_sep ~edges:[ Measure.Fall ] nand2 th
  in
  let m = Store.to_models nand2 set in
  Alcotest.(check int) "fan_in" 2 m.Proxim_macromodel.Models.fan_in;
  (* usable by the core algorithm *)
  let events =
    [
      { Proximity.pin = 0; edge = Measure.Fall; tau = 300e-12; cross_time = 2e-9 };
      { Proximity.pin = 1; edge = Measure.Fall; tau = 200e-12; cross_time = 2.05e-9 };
    ]
  in
  let r = Proximity.evaluate m events in
  Alcotest.(check bool) "positive delay" true (r.Proximity.delay > 0.);
  (* querying an uncharacterized edge raises *)
  Alcotest.(check bool) "missing edge raises" true
    (try
       ignore
         (m.Proxim_macromodel.Models.delay1 ~pin:0 ~edge:Measure.Rise
            ~tau:1e-10);
       false
     with Not_found -> true)

(* ------------------------------------------------------------------ *)
(* Liberty                                                             *)

let liberty_text =
  lazy
    (let th = Lazy.force th in
     let singles =
       [
         Lazy.force single_model;
         Single.build ~taus:coarse_taus nand2 th ~pin:0 ~edge:Measure.Rise;
       ]
     in
     let cell =
       Liberty.cell ~gate_name:"nand2" ~singles
         ~input_capacitance:(Gate.input_capacitance nand2) ()
     in
     Liberty.library ~name:"proxim_test" ~cells:[ cell ])

let test_liberty_structure () =
  let text = Lazy.force liberty_text in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Testkit.contains text needle))
    [
      "library (proxim_test)";
      "lu_table_template (proxim_6x6)";
      "cell (nand2)";
      "pin (a)";
      "pin (z)";
      "related_pin : \"a\"";
      "cell_fall (proxim_6x6)";
      "rise_transition (proxim_6x6)";
      "timing_sense : negative_unate";
      "index_1";
      "values (";
    ]

let test_liberty_values_match_model () =
  (* spot-check one rendered value against a direct model query *)
  let s = Lazy.force single_model in
  let axes = Liberty.default_axes in
  let slew = axes.Liberty.slews.(0) and load = axes.Liberty.loads.(0) in
  let expected_ns = Single.delay ~c_load:load s ~tau:slew *. 1e9 in
  let rendered = Printf.sprintf "%.5f" expected_ns in
  Alcotest.(check bool) "first cell_rise entry present" true
    (Testkit.contains (Lazy.force liberty_text) rendered)

let test_liberty_requires_models () =
  Alcotest.(check bool) "empty singles rejected" true
    (try
       ignore (Liberty.cell ~gate_name:"x" ~singles:[] ~input_capacitance:1e-15 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "store"
    [
      ( "serialization",
        [
          Alcotest.test_case "single roundtrip" `Quick test_single_roundtrip;
          Alcotest.test_case "single rejects garbage" `Quick
            test_single_load_rejects_garbage;
          Alcotest.test_case "dual roundtrip" `Slow test_dual_roundtrip;
          Alcotest.test_case "store roundtrip" `Slow test_store_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_store_file_roundtrip;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "singles only" `Quick
            test_characterize_without_duals;
          Alcotest.test_case "to_models" `Slow test_store_to_models;
        ] );
      ( "liberty",
        [
          Alcotest.test_case "structure" `Quick test_liberty_structure;
          Alcotest.test_case "values" `Quick test_liberty_values_match_model;
          Alcotest.test_case "requires models" `Quick
            test_liberty_requires_models;
        ] );
    ]

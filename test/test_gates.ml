(* Tests for gate construction: network duals, sensitization, structural
   properties of the generated netlists, and logic-level DC behaviour. *)

module Gate = Proxim_gates.Gate
module Ternary = Proxim_gates.Ternary
module Tech = Proxim_gates.Tech
module Netlist = Proxim_circuit.Netlist
module Pwl = Proxim_waveform.Pwl
module Dc = Proxim_spice.Dc
module Prng = Proxim_util.Prng

let tech = Tech.generic_5v

let test_dual_involution () =
  let nw =
    Gate.Parallel [ Gate.Series [ Gate.Pin 0; Gate.Pin 1 ]; Gate.Pin 2 ]
  in
  Alcotest.(check bool) "dual of dual" true (Gate.dual (Gate.dual nw) = nw)

let test_dual_swaps () =
  let nw = Gate.Series [ Gate.Pin 0; Gate.Pin 1 ] in
  Alcotest.(check bool) "series -> parallel" true
    (Gate.dual nw = Gate.Parallel [ Gate.Pin 0; Gate.Pin 1 ])

let test_network_pins () =
  let nw = Gate.Parallel [ Gate.Series [ Gate.Pin 2; Gate.Pin 0 ]; Gate.Pin 1 ] in
  Alcotest.(check (list int)) "sorted unique" [ 0; 1; 2 ] (Gate.network_pins nw)

let test_pin_names () =
  Alcotest.(check string) "a" "a" (Gate.pin_name 0);
  Alcotest.(check string) "c" "c" (Gate.pin_name 2);
  Alcotest.(check string) "z" "z" (Gate.pin_name 25);
  Alcotest.(check string) "p26" "p26" (Gate.pin_name 26)

let test_custom_rejects_gaps () =
  Alcotest.check_raises "pin gap"
    (Invalid_argument "Gate: pins must be numbered contiguously from 0")
    (fun () ->
      ignore
        (Gate.custom ~name:"bad" tech
           ~pulldown:(Gate.Series [ Gate.Pin 0; Gate.Pin 2 ])))

let test_nand_sensitization () =
  let g = Gate.nand tech ~fan_in:3 in
  Array.iter
    (fun pin ->
      let levels = Gate.noncontrolling_sensitization g ~pin in
      Array.iter (fun v -> Alcotest.(check (float 0.)) "all high" 5. v) levels)
    [| 0; 1; 2 |]

let test_nor_sensitization () =
  let g = Gate.nor tech ~fan_in:3 in
  let levels = Gate.noncontrolling_sensitization g ~pin:1 in
  Alcotest.(check (float 0.)) "other low" 0. levels.(0);
  Alcotest.(check (float 0.)) "other low" 0. levels.(2)

let test_aoi21_sensitization () =
  (* pull-down (a AND b) OR c; to sensitize a: b must conduct (high),
     c must not (low) *)
  let g = Gate.aoi21 tech in
  let levels = Gate.noncontrolling_sensitization g ~pin:0 in
  Alcotest.(check (float 0.)) "b high" 5. levels.(1);
  Alcotest.(check (float 0.)) "c low" 0. levels.(2)

let test_nand_structure () =
  let g = Gate.nand tech ~fan_in:3 in
  let high = Pwl.constant 5. in
  let inst = Gate.instantiate g ~inputs:[| high; high; high |] in
  let net = inst.Gate.net in
  let mosfets, caps, vsrcs =
    Array.fold_left
      (fun (m, c, v) d ->
        match d with
        | Netlist.Mosfet _ -> (m + 1, c, v)
        | Netlist.Capacitor _ -> (m, c + 1, v)
        | Netlist.Resistor _ -> (m, c, v)
        | Netlist.Vsource _ -> (m, c, v + 1))
      (0, 0, 0) net.Netlist.devices
  in
  Alcotest.(check int) "6 transistors" 6 mosfets;
  (* z + two internal stack nodes carry parasitics *)
  Alcotest.(check int) "3 capacitors" 3 caps;
  Alcotest.(check int) "vdd + 3 inputs" 4 vsrcs

let test_of_name () =
  let ok name expected_name expected_fanin =
    match Gate.of_name tech name with
    | Ok g ->
      Alcotest.(check string) name expected_name g.Gate.name;
      Alcotest.(check int) (name ^ " fan_in") expected_fanin g.Gate.fan_in
    | Error m -> Alcotest.fail m
  in
  ok "inv" "inv" 1;
  ok "NAND3" "nand3" 3;
  ok "nor2" "nor2" 2;
  ok "aoi21" "aoi21" 3;
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match Gate.of_name tech bad with Error _ -> true | Ok _ -> false))
    [ "xor2"; "nand0"; "nand9"; "nandx"; "" ]

let test_output_parasitic () =
  (* NAND3: one NMOS drain + three PMOS drains touch the output *)
  let g = Gate.nand ~wn:4e-6 ~wp:8e-6 tech ~fan_in:3 in
  let expected = tech.Tech.cd_per_width *. ((1. *. 4e-6) +. (3. *. 8e-6)) in
  Alcotest.(check (float 1e-20)) "nand3" expected (Gate.output_parasitic g);
  (* NOR3 is the mirror: three NMOS + one PMOS *)
  let g = Gate.nor ~wn:4e-6 ~wp:8e-6 tech ~fan_in:3 in
  let expected = tech.Tech.cd_per_width *. ((3. *. 4e-6) +. (1. *. 8e-6)) in
  Alcotest.(check (float 1e-20)) "nor3" expected (Gate.output_parasitic g)

let test_switching_assist () =
  let nand3 = Gate.nand tech ~fan_in:3 in
  let nor3 = Gate.nor tech ~fan_in:3 in
  let aoi = Gate.aoi21 tech in
  (* NAND: falling inputs enable parallel PMOS -> assist; rising inputs
     enable the series NMOS stack -> gate *)
  Alcotest.(check bool) "nand fall assists" true
    (Gate.switching_assist nand3 ~pins:[ 0; 1 ] ~output_rising:true);
  Alcotest.(check bool) "nand rise gates" false
    (Gate.switching_assist nand3 ~pins:[ 0; 1 ] ~output_rising:false);
  (* NOR is the mirror *)
  Alcotest.(check bool) "nor rise assists" true
    (Gate.switching_assist nor3 ~pins:[ 0; 1 ] ~output_rising:false);
  Alcotest.(check bool) "nor fall gates" false
    (Gate.switching_assist nor3 ~pins:[ 0; 1 ] ~output_rising:true);
  (* AOI21 pull-down (a&b)|c: a,b are series (gate each other on rising);
     a,c are parallel (assist on rising) *)
  Alcotest.(check bool) "aoi a,b rise gates" false
    (Gate.switching_assist aoi ~pins:[ 0; 1 ] ~output_rising:false);
  Alcotest.(check bool) "aoi a,c rise assists" true
    (Gate.switching_assist aoi ~pins:[ 0; 2 ] ~output_rising:false)

(* the tabulated lookup answers every key exactly as the list form does:
   the table of each gate up to fan-in 8, and the per-query path of a
   wider one; a pin outside the gate is rejected *)
let test_assist_table () =
  List.iter
    (fun (g : Gate.t) ->
      let lookup = Gate.assist_table g in
      let n = g.Gate.fan_in in
      for set = 1 to (1 lsl n) - 1 do
        let pins =
          List.filter (fun p -> (set lsr p) land 1 = 1) (List.init n Fun.id)
        in
        List.iter
          (fun first ->
            List.iter
              (fun output_rising ->
                let want =
                  Gate.switching_assist g
                    ~pins:(first :: List.filter (( <> ) first) pins)
                    ~output_rising
                in
                if lookup ~output_rising ~first ~set <> want then
                  Alcotest.failf "%s: first %d, set %x, rising %b" g.Gate.name
                    first set output_rising)
              [ false; true ])
          pins
      done)
    [
      Gate.inverter tech; Gate.nand tech ~fan_in:3; Gate.nor tech ~fan_in:3;
      Gate.aoi21 tech; Gate.oai21 tech; Gate.nand tech ~fan_in:9;
    ];
  let lookup = Gate.assist_table (Gate.nand tech ~fan_in:2) in
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "first pin outside" (fun () ->
      lookup ~output_rising:true ~first:2 ~set:3);
  rejects "set pin outside" (fun () ->
      lookup ~output_rising:true ~first:0 ~set:5)

let test_input_capacitance () =
  let g = Gate.nand ~wn:4e-6 ~wp:8e-6 tech ~fan_in:2 in
  Alcotest.(check (float 1e-20)) "cg*(wn+wp)"
    (tech.Tech.cg_per_width *. 12e-6)
    (Gate.input_capacitance g)

let test_instantiate_arity () =
  let g = Gate.nand tech ~fan_in:2 in
  Alcotest.check_raises "arity"
    (Invalid_argument "Gate.instantiate: arity mismatch") (fun () ->
      ignore (Gate.instantiate g ~inputs:[| Pwl.constant 0. |]))

(* exhaustive DC truth tables for small gates *)
let dc_logic gate inputs_bits =
  let inputs =
    Array.map (fun bit -> Pwl.constant (if bit then 5. else 0.)) inputs_bits
  in
  let inst = Gate.instantiate gate ~inputs in
  let sol = Dc.operating_point inst.Gate.net in
  let v = sol.Dc.voltages.(inst.Gate.out) in
  if v > 4.5 then true
  else if v < 0.5 then false
  else Alcotest.failf "ambiguous output %.3f V" v

let test_nand2_truth_table () =
  let g = Gate.nand tech ~fan_in:2 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "nand %b %b" a b)
        (not (a && b))
        (dc_logic g [| a; b |]))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_nor2_truth_table () =
  let g = Gate.nor tech ~fan_in:2 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "nor %b %b" a b)
        (not (a || b))
        (dc_logic g [| a; b |]))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_inverter_truth_table () =
  let g = Gate.inverter tech in
  Alcotest.(check bool) "inv 0" true (dc_logic g [| false |]);
  Alcotest.(check bool) "inv 1" false (dc_logic g [| true |])

let test_aoi21_truth_table () =
  let g = Gate.aoi21 tech in
  let cases = [ false; true ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "aoi21 %b %b %b" a b c)
                (not ((a && b) || c))
                (dc_logic g [| a; b; c |]))
            cases)
        cases)
    cases

let test_oai21_truth_table () =
  let g = Gate.oai21 tech in
  let cases = [ false; true ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              Alcotest.(check bool)
                (Printf.sprintf "oai21 %b %b %b" a b c)
                (not ((a || b) && c))
                (dc_logic g [| a; b; c |]))
            cases)
        cases)
    cases

let prop_nand_truth_random_fanin =
  QCheck.Test.make ~name:"n-input NAND truth table" ~count:12
    QCheck.(small_int)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 3)) in
      let fan_in = Prng.int rng ~lo:1 ~hi:4 in
      let g = Gate.nand tech ~fan_in in
      let bits = Array.init fan_in (fun _ -> Prng.bool rng) in
      dc_logic g bits = not (Array.for_all Fun.id bits))

(* Kleene tables of the ternary evaluator the static analyses share *)
let test_ternary_ops () =
  let open Ternary in
  Alcotest.(check string) "not3 0" "1" (name (not3 L0));
  Alcotest.(check string) "not3 1" "0" (name (not3 L1));
  Alcotest.(check string) "not3 x" "x" (name (not3 LX));
  (* Kleene tables: a definite controlling value absorbs X *)
  Alcotest.(check bool) "and absorbs" true (and3 L0 LX = L0);
  Alcotest.(check bool) "or absorbs" true (or3 L1 LX = L1);
  Alcotest.(check bool) "and keeps x" true (and3 L1 LX = LX);
  Alcotest.(check bool) "or keeps x" true (or3 L0 LX = LX);
  Alcotest.(check bool) "and3 11" true (and3 L1 L1 = L1);
  Alcotest.(check bool) "or3 00" true (or3 L0 L0 = L0)

let () =
  Alcotest.run "gates"
    [
      ( "networks",
        [
          Alcotest.test_case "dual involution" `Quick test_dual_involution;
          Alcotest.test_case "dual swaps" `Quick test_dual_swaps;
          Alcotest.test_case "network pins" `Quick test_network_pins;
          Alcotest.test_case "pin names" `Quick test_pin_names;
          Alcotest.test_case "contiguous pins" `Quick test_custom_rejects_gaps;
        ] );
      ( "sensitization",
        [
          Alcotest.test_case "nand" `Quick test_nand_sensitization;
          Alcotest.test_case "nor" `Quick test_nor_sensitization;
          Alcotest.test_case "aoi21" `Quick test_aoi21_sensitization;
        ] );
      ( "structure",
        [
          Alcotest.test_case "nand3 netlist" `Quick test_nand_structure;
          Alcotest.test_case "of_name" `Quick test_of_name;
          Alcotest.test_case "switching assist" `Quick test_switching_assist;
          Alcotest.test_case "output parasitic" `Quick test_output_parasitic;
          Alcotest.test_case "input capacitance" `Quick test_input_capacitance;
          Alcotest.test_case "arity check" `Quick test_instantiate_arity;
          Alcotest.test_case "assist table" `Quick test_assist_table;
        ] );
      ( "logic",
        [
          Alcotest.test_case "nand2" `Quick test_nand2_truth_table;
          Alcotest.test_case "nor2" `Quick test_nor2_truth_table;
          Alcotest.test_case "inverter" `Quick test_inverter_truth_table;
          Alcotest.test_case "aoi21" `Quick test_aoi21_truth_table;
          Alcotest.test_case "oai21" `Quick test_oai21_truth_table;
          QCheck_alcotest.to_alcotest prop_nand_truth_random_fanin;
        ] );
      ("ternary", [ Alcotest.test_case "operators" `Quick test_ternary_ops ]);
    ]

(* Tests for the netlist and the DC/transient engines, against closed-form
   circuit theory. *)

module Netlist = Proxim_circuit.Netlist
module Pwl = Proxim_waveform.Pwl
module Mna = Proxim_spice.Mna
module Dc = Proxim_spice.Dc
module Transient = Proxim_spice.Transient
module Options = Proxim_spice.Options
module Linalg = Proxim_util.Linalg
module M = Proxim_device.Mosfet
module Floatx = Proxim_util.Floatx
module Tech = Proxim_gates.Tech
module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let nmos () =
  {
    M.polarity = M.Nmos; vt0 = 0.7; kp = 120e-6; lambda = 0.05;
    w = 4e-6; l = 0.8e-6; kind = M.Shichman_hodges;
  }

let pmos () =
  {
    M.polarity = M.Pmos; vt0 = -0.8; kp = 40e-6; lambda = 0.05;
    w = 8e-6; l = 0.8e-6; kind = M.Shichman_hodges;
  }

(* ------------------------------------------------------------------ *)
(* Netlist                                                             *)

let test_netlist_builder () =
  let b = Netlist.create () in
  let n1 = Netlist.node b "x" in
  let n2 = Netlist.node b "y" in
  Alcotest.(check bool) "distinct" true (n1 <> n2);
  Alcotest.(check int) "same name same node" n1 (Netlist.node b "x");
  Alcotest.(check int) "gnd aliases" Netlist.ground (Netlist.node b "0");
  Netlist.add_resistor b ~name:"r1" ~ohms:100. ~a:n1 ~b:n2;
  Netlist.add_vdc b ~name:"v1" ~volts:1. ~pos:n1 ~neg:Netlist.ground;
  let net = Netlist.freeze b in
  Alcotest.(check int) "node count (incl gnd)" 3 net.Netlist.node_count;
  Alcotest.(check int) "device count" 2 (Netlist.device_count net);
  Alcotest.(check int) "find" n2 (Netlist.find_node net "y")

let test_netlist_rejects_duplicates () =
  let b = Netlist.create () in
  let n = Netlist.node b "x" in
  Netlist.add_resistor b ~name:"r" ~ohms:1. ~a:n ~b:Netlist.ground;
  Netlist.add_resistor b ~name:"r" ~ohms:2. ~a:n ~b:Netlist.ground;
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Netlist.freeze: duplicate device name r") (fun () ->
      ignore (Netlist.freeze b))

let test_netlist_rejects_bad_values () =
  let b = Netlist.create () in
  let n = Netlist.node b "x" in
  Alcotest.check_raises "zero ohms"
    (Invalid_argument "Netlist.add_resistor: ohms <= 0") (fun () ->
      Netlist.add_resistor b ~name:"r" ~ohms:0. ~a:n ~b:Netlist.ground);
  Alcotest.check_raises "zero farads"
    (Invalid_argument "Netlist.add_capacitor: farads <= 0") (fun () ->
      Netlist.add_capacitor b ~name:"c" ~farads:0. ~a:n ~b:Netlist.ground)

(* ------------------------------------------------------------------ *)
(* DC                                                                  *)

let divider () =
  let b = Netlist.create () in
  let top = Netlist.node b "top" in
  let mid = Netlist.node b "mid" in
  Netlist.add_vdc b ~name:"v1" ~volts:10. ~pos:top ~neg:Netlist.ground;
  Netlist.add_resistor b ~name:"r1" ~ohms:1000. ~a:top ~b:mid;
  Netlist.add_resistor b ~name:"r2" ~ohms:3000. ~a:mid ~b:Netlist.ground;
  (Netlist.freeze b, mid)

let test_dc_divider () =
  let net, mid = divider () in
  let sol = Dc.operating_point net in
  check_float ~eps:1e-6 "divider voltage" 7.5 sol.Dc.voltages.(mid);
  (* branch current flows pos -> through source -> neg: 10V/4k = 2.5 mA
     leaves the positive terminal, so the branch current is -2.5 mA *)
  check_float ~eps:1e-9 "source current" (-2.5e-3) sol.Dc.branch_currents.(0)

let test_dc_override () =
  let net, mid = divider () in
  let sol = Dc.operating_point ~overrides:[ ("v1", 4.) ] net in
  check_float ~eps:1e-6 "override" 3. sol.Dc.voltages.(mid)

let test_dc_sweep_linear () =
  let net, mid = divider () in
  let values = [| 0.; 2.; 4.; 8. |] in
  let sols = Dc.sweep net ~source:"v1" ~values in
  Array.iteri
    (fun i sol ->
      check_float ~eps:1e-6 "sweep point" (values.(i) *. 0.75)
        sol.Dc.voltages.(mid))
    sols

let test_dc_unknown_source () =
  let net, _ = divider () in
  Alcotest.check_raises "unknown source"
    (Invalid_argument "Dc.sweep: unknown source nope") (fun () ->
      ignore (Dc.sweep net ~source:"nope" ~values:[| 1. |]))

let cmos_inverter ~vin =
  let b = Netlist.create () in
  let vdd = Netlist.node b "vdd" in
  let inp = Netlist.node b "in" in
  let out = Netlist.node b "out" in
  Netlist.add_vdc b ~name:"Vdd" ~volts:5. ~pos:vdd ~neg:Netlist.ground;
  Netlist.add_vdc b ~name:"Vin" ~volts:vin ~pos:inp ~neg:Netlist.ground;
  Netlist.add_mosfet b ~name:"mn" ~params:(nmos ()) ~g:inp ~d:out ~s:Netlist.ground;
  Netlist.add_mosfet b ~name:"mp" ~params:(pmos ()) ~g:inp ~d:out ~s:vdd;
  Netlist.add_capacitor b ~name:"cl" ~farads:50e-15 ~a:out ~b:Netlist.ground;
  (Netlist.freeze b, out)

let test_dc_inverter_rails () =
  let net, out = cmos_inverter ~vin:0. in
  let sol = Dc.operating_point net in
  check_float ~eps:1e-4 "low in, high out" 5. sol.Dc.voltages.(out);
  let net, out = cmos_inverter ~vin:5. in
  let sol = Dc.operating_point net in
  check_float ~eps:1e-4 "high in, low out" 0. sol.Dc.voltages.(out)

let test_dc_inverter_transition_monotone () =
  let net, out = cmos_inverter ~vin:0. in
  let values = Proxim_util.Floatx.linspace 0. 5. 51 in
  let sols = Dc.sweep net ~source:"Vin" ~values in
  let prev = ref infinity in
  Array.iter
    (fun sol ->
      let v = sol.Dc.voltages.(out) in
      Alcotest.(check bool) "monotone non-increasing" true (v <= !prev +. 1e-6);
      prev := v)
    sols

(* MNA jacobian matches finite differences of the residual *)
let test_jacobian_fd () =
  let net, _ = cmos_inverter ~vin:2.5 in
  let sys = Mna.build net in
  let n = Mna.size sys in
  let x = [| 2.1; 5.0; 2.5; -1e-4; 0. |] in
  Alcotest.(check int) "size" (Array.length x) n;
  let sv = [| 5.0; 2.5 |] in
  let comps = Mna.companions sys in
  comps.Mna.geq.(0) <- 0.01;
  comps.Mna.ieq.(0) <- 0.003;
  let companions = Some comps in
  let ws = Mna.workspace sys in
  Mna.assemble sys ws ~x ~gmin:1e-12 ~source_values:sv ~companions;
  let jac = Array.map Array.copy ws.Mna.jac in
  let residual_at x =
    Mna.assemble sys ws ~x ~gmin:1e-12 ~source_values:sv ~companions;
    Array.copy ws.Mna.res
  in
  let h = 1e-7 in
  for j = 0 to n - 1 do
    let xp = Array.copy x and xm = Array.copy x in
    xp.(j) <- xp.(j) +. h;
    xm.(j) <- xm.(j) -. h;
    let rp = residual_at xp and rm = residual_at xm in
    for i = 0 to n - 1 do
      let fd = (rp.(i) -. rm.(i)) /. (2. *. h) in
      Alcotest.(check bool)
        (Printf.sprintf "J(%d,%d)" i j)
        true
        (Float.abs (fd -. jac.(i).(j)) <= 1e-6 +. (1e-5 *. Float.abs fd))
    done
  done

(* ------------------------------------------------------------------ *)
(* Transient                                                           *)

let rc_circuit ~r ~c ~wave =
  let b = Netlist.create () in
  let inp = Netlist.node b "in" in
  let out = Netlist.node b "out" in
  Netlist.add_vsource b ~name:"vin" ~wave ~pos:inp ~neg:Netlist.ground;
  Netlist.add_resistor b ~name:"r" ~ohms:r ~a:inp ~b:out;
  Netlist.add_capacitor b ~name:"c" ~farads:c ~a:out ~b:Netlist.ground;
  (Netlist.freeze b, out)

let test_rc_step_response () =
  (* v(t) = V (1 - exp(-t/RC)); R = 1k, C = 1pF -> tau = 1 ns *)
  let wave = Pwl.ramp ~t0:1e-10 ~width:1e-12 ~v_from:0. ~v_to:1. in
  let net, out = rc_circuit ~r:1e3 ~c:1e-12 ~wave in
  let opts = { Options.default with Options.h_max = 2e-11 } in
  let result = Transient.run ~opts net ~t_stop:6e-9 in
  let v = Transient.probe result out in
  let tau = 1e-9 in
  List.iter
    (fun mult ->
      let t = 1e-10 +. (mult *. tau) in
      let expected = 1. -. exp (-.mult) in
      let actual = Pwl.value v t in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "v at %g tau" mult)
        expected actual)
    [ 0.5; 1.; 2.; 3.; 5. ]

let test_rc_both_integrators_agree () =
  let wave = Pwl.ramp ~t0:1e-10 ~width:0.5e-9 ~v_from:0. ~v_to:1. in
  let net, out = rc_circuit ~r:1e3 ~c:1e-12 ~wave in
  let run integ =
    let opts = { Options.default with Options.integration = integ } in
    let r = Transient.run ~opts net ~t_stop:4e-9 in
    Pwl.value (Transient.probe r out) 3e-9
  in
  let trap = run Options.Trapezoidal and be = run Options.Backward_euler in
  Alcotest.(check (float 0.01)) "integrators agree" trap be

let test_transient_conserves_rails () =
  (* inverter output never leaves [0 - eps, vdd + eps] *)
  let b = Netlist.create () in
  let vdd = Netlist.node b "vdd" in
  let inp = Netlist.node b "in" in
  let out = Netlist.node b "out" in
  Netlist.add_vdc b ~name:"Vdd" ~volts:5. ~pos:vdd ~neg:Netlist.ground;
  let wave = Pwl.ramp ~t0:0.5e-9 ~width:0.3e-9 ~v_from:0. ~v_to:5. in
  Netlist.add_vsource b ~name:"Vin" ~wave ~pos:inp ~neg:Netlist.ground;
  Netlist.add_mosfet b ~name:"mn" ~params:(nmos ()) ~g:inp ~d:out ~s:Netlist.ground;
  Netlist.add_mosfet b ~name:"mp" ~params:(pmos ()) ~g:inp ~d:out ~s:vdd;
  Netlist.add_capacitor b ~name:"cl" ~farads:100e-15 ~a:out ~b:Netlist.ground;
  let net = Netlist.freeze b in
  let result = Transient.run net ~t_stop:3e-9 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "within rails" true (v > -0.3 && v < 5.3))
    result.Transient.node_voltages.(out);
  (* and it actually switched *)
  let v = Transient.probe result out in
  Alcotest.(check bool) "starts high" true (Pwl.value v 0. > 4.9);
  Alcotest.(check bool) "ends low" true (Pwl.value v 3e-9 < 0.1)

let test_transient_hits_breakpoints () =
  let wave = Pwl.of_points [ (1e-9, 0.); (1.5e-9, 1.); (2.25e-9, 0.2) ] in
  let net, _ = rc_circuit ~r:1e3 ~c:1e-12 ~wave in
  let result = Transient.run net ~t_stop:3e-9 in
  let has t =
    Array.exists (fun u -> Float.abs (u -. t) < 1e-15) result.Transient.times
  in
  Alcotest.(check bool) "breakpoint 1ns" true (has 1e-9);
  Alcotest.(check bool) "breakpoint 1.5ns" true (has 1.5e-9);
  Alcotest.(check bool) "breakpoint 2.25ns" true (has 2.25e-9);
  Alcotest.(check bool) "endpoint" true (has 3e-9)

let test_transient_override_pins_source () =
  let wave = Pwl.ramp ~t0:1e-10 ~width:1e-10 ~v_from:0. ~v_to:1. in
  let net, out = rc_circuit ~r:1e3 ~c:1e-12 ~wave in
  let result = Transient.run ~overrides:[ ("vin", 0.25) ] net ~t_stop:3e-9 in
  let v = Transient.probe result out in
  check_float ~eps:1e-3 "pinned" 0.25 (Pwl.value v 3e-9)

let test_probe_named () =
  let wave = Pwl.constant 1. in
  let net, _ = rc_circuit ~r:1e3 ~c:1e-12 ~wave in
  let result = Transient.run net ~t_stop:1e-9 in
  let v = Transient.probe_named net result "out" in
  check_float ~eps:1e-3 "steady" 1. (Pwl.value v 1e-9);
  Alcotest.check_raises "unknown node" Not_found (fun () ->
    ignore (Transient.probe_named net result "bogus"))

(* ------------------------------------------------------------------ *)
(* The solver's bits and its allocation                                *)

let gate name = Result.get_ok (Gate.of_name Tech.generic_5v name)

(* Hex floats recorded from the allocating solver that the workspace
   kernel replaced: the kernel performs the same floating-point
   operations in the same order, so every bit of the §2 thresholds and
   of the golden transients' measurements stays. *)
let test_solver_bits () =
  let hex a b = Printf.sprintf "%h %h" a b in
  List.iter
    (fun (name, want) ->
      let th = Vtc.thresholds (gate name) in
      Alcotest.(check string) ("thresholds of " ^ name) want
        (hex th.Vtc.vil th.Vtc.vih))
    [
      ("inv", "0x1.b258adab99a56p+0 0x1.5e82186c829fep+1");
      ("nand2", "0x1.baaca4565259bp+0 0x1.c0deacb3a0216p+1");
      ("nor2", "0x1.141008d124d08p+0 0x1.589d88baecf94p+1");
      ("nand3", "0x1.be88384036b05p+0 0x1.e947f1890628dp+1");
      ("nor3", "0x1.c665ff65611dcp-1 0x1.55e1717b2c1b1p+1");
      ("aoi21", "0x1.159842c8befd9p+0 0x1.bc903ae774165p+1");
      ("oai21", "0x1.3100f7e09182dp+0 0x1.bf50a27a52d5cp+1");
      ("nand4", "0x1.c1931587d66c3p+0 0x1.fbffafc1f6253p+1");
    ];
  let g = gate "nand3" in
  let th = Vtc.thresholds g in
  let obs what (o : Measure.observation) want =
    Alcotest.(check string) what want
      (hex o.Measure.delay o.Measure.out_transition)
  in
  List.iter
    (fun (tau, edge, want) ->
      obs
        (Printf.sprintf "nand3 pin 1, %g ps %s" (tau *. 1e12)
           (if edge = Measure.Rise then "rise" else "fall"))
        (Measure.single_input g th ~pin:1 ~edge ~tau)
        want)
    [
      (100e-12, Measure.Rise, "0x1.05b03bcf8edp-33 0x1.985bf7ea4a76cp-33");
      (100e-12, Measure.Fall, "0x1.ecca5b8100fe4p-34 0x1.ec845e01aec94p-34");
      (300e-12, Measure.Rise, "0x1.6e68582ef5c28p-33 0x1.9ab4a9131f10cp-33");
      (300e-12, Measure.Fall, "0x1.cc996dca41bep-33 0x1.f197092207b88p-34");
      (900e-12, Measure.Rise, "0x1.38118016040c4p-32 0x1.f22d20bd7353p-33");
      (900e-12, Measure.Fall, "0x1.e81b91c23f45cp-32 0x1.659bdbdacd75p-33");
    ];
  let stimuli =
    [
      (0, { Measure.edge = Measure.Fall; tau = 300e-12; cross_time = 1e-9 });
      (2, { Measure.edge = Measure.Fall; tau = 200e-12; cross_time = 1.05e-9 });
    ]
  in
  obs "nand3 pins 0 and 2, falling"
    (Measure.multi_input g th ~stimuli ~ref_pin:0)
    "0x1.6c214757c744p-33 0x1.0b6db4b3c18dp-34"

(* Bytes allocated by [f], read on an empty minor heap at both ends *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let v = f () in
  Gc.minor ();
  (v, Gc.allocated_bytes () -. before)

(* One workspace per sweep and per transient.  The allocating kernel
   took 5 341 bytes per Newton iteration of this sweep (a Jacobian per
   solve, a right-hand side, a permutation and a solution per iteration,
   a boxed record per MOSFET evaluation), 44.9 MB for the nand3
   thresholds and 8.3 MB per transient; what is left is each point's
   solution and each step's saved state. *)
let test_kernel_allocation () =
  let g = gate "nand3" in
  let levels = Gate.noncontrolling_sensitization g ~pin:0 in
  let inst =
    Gate.instantiate g ~inputs:(Array.map Pwl.constant levels)
  in
  let sources = [ inst.Gate.input_sources.(0) ] in
  let overrides =
    [ (inst.Gate.input_sources.(1), levels.(1));
      (inst.Gate.input_sources.(2), levels.(2)) ]
  in
  let values = Floatx.linspace 0. 5. 401 in
  let sols, bytes =
    allocated (fun () ->
      Dc.sweep_many ~overrides inst.Gate.net ~sources ~values)
  in
  let iterations =
    Array.fold_left (fun n s -> n + s.Dc.newton_iterations) 0 sols
  in
  let per_iteration = bytes /. float_of_int iterations in
  if per_iteration > 1024. then
    Alcotest.failf "the sweep allocated %.0f bytes per Newton iteration"
      per_iteration;
  (* the whole seven-curve family in this domain: 44.9 MB before *)
  let pool = Proxim_util.Pool.create ~domains:1 in
  let th, bytes = allocated (fun () -> Vtc.thresholds ~pool g) in
  Proxim_util.Pool.shutdown pool;
  if bytes > 8e6 then
    Alcotest.failf "the nand3 thresholds allocated %.1f MB" (bytes /. 1e6);
  let _, bytes =
    allocated (fun () ->
      Measure.single_input g th ~pin:1 ~edge:Measure.Rise ~tau:300e-12)
  in
  if bytes > 2e6 then
    Alcotest.failf "one transient allocated %.1f MB" (bytes /. 1e6)

let () =
  Alcotest.run "spice"
    [
      ( "netlist",
        [
          Alcotest.test_case "builder" `Quick test_netlist_builder;
          Alcotest.test_case "duplicate names" `Quick
            test_netlist_rejects_duplicates;
          Alcotest.test_case "bad values" `Quick test_netlist_rejects_bad_values;
        ] );
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "override" `Quick test_dc_override;
          Alcotest.test_case "sweep" `Quick test_dc_sweep_linear;
          Alcotest.test_case "unknown source" `Quick test_dc_unknown_source;
          Alcotest.test_case "inverter rails" `Quick test_dc_inverter_rails;
          Alcotest.test_case "inverter monotone" `Quick
            test_dc_inverter_transition_monotone;
          Alcotest.test_case "jacobian vs FD" `Quick test_jacobian_fd;
        ] );
      ( "transient",
        [
          Alcotest.test_case "RC step" `Quick test_rc_step_response;
          Alcotest.test_case "integrators agree" `Quick
            test_rc_both_integrators_agree;
          Alcotest.test_case "inverter switches in rails" `Quick
            test_transient_conserves_rails;
          Alcotest.test_case "breakpoints" `Quick test_transient_hits_breakpoints;
          Alcotest.test_case "override" `Quick test_transient_override_pins_source;
          Alcotest.test_case "probe by name" `Quick test_probe_named;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "solver bits" `Quick test_solver_bits;
          Alcotest.test_case "allocation" `Quick test_kernel_allocation;
        ] );
    ]

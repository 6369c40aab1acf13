(* Static sensitization: ternary evaluation, activity and constant
   propagation, the bounded implication engine, Verify/Hazard verdict
   refinement, the fused prune engine (mask composition), diagnostic
   byte-stability and the PX5xx / CLI surface. *)

module Measure = Proxim_measure.Measure
module Gate = Proxim_gates.Gate
module Ternary = Proxim_gates.Ternary
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Models = Proxim_macromodel.Models
module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Prune = Proxim_sta.Prune
module Diagnostic = Proxim_lint.Diagnostic
module Verify = Proxim_verify.Verify
module Hazard = Proxim_hazard.Hazard
module Sense = Proxim_sense.Sense
module Harness = Proxim_harness.Harness

open Testkit

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let nand3 = Gate.nand tech ~fan_in:3
let nor2 = Gate.nor tech ~fan_in:2
let inv = Gate.inverter tech

let gate_of name =
  match Gate.of_name tech name with Ok g -> g | Error m -> failwith m

let synthetic_models = (Sta.synthetic_factory ()).Sta.models

let thresholds = { Vtc.vil = 1.25; vih = 3.75; vdd = 5.0 }

(* ------------------------------------------------------------------ *)
(* Ternary logic                                                       *)

(* the ternary evaluator restricted to booleans IS the boolean one, for
   every gate shape the netlists can instantiate *)
let test_eval_gate_exhaustive () =
  List.iter
    (fun name ->
      let g = gate_of name in
      let n = g.Gate.fan_in in
      for bits = 0 to (1 lsl n) - 1 do
        let b p = bits land (1 lsl p) <> 0 in
        let l p = if b p then Sense.L1 else Sense.L0 in
        let expect = Gate.eval_bool g b in
        Alcotest.(check bool)
          (Printf.sprintf "%s bits=%d" name bits)
          true
          (Ternary.eval_gate g l = if expect then Sense.L1 else Sense.L0)
      done)
    [ "inv"; "nand2"; "nand3"; "nor2"; "nor3"; "aoi21"; "oai21" ];
  (* controlling-value absorption: the §3 skip branch decided statically *)
  let x = Sense.LX in
  Alcotest.(check bool) "nand(0,x)=1" true
    (Ternary.eval_gate nand2 (function 0 -> Sense.L0 | _ -> x) = Sense.L1);
  Alcotest.(check bool) "nor(1,x)=0" true
    (Ternary.eval_gate nor2 (function 0 -> Sense.L1 | _ -> x) = Sense.L0);
  Alcotest.(check bool) "nand(1,x)=x" true
    (Ternary.eval_gate nand2 (function 0 -> Sense.L1 | _ -> x) = Sense.LX)

let test_stimuli_of_events () =
  let ev edge net =
    Verify.of_sta_event (net, { Sta.time = 0.; slew = 300e-12; edge })
  in
  let stim =
    Sense.stimuli_of_events
      ~consts:[ ("k", false) ]
      [ ev Measure.Rise "a"; ev Measure.Fall "r"; ev Measure.Rise "r" ]
  in
  Alcotest.(check bool) "a switches" true
    (List.assoc "a" stim = Sense.Switch Measure.Rise);
  Alcotest.(check bool) "r pulses" true (List.assoc "r" stim = Sense.Pulse);
  Alcotest.(check bool) "k pinned" true
    (List.assoc "k" stim = Sense.Const false);
  Alcotest.(check bool) "const/switch conflict rejected" true
    (try
       ignore
         (Sense.stimuli_of_events ~consts:[ ("a", true) ]
            [ ev Measure.Rise "a" ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The examples/sense_demo.ntl topology, built directly                *)

let demo_design () =
  Design.create
    ~cells:
      [
        { Design.name = "u1"; gate = inv; input_nets = [| "q" |];
          output_net = "qn" };
        { Design.name = "u2"; gate = nand2; input_nets = [| "a"; "q" |];
          output_net = "x1" };
        { Design.name = "u3"; gate = nand2; input_nets = [| "a"; "qn" |];
          output_net = "x2" };
        { Design.name = "u4"; gate = nand2; input_nets = [| "x1"; "x2" |];
          output_net = "y" };
        { Design.name = "u5"; gate = nand2; input_nets = [| "a"; "k" |];
          output_net = "c" };
        { Design.name = "u6"; gate = nand2; input_nets = [| "c"; "x1" |];
          output_net = "z" };
        { Design.name = "u7"; gate = nand2; input_nets = [| "r"; "a" |];
          output_net = "w" };
      ]
    ~primary_inputs:[ "a"; "q"; "k"; "r" ]
    ~primary_outputs:[ "y"; "z"; "w" ]

let demo_stim =
  [
    ("a", Sense.Switch Measure.Rise);
    ("r", Sense.Pulse);
    ("k", Sense.Const false);
  ]

let demo () = Sense.analyze (demo_design ()) ~pi:demo_stim

let info t name =
  match Sense.cell_info t ~cell:name with
  | Some ci -> ci
  | None -> Alcotest.fail (name ^ " has no cell info")

let the_pair t name =
  match (info t name).Sense.sc_pairs with
  | [ p ] -> p
  | ps -> Alcotest.fail (Printf.sprintf "%s: %d pairs" name (List.length ps))

let test_demo_activity () =
  let t = demo () in
  let act net =
    match Sense.activity t ~net with
    | Some a -> a
    | None -> Alcotest.fail (net ^ " has no activity")
  in
  (* c = nand(a, k=0): pinned at 1 by the controlling constant, yet the
     event on a structurally reaches it *)
  let c = act "c" in
  Alcotest.(check bool) "c init 1" true (c.Sense.act_init = Sense.L1);
  Alcotest.(check bool) "c final 1" true (c.Sense.act_final = Sense.L1);
  Alcotest.(check bool) "c steady" true c.Sense.act_steady;
  Alcotest.(check bool) "c active" true c.Sense.act_active;
  Alcotest.(check bool) "c no completed transition" true
    ((not c.Sense.act_may_rise) && not c.Sense.act_may_fall);
  (* qn is driven only by the quiet q: inert *)
  Alcotest.(check bool) "qn inactive" false (act "qn").Sense.act_active;
  (* x1 = nand(a rise, q): can only complete a fall *)
  let x1 = act "x1" in
  Alcotest.(check bool) "x1 may fall only" true
    (x1.Sense.act_may_fall && not x1.Sense.act_may_rise);
  Alcotest.(check bool) "x1 pulse-free" false x1.Sense.act_may_pulse;
  (* the pulse on r taints everything it reaches *)
  Alcotest.(check bool) "r pulses" true (act "r").Sense.act_may_pulse;
  Alcotest.(check bool) "w tainted" true (act "w").Sense.act_may_pulse;
  Alcotest.(check (list (pair string bool)))
    "derived constants" [ ("c", true) ] (Sense.constants t);
  Alcotest.(check bool) "unknown net" true (Sense.activity t ~net:"nope" = None)

let test_demo_decisions () =
  let t = demo () in
  (* u4: whichever level the free q takes, exactly one of x1/x2 switches *)
  let p4 = the_pair t "u4" in
  Alcotest.(check (list string)) "u4 support" [ "q" ] p4.Sense.sp_support;
  Alcotest.(check bool) "u4 unsensitizable" true
    (match p4.Sense.sp_decision with
     | Sense.Unsensitizable _ -> true
     | _ -> false);
  Alcotest.(check bool) "u4 false path" true (info t "u4").Sense.sc_false_path;
  (* u6: c never changes *)
  Alcotest.(check bool) "u6 unsensitizable" true
    (match (the_pair t "u6").Sense.sp_decision with
     | Sense.Unsensitizable _ -> true
     | _ -> false);
  (* u7: pulse taint defeats the two-frame argument *)
  Alcotest.(check bool) "u7 exhausted" true
    (match (the_pair t "u7").Sense.sp_decision with
     | Sense.Exhausted _ -> true
     | _ -> false);
  Alcotest.(check bool) "u7 not false path" false
    (info t "u7").Sense.sc_false_path;
  let s = Sense.summary t in
  Alcotest.(check int) "classified" 3 s.Sense.classified_cells;
  Alcotest.(check int) "pairs" 3 s.Sense.pairs;
  Alcotest.(check int) "sensitizable" 0 s.Sense.sensitizable;
  Alcotest.(check int) "unsensitizable" 2 s.Sense.unsensitizable;
  Alcotest.(check int) "exhausted" 1 s.Sense.exhausted;
  Alcotest.(check int) "false paths" 2 s.Sense.false_path_cells;
  Alcotest.(check int) "prunable" 4 s.Sense.prunable_cells;
  Alcotest.(check int) "constants" 1 s.Sense.constant_nets

let test_demo_oracle_and_mask () =
  let t = demo () in
  (* the refinement oracle: proven pairs and inert pins, either order *)
  Alcotest.(check bool) "u4 (0,1)" true
    (Sense.pair_unsensitizable t ~cell:"u4" ~a:0 ~b:1);
  Alcotest.(check bool) "u4 (1,0)" true
    (Sense.pair_unsensitizable t ~cell:"u4" ~a:1 ~b:0);
  Alcotest.(check bool) "u7 exhausted pair never guessed" false
    (Sense.pair_unsensitizable t ~cell:"u7" ~a:0 ~b:1);
  Alcotest.(check bool) "inert pin (u2's q)" true
    (Sense.pair_unsensitizable t ~cell:"u2" ~a:0 ~b:1);
  Alcotest.(check bool) "unknown cell" false
    (Sense.pair_unsensitizable t ~cell:"nope" ~a:0 ~b:1);
  Alcotest.(check bool) "bad pin" false
    (Sense.pair_unsensitizable t ~cell:"u4" ~a:0 ~b:9);
  (* the STA mask is the structural projection: <= 1 event-bearing input *)
  let mask = Sense.prune_mask t in
  let g = Design.graph (demo_design ()) in
  let id name = Option.get (Graph.cell_id g name) in
  List.iter
    (fun (name, expect) ->
      Alcotest.(check bool) (name ^ " prunable") expect mask.(id name))
    [ ("u1", true); ("u2", true); ("u3", true); ("u5", true);
      ("u4", false); ("u6", false); ("u7", false) ]

let test_demo_diagnostics () =
  let diags = Sense.check ~file:"demo.ntl" (demo ()) in
  let count code =
    List.length (List.filter (fun d -> d.Diagnostic.code = code) diags)
  in
  Alcotest.(check int) "PX501" 1 (count Diagnostic.PX501);
  Alcotest.(check int) "PX502" 2 (count Diagnostic.PX502);
  Alcotest.(check int) "PX503" 2 (count Diagnostic.PX503);
  Alcotest.(check int) "PX504" 1 (count Diagnostic.PX504);
  Alcotest.(check int) "nothing else" 6 (List.length diags);
  List.iter
    (fun d ->
      let expect =
        match d.Diagnostic.code with
        | Diagnostic.PX501 | Diagnostic.PX502 -> Diagnostic.Warning
        | _ -> Diagnostic.Info
      in
      Alcotest.(check bool)
        (Diagnostic.code_name d.Diagnostic.code ^ " severity")
        true
        (d.Diagnostic.severity = expect))
    diags

let test_budgets () =
  let design = demo_design () in
  (* the u4 pair's cone is u1+u2+u3 = 3 cells *)
  let t = Sense.analyze ~budget:1 design ~pi:demo_stim in
  Alcotest.(check bool) "cone budget exhausts" true
    (match (the_pair t "u4").Sense.sp_decision with
     | Sense.Exhausted _ -> true
     | _ -> false);
  let t = Sense.analyze ~max_support:0 design ~pi:demo_stim in
  Alcotest.(check bool) "support budget exhausts" true
    (match (the_pair t "u4").Sense.sp_decision with
     | Sense.Exhausted _ -> true
     | _ -> false);
  Alcotest.(check bool) "budget 0 rejected" true
    (try
       ignore (Sense.analyze ~budget:0 design ~pi:demo_stim);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cell-driven stimulus rejected" true
    (try
       ignore (Sense.analyze design ~pi:[ ("x1", Sense.Switch Measure.Rise) ]);
       false
     with Invalid_argument _ -> true);
  (* unknown nets are inert, like Sta.analyze *)
  let t = Sense.analyze design ~pi:(("ghost", Sense.Pulse) :: demo_stim) in
  Alcotest.(check int) "unknown stimulus inert" 3
    (Sense.summary t).Sense.classified_cells

(* the Graph.fanin_cone primitive the engine's bounded DFS mirrors *)
let test_fanin_cone () =
  let design = demo_design () in
  let g = Design.graph design in
  let id name = Option.get (Graph.cell_id g name) in
  let cone = Graph.fanin_cone g ~cells:[ id "u4" ] in
  List.iter
    (fun (name, expect) ->
      Alcotest.(check bool) (name ^ " in cone") expect cone.(id name))
    [ ("u1", true); ("u2", true); ("u3", true); ("u4", true);
      ("u5", false); ("u6", false); ("u7", false) ]

(* ------------------------------------------------------------------ *)
(* Witness replay and randomized soundness                             *)

let test_witness_replay () =
  let design = demo_design () in
  (* without the k=0 constant, u6's pair is sensitizable: k=1 frees c *)
  let t = Sense.analyze design ~pi:[ ("a", Sense.Switch Measure.Rise) ] in
  let p = the_pair t "u6" in
  match p.Sense.sp_decision with
  | Sense.Unsensitizable _ | Sense.Exhausted _ ->
    Alcotest.fail "u6 should be sensitizable without the constant"
  | Sense.Sensitizable cube ->
    Alcotest.(check bool) "witness pins k" true (List.mem_assoc "k" cube);
    Alcotest.(check bool) "witness pins q" true (List.mem_assoc "q" cube);
    (* replay the cube concretely: both pair nets must change *)
    let stim =
      ("a", (false, true)) :: List.map (fun (net, b) -> (net, (b, b))) cube
    in
    let changed = Harness.two_frame design stim in
    Alcotest.(check bool) "c switches under the witness" true (changed "c");
    Alcotest.(check bool) "x1 switches under the witness" true (changed "x1")

(* randomized soundness: no concrete draw of the free inputs ever
   switches both pins of a pair classified Unsensitizable *)
let random_layered_design rng =
  Harness.layered_design rng ~gates:[| nand2; nor2; nand3; inv |]

(* check every Unsensitizable pair of [design] under [stim] against
   [draws] random concrete assignments of the free PIs; returns how many
   draws ran *)
let soundness_draws rng design stim ~draws =
  let t = Sense.analyze design ~pi:stim in
  match Harness.unsensitizable_draws rng design t ~stim ~draws_per_pair:draws with
  | n, [] -> n
  | _, j :: _ ->
    Alcotest.fail
      (Printf.sprintf "unsensitizable pair (%s, %s) of %s switched jointly"
         j.Harness.j_a j.Harness.j_b j.Harness.j_cell)

let test_soundness_random () =
  let rng = Prng.create 0x5EB5EL in
  let checked = ref 0 in
  (* deterministic reconvergent topologies: the demo design is built to
     yield provably-unsensitizable pairs *)
  List.iter
    (fun stim ->
      checked := !checked + soundness_draws rng (demo_design ()) stim ~draws:30)
    [
      [ ("a", Sense.Switch Measure.Rise) ];
      [ ("a", Sense.Switch Measure.Fall) ];
      [ ("a", Sense.Switch Measure.Rise); ("k", Sense.Const false) ];
      [ ("a", Sense.Switch Measure.Fall); ("k", Sense.Const false);
        ("r", Sense.Pulse) ];
    ];
  Alcotest.(check bool) "reconvergent cases exercised" true (!checked >= 100);
  (* plus a random sweep: whatever pairs the engine proves there must
     survive the same concrete scrutiny (mixed edges are fine here) *)
  for _ = 1 to 12 do
    let design = random_layered_design rng ~depth:3 ~width:6 in
    let stim =
      List.filter_map
        (fun net ->
          match Prng.int rng ~lo:0 ~hi:2 with
          | 0 -> None
          | 1 -> Some (net, Sense.Switch Measure.Rise)
          | _ -> Some (net, Sense.Switch Measure.Fall))
        (Design.primary_inputs design)
    in
    checked := !checked + soundness_draws rng design stim ~draws:20
  done;
  Alcotest.(check bool) "soundness draws ran" true (!checked >= 100)

(* ------------------------------------------------------------------ *)
(* Verdict refinement                                                  *)

let test_verify_refine () =
  let design = demo_design () in
  let pi = [ ("a", { Sta.time = 0.; slew = 300e-12; edge = Measure.Rise }) ] in
  let v =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:(List.map Verify.of_sta_event pi)
  in
  let s = Sense.analyze design ~pi:[ ("a", Sense.Switch Measure.Rise) ] in
  let v', r = Verify.refine v ~unsensitizable:(Sense.pair_unsensitizable s) in
  (* u4's pair (x1, x2 -- both from a) is the false path *)
  Alcotest.(check int) "one pair refined" 1 r.Verify.refined_pairs;
  Alcotest.(check int) "one cell refined" 1 r.Verify.refined_cells;
  (match Verify.cell_info v' ~cell:"u4" with
  | None -> Alcotest.fail "u4 lost its info"
  | Some ci ->
    Alcotest.(check bool) "u4 never-proximate after refine" true
      (ci.Verify.ci_class = Verify.Never_proximate);
    List.iter
      (fun p ->
        Alcotest.(check bool) "pair never" true
          (p.Verify.pr_class = Verify.Never_proximate))
      ci.Verify.ci_pairs);
  (* the refined summary moved; the prune mask did NOT (the STA fast
     path is justified by timing, not logic) *)
  let before = Verify.summary v and after = Verify.summary v' in
  Alcotest.(check int) "never count grew" (before.Verify.never + 1)
    after.Verify.never;
  let m = Verify.prune_mask v and m' = Verify.prune_mask v' in
  List.iter
    (fun (c : Design.cell) ->
      let id = Option.get (Graph.cell_id (Design.graph design) c.Design.name) in
      Alcotest.(check bool) (c.Design.name ^ " mask unchanged") m.(id) m'.(id))
    (Design.cells design)

let test_hazard_refine () =
  (* one opposing pair, far separated: May_glitch until the oracle
     proves the pair logically impossible *)
  let design =
    Design.create
      ~cells:
        [
          { Design.name = "u1"; gate = nand2; input_nets = [| "a"; "b" |];
            output_net = "y" };
        ]
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y" ]
  in
  let ev edge net time =
    Verify.of_sta_event (net, { Sta.time; slew = 300e-12; edge })
  in
  let rep name t =
    match Hazard.cell_report t ~cell:name with
    | Some r -> r
    | None -> Alcotest.fail (name ^ " has no report")
  in
  let h =
    Hazard.analyze ~models:synthetic_models ~thresholds design
      ~pi:[ ev Measure.Fall "a" 500e-12; ev Measure.Rise "b" 0. ]
  in
  Alcotest.(check bool) "may-glitch before" true
    ((rep "u1" h).Hazard.hc_verdict = Hazard.May_glitch);
  let h', r = Hazard.refine h ~impossible:(fun ~cell:_ ~a:_ ~b:_ -> true) in
  Alcotest.(check int) "pair dropped" 1 r.Hazard.refined_pairs;
  Alcotest.(check int) "cell demoted" 1 r.Hazard.refined_cells;
  let r1 = rep "u1" h' in
  Alcotest.(check bool) "never after" true (r1.Hazard.hc_verdict = Hazard.Never);
  Alcotest.(check bool) "glitch cleared" true (r1.Hazard.hc_glitch = None);
  Alcotest.(check bool) "not observable" false r1.Hazard.hc_observable;
  (* the window dataflow and the STA mask are untouched *)
  Alcotest.(check bool) "net_state unchanged" true
    (Hazard.net_state h ~net:"y" = Hazard.net_state h' ~net:"y");
  List.iter
    (fun (c : Design.cell) ->
      let id = Option.get (Graph.cell_id (Design.graph design) c.Design.name) in
      Alcotest.(check bool) "quiet mask unchanged" (Hazard.quiet_mask h).(id)
        (Hazard.quiet_mask h').(id))
    (Design.cells design);
  (* a same-pin pulse pair is beyond the two-frame oracle: always kept *)
  let hp =
    Hazard.analyze ~models:synthetic_models ~thresholds design
      ~pi:[ ev Measure.Rise "a" 0.; ev Measure.Fall "a" 600e-12 ]
  in
  let hp', rp = Hazard.refine hp ~impossible:(fun ~cell:_ ~a:_ ~b:_ -> true) in
  Alcotest.(check int) "pulse pair kept" 0 rp.Hazard.refined_pairs;
  Alcotest.(check bool) "verdict preserved" true
    ((rep "u1" hp).Hazard.hc_verdict = (rep "u1" hp').Hazard.hc_verdict)

(* ------------------------------------------------------------------ *)
(* The fused prune engine (satellite: mask composition)                *)

let test_prune_engine_basics () =
  (* three independent cells over the same two inputs *)
  let design =
    Design.create
      ~cells:
        (List.map
           (fun (name, output_net) ->
             { Design.name; gate = nand2; input_nets = [| "a"; "b" |];
               output_net })
           [ ("u1", "y1"); ("u2", "y2"); ("u3", "y3") ])
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y1"; "y2"; "y3" ]
  in
  let g = Design.graph design in
  let id name = Option.get (Graph.cell_id g name) in
  let mask f =
    Array.init (Graph.cell_count g) (fun c -> f (Graph.cell_name g c))
  in
  let p =
    Prune.make
      ~unsensitizable:(mask (fun n -> n = "u1"))
      ~quiet:(mask (fun n -> n <> "u3"))
      ~never_proximate:(mask (fun _ -> true))
      ()
  in
  Alcotest.(check bool) "empty" true (Prune.is_empty Prune.none);
  Alcotest.(check bool) "not empty" false (Prune.is_empty p);
  Alcotest.(check bool) "member none" false
    (Prune.member Prune.none (id "u1"));
  Alcotest.(check bool) "member fused" true (Prune.member p (id "u3"));
  (* attribution follows the priority order: unsensitizable, quiet,
     never-proximate -- cheapest analysis first -- resolved by make *)
  let claimed name =
    Option.fold ~none:"-" ~some:Prune.source_name (Prune.source p (id name))
  in
  Alcotest.(check string) "u1 claimed" "unsensitizable" (claimed "u1");
  Alcotest.(check string) "u2 claimed" "quiet" (claimed "u2");
  Alcotest.(check string) "u3 claimed" "never_proximate" (claimed "u3");
  (* the hits are counted per analysis state, by claiming source *)
  let pi =
    List.map
      (fun net ->
        (net, { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall }))
      [ "a"; "b" ]
  in
  let pool = Pool.create ~domains:1 in
  let build () =
    Sta.build_ir ~mode:Sta.Proximity ~prune:p ~models:synthetic_models
      ~thresholds design ~pi
  in
  let ir = build () in
  Alcotest.(check int) "member counts nothing" 0 (Sta.pruned_evaluations ir);
  ignore (Sta.reanalyze ~pool ir);
  let c = Sta.pruned_counts ir in
  Alcotest.(check int) "unsensitizable count" 1 c.Prune.unsensitizable;
  Alcotest.(check int) "quiet count" 1 c.Prune.quiet;
  Alcotest.(check int) "never count" 1 c.Prune.never_proximate;
  Alcotest.(check int) "total" 3 (Prune.total c);
  Alcotest.(check int) "headline" (Prune.total c) (Sta.pruned_evaluations ir);
  (* a second state over the same mask counts its own hits only *)
  let ir2 = build () in
  Alcotest.(check int) "reset" 0 (Sta.pruned_evaluations ir2);
  ignore (Sta.reanalyze ~pool ir2);
  Pool.shutdown pool;
  Alcotest.(check int) "own hits" 3 (Sta.pruned_evaluations ir2);
  Alcotest.(check int) "first state untouched" 3 (Sta.pruned_evaluations ir);
  Alcotest.(check string) "source names" "unsensitizable/quiet/never_proximate"
    (String.concat "/"
       (List.map Prune.source_name
          [ Prune.Unsensitizable; Prune.Quiet; Prune.Never_proximate ]))

(* the table is indexed by cell id: a mask computed on a design of
   another size must be refused, not silently prune the wrong cells *)
let test_prune_length_mismatch () =
  let design = demo_design () in
  let n = Graph.cell_count (Design.graph design) in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "sources of different lengths" true
    (raises (fun () ->
         Prune.make ~quiet:(Array.make n true)
           ~never_proximate:(Array.make (n + 1) true) ()));
  Alcotest.(check int) "length" n
    (Prune.length (Prune.make ~quiet:(Array.make n false) ()));
  List.iter
    (fun cells ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-cell mask on a %d-cell design" cells n)
        true
        (raises (fun () ->
             Sta.build_ir ~prune:(Prune.make ~quiet:(Array.make cells true) ())
               ~models:synthetic_models ~thresholds design ~pi:[])))
    [ n - 1; n + 1 ];
  Alcotest.(check bool) "empty mask fits any design" false
    (raises (fun () ->
         Sta.build_ir ~prune:Prune.none ~models:synthetic_models ~thresholds
           design ~pi:[]))

let test_mask_composition_random () =
  let rng = Prng.create 0xFACE5L in
  let pool = Pool.create ~domains:1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 10 do
        let design = random_layered_design rng ~depth:3 ~width:6 in
        let pi =
          Harness.falling_events rng ~quiet_one_in:3 ~time_hi:600e-12
            ~slew_hi:500e-12 (Design.primary_inputs design)
        in
        let events = List.map Verify.of_sta_event pi in
        let v =
          Verify.analyze ~models:synthetic_models ~thresholds design ~pi:events
        in
        let h =
          Hazard.analyze ~models:synthetic_models ~thresholds design ~pi:events
        in
        let s =
          Sense.analyze design
            ~pi:
              (List.map
                 (fun (n, (a : Sta.arrival)) -> (n, Sense.Switch a.Sta.edge))
                 pi)
        in
        let fused =
          Prune.make
            ~unsensitizable:(Sense.prune_mask s)
            ~quiet:(Hazard.quiet_mask h)
            ~never_proximate:(Verify.prune_mask v)
            ()
        in
        let r_full, runs =
          Harness.prune_divergence ~pool ~models:synthetic_models ~thresholds
            design ~pi
            [
              ( "never-proximate",
                Prune.make ~never_proximate:(Verify.prune_mask v) () );
              ("quiet", Prune.make ~quiet:(Hazard.quiet_mask h) ());
              ( "unsensitizable",
                Prune.make ~unsensitizable:(Sense.prune_mask s) () );
              ("fused", fused);
            ]
        in
        Option.iter Alcotest.fail (Harness.diverged design ~full:r_full runs);
        let fused_run =
          List.find (fun r -> r.Harness.pr_name = "fused") runs
        in
        let counts = fused_run.Harness.pr_counts in
        (* the fused engine is monotone: it prunes at least as much as
           any single source, and the attribution counters account for
           every fast-pathed evaluation: each switching cell the table
           gives to a source is one hit of that source *)
        List.iter
          (fun (r : Harness.prune_run) ->
            Alcotest.(check bool) "fused >= solo" true
              (fused_run.Harness.pr_evaluations >= r.Harness.pr_evaluations))
          runs;
        Alcotest.(check int) "attribution is complete"
          fused_run.Harness.pr_evaluations (Prune.total counts);
        let g = Design.graph design in
        let claimed src =
          List.length
            (List.filter
               (fun c ->
                 Prune.source fused c = Some src
                 && List.mem_assoc
                      (Graph.net_name g (Graph.cell_output g c))
                      r_full.Sta.arrivals)
               (List.init (Graph.cell_count g) Fun.id))
        in
        Alcotest.(check (list int)) "attribution by source"
          [ claimed Prune.Unsensitizable; claimed Prune.Quiet;
            claimed Prune.Never_proximate ]
          [ counts.Prune.unsensitizable; counts.Prune.quiet;
            counts.Prune.never_proximate ]
      done)

(* ------------------------------------------------------------------ *)
(* Diagnostic ordering: byte-stable reports under emission shuffles    *)

let test_report_byte_stability () =
  let mk code msg =
    Diagnostic.make ~file:"f.ntl" ~line:3 ~col:7 ~context:"u1" code "%s" msg
  in
  let base =
    [
      mk Diagnostic.PX503 "beta";
      mk Diagnostic.PX501 "alpha";
      mk Diagnostic.PX503 "alpha";
      mk Diagnostic.PX504 "zeta";
      mk Diagnostic.PX502 "mid";
    ]
  in
  let render l =
    let d = Diagnostic.sort l in
    ( Diagnostic.report_text d,
      Diagnostic.report_json_string d,
      Diagnostic.report_sarif_string d )
  in
  let t0, j0, s0 = render base in
  let rec rotations acc l n =
    if n = 0 then acc
    else
      match l with
      | [] -> acc
      | x :: tl -> rotations ((tl @ [ x ]) :: acc) (tl @ [ x ]) (n - 1)
  in
  List.iter
    (fun perm ->
      let t, j, s = render perm in
      Alcotest.(check string) "text bytes" t0 t;
      Alcotest.(check string) "json bytes" j0 j;
      Alcotest.(check string) "sarif bytes" s0 s)
    (List.rev base :: rotations [] base (List.length base - 1));
  (* same position, same code: the message is the final tiebreak *)
  match Diagnostic.sort [ mk Diagnostic.PX503 "b"; mk Diagnostic.PX503 "a" ] with
  | [ d1; d2 ] ->
    Alcotest.(check bool) "message order" true
      (d1.Diagnostic.message <= d2.Diagnostic.message)
  | _ -> Alcotest.fail "sort changed the count"

(* ------------------------------------------------------------------ *)
(* CLI surface: binary sniffing everywhere, glob code filters          *)

let demo_netlist =
  {|design sense_demo
input a q k r
output y z w
thresholds 1.263 3.737 5.0
cell u1 inv q -> qn
cell u2 nand2 a q -> x1
cell u3 nand2 a qn -> x2
cell u4 nand2 x1 x2 -> y
cell u5 nand2 a k -> c
cell u6 nand2 c x1 -> z
cell u7 nand2 r a -> w
end
|}

let demo_stimulus =
  "--pi a:rise:300:0 --pi r:rise:200:0 --pi r:fall:200:400 --const k=0"

let with_demo_files f =
  let file = Filename.temp_file "proxim_sense" ".ntl" in
  let bin = Filename.temp_file "proxim_sense" ".pxb" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ file; bin ])
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc demo_netlist);
      f file bin)

let test_cli_sense () =
  with_demo_files (fun file _bin ->
      let file = Filename.quote file in
      (* the demo's warnings (PX501, PX502) fail the run by default *)
      Alcotest.(check int) "warnings exit 1" 1
        (run "%s sense %s %s" cli file demo_stimulus);
      Alcotest.(check int) "--fail-on error passes" 0
        (run "%s sense %s %s --fail-on error" cli file demo_stimulus);
      (* --codes applies before --fail-on: keeping only infos passes *)
      Alcotest.(check int) "--codes filter applies before exit" 0
        (run "%s sense %s %s --codes PX503,PX504" cli file demo_stimulus);
      Alcotest.(check int) "--codes keeping a warning still fails" 1
        (run "%s sense %s %s --codes PX501" cli file demo_stimulus);
      Alcotest.(check int) "bare --codes prints the table" 0
        (run "%s sense %s --codes" cli file);
      Alcotest.(check int) "bad --const exits 2" 2
        (run "%s sense %s --const k=9" cli file);
      Alcotest.(check int) "bad --budget exits 2" 2
        (run "%s sense %s %s --budget 0" cli file demo_stimulus);
      Alcotest.(check int) "const/switch conflict exits 2" 2
        (run "%s sense %s --pi a:rise:300:0 --const a=1" cli file);
      (* sarif output is valid JSON carrying the expected rule ids *)
      let sarif =
        capture
          (Printf.sprintf "%s sense %s %s --format sarif --fail-on error" cli
             file demo_stimulus)
      in
      (match Proxim_util.Json.of_string sarif with
      | Error m -> Alcotest.fail ("sarif is not valid JSON: " ^ m)
      | Ok _ -> ());
      List.iter
        (fun frag ->
          Alcotest.(check bool) (frag ^ " in sarif") true (contains sarif frag))
        [ "PX501"; "PX502"; "PX503"; "PX504"; "2.1.0" ];
      (* the --sense refinement flags run end to end *)
      Alcotest.(check int) "verify --sense" 0
        (run "%s verify %s --pi a:rise:300:0 --sense --fail-on error" cli file);
      Alcotest.(check int) "hazards --sense" 0
        (run "%s hazards %s --pi a:rise:300:0 --sense --fail-on error" cli file))

let test_cli_binary_sniffing () =
  with_demo_files (fun file bin ->
      let qfile = Filename.quote file and qbin = Filename.quote bin in
      Alcotest.(check int) "convert to binary" 0
        (run "%s convert %s %s" cli qfile qbin);
      (* every diagnostic subcommand routes on the magic bytes *)
      Alcotest.(check int) "lint reads binary" 0 (run "%s lint %s" cli qbin);
      Alcotest.(check int) "verify reads binary" 0
        (run "%s verify %s --pi a:rise:300:0 --fail-on error" cli qbin);
      Alcotest.(check int) "hazards reads binary" 0
        (run "%s hazards %s --pi a:rise:300:0 --fail-on error" cli qbin);
      Alcotest.(check int) "sense reads binary" 1
        (run "%s sense %s %s" cli qbin demo_stimulus);
      (* the binary analysis sees the same design: same finding set *)
      let of_text =
        capture
          (Printf.sprintf "%s sense %s %s --format json" cli qfile
             demo_stimulus)
      in
      let of_bin =
        capture
          (Printf.sprintf "%s sense %s %s --format json" cli qbin demo_stimulus)
      in
      List.iter
        (fun frag ->
          Alcotest.(check bool) (frag ^ " from binary") true
            (contains of_bin frag);
          Alcotest.(check bool) (frag ^ " from text") true
            (contains of_text frag))
        [ "PX501"; "PX502"; "PX503"; "PX504" ])

let test_cli_code_globs () =
  with_demo_files (fun file _bin ->
      let file = Filename.quote file in
      (* PX50? keeps the PX501/PX502 warnings: still fails *)
      Alcotest.(check int) "glob keeps warnings" 1
        (run "%s sense %s %s --codes 'PX50?'" cli file demo_stimulus);
      (* PX9* matches nothing: usage error *)
      Alcotest.(check int) "empty glob exits 2" 2
        (run "%s sense %s %s --codes 'PX9*'" cli file demo_stimulus);
      (* globs compose with exact names and apply before --fail-on *)
      Alcotest.(check int) "info-only selection passes" 0
        (run "%s sense %s %s --codes 'PX503,PX504'" cli file demo_stimulus);
      Alcotest.(check int) "lint glob" 0
        (run "%s lint %s --codes 'PX1*'" cli file);
      Alcotest.(check int) "verify glob" 0
        (run "%s verify %s --pi a:rise:300:0 --codes 'PX30?' --fail-on error"
           cli file);
      (* case-insensitive, like the exact-name path *)
      Alcotest.(check int) "lowercase glob" 1
        (run "%s sense %s %s --codes 'px50?'" cli file demo_stimulus))

let () =
  Alcotest.run "sense"
    [
      ( "ternary",
        [
          Alcotest.test_case "gate evaluation" `Quick test_eval_gate_exhaustive;
          Alcotest.test_case "stimuli projection" `Quick test_stimuli_of_events;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "demo activity" `Quick test_demo_activity;
          Alcotest.test_case "demo decisions" `Quick test_demo_decisions;
          Alcotest.test_case "oracle and mask" `Quick test_demo_oracle_and_mask;
          Alcotest.test_case "demo diagnostics" `Quick test_demo_diagnostics;
          Alcotest.test_case "budgets" `Quick test_budgets;
          Alcotest.test_case "fanin cone" `Quick test_fanin_cone;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "witness replay" `Quick test_witness_replay;
          Alcotest.test_case "unsensitizable never switches jointly" `Quick
            test_soundness_random;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "verify refine" `Quick test_verify_refine;
          Alcotest.test_case "hazard refine" `Quick test_hazard_refine;
        ] );
      ( "prune engine",
        [
          Alcotest.test_case "basics" `Quick test_prune_engine_basics;
          Alcotest.test_case "length mismatch" `Quick
            test_prune_length_mismatch;
          Alcotest.test_case "mask composition random" `Quick
            test_mask_composition_random;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "byte-stable reports" `Quick
            test_report_byte_stability;
        ] );
      ( "cli",
        [
          Alcotest.test_case "sense subcommand" `Quick test_cli_sense;
          Alcotest.test_case "binary sniffing" `Quick test_cli_binary_sniffing;
          Alcotest.test_case "code globs" `Quick test_cli_code_globs;
        ] );
    ]

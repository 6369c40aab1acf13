(* Static verification: interval arithmetic, exactness on degenerate
   windows, randomized soundness, classification, PX3xx diagnostics and
   the never-proximate prune mask. *)

module Measure = Proxim_measure.Measure
module Gate = Proxim_gates.Gate
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
module Interval = Proxim_verify.Interval
module Verify = Proxim_verify.Verify
module Harness = Proxim_harness.Harness

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let nand3 = Gate.nand tech ~fan_in:3
let nor2 = Gate.nor tech ~fan_in:2
let inv = Gate.inverter tech

let synthetic_models = (Sta.synthetic_factory ()).Sta.models

let thresholds = { Vtc.vil = 1.25; vih = 3.75; vdd = 5.0 }

(* ------------------------------------------------------------------ *)
(* Interval arithmetic                                                 *)

let test_interval_basics () =
  let i = Interval.make 1. 3. in
  Alcotest.(check (float 0.)) "lo" 1. (Interval.lo i);
  Alcotest.(check (float 0.)) "hi" 3. (Interval.hi i);
  Alcotest.(check (float 0.)) "width" 2. (Interval.width i);
  Alcotest.(check bool) "contains" true (Interval.contains i 2.);
  Alcotest.(check bool) "not contains" false (Interval.contains i 3.5);
  Alcotest.(check bool) "degenerate exact" true
    (Interval.degenerate (Interval.exact 7.));
  Alcotest.(check bool) "reversed rejected" true
    (try
       ignore (Interval.make 2. 1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan rejected" true
    (try
       ignore (Interval.make Float.nan 1.);
       false
     with Invalid_argument _ -> true)

let test_interval_ops () =
  let a = Interval.make 1. 2. and b = Interval.make 10. 20. in
  Alcotest.(check (pair (float 0.) (float 0.))) "add" (11., 22.)
    (Interval.pair (Interval.add a b));
  Alcotest.(check (pair (float 0.) (float 0.))) "sub" (8., 19.)
    (Interval.pair (Interval.sub b a));
  Alcotest.(check (pair (float 0.) (float 0.))) "neg" (-2., -1.)
    (Interval.pair (Interval.neg a));
  Alcotest.(check (pair (float 0.) (float 0.))) "hull" (1., 20.)
    (Interval.pair (Interval.hull a b));
  Alcotest.(check (pair (float 0.) (float 0.))) "hull0" (0., 2.)
    (Interval.pair (Interval.hull0 a));
  Alcotest.(check (pair (float 0.) (float 0.))) "scale neg" (-4., -2.)
    (Interval.pair (Interval.scale (-2.) a));
  Alcotest.(check (pair (float 0.) (float 0.))) "max2" (10., 20.)
    (Interval.pair (Interval.max2 a b));
  Alcotest.(check (pair (float 0.) (float 0.))) "inv" (0.5, 1.)
    (Interval.pair (Interval.inv a));
  Alcotest.(check bool) "inv of 0-crossing rejected" true
    (try
       ignore (Interval.inv (Interval.make (-1.) 1.));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "subset" true (Interval.subset a (Interval.make 0. 3.));
  Alcotest.(check bool) "not subset" false (Interval.subset b a);
  Alcotest.(check bool) "intersects" true
    (Interval.intersects a (Interval.make 2. 5.));
  Alcotest.(check bool) "disjoint" false (Interval.intersects a b);
  Alcotest.(check (pair (float 0.) (float 0.))) "clamp_lo" (1.5, 2.)
    (Interval.pair (Interval.clamp_lo 1.5 a))

(* monotone-op containment under random samples *)
let test_interval_containment_qcheck () =
  let rng = Prng.create 0x1A7E1L in
  for _ = 1 to 500 do
    let bound () =
      let x = Prng.float rng ~lo:(-5.) ~hi:5. in
      let y = Prng.float rng ~lo:(-5.) ~hi:5. in
      Interval.make (Float.min x y) (Float.max x y)
    in
    let a = bound () and b = bound () in
    let pick i =
      Prng.float rng ~lo:(Interval.lo i) ~hi:(Interval.hi i)
    in
    let x = pick a and y = pick b in
    assert (Interval.contains (Interval.add a b) (x +. y));
    assert (Interval.contains (Interval.sub a b) (x -. y));
    assert (Interval.contains (Interval.max2 a b) (Float.max x y));
    assert (Interval.contains (Interval.hull a b) x);
    assert (Interval.contains (Interval.scale 3. a) (3. *. x));
    assert (Interval.contains (Interval.scale (-3.) a) (-3. *. x))
  done;
  Alcotest.(check pass) "containment holds" () ()

(* the corners the analyses lean on: inversion domain, zero-hulling of
   optional prefix terms, degenerate max ties, NaN rejection *)
let test_interval_edge_cases () =
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  (* inv is only defined for strictly positive intervals *)
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "inv" (0.25, 0.5)
    (Interval.pair (Interval.inv (Interval.make 2. 4.)));
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "inv rejects [%g, %g]" lo hi)
        true
        (rejects (fun () -> Interval.inv (Interval.make lo hi))))
    [ (-1., 1.); (0., 1.); (-2., -1.) ];
  (* hull0 keeps the zero endpoint whichever side the interval sits on *)
  Alcotest.(check (pair (float 0.) (float 0.)))
    "hull0 negative" (-3., 0.)
    (Interval.pair (Interval.hull0 (Interval.make (-3.) (-1.))));
  Alcotest.(check (pair (float 0.) (float 0.)))
    "hull0 positive" (0., 5.)
    (Interval.pair (Interval.hull0 (Interval.make 2. 5.)));
  Alcotest.(check (pair (float 0.) (float 0.)))
    "hull0 straddling" (-2., 5.)
    (Interval.pair (Interval.hull0 (Interval.make (-2.) 5.)));
  (* max2 ties on degenerate windows stay degenerate and exact *)
  let d = Interval.exact 4. in
  Alcotest.(check bool) "max2 tie degenerate" true
    (Interval.degenerate (Interval.max2 d (Interval.exact 4.)));
  Alcotest.(check (pair (float 0.) (float 0.)))
    "max2 tie value" (4., 4.)
    (Interval.pair (Interval.max2 d (Interval.exact 4.)));
  Alcotest.(check (pair (float 0.) (float 0.)))
    "max2 partial tie" (2., 4.)
    (Interval.pair (Interval.max2 (Interval.make 1. 4.) (Interval.make 2. 4.)));
  (* NaN is rejected in every constructor position, as is lo > hi *)
  List.iter
    (fun (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "make rejects (%f, %f)" lo hi)
        true
        (rejects (fun () -> Interval.make lo hi)))
    [ (Float.nan, 1.); (1., Float.nan); (Float.nan, Float.nan); (2., 1.) ];
  Alcotest.(check bool) "of_pair rejects NaN" true
    (rejects (fun () -> Interval.of_pair (Float.nan, 0.)));
  (* clamp_lo on an entirely-below interval collapses to the floor *)
  Alcotest.(check (pair (float 0.) (float 0.)))
    "clamp_lo collapse" (1., 1.)
    (Interval.pair (Interval.clamp_lo 1. (Interval.make (-2.) (-1.))))

(* ------------------------------------------------------------------ *)
(* A small hand-built design                                           *)

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

let ev ?(w = 0.) ?(tw = 0.) net time slew =
  Verify.of_sta_event ~time_window:w ~tau_window:tw
    (net, { Sta.time; slew; edge = Measure.Fall })

(* ------------------------------------------------------------------ *)
(* Exactness on degenerate windows: the abstract pass reproduces the
   concrete STA bit-for-bit in both modes                              *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_exact mode =
  let design = small_design () in
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 400e-12; edge = Measure.Fall });
      ("b", { Sta.time = 60e-12; slew = 250e-12; edge = Measure.Fall });
      ("c", { Sta.time = 30e-12; slew = 500e-12; edge = Measure.Fall });
    ]
  in
  let pool = Pool.create ~domains:1 in
  let report =
    Sta.analyze ~mode ~pool ~models:synthetic_models ~thresholds design ~pi
  in
  Pool.shutdown pool;
  let v =
    Verify.analyze ~mode ~models:synthetic_models ~thresholds design
      ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
  in
  List.iter
    (fun (net, (a : Sta.arrival)) ->
      match Verify.net_arrival v ~net with
      | None -> Alcotest.fail (net ^ " has no abstract arrival")
      | Some (abs : Verify.aarrival) ->
        Alcotest.(check bool)
          (net ^ " time degenerate-exact") true
          (Interval.degenerate abs.Verify.a_time
          && feq (Interval.lo abs.Verify.a_time) a.Sta.time);
        Alcotest.(check bool)
          (net ^ " slew degenerate-exact") true
          (Interval.degenerate abs.Verify.a_slew
          && feq (Interval.lo abs.Verify.a_slew) a.Sta.slew))
    report.Sta.arrivals

let test_exact_proximity () = check_exact Sta.Proximity
let test_exact_classic () = check_exact Sta.Classic

(* ------------------------------------------------------------------ *)
(* Randomized soundness on the small design                            *)

let test_soundness_random () =
  let design = small_design () in
  let rng = Prng.create 0xBEEFL in
  let pool = Pool.create ~domains:1 in
  List.iter
    (fun mode ->
      for _ = 1 to 25 do
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
        let v =
          Verify.analyze ~mode ~models:synthetic_models ~thresholds design
            ~pi:
              (List.map
                 (Verify.of_sta_event ~time_window:tw ~tau_window:sw)
                 pi)
        in
        match
          Harness.window_escapes ~pool rng ~draws:4 ~mode
            ~models:synthetic_models ~thresholds ~time_window:tw
            ~tau_window:sw ~window:(Harness.verify_windows v) design ~pi
        with
        | [] -> ()
        | e :: _ -> Alcotest.fail e
      done)
    [ Sta.Proximity; Sta.Classic ];
  Pool.shutdown pool;
  Alcotest.(check pass) "all concrete runs inside intervals" () ()

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let test_classification () =
  let design = small_design () in
  (* u1's inputs 500 ps apart: far beyond any synthetic nand2 window
     (~100-300 ps), so u1 is never-proximate; u3 is a falling-input NOR
     pair = gating direction = always-proximate when both switch *)
  let v =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:
        [
          ev "a" 0. 300e-12; ev "b" 900e-12 300e-12; ev "c" 100e-12 300e-12;
        ]
  in
  let info name =
    match Verify.cell_info v ~cell:name with
    | Some i -> i
    | None -> Alcotest.fail (name ^ " has no info")
  in
  Alcotest.(check string) "u1 never"
    (Verify.classification_name Verify.Never_proximate)
    (Verify.classification_name (info "u1").Verify.ci_class);
  Alcotest.(check string) "u2 single-input never"
    (Verify.classification_name Verify.Never_proximate)
    (Verify.classification_name (info "u2").Verify.ci_class);
  Alcotest.(check string) "u3 gating always"
    (Verify.classification_name Verify.Always_proximate)
    (Verify.classification_name (info "u3").Verify.ci_class);
  (* tight nand2 separation with windows: both orders admissible *)
  let v2 =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:
        [
          ev ~w:50e-12 "a" 0. 300e-12;
          ev ~w:50e-12 "b" 10e-12 300e-12;
          ev "c" 2000e-12 300e-12;
        ]
  in
  let u1 =
    match Verify.cell_info v2 ~cell:"u1" with
    | Some i -> i
    | None -> Alcotest.fail "u1 missing"
  in
  Alcotest.(check string) "u1 may-be-proximate"
    (Verify.classification_name Verify.May_be_proximate)
    (Verify.classification_name u1.Verify.ci_class);
  (match u1.Verify.ci_pairs with
  | [ p ] -> Alcotest.(check bool) "pair straddles" true p.Verify.pr_straddles
  | _ -> Alcotest.fail "u1 should have one input pair");
  let s = Verify.summary v in
  Alcotest.(check int) "summary switching" 3 s.Verify.switching_cells;
  Alcotest.(check int) "summary never" 2 s.Verify.never

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let codes_of diags =
  List.map (fun d -> Diagnostic.code_name d.Diagnostic.code) diags

let test_px301_px304 () =
  let design = small_design () in
  (* near-simultaneous a/b with windows -> PX301 on u1; c quiet but
     feeding the 2-input u3 -> PX304 *)
  let v =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:[ ev ~w:40e-12 "a" 0. 300e-12; ev ~w:40e-12 "b" 20e-12 300e-12 ]
  in
  Alcotest.(check (list string)) "unconstrained c" [ "c" ]
    (Verify.unconstrained_pis v);
  let diags = Verify.check ~file:"small.ntl" v in
  Alcotest.(check bool) "PX301 present" true
    (List.mem "PX301" (codes_of diags));
  Alcotest.(check bool) "PX304 present" true
    (List.mem "PX304" (codes_of diags));
  (* constrained c, separated events -> clean *)
  let v2 =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:
        [ ev "a" 0. 300e-12; ev "b" 900e-12 300e-12; ev "c" 50e-12 300e-12 ]
  in
  Alcotest.(check (list string)) "clean" [] (codes_of (Verify.check v2));
  (* filter_codes keeps only what was asked for *)
  let only_304 = Diagnostic.filter_codes [ Diagnostic.PX304 ] diags in
  Alcotest.(check bool) "filtered to PX304" true
    (only_304 <> [] && List.for_all (fun d -> d.Diagnostic.code = Diagnostic.PX304) only_304)

(* PX302/PX303 need pathological models: wrap the synthetic ones *)
let test_px302_px303 () =
  let design = small_design () in
  let models_302 (cell : Design.cell) =
    let m = synthetic_models cell in
    { m with Models.tau_range = Some (200e-12, 2e-9) }
  in
  let v =
    Verify.analyze ~models:models_302 ~thresholds design
      ~pi:
        [
          (* 100 ps slew < the claimed 200 ps table floor *)
          ev "a" 0. 100e-12; ev "b" 900e-12 300e-12; ev "c" 50e-12 300e-12;
        ]
  in
  let diags = Verify.check v in
  Alcotest.(check bool) "PX302 fires" true (List.mem "PX302" (codes_of diags));
  Alcotest.(check bool) "PX302 is a warning" true
    (List.for_all
       (fun d ->
         d.Diagnostic.code <> Diagnostic.PX302
         || d.Diagnostic.severity = Diagnostic.Warning)
       diags);
  let models_303 (cell : Design.cell) =
    let m = synthetic_models cell in
    {
      m with
      Models.delay1 =
        (fun ~pin ~edge ~tau ->
          m.Models.delay1 ~pin ~edge ~tau -. 200e-12);
    }
  in
  let v =
    Verify.analyze ~models:models_303 ~thresholds design
      ~pi:
        [ ev "a" 0. 300e-12; ev "b" 900e-12 300e-12; ev "c" 50e-12 300e-12 ]
  in
  let diags = Verify.check v in
  Alcotest.(check bool) "PX303 fires" true (List.mem "PX303" (codes_of diags));
  Alcotest.(check bool) "PX303 is an error" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = Diagnostic.PX303
         && d.Diagnostic.severity = Diagnostic.Error)
       diags);
  Alcotest.(check int) "PX303 makes exit 2" 2
    (Diagnostic.exit_code ~fail_on:Diagnostic.Error diags)

(* ------------------------------------------------------------------ *)
(* Pruning: mask only covers never-proximate cells, pruned analysis is
   bit-identical, prune counter reports the skips                      *)

let test_prune_bit_identical () =
  let design = small_design () in
  let pi =
    [
      ("a", { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall });
      ("b", { Sta.time = 900e-12; slew = 300e-12; edge = Measure.Fall });
      ("c", { Sta.time = 50e-12; slew = 300e-12; edge = Measure.Fall });
    ]
  in
  let v =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
  in
  let prune = Verify.prune_mask v in
  let id name = Option.get (Graph.cell_id (Design.graph design) name) in
  Alcotest.(check bool) "u1 pruned" true prune.(id "u1");
  Alcotest.(check bool) "u3 not pruned" false prune.(id "u3");
  let pool = Pool.create ~domains:1 in
  let _, runs =
    Harness.prune_divergence ~pool ~models:synthetic_models ~thresholds design
      ~pi
      [ ("none", Prune.none); ("never", Prune.make ~never_proximate:prune ()) ]
  in
  Pool.shutdown pool;
  (match runs with
  | [ none; never ] ->
    Alcotest.(check int) "no skips without a mask" 0
      none.Harness.pr_evaluations;
    Alcotest.(check bool) "fast path taken" true
      (never.Harness.pr_evaluations > 0);
    Alcotest.(check bool) "reports bit-identical" true
      never.Harness.pr_identical
  | _ -> Alcotest.fail "one run per mask");
  (* a classic-mode verification must never authorize pruning *)
  let v_classic =
    Verify.analyze ~mode:Sta.Classic ~models:synthetic_models ~thresholds
      design
      ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
  in
  let prune_classic = Verify.prune_mask v_classic in
  Alcotest.(check bool) "classic mask is empty" false prune_classic.(id "u1")

(* randomized: pruned == unpruned on wider designs *)
let test_prune_bit_identical_random () =
  let rng = Prng.create 0xF00DL in
  let pool = Pool.create ~domains:1 in
  for _ = 1 to 10 do
    let design =
      Harness.layered_design rng ~gates:[| nand2; nor2; nand3 |] ~depth:3
        ~width:6
    in
    let pi =
      Harness.falling_events rng ~quiet_one_in:3 ~time_hi:600e-12
        ~slew_hi:500e-12 (Design.primary_inputs design)
    in
    let v =
      Verify.analyze ~models:synthetic_models ~thresholds design
        ~pi:(List.map (Verify.of_sta_event ?time_window:None) pi)
    in
    let full, runs =
      Harness.prune_divergence ~pool ~models:synthetic_models ~thresholds
        design ~pi
        [
          ( "never-proximate",
            Prune.make ~never_proximate:(Verify.prune_mask v) () );
        ]
    in
    Option.iter Alcotest.fail (Harness.diverged design ~full runs)
  done;
  Pool.shutdown pool;
  Alcotest.(check pass) "10 random designs bit-identical" () ()

(* ------------------------------------------------------------------ *)
(* Input validation                                                    *)

let test_analyze_validation () =
  let design = small_design () in
  Alcotest.(check bool) "collapsed mode rejected" true
    (try
       ignore
         (Verify.analyze
            ~mode:(Sta.Collapsed Proxim_baseline.Collapse.Jun)
            ~models:synthetic_models ~thresholds design ~pi:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "driven net rejected" true
    (try
       ignore
         (Verify.analyze ~models:synthetic_models ~thresholds design
            ~pi:[ ev "n1" 0. 300e-12 ]);
       false
     with Invalid_argument _ -> true);
  (* unknown nets are inert, like Sta *)
  let v =
    Verify.analyze ~models:synthetic_models ~thresholds design
      ~pi:[ ev "nope" 0. 300e-12 ]
  in
  Alcotest.(check int) "nothing switches" 0
    (Verify.summary v).Verify.switching_cells;
  Alcotest.(check bool) "negative window rejected" true
    (try
       ignore (ev ~w:(-1e-12) "a" 0. 300e-12);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "verify"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "operations" `Quick test_interval_ops;
          Alcotest.test_case "containment random" `Quick
            test_interval_containment_qcheck;
          Alcotest.test_case "edge cases" `Quick test_interval_edge_cases;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "proximity degenerate" `Quick
            test_exact_proximity;
          Alcotest.test_case "classic degenerate" `Quick test_exact_classic;
        ] );
      ( "soundness",
        [ Alcotest.test_case "randomized" `Slow test_soundness_random ] );
      ( "classification",
        [ Alcotest.test_case "never/always/may" `Quick test_classification ] );
      ( "diagnostics",
        [
          Alcotest.test_case "PX301 PX304" `Quick test_px301_px304;
          Alcotest.test_case "PX302 PX303" `Quick test_px302_px303;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "bit-identical" `Quick test_prune_bit_identical;
          Alcotest.test_case "bit-identical random" `Slow
            test_prune_bit_identical_random;
        ] );
      ( "validation",
        [ Alcotest.test_case "inputs" `Quick test_analyze_validation ] );
    ]

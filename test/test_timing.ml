(* Tests for the timing-graph IR: generic graph algorithms, the
   annotated propagation engine with its incremental (ECO) update, the
   K-worst path enumeration, and the randomized update-equals-analyze
   equivalence property the Sta layer advertises, checked by the
   harness's ECO-batch oracle. *)

module Prng = Proxim_util.Prng
module Pool = Proxim_util.Pool
module Memo_cache = Proxim_util.Memo_cache
module Graph = Proxim_timing.Graph
module Timing = Proxim_timing.Timing
module Reference = Proxim_timing.Reference
module Paths = Proxim_timing.Paths
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Harness = Proxim_harness.Harness

(* ------------------------------------------------------------------ *)
(* Generic digraph algorithms                                          *)

let test_cycles () =
  (* 0 -> 1 -> 2 -> 0 plus an acyclic tail 3 -> 4 *)
  let succ = function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 0 ] | 3 -> [ 4 ] | _ -> [] in
  (match Graph.cycles ~n:5 ~succ ~roots:[ 0; 3 ] with
  | [ (entry, members) ] ->
    Alcotest.(check int) "entry" 0 entry;
    Alcotest.(check (list int)) "members" [ 0; 1; 2 ] members
  | l -> Alcotest.failf "expected one cycle, got %d" (List.length l));
  (* self-loop *)
  (match Graph.cycles ~n:1 ~succ:(fun _ -> [ 0 ]) ~roots:[ 0 ] with
  | [ (0, [ 0 ]) ] -> ()
  | _ -> Alcotest.fail "self-loop should report (0, [0])");
  (* acyclic *)
  Alcotest.(check int) "acyclic" 0
    (List.length (Graph.cycles ~n:3 ~succ:(function 0 -> [ 1; 2 ] | _ -> []) ~roots:[ 0 ]))

let test_reachable () =
  let succ = function 0 -> [ 1 ] | 1 -> [ 2 ] | 3 -> [ 4 ] | _ -> [] in
  let r = Graph.reachable ~n:6 ~succ ~roots:[ 0 ] in
  Alcotest.(check (list bool)) "from 0"
    [ true; true; true; false; false; false ]
    (Array.to_list r)

(* ------------------------------------------------------------------ *)
(* Arena construction                                                  *)

let spec name inputs output =
  { Graph.spec_name = name; spec_payload = (); spec_inputs = inputs; spec_output = output }

let test_build_arena () =
  let g =
    Graph.build
      ~cells:[ spec "u1" [| "a"; "b" |] "n1"; spec "u2" [| "n1"; "c" |] "y" ]
      ~primary_inputs:[ "a"; "b"; "c" ] ~primary_outputs:[ "y" ]
  in
  Alcotest.(check int) "nets" 5 (Graph.net_count g);
  Alcotest.(check int) "cells" 2 (Graph.cell_count g);
  let u1 = Option.get (Graph.cell_id g "u1") in
  let u2 = Option.get (Graph.cell_id g "u2") in
  let n1 = Option.get (Graph.net_id g "n1") in
  let a = Option.get (Graph.net_id g "a") in
  Alcotest.(check int) "levels" 2 (Graph.level_count g);
  Alcotest.(check int) "u1 level" 0 (Graph.cell_level g u1);
  Alcotest.(check int) "u2 level" 1 (Graph.cell_level g u2);
  Alcotest.(check bool) "driver n1" true (Graph.driver g ~net:n1 = Some u1);
  Alcotest.(check bool) "driver a" true (Graph.driver g ~net:a = None);
  (match Graph.readers g ~net:n1 with
  | [| (c, pin) |] ->
    Alcotest.(check int) "reader cell" u2 c;
    Alcotest.(check int) "reader pin" 0 pin
  | _ -> Alcotest.fail "n1 should have one reader");
  let topo = Graph.topological g in
  Alcotest.(check bool) "u1 before u2" true
    (topo.(0) = u1 && topo.(1) = u2);
  (* fanout cone of net a covers both cells; cone of cell u2 only u2 *)
  let cone_a = Graph.fanout_cone g ~nets:[ a ] ~cells:[] in
  Alcotest.(check (list bool)) "cone of a" [ true; true ]
    (Array.to_list cone_a);
  let cone_u2 = Graph.fanout_cone g ~nets:[] ~cells:[ u2 ] in
  Alcotest.(check bool) "cone of u2" true
    (cone_u2.(u2) && not cone_u2.(u1))

let test_build_cycle_raises () =
  Alcotest.(check bool) "cycle raises" true
    (try
       ignore
         (Graph.build
            ~cells:[ spec "u1" [| "a"; "y" |] "x"; spec "u2" [| "x" |] "y" ]
            ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]);
       false
     with Graph.Cycle { through = _ } -> true)

(* ------------------------------------------------------------------ *)
(* Toy propagation engine: delay per arc depends only on the pin, so
   expected arrivals are exact by hand                                 *)

let toy_engine ~pin_delay (cur : Timing.cursor) _id () =
  let resp k = cur.Timing.times.(k) +. pin_delay cur.Timing.pins.(k) in
  let w = ref 0 in
  for k = 0 to cur.Timing.count - 1 do
    cur.Timing.would.(k) <- resp k;
    if resp k > resp !w then w := k
  done;
  cur.Timing.result.(0) <- resp !w;
  cur.Timing.result.(1) <- 1e-10;
  cur.Timing.out_edge <- Measure.Rise;
  cur.Timing.winner <- cur.Timing.pins.(!w)

let chain_graph () =
  Graph.build
    ~cells:
      [ spec "c1" [| "a" |] "x1"; spec "c2" [| "x1" |] "x2";
        spec "c3" [| "x2" |] "x3" ]
    ~primary_inputs:[ "a" ] ~primary_outputs:[ "x3" ]

let arr t = { Timing.time = t; slew = 1e-10; edge = Measure.Fall }

let test_analyze_chain () =
  let g = chain_graph () in
  let t = Timing.create g ~engine:(toy_engine ~pin_delay:(fun p -> 1e-10 *. float_of_int (p + 1))) in
  let a = Option.get (Graph.net_id g "a") in
  Timing.set_source t ~net:a (Some (arr 1e-10));
  let st = Timing.analyze t in
  Alcotest.(check int) "evaluated" 3 st.Timing.evaluated;
  Alcotest.(check int) "total" 3 st.Timing.total_cells;
  let x3 = Option.get (Graph.net_id g "x3") in
  (match Timing.arrival t ~net:x3 with
  | Some a3 -> Alcotest.(check (float 1e-15)) "x3 time" 4e-10 a3.Timing.time
  | None -> Alcotest.fail "x3 quiet");
  (* predecessor chain walks back through the winners *)
  match Timing.predecessor t ~net:x3 with
  | Some (pred, 0) ->
    Alcotest.(check string) "pred of x3" "x2" (Graph.net_name g pred)
  | _ -> Alcotest.fail "x3 should have a predecessor"

let test_early_cutoff () =
  let g = chain_graph () in
  let t = Timing.create g ~engine:(toy_engine ~pin_delay:(fun _ -> 1e-10)) in
  let a = Option.get (Graph.net_id g "a") in
  Timing.set_source t ~net:a (Some (arr 1e-10));
  ignore (Timing.analyze t);
  (* re-setting the identical event re-evaluates only the direct reader *)
  Timing.set_source t ~net:a (Some (arr 1e-10));
  let st = Timing.update t ~dirty_nets:[ a ] ~dirty_cells:[] in
  Alcotest.(check int) "cutoff evaluated" 1 st.Timing.evaluated;
  Alcotest.(check int) "cutoff changed" 0 st.Timing.changed;
  (* a real change walks the whole chain *)
  Timing.set_source t ~net:a (Some (arr 2e-10));
  let st = Timing.update t ~dirty_nets:[ a ] ~dirty_cells:[] in
  Alcotest.(check int) "full cone evaluated" 3 st.Timing.evaluated;
  Alcotest.(check int) "full cone changed" 3 st.Timing.changed

(* ------------------------------------------------------------------ *)
(* K-worst enumeration on a diamond with tied arrivals                 *)

let diamond_graph () =
  Graph.build
    ~cells:
      [ spec "c1" [| "a" |] "n1"; spec "c2" [| "a" |] "n2";
        spec "c3" [| "n1"; "n2" |] "y" ]
    ~primary_inputs:[ "a" ] ~primary_outputs:[ "y" ]

let test_k_worst_ties () =
  let g = diamond_graph () in
  let t = Timing.create g ~engine:(toy_engine ~pin_delay:(fun _ -> 1e-10)) in
  let a = Option.get (Graph.net_id g "a") in
  Timing.set_source t ~net:a (Some (arr 0.));
  ignore (Timing.analyze t);
  let y = Option.get (Graph.net_id g "y") in
  let paths = Paths.k_worst t ~po:y ~k:4 in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  (match paths with
  | [ p1; p2 ] ->
    (* both routes arrive at the same instant; rank 1 is the winner
       chain (pin 0, via n1), the tie is broken deterministically *)
    Alcotest.(check bool) "tied arrivals" true
      (Int64.equal
         (Int64.bits_of_float p1.Paths.p_arrival)
         (Int64.bits_of_float p2.Paths.p_arrival));
    Alcotest.(check (list string)) "winner chain first" [ "y"; "n1"; "a" ]
      (Paths.nets_of_path g p1);
    Alcotest.(check (list string)) "alternative second" [ "y"; "n2"; "a" ]
      (Paths.nets_of_path g p2)
  | _ -> Alcotest.fail "expected two paths");
  (* deterministic: a second enumeration is structurally identical *)
  Alcotest.(check bool) "repeatable" true (Paths.k_worst t ~po:y ~k:4 = paths);
  Alcotest.(check bool) "k < 1 rejected" true
    (try
       ignore (Paths.k_worst t ~po:y ~k:0);
       false
     with Invalid_argument _ -> true)

let test_k_worst_overask () =
  (* K far beyond the distinct path count returns every path once *)
  let g = diamond_graph () in
  let t = Timing.create g ~engine:(toy_engine ~pin_delay:(fun _ -> 1e-10)) in
  let a = Option.get (Graph.net_id g "a") in
  Timing.set_source t ~net:a (Some (arr 0.));
  ignore (Timing.analyze t);
  let y = Option.get (Graph.net_id g "y") in
  let paths = Paths.k_worst t ~po:y ~k:50 in
  Alcotest.(check int) "still two paths" 2 (List.length paths);
  Alcotest.(check bool) "same list as k=2" true
    (paths = Paths.k_worst t ~po:y ~k:2)

let test_k_worst_po_is_pi () =
  (* a primary-input endpoint degenerates to a singleton source path *)
  let g = chain_graph () in
  let t = Timing.create g ~engine:(toy_engine ~pin_delay:(fun _ -> 1e-10)) in
  let a = Option.get (Graph.net_id g "a") in
  Timing.set_source t ~net:a (Some (arr 2.5e-10));
  ignore (Timing.analyze t);
  (match Paths.k_worst t ~po:a ~k:5 with
  | [ p ] ->
    Alcotest.(check (float 0.)) "arrival = source time" 2.5e-10
      p.Paths.p_arrival;
    (match p.Paths.p_steps with
    | [ s ] ->
      Alcotest.(check int) "net" a s.Paths.net;
      Alcotest.(check int) "source step pin" (-1) s.Paths.via_pin
    | _ -> Alcotest.fail "expected a single source step");
    Alcotest.(check (list string)) "singleton net chain" [ "a" ]
      (Paths.nets_of_path g p)
  | ps ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one path, got %d" (List.length ps)));
  (* a quiet primary input has no paths at all *)
  let t2 = Timing.create g ~engine:(toy_engine ~pin_delay:(fun _ -> 1e-10)) in
  Alcotest.(check int) "quiet source: no paths" 0
    (List.length (Paths.k_worst t2 ~po:a ~k:3))

(* ------------------------------------------------------------------ *)
(* Sta-level: synthetic models over real gates                         *)

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let nor2 = Gate.nor tech ~fan_in:2
let inv = Gate.inverter tech
let thresholds = lazy (Vtc.thresholds ~points:201 nand2)

let cell name gate inputs output =
  { Design.name; gate; input_nets = inputs; output_net = output }

(* reconvergent fanout: n1 splits into two inverter branches that rejoin *)
let reconvergent () =
  Design.create
    ~cells:
      [
        cell "u1" nand2 [| "a"; "b" |] "n1";
        cell "u2" inv [| "n1" |] "n2";
        cell "u3" inv [| "n1" |] "n3";
        cell "u4" nand2 [| "n2"; "n3" |] "y";
      ]
    ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y" ]

let ev ?(slew = 2e-10) t = { Sta.time = t; slew; edge = Measure.Fall }

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_worst_paths_reconvergent () =
  let d = reconvergent () in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  List.iter
    (fun mode ->
      let ir =
        Sta.build_ir ~mode ~models ~thresholds:th d
          ~pi:[ ("a", ev 0.); ("b", ev 30e-12) ]
      in
      ignore (Sta.reanalyze ir);
      let report = Sta.report ir in
      let paths = Sta.worst_paths ir ~po:"y" ~k:8 in
      (* both reconvergent branches appear as distinct full-depth paths *)
      Alcotest.(check bool) "at least 2 paths" true (List.length paths >= 2);
      let nets = List.map (fun p -> p.Sta.path_nets) paths in
      Alcotest.(check bool) "via n2" true
        (List.exists (fun ns -> List.mem "n2" ns) nets);
      Alcotest.(check bool) "via n3" true
        (List.exists (fun ns -> List.mem "n3" ns) nets);
      (* rank 1 reproduces the reported arrival and the critical chain *)
      (match (paths, report.Sta.critical_po) with
      | top :: _, Some (po, a) ->
        Alcotest.(check string) "po" "y" po;
        Alcotest.(check bool) "top arrival exact" true
          (bits_eq top.Sta.path_arrival a.Sta.time);
        Alcotest.(check (list string)) "top is critical path"
          (Sta.critical_path report ~po:"y")
          top.Sta.path_nets
      | _ -> Alcotest.fail "missing paths or critical po");
      Alcotest.(check (list string)) "unknown po" []
        (List.concat_map (fun p -> p.Sta.path_nets)
           (Sta.worst_paths ir ~po:"nope" ~k:2)))
    [ Sta.Classic; Sta.Proximity ]

let test_negative_slack () =
  let d = reconvergent () in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let report =
    Sta.analyze ~mode:Sta.Classic ~models ~thresholds:th d
      ~pi:[ ("a", ev 0.); ("b", ev 10e-12) ]
  in
  match Sta.po_slacks d report ~required:0. with
  | [ ("y", slack) ] ->
    Alcotest.(check bool) "negative slack" true (slack < 0.);
    (match report.Sta.critical_po with
    | Some (_, a) ->
      Alcotest.(check (float 1e-18)) "slack = -arrival" (-.a.Sta.time) slack
    | None -> Alcotest.fail "no critical po")
  | _ -> Alcotest.fail "expected one po slack"

(* regression: a primary output that is itself a primary-input net must
   yield the singleton path, not [] *)
let test_pi_po_singleton () =
  let d =
    Design.create
      ~cells:[ cell "u1" inv [| "b" |] "y" ]
      ~primary_inputs:[ "a"; "b" ]
      ~primary_outputs:[ "a"; "y" ]
  in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let report =
    Sta.analyze ~models ~thresholds:th d
      ~pi:[ ("a", ev 500e-12); ("b", ev 0.) ]
  in
  Alcotest.(check (list string)) "pad-through po" [ "a" ]
    (Sta.critical_path report ~po:"a");
  Alcotest.(check int) "both pos have slacks" 2
    (List.length (Sta.po_slacks d report ~required:1e-9))

let test_update_rejects_unknown () =
  let d = reconvergent () in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let ir = Sta.build_ir ~models ~thresholds:th d ~pi:[ ("a", ev 0.) ] in
  ignore (Sta.reanalyze ir);
  (* every bad target is the typed CLI-reportable error, a cell-driven
     net included: the design has no primary input of that name *)
  let rejects_unknown eco =
    try
      ignore (Sta.update ir [ eco ]);
      false
    with Sta.Unknown_eco_target _ -> true
  in
  Alcotest.(check bool) "unknown net" true
    (rejects_unknown (Sta.Set_pi ("ghost", Some (ev 0.))));
  Alcotest.(check bool) "driven net" true
    (rejects_unknown (Sta.Set_pi ("n1", Some (ev 0.))));
  Alcotest.(check bool) "unknown cell" true
    (rejects_unknown (Sta.Touch_cell "ghost"))

(* A batch with one bad target raises before any edit applies.  Two
   disjoint cones, so a later batch on [b] never revisits [a]'s reader:
   an edit to [a] left behind would show as a stale [y1] *)
let test_rejected_batch_changes_nothing () =
  let d =
    Design.create
      ~cells:[ cell "u1" inv [| "a" |] "y1"; cell "u2" inv [| "b" |] "y2" ]
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "y1"; "y2" ]
  in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let analyzed pi =
    let ir = Sta.build_ir ~models ~thresholds:th d ~pi in
    ignore (Sta.reanalyze ir);
    ir
  in
  let pi = [ ("a", ev 0.); ("b", ev 30e-12) ] in
  let ir = analyzed pi in
  let before = Sta.report ir in
  let agrees what =
    Alcotest.(check bool) (what ^ ": the arena agrees with Reference") true
      (Reference.agrees (Sta.timing ir))
  in
  List.iter
    (fun (what, bad) ->
      (match Sta.update ir [ Sta.Set_pi ("a", Some (ev 200e-12)); bad ] with
      | _ -> Alcotest.failf "%s: the batch was accepted" what
      | exception Sta.Unknown_eco_target _ -> ());
      Alcotest.(check bool) (what ^ ": the report is the pre-batch one") true
        (Sta.report_equal before (Sta.report ir));
      agrees what)
    [
      ("unknown net", Sta.Set_pi ("zz", Some (ev 0.)));
      ("driven net", Sta.Set_pi ("y2", None));
      ("unknown cell", Sta.Touch_cell "zz");
    ];
  let valid = [ Sta.Set_pi ("b", Some (ev 90e-12)) ] in
  ignore (Sta.update ir valid);
  Alcotest.(check bool) "a later batch equals a fresh analysis" true
    (Sta.report_equal (Sta.report ir)
       (Sta.report (analyzed (Sta.apply_ecos pi valid))));
  agrees "a later batch"

(* a net the stimulus names twice: the last entry is the event, so an
   edit must replace both, or the fresh analysis --verify-eco compares
   against (and the ECO hull rule) would keep the stale one *)
let test_apply_ecos_duplicates () =
  let pi = [ ("a", ev 0.); ("b", ev 10e-12); ("a", ev 50e-12) ] in
  let moved = [ ("b", ev 10e-12); ("a", ev 500e-12) ] in
  Alcotest.(check bool) "moved" true
    (Sta.apply_ecos pi [ Sta.Set_pi ("a", Some (ev 500e-12)) ] = moved);
  Alcotest.(check bool) "silenced" true
    (Sta.apply_ecos pi [ Sta.Set_pi ("a", None) ] = [ ("b", ev 10e-12) ])

let test_factory_cache_stats () =
  let d = reconvergent () in
  let th = Lazy.force thresholds in
  let { Sta.models; factory_stats } = Sta.synthetic_factory () in
  let pi = [ ("a", ev 0.); ("b", ev 25e-12) ] in
  ignore (Sta.analyze ~models ~thresholds:th d ~pi);
  let s1 = factory_stats () in
  Alcotest.(check bool) "misses after first run" true
    (s1.Memo_cache.misses > 0 && s1.Memo_cache.entries > 0);
  ignore (Sta.analyze ~models ~thresholds:th d ~pi);
  let s2 = factory_stats () in
  Alcotest.(check bool) "second run hits" true
    (s2.Memo_cache.hits > s1.Memo_cache.hits);
  Alcotest.(check int) "no new misses" s1.Memo_cache.misses
    s2.Memo_cache.misses

(* ------------------------------------------------------------------ *)
(* Randomized equivalence: the harness's ECO-batch oracle over random
   layered designs checks, after every batch, update == fresh analysis
   and the arena against Timing.Reference                             *)

let random_design rng = Harness.layered_design rng ~gates:[| nand2; nor2 |]

let random_event rng =
  {
    Sta.time = Prng.float rng ~lo:0. ~hi:400e-12;
    slew = Prng.float rng ~lo:100e-12 ~hi:600e-12;
    edge = Measure.Fall;
  }

let test_equivalence mode seed () =
  let r =
    Harness.eco_batches (Prng.create seed) ~mode
      ~thresholds:(Lazy.force thresholds) ~sequences:100 ~batches:3
      ~design:(fun rng ->
        random_design rng
          ~depth:(Prng.int rng ~lo:2 ~hi:3)
          ~width:(Prng.int rng ~lo:3 ~hi:5))
  in
  Option.iter Alcotest.fail r.Harness.er_divergence;
  Alcotest.(check int) "batches checked" 300 r.Harness.er_batches

(* The collapse-to-inverter engines under the same oracle: each
   evaluation is a golden transient, so two small designs of three
   batches each *)
let test_collapsed_equivalence variant () =
  let r =
    Harness.eco_batches (Prng.create 0xC011A5EL)
      ~mode:(Sta.Collapsed variant) ~thresholds:(Lazy.force thresholds)
      ~sequences:2 ~batches:3 ~design:(fun rng ->
        random_design rng ~depth:2 ~width:3)
  in
  Option.iter Alcotest.fail r.Harness.er_divergence;
  Alcotest.(check int) "batches checked" 6 r.Harness.er_batches

(* An engine exception in the middle of an update: a batch that moves
   every primary input and flips one to rising gives its readers mixed
   input edges, so [Timing.update] raises after the cells timed before
   them committed, and [Sta.update] must roll the whole batch back
   before re-raising.  At 4 domains the first level (40 cells) runs
   chunked, and the raising chunk's siblings commit on the workers. *)
let test_update_failure domains () =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let rng = Prng.create 0xFA11L in
  let design =
    random_design rng ~depth:3 ~width:(Timing.parallel_threshold + 8)
  in
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let pi =
    List.map (fun p -> (p, random_event rng)) (Design.primary_inputs design)
  in
  let analyzed () =
    let ir = Sta.build_ir ~models ~thresholds:th design ~pi in
    ignore (Sta.reanalyze ~pool ir : Timing.stats);
    ir
  in
  let ir = analyzed () in
  let before = Sta.report ir in
  (* flip the input whose first reader comes last, so the cells before
     that reader are timed, and commit, before the failure *)
  let g = Design.graph design in
  let first_reader (net, _) =
    Array.fold_left
      (fun m (c, _) -> min m c)
      max_int
      (Graph.readers g ~net:(Option.get (Graph.net_id g net)))
  in
  let flipped, _ =
    List.fold_left
      (fun best e ->
        let r = first_reader e in
        if r < max_int && r > first_reader best then e else best)
      (List.find (fun e -> first_reader e < max_int) pi)
      pi
  in
  let ecos =
    List.map
      (fun (net, (a : Sta.arrival)) ->
        Sta.Set_pi
          ( net,
            Some
              (if net = flipped then { a with Sta.edge = Measure.Rise }
               else { a with Sta.time = a.Sta.time +. 50e-12 }) ))
      pi
  in
  (match Sta.update ~pool ir ecos with
  | _ -> Alcotest.fail "a batch giving cells mixed edges was accepted"
  | exception Sta.Mixed_input_edges _ -> ());
  Option.iter Alcotest.fail
    (Harness.report_diff ~design
       ("rolled back", Sta.report ir)
       ("before the batch", before));
  ignore
    (Sta.update ~pool ir (List.map (fun (n, a) -> Sta.Set_pi (n, Some a)) pi)
      : Timing.stats);
  Option.iter Alcotest.fail
    (Harness.report_diff ~design
       ("reverted", Sta.report ir)
       ("fresh", Sta.report (analyzed ())));
  Alcotest.(check bool) "the arena agrees with Timing.Reference" true
    (Reference.agrees (Sta.timing ir));
  (* and the worklist came out clean: the moves alone, applied now,
     reach every cell they reach from scratch *)
  let moves =
    List.filter
      (function Sta.Set_pi (n, _) -> n <> flipped | Sta.Touch_cell _ -> true)
      ecos
  in
  ignore (Sta.update ~pool ir moves : Timing.stats);
  let moved =
    Sta.build_ir ~models ~thresholds:th design ~pi:(Sta.apply_ecos pi moves)
  in
  ignore (Sta.reanalyze ~pool moved : Timing.stats);
  Option.iter Alcotest.fail
    (Harness.report_diff ~design
       ("updated", Sta.report ir)
       ("fresh", Sta.report moved))

(* Paths.k_worst merges only the PO's fan-in cone: for every PO of random
   designs it must agree bit-for-bit with the enumeration over a design
   that holds nothing but that cone *)
let test_k_worst_cone () =
  let th = Lazy.force thresholds in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let rng = Prng.create 0xC0E5L in
  let partial_cones = ref 0 in
  for trial = 1 to 30 do
    let design =
      random_design rng
        ~depth:(Prng.int rng ~lo:2 ~hi:4)
        ~width:(Prng.int rng ~lo:3 ~hi:6)
    in
    let pi =
      List.map (fun p -> (p, random_event rng)) (Design.primary_inputs design)
    in
    let analyzed d =
      let ir = Sta.build_ir ~models ~thresholds:th d ~pi in
      ignore (Sta.reanalyze ir);
      (Design.graph d, Sta.timing ir)
    in
    let g, full = analyzed design in
    let named gr (p : Paths.path) =
      List.map (fun s -> (Graph.net_name gr s.Paths.net, s.Paths.via_pin))
        p.Paths.p_steps
    in
    Array.iter
      (fun po ->
        let cone =
          Graph.fanin_cone g ~cells:(Option.to_list (Graph.driver g ~net:po))
        in
        let cells =
          List.filter
            (fun c -> cone.(Option.get (Graph.cell_id g c.Design.name)))
            (Design.cells design)
        in
        if List.length cells < Graph.cell_count g then incr partial_cones;
        let po_name = Graph.net_name g po in
        let cg, part =
          analyzed
            (Design.create ~cells
               ~primary_inputs:(Design.primary_inputs design)
               ~primary_outputs:[ po_name ])
        in
        let cpo = Option.get (Graph.net_id cg po_name) in
        for k = 1 to 4 do
          let want = Paths.k_worst full ~po ~k in
          let got = Paths.k_worst part ~po:cpo ~k in
          let same (a : Paths.path) (b : Paths.path) =
            bits_eq a.Paths.p_arrival b.Paths.p_arrival
            && named g a = named cg b
          in
          if
            not
              (List.length want = List.length got
              && List.for_all2 same want got)
          then
            Alcotest.failf "trial %d, po %s, k %d: cone paths differ" trial
              po_name k;
          (* both sides restrict alike, so also pin rank 1 to the
             reported arrival: a cone missing a cell breaks the chain *)
          match (want, Timing.arrival full ~net:po) with
          | [], None -> ()
          | top :: _, Some a when bits_eq top.Paths.p_arrival a.Timing.time
            -> ()
          | _ ->
            Alcotest.failf "trial %d, po %s, k %d: rank 1 is not the arrival"
              trial po_name k
        done)
      (Graph.primary_outputs g)
  done;
  Alcotest.(check bool) "some cones leave cells out" true (!partial_cones > 0)

let test_swap_models_equiv () =
  let d = reconvergent () in
  let th = Lazy.force thresholds in
  let pi = [ ("a", ev 0.); ("b", ev 40e-12) ] in
  let f0 = Sta.synthetic_factory () in
  let f1 = Sta.synthetic_factory ~seed:1 () in
  let ir = Sta.build_ir ~models:f0.Sta.models ~thresholds:th d ~pi in
  ignore (Sta.reanalyze ir);
  let st = Sta.swap_models ir f1.Sta.models in
  Alcotest.(check int) "swap touches every cell" 4 st.Timing.evaluated;
  let fresh = Sta.build_ir ~models:f1.Sta.models ~thresholds:th d ~pi in
  ignore (Sta.reanalyze fresh);
  Alcotest.(check bool) "swap equals fresh" true
    (Sta.report_equal (Sta.report ir) (Sta.report fresh))

let () =
  Alcotest.run "timing"
    [
      ( "graph",
        [
          Alcotest.test_case "cycles" `Quick test_cycles;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "arena" `Quick test_build_arena;
          Alcotest.test_case "cycle raises" `Quick test_build_cycle_raises;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "analyze chain" `Quick test_analyze_chain;
          Alcotest.test_case "early cutoff" `Quick test_early_cutoff;
          Alcotest.test_case "k-worst ties" `Quick test_k_worst_ties;
          Alcotest.test_case "k-worst overask" `Quick test_k_worst_overask;
          Alcotest.test_case "k-worst po is pi" `Quick test_k_worst_po_is_pi;
        ] );
      ( "sta",
        [
          Alcotest.test_case "worst paths reconvergent" `Slow
            test_worst_paths_reconvergent;
          Alcotest.test_case "negative slack" `Slow test_negative_slack;
          Alcotest.test_case "pi-po singleton" `Slow test_pi_po_singleton;
          Alcotest.test_case "update rejects unknown" `Slow
            test_update_rejects_unknown;
          Alcotest.test_case "rejected batch changes nothing" `Quick
            test_rejected_batch_changes_nothing;
          Alcotest.test_case "apply_ecos replaces every entry" `Quick
            test_apply_ecos_duplicates;
          Alcotest.test_case "factory cache stats" `Slow
            test_factory_cache_stats;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "classic 100 sequences" `Slow
            (test_equivalence Sta.Classic 0x5EED1L);
          Alcotest.test_case "proximity 100 sequences" `Slow
            (test_equivalence Sta.Proximity 0x5EED2L);
          Alcotest.test_case "swap models" `Slow test_swap_models_equiv;
          Alcotest.test_case "k-worst over the fan-in cone" `Slow
            test_k_worst_cone;
          Alcotest.test_case "collapsed jun 2 sequences" `Slow
            (test_collapsed_equivalence Proxim_baseline.Collapse.Jun);
          Alcotest.test_case "collapsed nabavi-lishi 2 sequences" `Slow
            (test_collapsed_equivalence Proxim_baseline.Collapse.Nabavi_lishi);
          Alcotest.test_case "engine failure mid-update, 1 domain" `Slow
            (test_update_failure 1);
          Alcotest.test_case "engine failure mid-update, 4 domains" `Slow
            (test_update_failure 4);
        ] );
    ]

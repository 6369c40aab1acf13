(* Tests for the million-cell scale path: the deterministic synthetic
   design generator, the binary netlist round-trip and its allocation
   per cell, and randomized
   bit-identity of the SoA propagation against the records-of-options
   reference oracle across full analyses and long ECO sequences (the
   harness's ECO-batch oracle). *)

module Prng = Proxim_util.Prng
module Graph = Proxim_timing.Graph
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Synthgen = Proxim_sta.Synthgen
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_bin = Proxim_sta.Netlist_bin
module Verify = Proxim_verify.Verify
module Hazard = Proxim_hazard.Hazard
module Harness = Proxim_harness.Harness

let tech = Tech.generic_5v

(* ------------------------------------------------------------------ *)
(* Synthgen structure                                                  *)

let test_synthgen_shape () =
  let name, design =
    Synthgen.generate ~seed:3 ~depth:7 ~tech ~cells:1000 ()
  in
  Alcotest.(check string) "name" "synth_c1000_d7_s3" name;
  Alcotest.(check int) "cells" 1000 (List.length (Design.cells design));
  let g = Design.graph design in
  Alcotest.(check int) "levels" 7 (Graph.level_count g);
  (* layer index is the timing level: every cell u<l>_<j> sits at level l *)
  for l = 0 to Graph.level_count g - 1 do
    Array.iter
      (fun c ->
        let cell : Design.cell = Graph.payload g c in
        let prefix = "u" ^ string_of_int l ^ "_" in
        if
          not
            (String.length cell.Design.name > String.length prefix
            && String.sub cell.Design.name 0 (String.length prefix) = prefix)
        then
          Alcotest.failf "cell %s found at level %d" cell.Design.name l)
      (Graph.level g l)
  done;
  (* primary outputs are exactly the last layer's nets *)
  List.iter
    (fun po ->
      let prefix = "n6_" in
      if not (String.sub po 0 (String.length prefix) = prefix) then
        Alcotest.failf "unexpected primary output %s" po)
    (Design.primary_outputs design);
  (* no cell reads the same net twice *)
  List.iter
    (fun (c : Design.cell) ->
      let sorted =
        List.sort_uniq String.compare (Array.to_list c.Design.input_nets)
      in
      Alcotest.(check int)
        ("distinct inputs of " ^ c.Design.name)
        (Array.length c.Design.input_nets)
        (List.length sorted))
    (Design.cells design)

let test_synthgen_determinism () =
  let gen () =
    let name, d = Synthgen.generate ~seed:11 ~depth:5 ~tech ~cells:500 () in
    Netlist_text.to_string ~name d
  in
  Alcotest.(check string) "same seed, same bytes" (gen ()) (gen ());
  let _, d2 = Synthgen.generate ~seed:12 ~depth:5 ~tech ~cells:500 () in
  let other = Netlist_text.to_string ~name:"x" d2 in
  if String.equal (gen ()) other then
    Alcotest.fail "different seeds produced identical designs"

let test_synthgen_validation () =
  let bad f = Alcotest.check_raises "rejects" (Invalid_argument f) in
  bad "Synthgen.generate: cells < depth" (fun () ->
      ignore (Synthgen.generate ~depth:10 ~tech ~cells:5 ()));
  bad "Synthgen.generate: depth < 1" (fun () ->
      ignore (Synthgen.generate ~depth:0 ~tech ~cells:5 ()))

(* ------------------------------------------------------------------ *)
(* Binary netlist round-trip                                           *)

let temp_bin f =
  let path = Filename.temp_file "proxim_test" ".pxb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_bin_roundtrip () =
  let name, design = Synthgen.generate ~seed:5 ~depth:4 ~tech ~cells:300 () in
  let th = { Vtc.vil = 1.9; vih = 3.1; vdd = 5. } in
  temp_bin (fun path ->
      Netlist_bin.write_file ~thresholds:th ~name design path;
      Alcotest.(check bool) "sniffs binary" true (Netlist_bin.file_is_binary path);
      match Netlist_bin.read_file tech path with
      | Error m -> Alcotest.fail m
      | Ok (name', design', th') ->
        Alcotest.(check string) "name" name name';
        Alcotest.(check string) "structure"
          (Netlist_text.to_string ~name design)
          (Netlist_text.to_string ~name design');
        (match th' with
         | None -> Alcotest.fail "thresholds lost"
         | Some t ->
           Alcotest.(check (float 0.)) "vil" th.Vtc.vil t.Vtc.vil;
           Alcotest.(check (float 0.)) "vih" th.Vtc.vih t.Vtc.vih;
           Alcotest.(check (float 0.)) "vdd" th.Vtc.vdd t.Vtc.vdd))

let test_bin_no_thresholds () =
  let name, design = Synthgen.generate ~seed:1 ~depth:3 ~tech ~cells:30 () in
  temp_bin (fun path ->
      Netlist_bin.write_file ~name design path;
      match Netlist_bin.read_file tech path with
      | Ok (_, _, None) -> ()
      | Ok (_, _, Some _) -> Alcotest.fail "phantom thresholds"
      | Error m -> Alcotest.fail m)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_bin_errors () =
  temp_bin (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOPE this is not a binary netlist";
      close_out oc;
      Alcotest.(check bool) "not binary" false (Netlist_bin.file_is_binary path);
      (match Netlist_bin.read_file tech path with
       | Error m ->
         Alcotest.(check bool) "mentions magic" true (contains m "magic")
       | Ok _ -> Alcotest.fail "accepted garbage"));
  (* truncation: drop the tail of a valid file *)
  let name, design = Synthgen.generate ~seed:2 ~depth:3 ~tech ~cells:30 () in
  temp_bin (fun path ->
      Netlist_bin.write_file ~name design path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full / 2));
      close_out oc;
      match Netlist_bin.read_file tech path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted truncated file")

(* The load's allocation, per cell, read as perfbench reads it: on an
   empty minor heap at both ends, where OCaml 5.1's [Gc.allocated_bytes]
   repeats exactly.  The string-table loader this replaced allocated
   ~1490 bytes per cell here (20k cells, depth 16, seed 1); the one-pass
   reader allocates ~610 (the file's bytes, the design and its graph). *)
let bytes_per_cell_bound = 1000.

let test_bin_alloc_bound () =
  let cells = 20_000 in
  let name, design = Synthgen.generate ~seed:1 ~tech ~cells () in
  temp_bin (fun path ->
      Netlist_bin.write_file ~name design path;
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let r = Netlist_bin.read_file tech path in
      Gc.minor ();
      let per_cell = (Gc.allocated_bytes () -. before) /. float_of_int cells in
      (match r with Ok _ -> () | Error m -> Alcotest.fail m);
      if per_cell > bytes_per_cell_bound then
        Alcotest.failf "loading allocated %.0f bytes per cell (bound %.0f)"
          per_cell bytes_per_cell_bound)

(* The static analyses' allocation per cell, measured as above.  With
   one event every other input is quiet, so both list the quiet inputs
   that reach a multi-input switching cell.  Testing each input's
   fanout cone over a fresh per-cell array allocated ~22 000 bytes per
   cell in each analysis here (20k cells, seed 1); one
   reverse-topological pass allocates ~430 (Verify) to ~460 (Hazard). *)
let analysis_bytes_per_cell_bound = 2000.

let one_event _design =
  [
    Verify.of_sta_event
      ("pi0", { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall });
  ]

(* every 4th input switching, edges alternating: opposing pairs form
   and many cells may glitch, so the hazard reports list the endpoints
   each glitch reaches.  A fresh per-cell cone array for each may-glitch
   cell and a scan of every primary output allocated ~75 000 bytes per
   cell here; one visited stamp shared by every cone walk allocates
   ~9 700 *)
let mixed_edges design =
  List.filteri (fun i _ -> i mod 4 = 0) (Design.primary_inputs design)
  |> List.mapi (fun k net ->
         Verify.of_sta_event
           ( net,
             {
               Sta.time = float_of_int (k mod 8) *. 50e-12;
               slew = 300e-12;
               edge = (if k mod 2 = 0 then Measure.Fall else Measure.Rise);
             } ))

let mixed_bytes_per_cell_bound = 20_000.

let test_static_alloc_bound ~stimulus ~bound analyze () =
  let cells = 20_000 in
  let _, design = Synthgen.generate ~seed:1 ~tech ~cells () in
  let models = (Sta.synthetic_factory ()).Sta.models in
  let thresholds = { Vtc.vil = 1.25; vih = 3.75; vdd = 5.0 } in
  let pi = stimulus design in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let unconstrained = analyze ~models ~thresholds design ~pi in
  Gc.minor ();
  let per_cell = (Gc.allocated_bytes () -. before) /. float_of_int cells in
  Alcotest.(check bool) "some quiet input reaches a switching cell" true
    (unconstrained <> []);
  if per_cell > bound then
    Alcotest.failf "the analysis allocated %.0f bytes per cell (bound %.0f)"
      per_cell bound

let verify_unconstrained ~models ~thresholds design ~pi =
  Verify.unconstrained_pis (Verify.analyze ~models ~thresholds design ~pi)

let hazard_unconstrained ~models ~thresholds design ~pi =
  Hazard.unconstrained_pis (Hazard.analyze ~models ~thresholds design ~pi)

(* ------------------------------------------------------------------ *)
(* SoA vs reference-oracle bit-identity on a generated design: the
   harness's ECO-batch oracle also checks update == fresh analysis and,
   in Proximity mode, the pruned state proxim sta would run            *)

let test_soa_matches_reference mode () =
  let _, design = Synthgen.generate ~seed:9 ~depth:8 ~tech ~cells:2000 () in
  let r =
    Harness.eco_batches (Prng.create 0x50AL) ~mode
      ~thresholds:{ Vtc.vil = 1.9; vih = 3.1; vdd = 5. }
      ~sequences:1 ~batches:100 ~design:(fun _ -> design)
  in
  Option.iter Alcotest.fail r.Harness.er_divergence;
  Alcotest.(check int) "batches checked" 100 r.Harness.er_batches;
  if mode = Sta.Proximity then
    Alcotest.(check bool) "the pruned checks took the fast path" true
      (r.Harness.er_fast_path > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scale"
    [
      ( "synthgen",
        [
          Alcotest.test_case "shape and levelization" `Quick
            test_synthgen_shape;
          Alcotest.test_case "seed determinism" `Quick
            test_synthgen_determinism;
          Alcotest.test_case "parameter validation" `Quick
            test_synthgen_validation;
        ] );
      ( "netlist_bin",
        [
          Alcotest.test_case "round-trip with thresholds" `Quick
            test_bin_roundtrip;
          Alcotest.test_case "round-trip without thresholds" `Quick
            test_bin_no_thresholds;
          Alcotest.test_case "corrupt and truncated input" `Quick
            test_bin_errors;
          Alcotest.test_case "load allocation per cell" `Quick
            test_bin_alloc_bound;
        ] );
      ( "static analyses",
        [
          Alcotest.test_case "verify allocation per cell" `Quick
            (test_static_alloc_bound ~stimulus:one_event
               ~bound:analysis_bytes_per_cell_bound verify_unconstrained);
          Alcotest.test_case "hazard allocation per cell" `Quick
            (test_static_alloc_bound ~stimulus:one_event
               ~bound:analysis_bytes_per_cell_bound hazard_unconstrained);
          Alcotest.test_case "hazard allocation per cell, mixed edges" `Quick
            (test_static_alloc_bound ~stimulus:mixed_edges
               ~bound:mixed_bytes_per_cell_bound hazard_unconstrained);
        ] );
      ( "soa-vs-reference",
        [
          Alcotest.test_case "classic: analyze + 100 ECOs" `Quick
            (test_soa_matches_reference Sta.Classic);
          Alcotest.test_case "proximity: analyze + 100 ECOs" `Quick
            (test_soa_matches_reference Sta.Proximity);
        ] );
    ]

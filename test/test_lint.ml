(* Tests for the lint subsystem: diagnostics core, netlist passes,
   model-quality passes and the JSON reporter. *)

module Tech = Proxim_gates.Tech
module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Single = Proxim_macromodel.Single
module Dual = Proxim_macromodel.Dual
module Store = Proxim_macromodel.Store
module Netlist_text = Proxim_sta.Netlist_text
module Diagnostic = Proxim_lint.Diagnostic
module Json = Proxim_util.Json
module Netlist_lint = Proxim_lint.Netlist_lint
module Model_lint = Proxim_lint.Model_lint

let tech = Tech.generic_5v
let codes_of diags = List.map (fun d -> d.Diagnostic.code) diags
let has code diags = List.mem code (codes_of diags)

let check_has diags code =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported" (Diagnostic.code_name code))
    true (has code diags)

let check_absent diags code =
  Alcotest.(check bool)
    (Printf.sprintf "%s absent" (Diagnostic.code_name code))
    false (has code diags)

(* --- diagnostics core ------------------------------------------------- *)

let test_code_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Diagnostic.code_name c ^ " round-trips")
        true
        (Diagnostic.code_of_name (Diagnostic.code_name c) = Some c);
      Alcotest.(check bool)
        (Diagnostic.code_name c ^ " documented")
        true
        (String.length (Diagnostic.code_doc c) > 0))
    Diagnostic.all_codes;
  Alcotest.(check bool) "unknown name" true
    (Diagnostic.code_of_name "PX999" = None)

let test_exit_codes () =
  let err = Diagnostic.make PX105 "e" in
  let warn = Diagnostic.make PX110 "w" in
  let info = Diagnostic.make ~severity:Diagnostic.Info PX208 "i" in
  Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
  Alcotest.(check int) "info only" 0 (Diagnostic.exit_code [ info ]);
  Alcotest.(check int) "warning" 1 (Diagnostic.exit_code [ warn; info ]);
  Alcotest.(check int) "error" 2 (Diagnostic.exit_code [ warn; err ]);
  Alcotest.(check int) "warning under fail-on error" 0
    (Diagnostic.exit_code ~fail_on:Diagnostic.Error [ warn ]);
  Alcotest.(check int) "error under fail-on error" 2
    (Diagnostic.exit_code ~fail_on:Diagnostic.Error [ err ])

(* --- netlist lints ----------------------------------------------------- *)

let lint ?options text = Netlist_lint.check_text ?options tech text

let test_clean_netlist () =
  let diags =
    lint
      {|design carry_tree
input a b c
output carry
thresholds 1.263 3.737 5.0
cell u1 nand2 a b -> n1
cell u2 nand2 a c -> n2
cell u3 nand2 b c -> n3
cell u5 nand3 n1 n2 n3 -> carry
end|}
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length diags)

let test_netlist_errors () =
  let diags =
    lint
      {|design broken
input a b
output y z
frobnicate
cell u1 nand2 a b -> n1
cell u1 inv a -> n1
cell u2 nand2 a -> n2
cell u3 inv n1 -> a
cell u4 inv ghost -> n3
cell u5 nand2 n5 n6 -> y
cell u6 inv n6 -> n5
cell u7 inv n5 -> n6
end|}
  in
  List.iter (check_has diags)
    [
      Diagnostic.PX100 (* frobnicate *);
      Diagnostic.PX101 (* duplicate u1 *);
      Diagnostic.PX102 (* u2 arity *);
      Diagnostic.PX103 (* n1 driven twice *);
      Diagnostic.PX104 (* u3 drives primary input a *);
      Diagnostic.PX105 (* ghost undriven *);
      Diagnostic.PX106 (* u6 <-> u7 cycle *);
      Diagnostic.PX107 (* z undriven *);
    ];
  let cycle =
    List.find (fun d -> d.Diagnostic.code = Diagnostic.PX106) diags
  in
  Alcotest.(check bool) "cycle path named" true
    (String.length cycle.Diagnostic.message > 0
    && String.index_opt cycle.Diagnostic.message '>' <> None)

let test_netlist_warnings () =
  let diags =
    lint
      ~options:{ Netlist_lint.fanout_limit = 1 }
      {|design warnings
input a b
output y
cell u1 inv a -> n1
cell u2 inv a -> y
cell u3 inv zero -> n3
cell u4 inv n3 -> y2
end|}
  in
  List.iter (check_has diags)
    [
      Diagnostic.PX110 (* n1 unused *);
      Diagnostic.PX111 (* b unread *);
      Diagnostic.PX112 (* a fans out to 2 > 1 *);
    ]

let test_netlist_unreachable_output () =
  let diags =
    lint
      {|design unreachable
input a
output y
cell u1 inv a -> n1
cell u2 inv ghost -> y
end|}
  in
  check_has diags Diagnostic.PX113;
  check_has diags Diagnostic.PX105;
  check_has diags Diagnostic.PX110

let test_netlist_missing_design () =
  let diags = lint "input a\noutput y\ncell u1 inv a -> y\nend" in
  check_has diags Diagnostic.PX108

let test_parse_collects_all_errors () =
  (* satellite: the parser keeps scanning after a bad line *)
  let raw =
    Netlist_text.parse_raw tech
      "design d\nfrobnicate\ninput a\nalso bad\ncell u1 inv a -> y\nend"
  in
  Alcotest.(check int) "both bad lines collected" 2
    (List.length raw.Netlist_text.raw_errors);
  Alcotest.(check (list int)) "line numbers" [ 2; 4 ]
    (List.map
       (fun (e : Netlist_text.raw_error) -> e.err_line)
       raw.Netlist_text.raw_errors);
  Alcotest.(check int) "good cell still parsed" 1
    (List.length raw.Netlist_text.raw_cells)

(* --- threshold lints (paper §2) ---------------------------------------- *)

let mk_th vil vih vdd = { Vtc.vil; vih; vdd }

let mk_curve ?(subset = [ 0 ]) vil vih vm =
  { Vtc.subset; vin = [||]; vout = [||]; vil; vih; vm }

let test_threshold_ordering () =
  let diags = Model_lint.check_thresholds ~name:"t" (mk_th 3.1 1.9 5.0) in
  check_has diags Diagnostic.PX003

let test_threshold_static_guard () =
  (* ordered, but Vdd/2 falls outside the band: the static PX001 guard *)
  let diags = Model_lint.check_thresholds ~name:"t" (mk_th 3.0 4.0 5.0) in
  check_has diags Diagnostic.PX001;
  let ok = Model_lint.check_thresholds ~name:"t" (mk_th 1.3 3.7 5.0) in
  Alcotest.(check int) "sane set clean" 0 (List.length ok)

let test_threshold_family_rule () =
  let curves = [ mk_curve 1.0 3.9 2.4; mk_curve ~subset:[ 1 ] 1.4 4.2 2.7 ] in
  (* narrower than the family extremes on both sides: PX002 twice *)
  let diags =
    Model_lint.check_thresholds ~curves ~name:"t" (mk_th 1.2 4.0 5.0)
  in
  Alcotest.(check int) "both sides flagged" 2
    (List.length (List.filter (fun c -> c = Diagnostic.PX002) (codes_of diags)));
  (* the proper min-Vil / max-Vih choice is clean *)
  let ok = Model_lint.check_thresholds ~curves ~name:"t" (mk_th 1.0 4.2 5.0) in
  Alcotest.(check int) "family rule satisfied" 0 (List.length ok)

let test_threshold_per_curve_guard () =
  (* a curve whose Vm escapes the chosen band: the exact PX001 check *)
  let curves = [ mk_curve 1.0 4.0 2.5; mk_curve ~subset:[ 1 ] 1.0 4.0 4.5 ] in
  let diags =
    Model_lint.check_thresholds ~curves ~name:"t" (mk_th 1.0 4.0 5.0)
  in
  check_has diags Diagnostic.PX001

let test_threshold_degenerate_curve () =
  let curves = [ mk_curve 2.5 2.5 2.5 ] in
  let diags =
    Model_lint.check_thresholds ~curves ~name:"t" (mk_th 1.0 4.0 5.0)
  in
  check_has diags Diagnostic.PX004

let test_seeded_negative_delay () =
  (* §2 end to end: measure an inverter against a threshold set whose
     band sits above the true switching threshold.  The measured delay
     goes negative, and the lint flags the set before any measurement. *)
  let inv = Gate.inverter tech in
  let c = Vtc.curve ~points:201 inv ~subset:[ 0 ] in
  let bad = mk_th (c.Vtc.vm +. 0.8) (c.Vtc.vm +. 1.2) tech.Tech.vdd in
  let obs = Measure.single_input inv bad ~pin:0 ~edge:Measure.Rise ~tau:2e-9 in
  Alcotest.(check bool) "measured delay is negative" true
    (obs.Measure.delay < 0.);
  let diags = Model_lint.check_thresholds ~curves:[ c ] ~name:"inv" bad in
  check_has diags Diagnostic.PX001

(* --- characterized-table lints ----------------------------------------- *)

let single_text ?(pin = 0) ?(edge = "fall") rows =
  let b = Buffer.create 256 in
  Buffer.add_string b "single-v1\n";
  Buffer.add_string b (Printf.sprintf "pin %d\n" pin);
  Buffer.add_string b (Printf.sprintf "edge %s\n" edge);
  Buffer.add_string b "k 1\nvdd 1\nc_build 1e-10\nc_parasitic 0\n";
  Buffer.add_string b (Printf.sprintf "points %d\n" (List.length rows));
  List.iter
    (fun (x, d, tr) ->
      Buffer.add_string b (Printf.sprintf "%g %g %g\n" x d tr))
    rows;
  Buffer.contents b

(* a well-formed single with constant normalized delay [d] *)
let flat_single ?pin ?edge d =
  Single.load
    (single_text ?pin ?edge
       [ (-3., d, d); (-1., d, d); (1., d, d); (3., d, d) ])

let axis_line name vals =
  Printf.sprintf "%s %d %s" name (List.length vals)
    (String.concat " " (List.map (Printf.sprintf "%g") vals))

let grid_section name ~xs ~ys ~zs rows =
  String.concat "\n"
    (Printf.sprintf "grid %s" name
    :: axis_line "xs" xs :: axis_line "ys" ys :: axis_line "zs" zs
    :: rows)

let const_rows ~nxy ~nz v =
  List.init nxy (fun _ ->
    String.concat " " (List.init nz (fun _ -> Printf.sprintf "%g" v)))

let std_axes = ([ -3.; 0.; 3. ], [ -3.; 0.; 3. ], [ -2.; 0.; 0.8; 1.2 ])

let dual_text ?(dom = 0) ?(other = 1) ?(edge = "fall") ?(assist = true)
    ?(axes = std_axes) ?delay_rows ?trans_rows () =
  let xs, ys, zs = axes in
  let nxy = List.length xs * List.length ys and nz = List.length zs in
  let dft = const_rows ~nxy ~nz 1.0 in
  let delay_rows = Option.value ~default:dft delay_rows in
  let trans_rows = Option.value ~default:dft trans_rows in
  String.concat "\n"
    [
      "dual-v1";
      Printf.sprintf "dom %d" dom;
      Printf.sprintf "other %d" other;
      Printf.sprintf "edge %s" edge;
      Printf.sprintf "assist %b" assist;
      grid_section "delay" ~xs ~ys ~zs delay_rows;
      grid_section "trans" ~xs ~ys ~zs trans_rows;
      "";
    ]

let test_single_clean () =
  let diags = Model_lint.check_single ~name:"s" (flat_single 5.0) in
  Alcotest.(check int) "clean" 0 (List.length diags)

let test_single_nonpositive () =
  let s =
    Single.load
      (single_text [ (-3., 5., 5.); (-1., -0.5, 5.); (1., 5., 5.); (3., 5., 5.) ])
  in
  check_has (Model_lint.check_single ~name:"s" s) Diagnostic.PX202

let test_single_too_few_points () =
  let s = Single.load (single_text [ (-3., 5., 5.); (0., 5., 5.); (3., 5., 5.) ]) in
  check_has (Model_lint.check_single ~name:"s" s) Diagnostic.PX205

let test_single_narrow_span () =
  let s =
    Single.load
      (single_text [ (0., 5., 5.); (0.1, 5., 5.); (0.2, 5., 5.); (0.3, 5., 5.) ])
  in
  check_has (Model_lint.check_single ~name:"s" s) Diagnostic.PX205

let test_dual_clean () =
  let d = Dual.load (dual_text ()) in
  Alcotest.(check int) "clean" 0
    (List.length (Model_lint.check_dual ~name:"d" d))

let test_dual_non_finite_surface () =
  let rows =
    "nan 1 1 1" :: const_rows ~nxy:8 ~nz:4 1.0
  in
  let d = Dual.load (dual_text ~delay_rows:rows ()) in
  let diags = Model_lint.check_dual ~name:"d" d in
  check_has diags Diagnostic.PX201

let test_dual_non_monotone_axis () =
  (* seeded non-monotone separation axis: Dual.load accepts it, the
     lint must catch it before any query does *)
  let axes = ([ -3.; 0.; 3. ], [ -3.; 0.; 3. ], [ 0.; 2.; 1. ]) in
  let d = Dual.load (dual_text ~axes ()) in
  check_has (Model_lint.check_dual ~name:"d" d) Diagnostic.PX203

let test_dual_separation_coverage () =
  (* axis all on one side of simultaneity, and short of the window edge *)
  let axes = ([ -3.; 0.; 3. ], [ -3.; 0.; 3. ], [ 0.1; 0.3; 0.5 ]) in
  let d = Dual.load (dual_text ~axes ()) in
  let px205 =
    List.filter (fun c -> c = Diagnostic.PX205)
      (codes_of (Model_lint.check_dual ~name:"d" d))
  in
  Alcotest.(check bool) "both coverage gaps flagged" true
    (List.length px205 >= 2)

let test_dual_unsaturated () =
  let rows = const_rows ~nxy:9 ~nz:4 3.0 in
  let d = Dual.load (dual_text ~delay_rows:rows ()) in
  check_has (Model_lint.check_dual ~name:"d" d) Diagnostic.PX204

(* --- store lints -------------------------------------------------------- *)

let mk_set ?(singles = []) ?(duals = []) () =
  { Store.gate_name = "fake2"; vil = 0.2; vih = 0.8; vdd = 1.0; singles; duals }

let test_store_orphan_dual () =
  let set = mk_set ~duals:[ Dual.load (dual_text ()) ] () in
  let diags = Model_lint.check_store set in
  Alcotest.(check int) "both feet missing" 2
    (List.length (List.filter (fun c -> c = Diagnostic.PX207) (codes_of diags)))

let test_store_coverage () =
  let set = mk_set ~singles:[ flat_single ~edge:"fall" 5.0 ] () in
  let diags = Model_lint.check_store set in
  check_has diags Diagnostic.PX208;
  let infos =
    List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Info) diags
  in
  Alcotest.(check int) "coverage gaps are info" (List.length diags)
    (List.length infos)

let crossover_set reverse_value =
  (* pin a: Delta = 5 tau, pin b: Delta = 2 tau; at tau = 200 ps the
     crossover separation is 600 ps *)
  let sa = flat_single ~pin:0 5.0 in
  let sb = flat_single ~pin:1 2.0 in
  let d_ab = Dual.load (dual_text ~dom:0 ~other:1 ()) in
  let rows = const_rows ~nxy:9 ~nz:4 reverse_value in
  let d_ba =
    Dual.load (dual_text ~dom:1 ~other:0 ~delay_rows:rows ~trans_rows:rows ())
  in
  mk_set ~singles:[ sa; sb ] ~duals:[ d_ab; d_ba ] ()

let test_store_crossover_consistent () =
  check_absent (Model_lint.check_store (crossover_set 1.0)) Diagnostic.PX206

let test_store_crossover_inconsistent () =
  let diags = Model_lint.check_store (crossover_set 3.0) in
  check_has diags Diagnostic.PX206

(* --- JSON reporter ------------------------------------------------------ *)

let test_json_roundtrip_diag () =
  let full =
    Diagnostic.make ~severity:Diagnostic.Warning ~file:"a.ntl" ~line:3
      ~context:"n1" PX110 "unused net %s" "n1"
  in
  let bare = Diagnostic.make PX108 "missing design" in
  List.iter
    (fun d ->
      match Diagnostic.of_json (Diagnostic.to_json d) with
      | Ok d' -> Alcotest.(check bool) "field round-trip" true (d = d')
      | Error m -> Alcotest.fail m)
    [ full; bare ]

let test_json_report_valid () =
  let diags =
    [
      Diagnostic.make ~file:"a.ntl" ~line:3 ~context:"n1" PX105 "undriven";
      Diagnostic.make ~file:"a.ntl" ~line:9 PX110 "unused \"net\"";
    ]
  in
  let s = Diagnostic.report_json_string diags in
  match Json.of_string s with
  | Error m -> Alcotest.fail ("report is not valid JSON: " ^ m)
  | Ok j ->
    let items =
      Option.bind (Json.member "diagnostics" j) Json.to_list
      |> Option.value ~default:[]
    in
    let codes =
      List.filter_map
        (fun item ->
          Option.bind (Json.member "code" item) Json.to_string_value)
        items
    in
    Alcotest.(check (list string)) "codes survive the trip"
      [ "PX105"; "PX110" ] codes;
    let errors =
      Option.bind (Json.member "summary" j) (Json.member "errors")
      |> fun o -> Option.bind o Json.to_number
    in
    Alcotest.(check (option (float 0.))) "summary counts" (Some 1.) errors

(* nesting is bounded: the deepest accepted document parses, one level
   more is an error naming the limit, and a 16 MiB run of '[' (the
   largest frame the daemon reads) fails without one recursion — and
   its allocations — per byte *)
let test_json_depth_bound () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.of_string (nested Json.max_depth) with
   | Ok _ -> ()
   | Error m -> Alcotest.fail ("deepest accepted document: " ^ m));
  let limit = Printf.sprintf "deeper than %d levels" Json.max_depth in
  let expect_limit ctx s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "%s parsed" ctx
    | Error m ->
      let n = String.length limit and k = String.length m in
      let rec names i =
        i + n <= k && (String.sub m i n = limit || names (i + 1))
      in
      if not (names 0) then
        Alcotest.failf "%s: %S does not name the limit" ctx m
  in
  expect_limit "one level deeper" (nested (Json.max_depth + 1));
  let bomb = String.make (16 * 1024 * 1024) '[' in
  let before = Gc.quick_stat () in
  expect_limit "16 MiB of '['" bomb;
  let after = Gc.quick_stat () in
  let words =
    after.Gc.minor_words -. before.Gc.minor_words
    +. (after.Gc.major_words -. before.Gc.major_words)
  in
  if words > 1e5 then
    Alcotest.failf "parser allocated %.0f words on a nesting bomb" words

(* --- SARIF reporter ----------------------------------------------------- *)

(* round-trip the SARIF report through the in-repo JSON parser: schema
   header, one rule per distinct code, ruleIndex consistency, severity ->
   level mapping, context folded into the message, physical locations *)
let test_sarif_report_roundtrip () =
  let diags =
    [
      Diagnostic.make ~file:"a.ntl" ~line:3 ~col:2 ~context:"n1" PX105
        "net %s is undriven" "n1";
      Diagnostic.make ~file:"a.ntl" ~line:9 PX110 "unused output";
      Diagnostic.make PX403 "near-miss hazard";
    ]
  in
  let s = Diagnostic.report_sarif_string diags in
  match Json.of_string s with
  | Error m -> Alcotest.fail ("SARIF report is not valid JSON: " ^ m)
  | Ok j ->
    Alcotest.(check (option string))
      "version" (Some "2.1.0")
      (Option.bind (Json.member "version" j) Json.to_string_value);
    Alcotest.(check (option string))
      "$schema" (Some "https://json.schemastore.org/sarif-2.1.0.json")
      (Option.bind (Json.member "$schema" j) Json.to_string_value);
    let run =
      match Option.bind (Json.member "runs" j) Json.to_list with
      | Some [ r ] -> r
      | _ -> Alcotest.fail "expected exactly one run"
    in
    let driver =
      Option.bind (Json.member "tool" run) (Json.member "driver")
    in
    Alcotest.(check (option string))
      "tool version" (Some "1.0.0")
      (Option.bind driver (fun d ->
           Option.bind (Json.member "version" d) Json.to_string_value));
    let rules =
      Option.bind driver (fun d ->
          Option.bind (Json.member "rules" d) Json.to_list)
      |> Option.value ~default:[]
    in
    let rule_ids =
      List.filter_map
        (fun r -> Option.bind (Json.member "id" r) Json.to_string_value)
        rules
    in
    Alcotest.(check (list string))
      "one rule per distinct code, table order"
      [ "PX105"; "PX110"; "PX403" ] rule_ids;
    let rule_levels =
      List.filter_map
        (fun r ->
          Option.bind (Json.member "defaultConfiguration" r) (fun c ->
              Option.bind (Json.member "level" c) Json.to_string_value))
        rules
    in
    Alcotest.(check (list string))
      "rule default levels" [ "error"; "warning"; "note" ] rule_levels;
    let results =
      Option.bind (Json.member "results" run) Json.to_list
      |> Option.value ~default:[]
    in
    Alcotest.(check int) "one result per diagnostic" 3 (List.length results);
    List.iter
      (fun r ->
        let rid =
          Option.bind (Json.member "ruleId" r) Json.to_string_value
        in
        let idx = Option.bind (Json.member "ruleIndex" r) Json.to_number in
        match (rid, idx) with
        | Some id, Some i ->
          Alcotest.(check (option string))
            "ruleIndex points at its rule" (Some id)
            (List.nth_opt rule_ids (int_of_float i))
        | _ -> Alcotest.fail "result missing ruleId or ruleIndex")
      results;
    let result_for code =
      match
        List.find_opt
          (fun r ->
            Option.bind (Json.member "ruleId" r) Json.to_string_value
            = Some code)
          results
      with
      | Some r -> r
      | None -> Alcotest.fail ("no result for " ^ code)
    in
    let message r =
      Option.bind (Json.member "message" r) (fun m ->
          Option.bind (Json.member "text" m) Json.to_string_value)
    in
    Alcotest.(check (option string))
      "context folded into the message"
      (Some "net n1 is undriven [n1]")
      (message (result_for "PX105"));
    Alcotest.(check (option string))
      "severity -> level" (Some "note")
      (Option.bind (Json.member "level" (result_for "PX403"))
         Json.to_string_value);
    let location r =
      match Option.bind (Json.member "locations" r) Json.to_list with
      | Some (o :: _) -> Json.member "physicalLocation" o
      | _ -> None
    in
    (match location (result_for "PX105") with
    | None -> Alcotest.fail "PX105 carries no physical location"
    | Some phys ->
      Alcotest.(check (option string))
        "artifact uri" (Some "a.ntl")
        (Option.bind (Json.member "artifactLocation" phys) (fun a ->
             Option.bind (Json.member "uri" a) Json.to_string_value));
      Alcotest.(check (option (float 0.)))
        "startLine" (Some 3.)
        (Option.bind (Json.member "region" phys) (fun rg ->
             Option.bind (Json.member "startLine" rg) Json.to_number));
      Alcotest.(check (option (float 0.)))
        "startColumn" (Some 2.)
        (Option.bind (Json.member "region" phys) (fun rg ->
             Option.bind (Json.member "startColumn" rg) Json.to_number)));
    Alcotest.(check bool) "bare diagnostic has no location" true
      (location (result_for "PX403") = None)

let () =
  Alcotest.run "lint"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "code names" `Quick test_code_names;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "clean" `Quick test_clean_netlist;
          Alcotest.test_case "errors" `Quick test_netlist_errors;
          Alcotest.test_case "warnings" `Quick test_netlist_warnings;
          Alcotest.test_case "unreachable output" `Quick
            test_netlist_unreachable_output;
          Alcotest.test_case "missing design" `Quick test_netlist_missing_design;
          Alcotest.test_case "collect-all parse" `Quick
            test_parse_collects_all_errors;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "ordering" `Quick test_threshold_ordering;
          Alcotest.test_case "static guard" `Quick test_threshold_static_guard;
          Alcotest.test_case "family rule" `Quick test_threshold_family_rule;
          Alcotest.test_case "per-curve guard" `Quick
            test_threshold_per_curve_guard;
          Alcotest.test_case "degenerate curve" `Quick
            test_threshold_degenerate_curve;
          Alcotest.test_case "seeded negative delay" `Quick
            test_seeded_negative_delay;
        ] );
      ( "tables",
        [
          Alcotest.test_case "single clean" `Quick test_single_clean;
          Alcotest.test_case "single non-positive" `Quick
            test_single_nonpositive;
          Alcotest.test_case "single too few points" `Quick
            test_single_too_few_points;
          Alcotest.test_case "single narrow span" `Quick
            test_single_narrow_span;
          Alcotest.test_case "dual clean" `Quick test_dual_clean;
          Alcotest.test_case "dual non-finite" `Quick
            test_dual_non_finite_surface;
          Alcotest.test_case "dual non-monotone axis" `Quick
            test_dual_non_monotone_axis;
          Alcotest.test_case "dual separation coverage" `Quick
            test_dual_separation_coverage;
          Alcotest.test_case "dual unsaturated" `Quick test_dual_unsaturated;
        ] );
      ( "store",
        [
          Alcotest.test_case "orphan dual" `Quick test_store_orphan_dual;
          Alcotest.test_case "coverage" `Quick test_store_coverage;
          Alcotest.test_case "crossover consistent" `Quick
            test_store_crossover_consistent;
          Alcotest.test_case "crossover inconsistent" `Quick
            test_store_crossover_inconsistent;
        ] );
      ( "json",
        [
          Alcotest.test_case "diagnostic round-trip" `Quick
            test_json_roundtrip_diag;
          Alcotest.test_case "report valid" `Quick test_json_report_valid;
          Alcotest.test_case "nesting bound" `Quick test_json_depth_bound;
          Alcotest.test_case "sarif roundtrip" `Quick
            test_sarif_report_roundtrip;
        ] );
    ]

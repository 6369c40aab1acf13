(* The malformed-event matrix at the CLI boundary: every subcommand
   that accepts EDGE:TAU:T event specs (positional events, --pi,
   --pi-all, --eco) routes them through one shared parser, so a
   malformed spec must produce the identical diagnostic and exit code 2
   on every subcommand — no more per-command drift between "bad numbers
   in event", "... in pi event" and "... in pi-all event", or between
   exit 1 and exit 2.  A seeded fuzzer then mutates valid argument
   vectors of every subcommand: none may escape as an uncaught
   exception. *)

open Testkit
module Prng = Proxim_util.Prng

let sf = Printf.sprintf

(* cells only ever combine nets of the same level, so uniform primary
   input edges never produce mixed edges at any cell (the gates invert) *)
let netlist =
  {|design cli_demo
input a b c d
output y
thresholds 1.263 3.737 5.0
cell u1 nand2 a b -> n1
cell u2 nand2 c d -> n2
cell u3 nand2 n1 n2 -> y
end
|}

let with_netlist f =
  let file = Filename.temp_file "proxim_cli" ".ntl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc netlist);
      f (Filename.quote file))

(* run a command line, returning (exit code, stdout, stderr) verbatim *)
let run_full args =
  let out = Filename.temp_file "proxim_cli" ".out" in
  let err = Filename.temp_file "proxim_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s >%s 2>%s" args (Filename.quote out)
             (Filename.quote err))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (code, read out, read err))

(* run a command line, returning (exit code, stderr) *)
let run_err fmt =
  Printf.ksprintf
    (fun args ->
      let code, _, err = run_full args in
      (code, String.trim err))
    fmt

(* each command line exits 2 with exactly its message on stderr *)
let check_usage_errors rows =
  List.iter
    (fun (args, msg) ->
      let code, err = run_err "%s %s" cli args in
      Alcotest.(check int) (args ^ " exits 2") 2 code;
      Alcotest.(check string) (args ^ " message") msg err)
    rows

(* every subcommand × way of smuggling in the same broken event spec *)
let matrix file =
  [
    ("proximity EVENT", Printf.sprintf "proximity nand2 a:%s");
    ("sta --pi", Printf.sprintf "sta %s --models synthetic --pi a:%s" file);
    ( "sta --eco",
      Printf.sprintf
        "sta %s --models synthetic --pi a:fall:400:0 --eco pi:a:%s" file );
    ("verify --pi", Printf.sprintf "verify %s --pi a:%s" file);
    ("hazards --pi", Printf.sprintf "hazards %s --pi a:%s" file);
    ("sense --pi", Printf.sprintf "sense %s --pi a:%s" file);
    ("profile --pi", Printf.sprintf "profile %s --pi a:%s" file);
  ]

let check_uniform ~ctx ~spec ~expect_msg file =
  let results =
    List.map
      (fun (name, cmd) ->
        let code, err = run_err "%s %s" cli (cmd spec) in
        (name, code, err))
      (matrix file)
  in
  List.iter
    (fun (name, code, err) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s exits 2" ctx name)
        2 code;
      Alcotest.(check string)
        (Printf.sprintf "%s: %s message" ctx name)
        expect_msg err)
    results

let test_bad_numbers_uniform () =
  with_netlist (fun file ->
      check_uniform ~ctx:"bad tau" ~spec:"fall:abc:0"
        ~expect_msg:"bad numbers in event a:fall:abc:0" file;
      check_uniform ~ctx:"bad time" ~spec:"fall:400:xyz"
        ~expect_msg:"bad numbers in event a:fall:400:xyz" file;
      (* numbers that parse but describe no transition *)
      check_uniform ~ctx:"nan tau" ~spec:"fall:nan:0"
        ~expect_msg:"bad numbers in event a:fall:nan:0" file;
      check_uniform ~ctx:"negative tau" ~spec:"fall:-500:0"
        ~expect_msg:"bad numbers in event a:fall:-500:0" file)

(* the same rule reaches --pi-all and the oracle path's zero slew, and
   every numeric flag checks its range before a library call sees it *)
let test_non_transition_numbers () =
  with_netlist (fun file ->
      let pi = sf "%s --models synthetic --pi a:fall:300:0" file in
      let tau = "proxim delay: --tau must be a finite value > 0"
      and load = "proxim delay: --load must be a finite value >= 0"
      and window = "bad window inf (expected PS or NET=PS, e.g. 25 or a=25)" in
      check_usage_errors
        [
          ( sf "sta %s --models synthetic --pi-all fall:500:inf" file,
            "bad numbers in event fall:500:inf" );
          (sf "sta %s --pi a:fall:0:0" file, "bad numbers in event a:fall:0:0");
          ( sf "sta %s --models synthetic --pi a:fall:400:0 --eco \
                pi:a:fall:nan:0" file,
            "bad numbers in event a:fall:nan:0" );
          ("delay nand2 --tau nan", tau);
          ("delay nand2 --tau 0", tau);
          ("delay nand2 --tau=-500", tau);
          ("delay nand2 --load=nan", load);
          ("delay nand2 --load=-5", load);
          ( "glitch nand2 --tau-fall nan",
            "proxim glitch: --tau-fall must be a finite value > 0" );
          ("glitch nand2 --sep inf", "proxim glitch: --sep must be finite");
          ("storage --fan-in 0", "proxim storage: --fan-in must be >= 1");
          ("storage --points=-3", "proxim storage: --points must be >= 1");
          ( sf "sta %s --required nan" pi,
            "proxim sta: --required must be finite" );
          ( sf "hazards %s --required nan" pi,
            "proxim hazards: --required must be finite" );
          ( sf "hazards %s --filter-margin nan" pi,
            "proxim hazards: --filter-margin must be a finite value >= 0" );
          (sf "verify %s --pi-window inf" pi, window);
          (sf "hazards %s --pi-window inf" pi, window);
        ])

let test_bad_edge_uniform () =
  with_netlist
    (check_uniform ~ctx:"bad edge" ~spec:"sideways:400:0"
       ~expect_msg:"unknown edge sideways (rise|fall)");
  check_usage_errors
    [
      ("delay nand2 --edge sideways", "unknown edge sideways (rise|fall)");
      (* an unknown gate or pin is the same kind of usage error *)
      ("delay nand2 --pin z", "unknown pin z (gate has 2 pins: a..b)");
      ( "vtc nand9",
        "unknown gate nand9 (expected inv, nandN or norN with N in 1..6, \
         aoi21, oai21)" );
    ]

(* shape errors keep their per-spec-kind wording (each names its own
   expected grammar) but still exit 2 everywhere *)
let test_wrong_shape_exits_2 () =
  with_netlist (fun file ->
      List.iter
        (fun (name, cmd) ->
          let code, err = run_err "%s %s" cli (cmd "fall:400") in
          Alcotest.(check int)
            (Printf.sprintf "shape: %s exits 2" name)
            2 code;
          Alcotest.(check bool)
            (Printf.sprintf "shape: %s says bad ...: %s" name err)
            true
            (String.length err > 0))
        (matrix file);
      (* --pi-all has its own 3-field shape; a 4-field spec is malformed *)
      let code, _ = run_err "%s sta %s --models synthetic --pi-all a:fall:400:0" cli file in
      Alcotest.(check int) "sta --pi-all shape exits 2" 2 code;
      let code, err = run_err "%s sta %s --models synthetic --pi-all fall:nan:oops" cli file in
      Alcotest.(check int) "sta --pi-all bad numbers exits 2" 2 code;
      Alcotest.(check string) "sta --pi-all same message"
        "bad numbers in event fall:nan:oops" err)

let test_missing_events_exit_2 () =
  with_netlist (fun file ->
      let code, _ = run_err "%s sta %s --models synthetic" cli file in
      Alcotest.(check int) "sta with no events" 2 code;
      let code, _ = run_err "%s proximity nand2" cli in
      Alcotest.(check int) "proximity with no events" 2 code;
      let code, _ = run_err "%s profile %s" cli file in
      Alcotest.(check int) "profile with no events" 2 code)

(* the well-formed path still works end to end after the refactor *)
let test_valid_events_accepted () =
  with_netlist (fun file ->
      let code, err =
        run_err
          "%s sta %s --models synthetic --pi a:fall:400:0 --pi b:fall:300:50"
          cli file
      in
      Alcotest.(check string) "no stderr" "" err;
      Alcotest.(check int) "sta accepts valid events" 0 code;
      let code, _ =
        run_err
          "%s sta %s --models synthetic --pi-all fall:400:0 --eco \
           pi:a:fall:350:20"
          cli file
      in
      Alcotest.(check int) "pi-all + eco accepted" 0 code)

(* ------------------------------------------------------------------ *)
(* Stimuli the analyses cannot take                                    *)

(* [cmds] all exit 2 with exactly [msg cmd] on stderr *)
let check_rejected ~ctx cmds msg =
  List.iter
    (fun (cmd, args) ->
      let code, err = run_err "%s %s %s" cli cmd args in
      Alcotest.(check int) (sf "%s: %s exits 2" ctx cmd) 2 code;
      Alcotest.(check string) (sf "%s: %s message" ctx cmd) (msg cmd) err)
    cmds

let ex f = "../examples/" ^ f
let carry = ex "carry_tree.ntl"

let not_a_pi flag net cmd =
  sf "proxim %s: error: %s names %s, which is not a primary input of the \
      design" cmd flag net

let test_unknown_pi_net () =
  let pi = sf "%s --pi a:fall:400:0 --pi zz:fall:400:0" carry in
  check_rejected ~ctx:"unknown --pi net"
    [
      ("sta", pi ^ " --models synthetic");
      ("verify", pi);
      ("hazards", pi);
      ("sense", pi);
      ("profile", pi ^ " --models synthetic");
    ]
    (not_a_pi "--pi" "zz");
  check_rejected ~ctx:"unknown --const net"
    [ ("sense", sf "%s --pi a:fall:400:0 --const zz=0" carry) ]
    (not_a_pi "--const" "zz")

let test_cell_driven_pi_net () =
  let pi = sf "%s --models synthetic --pi n1:fall:400:0" carry in
  check_rejected ~ctx:"cell-driven --pi net"
    [
      ("sta", pi);
      ("verify", pi);
      ("hazards", pi);
      ("profile", pi);
    ]
    (not_a_pi "--pi" "n1")

let test_negative_tau_window () =
  check_rejected ~ctx:"negative --tau-window"
    [
      ("verify", sf "%s --pi a:fall:400:0 --tau-window=-5" carry);
      ("hazards", sf "%s --pi a:fall:400:0 --tau-window=-5" carry);
    ]
    (fun cmd -> sf "proxim %s: --tau-window must be a finite value >= 0" cmd)

let test_mixed_edges () =
  let mixed =
    sf "%s --models synthetic --pi a:fall:500:0 --pi b:rise:500:0" carry
  in
  let flip =
    sf "%s --models synthetic --pi a:fall:500:0 --pi b:fall:500:0 --eco \
        pi:a:rise:300:0" carry
  in
  check_rejected ~ctx:"mixed edges"
    [
      ("sta", mixed);
      ("sta", flip);
      ("verify", mixed);
      ("profile", mixed);
    ]
    (fun cmd ->
      sf "proxim %s: error: mixed input edges at cell u1 (a single-vector \
          analysis cannot order a glitch)"
        cmd);
  (* the paper-level fold and glitch take one event per pin, and the
     fold one edge direction *)
  check_usage_errors
    [
      ( "proximity nand2 a:fall:500:0 b:rise:300:10",
        "proxim proximity: events mix rise and fall edges" );
      ( "proximity nand2 a:fall:500:0 a:fall:300:10",
        "proxim proximity: a pin takes at most one event" );
      ( "glitch nand2 --fall-pin a --rise-pin a",
        "proxim glitch: --fall-pin and --rise-pin must differ" );
    ]

(* stimuli outside the golden simulator's domain (a slew below 1 fs, an
   input ending past 10 us) and an output that never completes its
   transition: refused before any transient runs, on the paper-level
   commands and on sta's oracle models alike *)
let test_unsimulatable () =
  let floor cmd =
    sf "proxim %s: error: slew 1e-32 s is below the simulator's 1 fs floor"
      cmd
  and past cmd at =
    sf "proxim %s: error: an input ending at %s s runs past the simulator's \
        10 us bound" cmd at
  in
  check_usage_errors
    [
      ("delay nand2 --tau 1e-20", floor "delay");
      ("proximity nand2 a:fall:1e-20:0", floor "proximity");
      (sf "sta %s --pi a:fall:1e-20:0" carry, floor "sta");
      ( "delay nand2 --load=1e4",
        "proxim delay: error: output never crossed the delay threshold" );
      ("delay nand2 --tau 1e9", past "delay" "0.00170136");
      ("glitch nand2 --sep 1e9", past "glitch" "0.001");
      ("proximity nand2 a:fall:500:0 b:fall:300:1e9", past "proximity" "0.001");
      (sf "sta %s --pi a:fall:1e9:0" carry, past "sta" "0.0017474");
      ( sf "sta %s --pi a:rise:300:0 --pi b:rise:300:1e9 --pi c:rise:300:0"
          carry,
        past "sta" "0.001" );
    ]

(* the smoke client checks what it can before it connects *)
let test_smoke_checks_first () =
  let code, err =
    run_err "%s serve --connect unix:/nonexistent --smoke %s --pi \
             a:fall:400:0 --paths 0" cli carry
  in
  Alcotest.(check int) "--paths 0 exits 2" 2 code;
  Alcotest.(check string) "--paths message"
    "proxim serve: --paths must be >= 1" err;
  let code, _ =
    run_err "%s serve --connect unix:/nonexistent --smoke %s --pi a:fall:nan:0"
      cli carry
  in
  Alcotest.(check int) "bad spec exits 2" 2 code

(* ------------------------------------------------------------------ *)
(* Golden transcripts                                                  *)

(* Exit code, stdout and stderr of representative runs, byte for byte,
   committed under golden/.  Any change to what a valid invocation prints
   or to how an error path answers shows up as a diff here.  With
   PROXIM_GOLDEN_UPDATE set to an absolute directory, each transcript is
   written there instead of compared:
     PROXIM_GOLDEN_UPDATE=$PWD/test/golden \
       dune build @test/runtest-test_cli --force *)

let carry_pi = "--pi a:fall:300:0 --pi b:fall:250:40 --pi c:fall:280:15"
let sep_pi = "--pi a:fall:500:0 --pi b:fall:450:400 --pi c:fall:300:900"
let verify_demo = ex "verify_demo.ntl"
let verify_pi = "--pi a:fall:400:0 --pi b:fall:300:20"
let hazard_demo = ex "hazard_demo.ntl"

let hazard_pi =
  "--pi a:fall:400:500 --pi b:rise:300:0 --pi c:fall:400:100 --pi \
   e:rise:300:0"

let sense_demo = ex "sense_demo.ntl"

let sense_pi =
  "--pi a:rise:300:0 --pi r:rise:200:0 --pi r:fall:200:400 --const k=0"

let missing = ex "no_such_design.ntl"

let golden_cases =
  [
    ( "sta_eco",
      sf
        "sta %s --domains 1 --models synthetic %s --paths 3 --required 900 \
         --eco pi:a:fall:200:10 --eco cell:u2 --verify-eco"
        carry carry_pi );
    ( "sta_classic",
      sf "sta %s --domains 1 --models synthetic %s --mode classic" carry
        sep_pi );
    ( "sta_pi_all",
      sf "sta %s --domains 1 --models synthetic --summary --pi-all fall:300:0"
        carry );
    ("sta_oracle", sf "sta %s --domains 1 %s" carry carry_pi);
    ( "sta_oracle_eco",
      sf
        "sta %s --domains 1 %s --paths 3 --eco pi:a:fall:200:10 --eco cell:u2 \
         --verify-eco"
        carry carry_pi );
    ( "verify_text",
      sf "verify %s --domains 1 %s --pi-window 30" verify_demo verify_pi );
    ( "verify_json",
      sf "verify %s --domains 1 %s --pi-window 30 --format json" verify_demo
        verify_pi );
    ( "verify_sense",
      sf "verify %s --domains 1 %s --pi-window 30 --sense" verify_demo
        verify_pi );
    ( "hazards_sense",
      sf "hazards %s --domains 1 %s --sense" hazard_demo hazard_pi );
    ( "hazards_sarif",
      sf "hazards %s --domains 1 %s --format sarif" hazard_demo hazard_pi );
    ( "hazards_oracle",
      sf "hazards %s --domains 1 %s --models oracle" hazard_demo hazard_pi );
    ("sense_text", sf "sense %s --domains 1 %s" sense_demo sense_pi);
    ( "sense_json",
      sf "sense %s --domains 1 %s --format json" sense_demo sense_pi );
    ("lint_json", sf "lint --format json %s" (ex "lint_demo.ntl"));
    ("codes_lint", "lint --codes");
    ("codes_verify", sf "verify %s --domains 1 --codes" verify_demo);
    ("codes_hazards", sf "hazards %s --domains 1 --codes" hazard_demo);
    ("codes_sense", sf "sense %s --domains 1 --codes" sense_demo);
    (* the paper-level subcommands *)
    ("vtc_nand3", "vtc nand3 --domains 1");
    ("delay_nand3", "delay nand3 --domains 1 --pin b --edge rise --tau 300");
    ( "proximity_baselines",
      "proximity nand3 --domains 1 a:fall:500:0 b:fall:100:50 --baselines" );
    ( "glitch_find_min",
      "glitch nand3 --domains 1 --tau-fall 500 --tau-rise 100 --find-min" );
    ("storage_fan_in_4", "storage --fan-in 4");
    (* error paths *)
    ("missing_sta", sf "sta %s --domains 1 %s" missing carry_pi);
    ("missing_verify", sf "verify %s --domains 1 %s" missing carry_pi);
    ("missing_hazards", sf "hazards %s --domains 1 %s" missing carry_pi);
    ("missing_sense", sf "sense %s --domains 1 %s" missing carry_pi);
    ("missing_profile", sf "profile %s --domains 1 %s" missing carry_pi);
    ("missing_convert", sf "convert %s out.pxb" missing);
    ( "bad_spec_verify",
      sf "verify %s --domains 1 --pi a:fall:400" verify_demo );
    ( "bad_window_hazards",
      sf "hazards %s --domains 1 %s --pi-window a=" hazard_demo hazard_pi );
    ( "bad_const_sense",
      sf "sense %s --domains 1 %s --const k=2" sense_demo sense_pi );
    ( "bad_eco_sta",
      sf "sta %s --domains 1 --models synthetic %s --eco pi:a" carry carry_pi );
    ( "paths_zero_sta",
      sf "sta %s --domains 1 --models synthetic %s --paths 0" carry carry_pi );
    ( "eco_unknown_cell",
      sf "sta %s --domains 1 --models synthetic %s --eco cell:zz" carry
        carry_pi );
    ( "eco_unknown_net",
      sf "sta %s --domains 1 --models synthetic %s --eco pi:zz:fall:200:0"
        carry carry_pi );
    ( "eco_driven_net",
      sf "sta %s --domains 1 --models synthetic %s --eco pi:n1:fall:200:0"
        carry carry_pi );
    ( "window_unknown_verify",
      sf "verify %s --domains 1 %s --pi-window zz=10" verify_demo verify_pi );
    ( "window_unknown_hazards",
      sf "hazards %s --domains 1 %s --pi-window n1=10" hazard_demo hazard_pi );
    ( "codes_unknown_verify",
      sf "verify %s --domains 1 %s --codes PX999" verify_demo verify_pi );
    ("codes_unknown_lint", sf "lint --codes 'PX9*' %s" carry);
  ]

let transcript args =
  let code, out, err = run_full (cli ^ " " ^ args) in
  sf "$ proxim %s\n[exit %d]\n--- stdout\n%s--- stderr\n%s" args code out err

let golden_case (name, args) =
  Alcotest.test_case name `Quick (fun () ->
      let actual = transcript args in
      let file = name ^ ".txt" in
      match Sys.getenv_opt "PROXIM_GOLDEN_UPDATE" with
      | Some dir ->
        Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
            Out_channel.output_string oc actual)
      | None ->
        let expected =
          In_channel.with_open_bin (Filename.concat "golden" file)
            In_channel.input_all
        in
        Alcotest.(check string) name expected actual)

(* ------------------------------------------------------------------ *)
(* Seeded argument fuzzer                                              *)

(* A valid argument vector of every subcommand.  The fuzzer replaces
   one field of an event spec, the value of a --flag=VALUE, or a gate,
   pin, edge or --const name; paths, bare flags and --domains (checked
   before any subcommand runs) stay as they are.  The smoke client's
   daemon does not exist, so it never connects. *)
let fuzz_bases =
  let d1 args = args @ [ "--domains"; "1" ] in
  [
    d1 [ "vtc"; "nand2" ];
    d1
      [ "delay"; "nand2"; "--pin"; "b"; "--edge"; "rise"; "--tau=300";
        "--load=5" ];
    d1 [ "proximity"; "nand2"; "a:fall:500:0"; "b:fall:100:50" ];
    d1
      [ "glitch"; "nand2"; "--fall-pin"; "a"; "--rise-pin"; "b";
        "--tau-fall=500"; "--tau-rise=100"; "--sep=50" ];
    [ "storage"; "--fan-in=4"; "--points=10" ];
    d1
      [ "sta"; carry; "--models"; "synthetic"; "--pi"; "a:fall:300:0";
        "--pi-all"; "fall:250:40"; "--eco"; "pi:a:fall:200:10"; "--paths=2";
        "--required=900" ];
    d1
      [ "verify"; carry; "--pi"; "a:fall:300:0"; "--pi-window=25";
        "--tau-window=5" ];
    d1
      [ "hazards"; hazard_demo; "--pi"; "a:fall:400:500"; "--pi";
        "b:rise:300:0"; "--filter-margin=25"; "--required=900";
        "--pi-window=10"; "--tau-window=5" ];
    d1
      [ "sense"; sense_demo; "--pi"; "a:rise:300:0"; "--const"; "k=0";
        "--budget=64"; "--support=4" ];
    d1 [ "profile"; carry; "--models"; "synthetic"; "--pi"; "a:fall:300:0" ];
    [ "lint"; "--fanout-limit=8"; carry ];
    [ "gen"; "--cells=40"; "--depth=4"; "--window=2"; "--reach=2";
      "--seed=1" ];
    d1
      [ "serve"; "--connect"; "unix:/nonexistent"; "--smoke"; carry; "--pi";
        "a:fall:300:0"; "--pi-all"; "fall:250:40"; "--eco";
        "pi:a:fall:200:10"; "--paths=2" ];
  ]

let fuzz_numbers = [| ""; "nan"; "inf"; "-1"; "0"; "1e999"; "#x!" |]
let fuzz_names = [| ""; "z"; "A"; "ab"; "a"; "rise"; "nand9"; "#x!" |]

(* what the fuzzer may replace in word [w], which follows [prev] *)
let slot_kind prev w =
  if String.starts_with ~prefix:"--" w && String.contains w '=' then
    Some `Flag_value
  else if String.contains w ':' && not (String.contains w '/') then
    Some `Event_field
  else if
    List.mem prev
      [ "vtc"; "delay"; "proximity"; "glitch"; "--pin"; "--edge";
        "--fall-pin"; "--rise-pin"; "--const" ]
  then Some `Name
  else None

let mutate rng kind w =
  let pick a = a.(Prng.int rng ~lo:0 ~hi:(Array.length a - 1)) in
  match kind with
  | `Flag_value -> String.sub w 0 (String.index w '=' + 1) ^ pick fuzz_numbers
  | `Name -> pick fuzz_names
  | `Event_field ->
    (* the first field is a pin, net, edge or eco kind; the rest are
       mostly numbers *)
    let fields = String.split_on_char ':' w in
    let k = Prng.int rng ~lo:0 ~hi:(List.length fields - 1) in
    let v = pick (if k = 0 then fuzz_names else fuzz_numbers) in
    String.concat ":" (List.mapi (fun j f -> if j = k then v else f) fields)

(* 104 seeded runs, each base with one or two slots replaced: every run
   ends in a result (0), a finding or an unreachable daemon (1), a usage
   error (2) or a cmdliner type error (124) — never an uncaught
   exception (125, "internal error") *)
let test_argument_fuzzer () =
  let rng = Prng.create 20261020L in
  let bases = Array.of_list (List.map Array.of_list fuzz_bases) in
  for run = 0 to 103 do
    let args = Array.copy bases.(run mod Array.length bases) in
    let slots =
      List.init (Array.length args - 1) succ
      |> List.filter_map (fun i ->
             Option.map (fun k -> (i, k)) (slot_kind args.(i - 1) args.(i)))
      |> Array.of_list
    in
    for _ = 1 to Prng.int rng ~lo:1 ~hi:2 do
      let i, kind = slots.(Prng.int rng ~lo:0 ~hi:(Array.length slots - 1)) in
      args.(i) <- mutate rng kind args.(i)
    done;
    let line =
      String.concat " " (List.map Filename.quote (Array.to_list args))
    in
    let code, out, err = run_full (cli ^ " " ^ line) in
    if
      (not (List.mem code [ 0; 1; 2; 124 ]))
      || contains err "internal error"
      || contains out "internal error"
    then Alcotest.failf "proxim %s: exit %d\n%s" line code err
  done

(* The collapsed baselines read no macromodel: neither the analysis nor
   an ECO that re-characterizes a cell asks the model factory, so its
   cache stays empty *)
let test_collapsed_resolves_no_models () =
  let code, out, _ =
    run_full
      (sf "%s sta %s --domains 1 --mode jun %s --eco cell:u2 --verify-eco" cli
         carry carry_pi)
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check (option string)) "model cache line"
    (Some "model cache: 0 hits, 0 misses, 0 waits, 0 entries")
    (List.find_opt
       (String.starts_with ~prefix:"model cache:")
       (String.split_on_char '\n' out))

(* cmdliner rejects a duplicate option name only when that subcommand is
   evaluated, so every subcommand's help must render *)
let test_help_renders () =
  List.iter
    (fun cmd ->
      let code, _ = run_err "%s %s --help=plain" cli cmd in
      Alcotest.(check int) (cmd ^ " --help=plain exits 0") 0 code)
    [ "vtc"; "delay"; "proximity"; "glitch"; "sta"; "verify"; "hazards";
      "sense"; "profile"; "storage"; "lint"; "gen"; "convert"; "serve" ]

let () =
  Alcotest.run "cli"
    [
      ( "malformed-events",
        [
          Alcotest.test_case "bad numbers: one message, exit 2" `Quick
            test_bad_numbers_uniform;
          Alcotest.test_case "bad edge: one message, exit 2" `Quick
            test_bad_edge_uniform;
          Alcotest.test_case "wrong shape exits 2" `Quick
            test_wrong_shape_exits_2;
          Alcotest.test_case "missing events exit 2" `Quick
            test_missing_events_exit_2;
        ] );
      ( "well-formed",
        [
          Alcotest.test_case "valid events accepted" `Quick
            test_valid_events_accepted;
          Alcotest.test_case "collapsed mode resolves no models" `Quick
            test_collapsed_resolves_no_models;
        ] );
      ( "stimuli",
        [
          Alcotest.test_case "non-transition numbers exit 2" `Quick
            test_non_transition_numbers;
          Alcotest.test_case "unknown --pi/--const net exits 2" `Quick
            test_unknown_pi_net;
          Alcotest.test_case "cell-driven --pi net exits 2" `Quick
            test_cell_driven_pi_net;
          Alcotest.test_case "negative --tau-window exits 2" `Quick
            test_negative_tau_window;
          Alcotest.test_case "mixed edges exit 2" `Quick test_mixed_edges;
          Alcotest.test_case "unsimulatable stimuli exit 2" `Quick
            test_unsimulatable;
          Alcotest.test_case "serve --smoke checks before connecting" `Quick
            test_smoke_checks_first;
          Alcotest.test_case "seeded argument fuzzer" `Quick
            test_argument_fuzzer;
        ] );
      ("golden", List.map golden_case golden_cases);
      ( "help",
        [
          Alcotest.test_case "every subcommand renders" `Quick
            test_help_renders;
        ]
      );
    ]

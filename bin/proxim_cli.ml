(* proxim: command-line front end to the proximity delay library.

   $ proxim vtc nand3
   $ proxim delay nand3 --pin a --edge fall --tau 500
   $ proxim proximity nand3 a:fall:500:0 b:fall:100:50
   $ proxim glitch nand3 --tau-fall 500 --tau-rise 100 --find-min
   $ proxim sta design.ntl --pi a:fall:500:0 --pi b:fall:100:50 --paths 3
   $ proxim sta design.ntl --pi a:fall:500:0 --eco pi:a:fall:200:0 --verify-eco
   $ proxim verify design.ntl --pi a:fall:500:0 --pi b:fall:100:50 --pi-window 25
   $ proxim storage --fan-in 4
   $ proxim lint --format json design.ntl store.txt *)

module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Proximity = Proxim_core.Proximity
module Inertial = Proxim_core.Inertial
module Storage = Proxim_core.Storage
module Collapse = Proxim_baseline.Collapse
module Obs_metrics = Proxim_obs.Metrics
module Obs_trace = Proxim_obs.Trace

let ps s = s *. 1e12

let pin_of_string gate s =
  let fail () =
    Error (`Msg (Printf.sprintf "unknown pin %s (gate has %d pins: a..%s)" s
                   gate.Gate.fan_in
                   (Gate.pin_name (gate.Gate.fan_in - 1))))
  in
  if String.length s = 1 then begin
    let i = Char.code s.[0] - Char.code 'a' in
    if i >= 0 && i < gate.Gate.fan_in then Ok i else fail ()
  end
  else fail ()

let edge_of_string = function
  | "rise" | "r" | "rising" -> Ok Measure.Rise
  | "fall" | "f" | "falling" -> Ok Measure.Fall
  | s -> Error (`Msg (Printf.sprintf "unknown edge %s (rise|fall)" s))

(* The EDGE:TAU_PS:CROSS_PS core every event spec ends with — shared by
   --event (pin-prefixed), --pi (net-prefixed), --pi-all (bare) and the
   eco specs, so a malformed edge or number yields one message and one
   exit code (2) whatever the subcommand.  Both numbers must be finite
   and the transition time positive.  [spec] is the caller's whole
   original argument, quoted verbatim in the diagnostic. *)
let parse_edge_tau_t ~spec edge_s tau_s t_s =
  match edge_of_string edge_s with
  | Error e -> Error e
  | Ok edge -> (
    match (float_of_string_opt tau_s, float_of_string_opt t_s) with
    | Some tau_ps, Some t_ps
      when Float.is_finite tau_ps && Float.is_finite t_ps && tau_ps > 0. ->
      Ok (edge, tau_ps *. 1e-12, t_ps *. 1e-12)
    | _ -> Error (`Msg (Printf.sprintf "bad numbers in event %s" spec)))

(* exit code for a malformed event/eco spec on every subcommand *)
let usage_error m =
  prerr_endline m;
  2

let with_gate name f =
  let tech = Tech.generic_5v in
  match Gate.of_name tech name with
  | Error m ->
    prerr_endline m;
    1
  | Ok gate -> f gate

(* ------------------------------------------------------------------ *)
(* vtc                                                                 *)

let run_vtc gate_name =
  with_gate gate_name (fun gate ->
    let fam = Vtc.family ~points:301 gate in
    Printf.printf "VTC family of %s:\n" gate.Gate.name;
    List.iter (fun c -> Format.printf "  %a@." Vtc.pp_curve c) fam;
    let th = Vtc.choose fam in
    Printf.printf "chosen thresholds: Vil = %.3f V, Vih = %.3f V\n" th.Vtc.vil
      th.Vtc.vih;
    0)

(* ------------------------------------------------------------------ *)
(* delay                                                               *)

let run_delay gate_name pin_s edge_s tau_ps load_ff =
  with_gate gate_name (fun gate ->
    match (pin_of_string gate pin_s, edge_of_string edge_s) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok pin, Ok edge ->
      let th = Vtc.thresholds gate in
      let load = Option.map (fun f -> f *. 1e-15) load_ff in
      let obs =
        Measure.single_input ?load gate th ~pin ~edge ~tau:(tau_ps *. 1e-12)
      in
      Printf.printf
        "%s pin %s %s tau=%.0fps: delay = %.1f ps, output transition = %.1f \
         ps\n"
        gate.Gate.name pin_s edge_s tau_ps
        (ps obs.Measure.delay)
        (ps obs.Measure.out_transition);
      0)

(* ------------------------------------------------------------------ *)
(* proximity                                                           *)

let parse_event gate s =
  match String.split_on_char ':' s with
  | [ pin_s; edge_s; tau_s; t_s ] -> (
    match (pin_of_string gate pin_s, parse_edge_tau_t ~spec:s edge_s tau_s t_s)
    with
    | Error e, _ | _, Error e -> Error e
    | Ok pin, Ok (edge, tau, cross_time) ->
      Ok { Proximity.pin; edge; tau; cross_time })
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad event %s (expected pin:edge:tau_ps:cross_ps, e.g. \
            a:fall:500:0)"
           s))

let run_proximity gate_name event_specs baselines =
  with_gate gate_name (fun gate ->
    let rec parse_all acc = function
      | [] -> Ok (List.rev acc)
      | s :: tl -> (
        match parse_event gate s with
        | Ok e -> parse_all (e :: acc) tl
        | Error e -> Error e)
    in
    match parse_all [] event_specs with
    | Error (`Msg m) -> usage_error m
    | Ok [] -> usage_error "need at least one event"
    | Ok events ->
      (* shift all events so every ramp starts at positive time *)
      let max_tau =
        List.fold_left
          (fun acc (e : Proximity.event) -> Float.max acc e.Proximity.tau)
          0. events
      in
      let min_cross =
        List.fold_left
          (fun acc (e : Proximity.event) -> Float.min acc e.Proximity.cross_time)
          infinity events
      in
      let shift = max_tau +. 0.3e-9 -. min_cross in
      let events =
        List.map
          (fun (e : Proximity.event) ->
            { e with Proximity.cross_time = e.Proximity.cross_time +. shift })
          events
      in
      let th = Vtc.thresholds gate in
      let models = Models.of_oracle gate th in
      let r = Proximity.evaluate models events in
      let stimuli =
        List.map
          (fun (e : Proximity.event) ->
            ( e.Proximity.pin,
              { Measure.edge = e.Proximity.edge; tau = e.Proximity.tau;
                cross_time = e.Proximity.cross_time } ))
          events
      in
      let golden =
        Measure.multi_input gate th ~stimuli ~ref_pin:r.Proximity.ref_pin
      in
      Printf.printf "dominant input: %s\n" (Gate.pin_name r.Proximity.ref_pin);
      Printf.printf "inputs inside the proximity window: %d of %d\n"
        r.Proximity.used_inputs (List.length events);
      Printf.printf "ProximityDelay : delay = %8.1f ps  transition = %8.1f ps\n"
        (ps r.Proximity.delay)
        (ps r.Proximity.out_transition);
      Printf.printf "golden (SPICE) : delay = %8.1f ps  transition = %8.1f ps\n"
        (ps golden.Measure.delay)
        (ps golden.Measure.out_transition);
      Printf.printf "model error    : delay %+.2f%%, transition %+.2f%%\n"
        ((r.Proximity.delay -. golden.Measure.delay)
         /. golden.Measure.delay *. 100.)
        ((r.Proximity.out_transition -. golden.Measure.out_transition)
         /. golden.Measure.out_transition *. 100.);
      if baselines then begin
        let show variant name =
          let p = Collapse.predict variant gate th ~events in
          let delay = p.Collapse.out_cross -. r.Proximity.ref_cross in
          Printf.printf
            "%-15s: delay = %8.1f ps  transition = %8.1f ps  (delay err \
             %+.2f%%)\n"
            name (ps delay)
            (ps p.Collapse.out_transition)
            ((delay -. golden.Measure.delay) /. golden.Measure.delay *. 100.)
        in
        show Collapse.Jun "Jun collapse";
        show Collapse.Nabavi_lishi "Nabavi-Lishi"
      end;
      0)

(* ------------------------------------------------------------------ *)
(* glitch                                                              *)

let run_glitch gate_name fall_pin_s rise_pin_s tau_fall_ps tau_rise_ps sep_ps
    find_min =
  with_gate gate_name (fun gate ->
    match (pin_of_string gate fall_pin_s, pin_of_string gate rise_pin_s) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
      prerr_endline m;
      1
    | Ok fall_pin, Ok rise_pin ->
      let th = Vtc.thresholds gate in
      let tau_fall = tau_fall_ps *. 1e-12 in
      let tau_rise = tau_rise_ps *. 1e-12 in
      if find_min then begin
        let s =
          Inertial.minimum_valid_separation gate th ~fall_pin ~rise_pin
            ~tau_fall ~tau_rise
        in
        Printf.printf
          "minimum separation for a full output transition: %.1f ps\n\
           (inertial delay: %.1f ps)\n"
          (ps s) (ps (-.s));
        0
      end
      else begin
        let sep = sep_ps *. 1e-12 in
        let g =
          Inertial.glitch gate th ~fall_pin ~rise_pin ~tau_fall ~tau_rise ~sep
        in
        Printf.printf
          "glitch extreme: %.3f V at t = %.1f ps; output %s a transition\n"
          g.Inertial.v_extreme (ps g.Inertial.t_extreme)
          (if g.Inertial.full_swing then "completes" else "does not complete");
        0
      end)

(* ------------------------------------------------------------------ *)
(* storage                                                             *)

let run_storage fan_in points =
  Format.printf "%a"
    (fun ppf () -> Storage.pp_comparison ppf ~fan_in ~points_per_axis:points)
    ();
  0

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

module Diagnostic = Proxim_lint.Diagnostic
module Netlist_lint = Proxim_lint.Netlist_lint
module Model_lint = Proxim_lint.Model_lint
module Store = Proxim_macromodel.Store

let print_code_table () =
  List.iter
    (fun c ->
      Printf.printf "%-6s %-8s %s\n" (Diagnostic.code_name c)
        (Diagnostic.severity_name (Diagnostic.default_severity c))
        (Diagnostic.code_doc c))
    Diagnostic.all_codes;
  0

(* a binary (PXNB) netlist has no raw text form for the line-numbered
   passes; re-render the decoded design to the text format and lint
   that, so the same structural checks apply to both encodings (line
   numbers then refer to the canonical rendering) *)
let lint_binary ~fanout_limit file =
  match Proxim_sta.Netlist_bin.read_file Tech.generic_5v file with
  | Error m -> [ Diagnostic.make ~file PX100 "unreadable binary netlist: %s" m ]
  | Ok (name, design, _th) ->
    let options = { Netlist_lint.fanout_limit } in
    Netlist_lint.check_text ~options ~file Tech.generic_5v
      (Proxim_sta.Netlist_text.to_string ~name design)

let lint_file ~fanout_limit file =
  if
    try Proxim_sta.Netlist_bin.file_is_binary file
    with Sys_error _ -> false
  then lint_binary ~fanout_limit file
  else
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error m -> [ Diagnostic.make ~file PX100 "%s" m ]
  | text ->
    let is_store =
      String.length text >= 15 && String.sub text 0 15 = "proxim-store-v1"
    in
    if is_store then
      match Store.load text with
      | exception Failure m ->
        [ Diagnostic.make ~file PX100 "unreadable store: %s" m ]
      | set -> Model_lint.check_store ~file set
    else
      let options = { Netlist_lint.fanout_limit } in
      Netlist_lint.check_text ~options ~file Tech.generic_5v text

(* case-insensitive shell-style glob: [*] any run, [?] one character *)
let glob_match pat name =
  let np = String.length pat and nn = String.length name in
  let eq a b = Char.uppercase_ascii a = Char.uppercase_ascii b in
  let rec go i j =
    if i = np then j = nn
    else
      match pat.[i] with
      | '*' -> go (i + 1) j || (j < nn && go i (j + 1))
      | '?' -> j < nn && go (i + 1) (j + 1)
      | c -> j < nn && eq c name.[j] && go (i + 1) (j + 1)
  in
  go 0 0

let parse_code_filter s =
  let names =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: tl ->
      if String.contains n '*' || String.contains n '?' then (
        match
          List.filter
            (fun c -> glob_match n (Diagnostic.code_name c))
            Diagnostic.all_codes
        with
        | [] ->
          Error
            (`Msg (Printf.sprintf "code pattern %s matches no diagnostic" n))
        | cs -> go (List.rev_append cs acc) tl)
      else (
        match Diagnostic.code_of_name n with
        | Some c -> go (c :: acc) tl
        | None -> Error (`Msg (Printf.sprintf "unknown diagnostic code %s" n)))
  in
  go [] names

(* the --codes option of every report-emitting subcommand: absent = keep
   all, bare = print the code table, a value = keep only those codes.
   The filter applies BEFORE --fail-on computes the exit status, so
   filtered-out findings can neither fail a run nor appear in it. *)
let resolve_code_filter = function
  | None -> Ok `All
  | Some "" -> Ok `Table
  | Some s -> Result.map (fun cs -> `Keep cs) (parse_code_filter s)

let apply_code_filter filter diags =
  match filter with
  | `All | `Table -> diags
  | `Keep cs -> Diagnostic.filter_codes cs diags

let print_report format diags =
  match format with
  | `Text -> print_string (Diagnostic.report_text diags)
  | `Json -> print_endline (Diagnostic.report_json_string diags)
  | `Sarif -> print_endline (Diagnostic.report_sarif_string diags)

let run_lint files format fail_on fanout_limit codes =
  match resolve_code_filter codes with
  | Error (`Msg m) ->
    prerr_endline m;
    2
  | Ok `Table -> print_code_table ()
  | Ok (`All | `Keep _) when files = [] ->
    prerr_endline "proxim lint: need at least one FILE (or --codes)";
    2
  | Ok filter ->
    let lint_one f =
      Obs_trace.with_span ~cat:"lint" ~args:[ ("file", f) ] "lint.file"
        (fun () -> lint_file ~fanout_limit f)
    in
    let diags =
      apply_code_filter filter
        (Diagnostic.sort (List.concat_map lint_one files))
    in
    print_report format diags;
    Diagnostic.exit_code ~fail_on diags

(* ------------------------------------------------------------------ *)
(* the analysis front end                                              *)

module Sta = Proxim_sta.Sta
module Design = Proxim_sta.Design
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_bin = Proxim_sta.Netlist_bin
module Synthgen = Proxim_sta.Synthgen
module Timing = Proxim_timing.Timing
module Graph = Proxim_timing.Graph
module Memo_cache = Proxim_util.Memo_cache
module Verify = Proxim_verify.Verify
module Hazard = Proxim_hazard.Hazard
module Sense = Proxim_sense.Sense

let edge_name = function Measure.Rise -> "rise" | Measure.Fall -> "fall"

let parse_pi_spec s =
  match String.split_on_char ':' s with
  | [ net; edge_s; tau_s; t_s ] ->
    Result.map
      (fun (edge, slew, time) -> (net, { Sta.time; slew; edge }))
      (parse_edge_tau_t ~spec:s edge_s tau_s t_s)
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad pi event %s (expected net:edge:tau_ps:cross_ps, e.g. \
            a:fall:500:0)"
           s))

let parse_eco_spec s =
  match String.split_on_char ':' s with
  | [ "cell"; name ] -> Ok (Sta.Touch_cell name)
  | [ "pi"; net; "quiet" ] | [ "pi"; net; "-" ] -> Ok (Sta.Set_pi (net, None))
  | "pi" :: net :: ([ _; _; _ ] as rest) ->
    Result.map
      (fun (_, a) -> Sta.Set_pi (net, Some a))
      (parse_pi_spec (String.concat ":" (net :: rest)))
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad eco %s (expected pi:NET:EDGE:TAU_PS:CROSS_PS, pi:NET:quiet \
            or cell:NAME)"
           s))

(* --pi-all: one event applied to every primary input not already named
   by a --pi option — the only sane way to drive a generated
   million-input-free design where PIs are pi0..piN *)
let parse_pi_all_spec s =
  match String.split_on_char ':' s with
  | [ edge_s; tau_s; t_s ] ->
    Result.map
      (fun (edge, slew, time) -> { Sta.time; slew; edge })
      (parse_edge_tau_t ~spec:s edge_s tau_s t_s)
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "bad pi-all event %s (expected edge:tau_ps:cross_ps, e.g. \
            fall:500:0)"
           s))

(* --pi-window: a bare PS value sets the global arrival-time window,
   NET=PS overrides it for one net *)
let parse_window_spec s =
  let bad () =
    Error
      (`Msg
        (Printf.sprintf "bad window %s (expected PS or NET=PS, e.g. 25 or a=25)"
           s))
  in
  match String.index_opt s '=' with
  | None -> (
    match float_of_string_opt s with
    | Some ps when ps >= 0. -> Ok (`Global (ps *. 1e-12))
    | Some _ | None -> bad ())
  | Some i -> (
    let net = String.sub s 0 i in
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    match float_of_string_opt v with
    | Some ps when ps >= 0. && net <> "" -> Ok (`Net (net, ps *. 1e-12))
    | Some _ | None -> bad ())

let parse_const_spec s =
  match String.index_opt s '=' with
  | Some i when i > 0 && i = String.length s - 2 -> (
    let net = String.sub s 0 i in
    match s.[i + 1] with
    | '0' -> Ok (net, false)
    | '1' -> Ok (net, true)
    | _ -> Error (`Msg (Printf.sprintf "bad --const %s (expected NET=0|1)" s)))
  | _ -> Error (`Msg (Printf.sprintf "bad --const %s (expected NET=0|1)" s))

(* every spec of one option, or the first malformed one *)
let parse_all parse specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl -> (
      match parse s with Ok v -> go (v :: acc) tl | Error e -> Error e)
  in
  go [] specs

let parse_opt parse = function
  | None -> Ok None
  | Some s -> Result.map Option.some (parse s)

(* The front end's checks read as a flat sequence: [Error (`Msg m)]
   prints [m] and exits 2, the status of every usage error. *)
let ( let* ) r k = match r with Ok v -> k v | Error (`Msg m) -> usage_error m

(* the first failed usage check, in order *)
let check checks =
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, m) -> Error (`Msg m)
  | None -> Ok ()

(* a usage error a library call reports past the command-line checks *)
exception Usage of string

(* The boundary of every analysis subcommand: the one netlist loader
   (exit 1 when the file is unreadable), then the user errors the
   analyses find — a stimulus on a net that is not a primary input, an
   ECO naming an unknown net or cell or re-timing a cell-driven net,
   edges a single-vector analysis cannot order — each printed as
   "proxim CMD: error: ..." with exit 2, never escaping as an uncaught
   exception.  [around_load] wraps the load (profile times it as a
   phase). *)
let with_design ?(around_load = fun f -> f ()) cmd file k =
  let error fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "proxim %s: error: %s\n" cmd m;
        2)
      fmt
  in
  let load () = Netlist_bin.load_file Tech.generic_5v file in
  match around_load load with
  | Error m ->
    prerr_endline m;
    1
  | Ok (name, design, file_th) -> (
    try k name design file_th with
    | Usage m ->
      Printf.eprintf "proxim %s: %s\n" cmd m;
      2
    | Verify.Not_primary_input { flag; net } ->
      error "%s names %s, which is not a primary input of the design" flag net
    | Sta.Unknown_eco_target { kind; name } ->
      error "--eco refers to unknown %s %s" kind name
    | Sta.Mixed_input_edges { cell } ->
      error
        "mixed input edges at cell %s (a single-vector analysis cannot order \
         a glitch)"
        cell)

let factory_of models_kind design th =
  match models_kind with
  | `Oracle -> Sta.oracle_factory design th
  | `Synthetic -> Sta.synthetic_factory ()

(* ------------------------------------------------------------------ *)
(* sta                                                                 *)

(* The arrivals, critical output and K worst paths of one report — the
   block `proxim sta` prints and `serve --smoke` reproduces byte for
   byte from a served report.  [paths po] gives the paths to the
   critical output [po]. *)
let print_sta_report ?(summary = false) (report : Sta.report) ~paths =
  if summary then
    Printf.printf "arrivals: %d switching nets\n"
      (List.length report.Sta.arrivals)
  else begin
    Printf.printf "arrivals:\n";
    List.iter
      (fun (net, (a : Sta.arrival)) ->
        Printf.printf "  %-14s %8.1f ps  slew %7.1f ps  %s\n" net
          (ps a.Sta.time) (ps a.Sta.slew) (edge_name a.Sta.edge))
      report.Sta.arrivals
  end;
  match report.Sta.critical_po with
  | None -> Printf.printf "no primary output switches\n"
  | Some (po, a) ->
    Printf.printf "critical output: %s at %.1f ps\n" po (ps a.Sta.time);
    List.iteri
      (fun i (p : Sta.path) ->
        Printf.printf "path #%d (%8.1f ps): %s\n" (i + 1)
          (ps p.Sta.path_arrival)
          (String.concat " <- " p.Sta.path_nets))
      (paths po)

let run_sta file pi_specs pi_all_spec mode models_kind paths_k required_ps
    eco_specs verify_eco summary =
  with_design "sta" file @@ fun name design file_th ->
  let* named_pi = parse_all parse_pi_spec pi_specs in
  let* ecos = parse_all parse_eco_spec eco_specs in
  let* pi_all = parse_opt parse_pi_all_spec pi_all_spec in
  let* () =
    check
      [
        ( named_pi <> [] || pi_all <> None,
          "proxim sta: need at least one --pi event (or --pi-all)" );
        (paths_k >= 1, "proxim sta: --paths must be >= 1");
      ]
  in
  Verify.validate_pi_nets ~flag:"--pi" design (List.map fst named_pi);
  let pi = Sta.with_pi_all design named_pi pi_all in
  let th = Sta.default_thresholds design file_th in
  let factory = factory_of models_kind design th in
  let g = Design.graph design in
  Printf.printf "design %s: %d cells, %d nets, %d levels\n" name
    (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g);
  let analyzed pi =
    let ir =
      Sta.build_ir ~mode ~models:factory.Sta.models ~thresholds:th design ~pi
    in
    ignore (Sta.reanalyze ir : Timing.stats);
    ir
  in
  let ir = analyzed pi in
  let show_results () =
    let report = Sta.report ir in
    print_sta_report ~summary report ~paths:(fun po ->
        Sta.worst_paths ir ~po ~k:paths_k);
    Option.iter
      (fun req ->
        Printf.printf "slacks (required %.1f ps):\n" req;
        List.iter
          (fun (net, slack) ->
            Printf.printf "  %-14s %+8.1f ps\n" net (ps slack))
          (Sta.po_slacks design report ~required:(req *. 1e-12)))
      required_ps
  in
  show_results ();
  let eco_ok =
    ecos = []
    || begin
         let stats = Sta.update ir ecos in
         Printf.printf "\nECO: re-evaluated %d of %d cells (%d changed)\n"
           stats.Timing.evaluated stats.Timing.total_cells
           stats.Timing.changed;
         show_results ();
         (not verify_eco)
         || begin
              let fresh = analyzed (Sta.apply_ecos pi ecos) in
              let same = Sta.report_equal (Sta.report ir) (Sta.report fresh) in
              Printf.printf "incremental vs full re-analysis: %s\n"
                (if same then "bit-identical" else "MISMATCH");
              same
            end
       end
  in
  let cs = factory.Sta.factory_stats () in
  Printf.printf "model cache: %d hits, %d misses, %d waits, %d entries\n"
    cs.Memo_cache.hits cs.Memo_cache.misses cs.Memo_cache.waits
    cs.Memo_cache.entries;
  if eco_ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* gen / convert                                                       *)

let format_for ~explicit ~path =
  match explicit with
  | Some f -> f
  | None -> if Filename.check_suffix path ".pxb" then `Binary else `Text

(* Netlist_text.to_string never emits a thresholds directive, so a
   binary file carrying one keeps it across a round-trip by injecting
   the line just before the closing [end]. *)
let text_with_thresholds ~name design th =
  let s = Netlist_text.to_string ~name design in
  match th with
  | None -> s
  | Some (t : Vtc.thresholds) ->
    let line =
      Printf.sprintf "thresholds %.17g %.17g %.17g\n" t.Vtc.vil t.Vtc.vih
        t.Vtc.vdd
    in
    let tail = "end\n" in
    if
      String.length s >= String.length tail
      && String.sub s (String.length s - String.length tail)
           (String.length tail)
         = tail
    then
      String.sub s 0 (String.length s - String.length tail) ^ line ^ tail
    else s ^ line

let run_gen cells seed depth window reach out fmt =
  match
    Synthgen.generate ~seed ~depth ~window ~reach ~tech:Tech.generic_5v
      ~cells ()
  with
  | exception Invalid_argument m ->
    prerr_endline ("proxim gen: " ^ m);
    2
  | name, design ->
    let g = Design.graph design in
    (match out with
     | None -> print_string (Netlist_text.to_string ~name design)
     | Some path ->
       (match format_for ~explicit:fmt ~path with
        | `Binary -> Netlist_bin.write_file ~name design path
        | `Text ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Netlist_text.to_string ~name design)));
       Printf.printf "%s: %d cells, %d nets, %d levels -> %s\n" name
         (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g) path);
    0

let run_convert input output fmt =
  match Netlist_bin.load_file Tech.generic_5v input with
  | Error m ->
    prerr_endline m;
    1
  | Ok (name, design, th) ->
    let target = format_for ~explicit:fmt ~path:output in
    (match target with
     | `Binary -> Netlist_bin.write_file ?thresholds:th ~name design output
     | `Text ->
       Out_channel.with_open_bin output (fun oc ->
           Out_channel.output_string oc
             (text_with_thresholds ~name design th)));
    Printf.printf "%s: %d cells -> %s (%s)\n" name
      (List.length (Design.cells design))
      output
      (match target with `Binary -> "binary" | `Text -> "text");
    0

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

(* One STA run with every pipeline stage wrapped in a "phase" span:
   parse -> thresholds -> characterize (one model-factory call per cell)
   -> build_ir -> analyze (the section-4 fold) -> report.  Oracle models
   simulate lazily, on their first query, so the golden transients that
   stand in for the section-3 macromodels land in analyze, not in
   characterize.  Prints the per-phase time/alloc breakdown from the
   trace aggregation. *)
let run_profile file pi_specs mode models_kind =
  Obs_metrics.install_util_sources ();
  Obs_trace.clear ();
  Obs_trace.enable ();
  let wall0 = Unix.gettimeofday () in
  let phase name f = Obs_trace.with_span ~cat:"phase" name f in
  with_design ~around_load:(phase "parse") "profile" file
  @@ fun name design file_th ->
  let* pi = parse_all parse_pi_spec pi_specs in
  let* () =
    check [ (pi <> [], "proxim profile: need at least one --pi event") ]
  in
  Verify.validate_pi_nets ~flag:"--pi" design (List.map fst pi);
  let th =
    phase "thresholds" (fun () -> Sta.default_thresholds design file_th)
  in
  let factory = factory_of models_kind design th in
  phase "characterize" (fun () ->
      List.iter
        (fun c -> ignore (factory.Sta.models c : Models.t))
        (Design.cells design));
  let ir =
    phase "build_ir" (fun () ->
        Sta.build_ir ~mode ~models:factory.Sta.models ~thresholds:th design
          ~pi)
  in
  ignore (phase "analyze" (fun () -> Sta.reanalyze ir) : Timing.stats);
  let report = phase "report" (fun () -> Sta.report ir) in
  let wall_us = (Unix.gettimeofday () -. wall0) *. 1e6 in
  let g = Design.graph design in
  Printf.printf "design %s: %d cells, %d nets, %d levels\n" name
    (Graph.cell_count g) (Graph.net_count g) (Graph.level_count g);
  (match report.Sta.critical_po with
   | None -> Printf.printf "no primary output switches\n"
   | Some (po, a) ->
     Printf.printf "critical output: %s at %.1f ps\n" po (ps a.Sta.time));
  let aggs = Obs_trace.aggregate ~cat:"phase" () in
  (* pipeline order reads better than duration order for six rows *)
  let phases =
    List.filter_map
      (fun n -> List.find_opt (fun a -> a.Obs_trace.agg_name = n) aggs)
      [ "parse"; "thresholds"; "characterize"; "build_ir"; "analyze"; "report" ]
  in
  let mb bytes = bytes /. 1048576. in
  Printf.printf "\n%-14s %12s  %6s %12s\n" "phase" "time" "% wall" "alloc";
  List.iter
    (fun (a : Obs_trace.agg) ->
      Printf.printf "%-14s %9.3f ms  %5.1f%% %9.2f MB\n" a.Obs_trace.agg_name
        (a.Obs_trace.total_us /. 1e3)
        (100. *. a.Obs_trace.total_us /. wall_us)
        (mb a.Obs_trace.alloc_bytes))
    phases;
  let covered =
    List.fold_left (fun s a -> s +. a.Obs_trace.total_us) 0. phases
  in
  Printf.printf "phase coverage: %.1f%% of %.3f ms wall\n"
    (100. *. covered /. wall_us)
    (wall_us /. 1e3);
  let hot =
    List.concat_map
      (fun c -> Obs_trace.aggregate ~cat:c ())
      [ "characterize"; "sta"; "verify"; "pool" ]
    |> List.sort (fun a b ->
           Float.compare b.Obs_trace.total_us a.Obs_trace.total_us)
  in
  if hot <> [] then begin
    Printf.printf "\nhot spans:\n";
    List.iteri
      (fun i (a : Obs_trace.agg) ->
        if i < 8 then
          Printf.printf "  %-22s %5dx %9.3f ms %9.2f MB\n" a.Obs_trace.agg_name
            a.Obs_trace.count
            (a.Obs_trace.total_us /. 1e3)
            (mb a.Obs_trace.alloc_bytes))
      hot
  end;
  0

(* ------------------------------------------------------------------ *)
(* verify / hazards / sense                                            *)

(* what a diagnostic analysis is handed by {!run_diagnostics} *)
type diag_input = {
  file : string;
  design : Design.t;
  thresholds : Vtc.thresholds Lazy.t;  (* only forced by analyses using it *)
  events : Verify.pi_event list;
  consts : (string * bool) list;
  unsensitizable : (cell:string -> a:int -> b:int -> bool) option;
      (* the --sense oracle *)
}

(* The one pipeline of the diagnostic subcommands: load -> specs ->
   --codes table -> input checks -> thresholds and events -> analysis
   (with the --sense oracle) -> code filter -> text/JSON/SARIF -> exit
   code.  [analysis] returns the text summary that follows "design
   NAME: " and its findings; [checks] are the subcommand's own usage
   checks, first failure wins. *)
let run_diagnostics ~cmd ~file ~pi_specs ?(need_pi = true) ?(window_specs = [])
    ?(tau_window_ps = 0.) ?(const_specs = []) ?(checks = []) ?(sense = false)
    ~format ~fail_on ~codes analysis =
  with_design cmd file @@ fun name design file_th ->
  let* pi = parse_all parse_pi_spec pi_specs in
  let* windows = parse_all parse_window_spec window_specs in
  let* consts = parse_all parse_const_spec const_specs in
  let* codes = resolve_code_filter codes in
  if codes = `Table then print_code_table ()
  else
    let need_pi =
      ( (not need_pi) || pi <> [],
        Printf.sprintf "proxim %s: need at least one --pi event" cmd )
    and tau_window =
      ( Float.is_finite tau_window_ps && tau_window_ps >= 0.,
        Printf.sprintf "proxim %s: --tau-window must be a finite value >= 0"
          cmd )
    in
    let* () = check ((need_pi :: checks) @ [ tau_window ]) in
    Verify.validate_pi_nets ~flag:"--pi" design (List.map fst pi);
    Verify.validate_pi_nets ~flag:"--pi-window" design
      (List.filter_map
         (function `Net (n, _) -> Some n | `Global _ -> None)
         windows);
    Verify.validate_pi_nets ~flag:"--const" design (List.map fst consts);
    let global =
      List.fold_left
        (fun acc -> function `Global w -> w | `Net _ -> acc)
        0. windows
    in
    let window_for net =
      List.fold_left
        (fun acc -> function
          | `Net (n, w) when n = net -> w
          | `Net _ | `Global _ -> acc)
        global windows
    in
    let tau_window = tau_window_ps *. 1e-12 in
    let events =
      List.map
        (fun (net, a) ->
          Verify.of_sta_event ~time_window:(window_for net) ~tau_window
            (net, a))
        pi
    in
    let unsensitizable =
      if not sense then None
      else
        Some
          (Sense.pair_unsensitizable
             (Sense.analyze design ~pi:(Sense.stimuli_of_events events)))
    in
    let summary, diags =
      analysis
        {
          file;
          design;
          thresholds = lazy (Sta.default_thresholds design file_th);
          events;
          consts;
          unsensitizable;
        }
    in
    let diags = apply_code_filter codes diags in
    if format = `Text then Printf.printf "design %s: %s" name summary;
    print_report format diags;
    Diagnostic.exit_code ~fail_on diags

let verify_analysis ~mode ~models_kind d =
  let th = Lazy.force d.thresholds in
  let models = (factory_of models_kind d.design th).Sta.models in
  let v = Verify.analyze ~mode ~models ~thresholds:th d.design ~pi:d.events in
  let v, refined =
    match d.unsensitizable with
    | None -> (v, "")
    | Some unsensitizable ->
      let v, r = Verify.refine v ~unsensitizable in
      ( v,
        Printf.sprintf
          "sensitization refinement: %d pairs and %d cells converted to \
           never-proximate\n"
          r.Verify.refined_pairs r.Verify.refined_cells )
  in
  let s = Verify.summary v in
  ( Printf.sprintf
      "%d cells, %d switching; never-proximate %d, always-proximate %d, \
       may-be-proximate %d\n\
       %s"
      s.Verify.total_cells s.Verify.switching_cells s.Verify.never
      s.Verify.always s.Verify.may refined,
    Verify.check ~file:d.file v )

let hazards_analysis ~mode ~models_kind ~filter_margin_ps ~required_ps d =
  let th = Lazy.force d.thresholds in
  let models = (factory_of models_kind d.design th).Sta.models in
  let rule =
    match models_kind with
    | `Synthetic -> Hazard.model_rule
    | `Oracle -> Hazard.inertial_rule ~thresholds:th ()
  in
  let h =
    Hazard.analyze ~mode
      ~filter_margin:(filter_margin_ps *. 1e-12)
      ?required:(Option.map (fun r -> r *. 1e-12) required_ps)
      ~rule ~models ~thresholds:th d.design ~pi:d.events
  in
  let h, refined =
    match d.unsensitizable with
    | None -> (h, "")
    | Some impossible ->
      let h, r = Hazard.refine h ~impossible in
      ( h,
        Printf.sprintf
          "sensitization refinement: %d impossible pairs dropped, %d cells \
           demoted\n"
          r.Hazard.refined_pairs r.Hazard.refined_cells )
  in
  (Hazard.report_text h ^ refined, Hazard.check ~file:d.file h)

let sense_analysis ~budget ~max_support d =
  match
    Sense.analyze ~budget ~max_support d.design
      ~pi:(Sense.stimuli_of_events ~consts:d.consts d.events)
  with
  | exception Invalid_argument m -> raise (Usage m)
  | s -> (Sense.report_text s, Sense.check ~file:d.file s)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

module Serve = Proxim_serve.Serve
module Sjson = Proxim_util.Json

(* unix:PATH | tcp:HOST:PORT | bare PATH (a unix socket) *)
let parse_addr s =
  let prefixed p =
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  in
  if prefixed "unix:" then
    Ok (`Unix (String.sub s 5 (String.length s - 5)))
  else if prefixed "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | Some i -> (
      let host = String.sub rest 0 i in
      let port_s = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port_s with
      | Some port when port >= 0 -> Ok (`Tcp (host, port))
      | _ -> Error (Printf.sprintf "bad port in address %s" s))
    | None -> Error (Printf.sprintf "bad address %s (tcp:HOST:PORT)" s)
  end
  else Ok (`Unix s)

let addr_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* the daemon: bind, announce, serve until a protocol shutdown (or a
   signal) stops it — a clean stop is exit 0 *)
let run_serve_daemon addr =
  match Serve.start addr with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "proxim serve: cannot listen on %s: %s\n"
      (addr_to_string addr) (Unix.error_message e);
    1
  | srv ->
    let announced =
      match (addr, Serve.port srv) with
      | `Tcp (host, _), Some p -> `Tcp (host, p)
      | a, _ -> a
    in
    Printf.printf "proxim serve: listening on %s\n%!"
      (addr_to_string announced);
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.stop srv))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    Serve.wait srv;
    Printf.printf "proxim serve: shut down cleanly\n%!";
    0

let serve_fail m =
  prerr_endline ("proxim serve: " ^ m);
  1

let with_connection addr k =
  match Serve.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
    serve_fail
      (Printf.sprintf "cannot connect to %s: %s" (addr_to_string addr)
         (Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> k fd)

(* raw client: each --send payload goes out as one frame verbatim (so a
   test can push deliberately broken JSON through the framing), and
   each response prints as one line of JSON *)
let run_serve_send addr payloads =
  with_connection addr @@ fun fd ->
  let rec go = function
    | [] -> 0
    | payload :: tl -> (
      Proxim_serve.Frame.write fd payload;
      match Proxim_serve.Frame.read fd with
      | Ok response ->
        print_endline response;
        go tl
      | Error e -> serve_fail (Proxim_serve.Frame.read_error_to_string e))
  in
  go payloads

(* smoke client for CI: drive load -> attach -> report -> eco -> report
   -> paths through a live daemon and print the last report with the
   `proxim sta` printer, so the bytes can be diffed against offline
   analysis.  The first report is discarded: it warms the session's
   number memo, which writes the printed one. *)
let run_serve_smoke addr file pi_specs pi_all_spec eco_specs mode paths_k =
  let* named_pi = parse_all parse_pi_spec pi_specs in
  let* ecos = parse_all parse_eco_spec eco_specs in
  let* pi_all = parse_opt parse_pi_all_spec pi_all_spec in
  let* () =
    check
      [
        ( named_pi <> [] || pi_all <> None,
          "proxim serve: need at least one --pi event (or --pi-all)" );
        (paths_k >= 1, "proxim serve: --paths must be >= 1");
      ]
  in
  with_connection addr @@ fun fd ->
  let ( let* ) = Result.bind in
  let req op fields =
    Serve.call fd (Sjson.Obj (("op", Sjson.String op) :: fields))
  in
  let payload key resp =
    Option.to_result ~none:("response carries no " ^ key)
      (Sjson.member key resp)
  in
  let session =
    let path =
      if Filename.is_relative file then Filename.concat (Sys.getcwd ()) file
      else file
    in
    let* loaded = req "load" [ ("path", Sjson.String path) ] in
    let* design = payload "design" loaded in
    let* _ =
      req "attach"
        ([
           ("design", design);
           ( "mode",
             Sjson.String
               (if mode = Sta.Classic then "classic" else "proximity") );
           ("models", Sjson.String "synthetic");
           ( "pi",
             Sjson.List
               (List.map
                  (fun (net, a) ->
                    Sjson.List [ Sjson.String net; Serve.arrival_to_json a ])
                  named_pi) );
         ]
        @ Option.fold ~none:[]
            ~some:(fun a -> [ ("pi_all", Serve.arrival_to_json a) ])
            pi_all)
    in
    let* _ = req "report" [] in
    let* _ =
      if ecos = [] then Ok Sjson.Null
      else req "eco" [ ("ecos", Sjson.List (List.map Serve.eco_to_json ecos)) ]
    in
    let* resp = req "report" [] in
    let* rj = payload "report" resp in
    let* report = Serve.report_of_json rj in
    let* paths =
      match report.Sta.critical_po with
      | None -> Ok []
      | Some (po, _) ->
        let* resp =
          req "paths"
            [
              ("po", Sjson.String po);
              ("k", Sjson.Number (float_of_int paths_k));
            ]
        in
        let* pj = payload "paths" resp in
        Serve.paths_of_json pj
    in
    let* _ = req "bye" [] in
    Ok (report, paths)
  in
  match session with
  | Error m -> serve_fail m
  | Ok (report, paths) ->
    print_sta_report report ~paths:(fun _ -> paths);
    0

let run_serve listen_s connect_s payloads smoke_file pi_specs pi_all_spec
    eco_specs mode paths_k =
  let with_addr s k =
    match parse_addr s with Error m -> usage_error m | Ok a -> k a
  in
  match (connect_s, smoke_file, payloads) with
  | None, None, [] -> (
    match listen_s with
    | Some s -> with_addr s run_serve_daemon
    | None ->
      usage_error
        "proxim serve: pass --listen ADDR to serve, or --connect ADDR with \
         --send/--smoke to talk to a daemon")
  | None, _, _ ->
    usage_error "proxim serve: --send/--smoke need --connect ADDR"
  | Some _, Some _, _ :: _ ->
    usage_error "proxim serve: --send and --smoke are mutually exclusive"
  | Some c, None, (_ :: _ as payloads) ->
    with_addr c (fun a -> run_serve_send a payloads)
  | Some c, Some file, [] ->
    with_addr c (fun a ->
        run_serve_smoke a file pi_specs pi_all_spec eco_specs mode paths_k)
  | Some _, None, [] ->
    usage_error "proxim serve: --connect needs --send or --smoke"

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                     *)

open Cmdliner

let gate_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"GATE" ~doc:"Gate type: inv, nandN, norN, aoi21, oai21.")

(* Shared --domains flag: configures the process-wide pool every
   characterization path defaults to.  1 = serial (bit-identical). *)
let domains_setup =
  let doc =
    "Number of domains (cores) used for parallel characterization sweeps; 1 \
     runs everything serially with bit-identical results."
  in
  let arg =
    Arg.(
      value
      & opt int (Proxim_util.Pool.recommended_domains ())
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let setup n =
    if n < 1 then begin
      prerr_endline "proxim: --domains must be >= 1";
      exit 2
    end;
    Proxim_util.Pool.set_default_domains n
  in
  Term.(const setup $ arg)

(* Shared observability flags: --trace FILE records every instrumented
   span to a Chrome trace-event JSON file (load it in ui.perfetto.dev);
   --metrics text|json prints the metrics-registry snapshot after the
   command body runs. *)
type obs_opts = {
  trace_file : string option;
  metrics_fmt : [ `Text | `Json ] option;
}

let obs_setup =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record instrumented spans and write them as Chrome \
             trace-event JSON to $(docv) (loadable in Perfetto, \
             ui.perfetto.dev, or chrome://tracing).")
  in
  let metrics =
    Arg.(
      value
      & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
      & info [ "metrics" ] ~docv:"FMT"
          ~doc:
            "Print a metrics-registry snapshot (counters, gauges, latency \
             histograms) after the run: text or json.")
  in
  let setup trace_file metrics_fmt =
    Obs_metrics.install_util_sources ();
    if trace_file <> None then Obs_trace.enable ();
    { trace_file; metrics_fmt }
  in
  Term.(const setup $ trace $ metrics)

let finish_obs obs code =
  (match obs.trace_file with
   | None -> ()
   | Some f ->
     Obs_trace.write_file f;
     Printf.eprintf "trace written to %s (load in ui.perfetto.dev)\n" f);
  (match obs.metrics_fmt with
   | None -> ()
   | Some `Text -> print_string (Obs_metrics.to_text (Obs_metrics.snapshot ()))
   | Some `Json ->
     print_endline (Obs_metrics.to_json (Obs_metrics.snapshot ())));
  code

(* ---- options used by several subcommands: each is defined once and
   takes only its default, its accepted values and its doc text ---- *)

let file_arg doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let pi_arg
    ?(doc =
      "Primary-input event as net:edge:tau_ps:cross_ps (repeatable), e.g. \
       --pi a:fall:500:0.") () =
  Arg.(value & opt_all string [] & info [ "pi" ] ~docv:"EVENT" ~doc)

let pi_all_arg doc =
  Arg.(value & opt (some string) None & info [ "pi-all" ] ~docv:"EVENT" ~doc)

let eco_arg ~docv doc =
  Arg.(value & opt_all string [] & info [ "eco" ] ~docv ~doc)

let mode_arg
    ?(modes = [ ("classic", Sta.Classic); ("proximity", Sta.Proximity) ]) doc =
  Arg.(
    value
    & opt (enum modes) Sta.Proximity
    & info [ "mode" ] ~docv:"MODE" ~doc)

let models_arg default doc =
  Arg.(
    value
    & opt (enum [ ("oracle", `Oracle); ("synthetic", `Synthetic) ]) default
    & info [ "models" ] ~docv:"KIND" ~doc)

let paths_arg doc = Arg.(value & opt int 1 & info [ "paths" ] ~docv:"K" ~doc)

let required_arg doc =
  Arg.(value & opt (some float) None & info [ "required" ] ~docv:"PS" ~doc)

let sense_arg doc = Arg.(value & flag & info [ "sense" ] ~doc)

let pi_window_arg =
  Arg.(
    value & opt_all string []
    & info [ "pi-window" ] ~docv:"PS|NET=PS"
        ~doc:
          "Arrival-time uncertainty window, ±PS picoseconds (repeatable): a \
           bare value applies to every event, NET=PS overrides one net. \
           Default ±0 (the concrete events).")

let tau_window_arg =
  Arg.(
    value & opt float 0.
    & info [ "tau-window" ] ~docv:"PS"
        ~doc:"Transition-time uncertainty window, ±PS, for every event.")

let report_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Report format: text, json or sarif (SARIF 2.1.0).")

let fail_on_arg =
  Arg.(
    value
    & opt
        (enum [ ("warning", Diagnostic.Warning); ("error", Diagnostic.Error) ])
        Diagnostic.Warning
    & info [ "fail-on" ] ~docv:"SEV"
        ~doc:
          "Lowest severity that makes the exit status nonzero: warning \
           (default) or error.")

let codes_arg doc =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "codes" ] ~docv:"CODES" ~doc)

(* the --codes doc of the analysis subcommands, with their own example *)
let codes_doc example =
  Printf.sprintf
    "Comma-separated diagnostic codes or glob patterns to keep (e.g. %s); \
     everything else is dropped from the report and the exit status.  \
     Without a value, print the code table and exit."
    example

let vtc_cmd =
  Cmd.v (Cmd.info "vtc" ~doc:"Print the VTC family and chosen thresholds")
    Term.(const (fun () g -> run_vtc g) $ domains_setup $ gate_arg)

let delay_cmd =
  let pin = Arg.(value & opt string "a" & info [ "pin" ] ~docv:"PIN") in
  let edge = Arg.(value & opt string "fall" & info [ "edge" ] ~docv:"EDGE") in
  let tau =
    Arg.(value & opt float 500. & info [ "tau" ] ~docv:"PS" ~doc:"transition time, ps")
  in
  let load =
    Arg.(value & opt (some float) None & info [ "load" ] ~docv:"FF" ~doc:"output load, fF")
  in
  Cmd.v (Cmd.info "delay" ~doc:"Single-input delay on the golden simulator")
    Term.(
      const (fun () g p e t l -> run_delay g p e t l)
      $ domains_setup $ gate_arg $ pin $ edge $ tau $ load)

let proximity_cmd =
  let events =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"EVENT"
          ~doc:"Input events as pin:edge:tau_ps:cross_ps, e.g. a:fall:500:0.")
  in
  let baselines =
    Arg.(value & flag & info [ "baselines" ] ~doc:"Also run the collapse-to-inverter baselines.")
  in
  Cmd.v
    (Cmd.info "proximity"
       ~doc:"Run ProximityDelay on a set of input events and compare with the golden simulator")
    Term.(
      const (fun () g ev b -> run_proximity g ev b)
      $ domains_setup $ gate_arg $ events $ baselines)

let glitch_cmd =
  let fall_pin = Arg.(value & opt string "a" & info [ "fall-pin" ]) in
  let rise_pin = Arg.(value & opt string "b" & info [ "rise-pin" ]) in
  let tau_fall = Arg.(value & opt float 500. & info [ "tau-fall" ] ~docv:"PS") in
  let tau_rise = Arg.(value & opt float 100. & info [ "tau-rise" ] ~docv:"PS") in
  let sep = Arg.(value & opt float 0. & info [ "sep" ] ~docv:"PS") in
  let find_min =
    Arg.(value & flag & info [ "find-min" ] ~doc:"Bisect for the inertial delay.")
  in
  Cmd.v (Cmd.info "glitch" ~doc:"Opposite-transition glitch analysis (paper section 6)")
    Term.(
      const (fun () g fp rp tf tr s m -> run_glitch g fp rp tf tr s m)
      $ domains_setup $ gate_arg $ fall_pin $ rise_pin $ tau_fall $ tau_rise
      $ sep $ find_min)

let lint_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Netlist (.ntl) or characterized-store file to lint.")
  in
  let fanout_limit =
    Arg.(
      value & opt int Netlist_lint.default_options.Netlist_lint.fanout_limit
      & info [ "fanout-limit" ] ~docv:"N"
          ~doc:"Fanout above which PX112 fires.")
  in
  let codes =
    codes_arg
      "Without a value, print the diagnostic-code table and exit. With a \
       comma-separated list of codes or glob patterns (e.g. PX101,PX112 or \
       PX1*,PX30?), keep only those codes — the filter applies before \
       --fail-on computes the exit status."
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics for netlists, threshold sets and characterized \
          stores")
    Term.(
      const (fun obs fs fmt fo fl c -> finish_obs obs (run_lint fs fmt fo fl c))
      $ obs_setup $ files $ report_format_arg $ fail_on_arg $ fanout_limit
      $ codes)

let sta_cmd =
  let file =
    file_arg
      "Netlist to analyze: text (.ntl) or binary (.pxb), detected by content."
  in
  let mode =
    mode_arg
      ~modes:
        [
          ("classic", Sta.Classic);
          ("proximity", Sta.Proximity);
          ("jun", Sta.Collapsed Collapse.Jun);
          ("nabavi-lishi", Sta.Collapsed Collapse.Nabavi_lishi);
        ]
      "Propagation mode: classic (latest single-input response), proximity \
       (the paper's algorithm, default), jun or nabavi-lishi \
       (collapse-to-inverter baselines on the golden simulator)."
  in
  let models =
    models_arg `Oracle
      "Cell models: oracle (golden-simulator backed, default) or synthetic \
       (fast analytic stand-ins, for flow experiments)."
  in
  let paths = paths_arg "Enumerate the K worst paths to the critical output." in
  let required =
    required_arg "Required arrival time; prints per-output slacks."
  in
  let eco =
    eco_arg ~docv:"EDIT"
      "Apply an engineering change order after the initial analysis and \
       re-analyze incrementally (repeatable): pi:NET:EDGE:TAU_PS:CROSS_PS \
       re-times a primary input, pi:NET:quiet silences one, cell:NAME marks \
       a cell re-characterized."
  in
  let verify_eco =
    Arg.(
      value & flag
      & info [ "verify-eco" ]
          ~doc:
            "After the incremental update, rerun a full analysis of the \
             edited design and fail unless the two agree bit-for-bit.")
  in
  let pi_all =
    pi_all_arg
      "Apply one event as edge:tau_ps:cross_ps to every primary input not \
       already named by a --pi option — the practical way to drive \
       generated designs with thousands of inputs."
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Print only the switching-net count instead of the full \
             per-net arrival table (for large designs).")
  in
  Cmd.v
    (Cmd.info "sta"
       ~doc:
         "Static timing analysis of a netlist (text or binary): arrivals, \
          K-worst paths, slacks, incremental (ECO) re-analysis")
    Term.(
      const (fun () obs f p pa m k pk r e v s ->
          finish_obs obs (run_sta f p pa m k pk r e v s))
      $ domains_setup $ obs_setup $ file $ pi_arg () $ pi_all $ mode $ models
      $ paths $ required $ eco $ verify_eco $ summary)

let verify_cmd =
  let run file pi_specs window_specs tau_window_ps mode models_kind format
      fail_on codes sense =
    run_diagnostics ~cmd:"verify" ~file ~pi_specs ~window_specs ~tau_window_ps
      ~sense ~format ~fail_on ~codes
      (verify_analysis ~mode ~models_kind)
  in
  let mode =
    mode_arg
      "Analysis mode the intervals abstract: proximity (default) or classic."
  in
  let models =
    models_arg `Synthetic
      "Cell models: synthetic (fast analytic stand-ins, default) or oracle \
       (golden-simulator backed)."
  in
  let sense =
    sense_arg
      "Refine the classifications with static sensitization: pairs whose \
       pins can never both carry events under any consistent logic \
       assignment become never-proximate (false paths)."
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Static proximity verification: interval abstract interpretation \
          over the timing graph, PX3xx diagnostics")
    Term.(
      const (fun () obs f p w tw m mk fmt fo c sn ->
          finish_obs obs (run f p w tw m mk fmt fo c sn))
      $ domains_setup $ obs_setup
      $ file_arg "Netlist (.ntl) to verify."
      $ pi_arg () $ pi_window_arg $ tau_window_arg $ mode $ models
      $ report_format_arg $ fail_on_arg
      $ codes_arg (codes_doc "PX301,PX304 or PX3*")
      $ sense)

let hazards_cmd =
  let run file pi_specs window_specs tau_window_ps mode models_kind
      filter_margin_ps required_ps format fail_on codes sense =
    run_diagnostics ~cmd:"hazards" ~file ~pi_specs ~window_specs
      ~tau_window_ps ~sense ~format ~fail_on ~codes
      (hazards_analysis ~mode ~models_kind ~filter_margin_ps ~required_ps)
  in
  let pi =
    pi_arg
      ~doc:
        "Primary-input event as net:edge:tau_ps:cross_ps (repeatable). \
         Unlike sta/verify, edges may mix freely; two events on one net \
         describe a pulse."
      ()
  in
  let mode =
    mode_arg
      "Same-edge window transfer the analysis abstracts: proximity (default) \
       or classic."
  in
  let models =
    models_arg `Synthetic
      "Cell models and section-6 rule: synthetic (analytic stand-ins with \
       the macromodel surrogate rule, default) or oracle (golden-simulator \
       models with bisected inertial minimum separations)."
  in
  let filter_margin =
    Arg.(
      value & opt float 25.
      & info [ "filter-margin" ] ~docv:"PS"
          ~doc:
            "PX403 band, picoseconds: filtered pairs clearing the minimum \
             separation by less than this are reported as near misses.")
  in
  let required =
    required_arg
      "Primary-output required time for the observability pass; defaults to \
       the latest arrival bound in the design (every reachable glitch \
       observable)."
  in
  let sense =
    sense_arg
      "Refine the verdicts with static sensitization: opposing-edge pairs \
       whose pins can never both carry events are dropped and the cell \
       verdicts recomputed (pulse pairs always kept)."
  in
  Cmd.v
    (Cmd.info "hazards"
       ~doc:
         "Static glitch/hazard analysis: edge-pair windows against the \
          section-6 minimum-separation rule, required-time observability, \
          PX4xx diagnostics")
    Term.(
      const (fun () obs f p w tw m mk fm r fmt fo c sn ->
          finish_obs obs (run f p w tw m mk fm r fmt fo c sn))
      $ domains_setup $ obs_setup
      $ file_arg "Netlist (.ntl) to analyze."
      $ pi $ pi_window_arg $ tau_window_arg $ mode $ models $ filter_margin
      $ required $ report_format_arg $ fail_on_arg
      $ codes_arg (codes_doc "PX401,PX402 or PX40?")
      $ sense)

let sense_cmd =
  let run file pi_specs const_specs budget max_support format fail_on codes =
    run_diagnostics ~cmd:"sense" ~file ~pi_specs ~need_pi:false ~const_specs
      ~checks:
        [
          (budget >= 1, "proxim sense: --budget must be >= 1");
          (max_support >= 0, "proxim sense: --support must be >= 0");
        ]
      ~format ~fail_on ~codes
      (sense_analysis ~budget ~max_support)
  in
  let pi =
    pi_arg
      ~doc:
        "Primary-input event as net:edge:tau_ps:cross_ps (repeatable); only \
         the net and edge matter here.  Two events on one net describe a \
         pulse.  Inputs named by neither --pi nor --const are free (quiet at \
         an unknown level)."
      ()
  in
  let consts =
    Arg.(
      value & opt_all string []
      & info [ "const" ] ~docv:"NET=0|1"
          ~doc:"Pin a quiet primary input at a logic level (repeatable).")
  in
  let budget =
    Arg.(
      value & opt int Sense.default_budget
      & info [ "budget" ] ~docv:"CELLS"
          ~doc:
            "Fanin-cone cell limit per input pair before the implication \
             engine gives up (conservatively sensitizable).")
  in
  let support =
    Arg.(
      value & opt int Sense.default_max_support
      & info [ "support" ] ~docv:"N"
          ~doc:
            "Free-input limit per pair: at most 2^N cubes are enumerated \
             before the engine gives up.")
  in
  Cmd.v
    (Cmd.info "sense"
       ~doc:
         "Static sensitization analysis: ternary constant propagation, \
          bounded implication over input pairs, PX5xx diagnostics")
    Term.(
      const (fun () obs f p cn b su fmt fo c ->
          finish_obs obs (run f p cn b su fmt fo c))
      $ domains_setup $ obs_setup
      $ file_arg "Netlist (text or binary) to analyze."
      $ pi $ consts $ budget $ support $ report_format_arg $ fail_on_arg
      $ codes_arg (codes_doc "PX503 or PX5*"))

let profile_cmd =
  let mode = mode_arg "Propagation mode: proximity (default) or classic." in
  let models =
    models_arg `Oracle
      "Cell models: oracle (golden-simulator backed, default) or synthetic \
       (fast analytic stand-ins)."
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-phase time and allocation breakdown of an STA run (parse, \
          thresholds, characterize, build, analyze, report)")
    Term.(
      const (fun () obs f p m mk -> finish_obs obs (run_profile f p m mk))
      $ domains_setup $ obs_setup
      $ file_arg "Netlist (.ntl) to profile."
      $ pi_arg () $ mode $ models)

let storage_cmd =
  let fan_in = Arg.(value & opt int 3 & info [ "fan-in" ]) in
  let points = Arg.(value & opt int 10 & info [ "points" ]) in
  Cmd.v (Cmd.info "storage" ~doc:"Storage-complexity comparison (paper figure 4-2)")
    Term.(const run_storage $ fan_in $ points)

let format_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("binary", `Binary) ])) None
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output encoding: text or binary.  Default: by output extension \
           (.pxb is binary, anything else text).")

let gen_cmd =
  let cells =
    Arg.(
      required
      & opt (some int) None
      & info [ "cells"; "n" ] ~docv:"N" ~doc:"Number of cells to generate.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"PRNG seed; same seed and shape, same design, bit for bit.")
  in
  let depth =
    Arg.(
      value & opt int 16
      & info [ "depth" ] ~docv:"D" ~doc:"Number of logic layers (levels).")
  in
  let window =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Placement-locality window: inputs come from within ±W of the \
             cell's aligned position in the source layer.")
  in
  let reach =
    Arg.(
      value & opt int 3
      & info [ "reach" ] ~docv:"R"
          ~doc:
            "How many layers back non-dominant inputs may reach \
             (reconvergence).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write here instead of stdout (stdout is always text).")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a deterministic synthetic layered design for scale \
          testing")
    Term.(
      const (fun n s d w r o f -> run_gen n s d w r o f)
      $ cells $ seed $ depth $ window $ reach $ out $ format_arg)

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INPUT"
          ~doc:"Netlist to read (text or binary, detected by content).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT" ~doc:"File to write.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a netlist between the text (.ntl) and binary (.pxb) \
          encodings, preserving any thresholds directive")
    Term.(const run_convert $ input $ output $ format_arg)

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve on $(docv): unix:PATH (or a bare path) for a Unix-domain \
             socket, tcp:HOST:PORT for TCP (port 0 picks a free port, \
             announced on stdout).")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Client mode: connect to a running daemon at $(docv).")
  in
  let send =
    Arg.(
      value & opt_all string []
      & info [ "send" ] ~docv:"JSON"
          ~doc:
            "With --connect: send $(docv) as one frame (verbatim, so even \
             deliberately malformed payloads can be exercised) and print \
             the response.  Repeatable, sent in order.")
  in
  let smoke =
    Arg.(
      value
      & opt (some string) None
      & info [ "smoke" ] ~docv:"FILE"
          ~doc:
            "With --connect: drive load/attach/eco/report against the \
             daemon for netlist $(docv) and print the post-ECO report in \
             `proxim sta` format (for byte-comparison in CI).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived multi-session incremental timing daemon (and its \
          client modes) over a length-prefixed JSON protocol")
    Term.(
      const (fun () l c sn sm p pa e m k -> run_serve l c sn sm p pa e m k)
      $ domains_setup $ listen $ connect $ send $ smoke
      $ pi_arg
          ~doc:"Smoke-mode primary-input event net:edge:tau_ps:cross_ps." ()
      $ pi_all_arg
          "Smoke-mode event edge:tau_ps:cross_ps applied to every primary \
           input not named by --pi."
      $ eco_arg ~docv:"ECO"
          "Smoke-mode edit: pi:NET:EDGE:TAU_PS:CROSS_PS, pi:NET:quiet or \
           cell:NAME, streamed to the daemon before the report."
      $ mode_arg "Smoke-mode analysis mode."
      $ paths_arg "Smoke mode: enumerate the K worst paths.")

let () =
  let doc = "temporal-proximity gate delay modeling (DAC'96 reproduction)" in
  let main =
    Cmd.group (Cmd.info "proxim" ~version:"1.0.0" ~doc)
      [ vtc_cmd; delay_cmd; proximity_cmd; glitch_cmd; sta_cmd; verify_cmd;
        hazards_cmd; sense_cmd; profile_cmd; storage_cmd; lint_cmd; gen_cmd;
        convert_cmd; serve_cmd ]
  in
  exit (Cmd.eval' main)

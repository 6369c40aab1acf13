(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (and the ablations DESIGN.md calls out), then runs Bechamel
   microbenchmarks on the model-query hot paths.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig3_3 table5_1
     dune exec bench/main.exe -- --quick      -- reduced trial counts

   The golden reference is the in-repo circuit simulator (standing in for
   the paper's HSPICE); all workloads are seeded and deterministic. *)

module Floatx = Proxim_util.Floatx
module Prng = Proxim_util.Prng
module Stats = Proxim_util.Stats
module Histogram = Proxim_util.Histogram
module Pool = Proxim_util.Pool
module Single = Proxim_macromodel.Single
module Dual = Proxim_macromodel.Dual
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Proximity = Proxim_core.Proximity
module Inertial = Proxim_core.Inertial
module Storage = Proxim_core.Storage
module Collapse = Proxim_baseline.Collapse
module Memo_cache = Proxim_util.Memo_cache
module Timing = Proxim_timing.Timing
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Prune = Proxim_sta.Prune
module Synthgen = Proxim_sta.Synthgen
module Reference = Proxim_timing.Reference
module Obs_metrics = Proxim_obs.Metrics
module Obs_trace = Proxim_obs.Trace
module Json = Proxim_util.Json
module Harness = Proxim_harness.Harness

let quick = ref false
let domains = ref (Pool.recommended_domains ())
let trace_file : string option ref = ref None
let metrics_fmt : [ `Text | `Json ] option ref = ref None

let metrics_json () = Obs_metrics.to_json (Obs_metrics.snapshot ())

(* The one BENCH_*.json writer: top-level fields one per line as
   ["key": value] (CI greps lines such as ["sound": true]), values
   through [Json], and the live metrics snapshot embedded last so a bench
   artifact carries its own cache/pool/clamp observability. *)
let write_bench file fields =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iter
    (fun (key, v) ->
      Buffer.add_string buf "  ";
      Json.add_string buf key;
      Buffer.add_string buf ": ";
      Json.add_to buf v;
      Buffer.add_string buf ",\n")
    fields;
  Printf.bprintf buf "  \"metrics\": %s\n}\n" (metrics_json ());
  Out_channel.with_open_text file (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "  wrote %s\n" file

let int n = Json.Number (float_of_int n)
let num x = Json.Number x
let ratio a b = if b > 0. then a /. b else 1.

let ps s = s *. 1e12

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  Printf.printf "\n-- %s --\n" title

(* ------------------------------------------------------------------ *)
(* Shared context: the paper's 3-input NAND testbench                  *)

type ctx = {
  tech : Tech.t;
  nand3 : Gate.t;
  th : Vtc.thresholds;
  models : Models.t;
}

let make_ctx () =
  let tech = Tech.generic_5v in
  let nand3 = Gate.nand tech ~fan_in:3 in
  let th = Vtc.thresholds ~points:301 nand3 in
  let models = Models.of_oracle nand3 th in
  { tech; nand3; th; models }

let ctx = lazy (make_ctx ())

let event pin edge tau cross =
  { Proximity.pin; edge; tau; cross_time = cross }

let golden c events ~ref_pin =
  let stimuli =
    List.map
      (fun (e : Proximity.event) ->
        ( e.Proximity.pin,
          { Measure.edge = e.Proximity.edge; tau = e.Proximity.tau;
            cross_time = e.Proximity.cross_time } ))
      events
  in
  Measure.multi_input c.nand3 c.th ~stimuli ~ref_pin

(* ------------------------------------------------------------------ *)
(* Figure 1-2: delay and output transition vs separation               *)

let fig1_2 () =
  let c = Lazy.force ctx in
  section
    "Figure 1-2: proximity effect on a 3-input NAND (c stable at Vdd)";
  let run edge label =
    let tau_a = 500e-12 and tau_b = 100e-12 in
    let d_a = c.models.Models.delay1 ~pin:0 ~edge ~tau:tau_a in
    let d_b = c.models.Models.delay1 ~pin:1 ~edge ~tau:tau_b in
    let t_a = c.models.Models.trans1 ~pin:0 ~edge ~tau:tau_a in
    let t_b = c.models.Models.trans1 ~pin:1 ~edge ~tau:tau_b in
    let s_lo = -.(d_b +. t_b) and s_hi = d_a +. t_a in
    subsection
      (Printf.sprintf
         "%s inputs: tau_a = 500 ps, tau_b = 100 ps (output %s)" label
         (match edge with Measure.Fall -> "rise" | Measure.Rise -> "fall"));
    Printf.printf
      "  s_ab[ps]   dom | delay gold[ps] model[ps]  err%%  | trans gold[ps] \
       model[ps]  err%%\n";
    let points = if !quick then 9 else 17 in
    Array.iter
      (fun s ->
        let base = 2.5e-9 in
        let events = [ event 0 edge tau_a base; event 1 edge tau_b (base +. s) ] in
        let r = Proximity.evaluate c.models events in
        let g = golden c events ~ref_pin:r.Proximity.ref_pin in
        let derr =
          (r.Proximity.delay -. g.Measure.delay) /. g.Measure.delay *. 100.
        in
        let terr =
          (r.Proximity.out_transition -. g.Measure.out_transition)
          /. g.Measure.out_transition *. 100.
        in
        Printf.printf
          "  %8.1f    %s  |     %8.1f  %8.1f  %+5.1f |      %8.1f  %8.1f  \
           %+5.1f\n"
          (ps s)
          (Gate.pin_name r.Proximity.ref_pin)
          (ps g.Measure.delay) (ps r.Proximity.delay) derr
          (ps g.Measure.out_transition)
          (ps r.Proximity.out_transition)
          terr)
      (Floatx.linspace s_lo s_hi points)
  in
  run Measure.Fall "falling";
  run Measure.Rise "rising"

(* ------------------------------------------------------------------ *)
(* Figure 2-1: the VTC family and the threshold table                  *)

let fig2_1 () =
  let c = Lazy.force ctx in
  section "Figure 2-1: VTC family of the 3-input NAND";
  let fam = Vtc.family ~points:301 c.nand3 in
  Printf.printf "  subset      Vil      Vm      Vih   (V)\n";
  List.iter
    (fun (curve : Vtc.curve) ->
      let name =
        String.concat "" (List.map Gate.pin_name curve.Vtc.subset)
      in
      Printf.printf "  %-8s  %6.3f  %6.3f  %6.3f\n" ("{" ^ name ^ "}")
        curve.Vtc.vil curve.Vtc.vm curve.Vtc.vih)
    fam;
  let th = Vtc.choose fam in
  Printf.printf
    "  chosen thresholds: Vil = %.3f V (min), Vih = %.3f V (max)\n"
    th.Vtc.vil th.Vtc.vih;
  Printf.printf
    "  (paper, different process: Vil = 1.25 V, Vih = 3.37 V at Vdd = 5 V)\n"

(* ------------------------------------------------------------------ *)
(* Figure 3-3: proximity effect on delay, with dominance crossover     *)

let fig3_3 () =
  let c = Lazy.force ctx in
  section "Figure 3-3: delay vs separation; dominance crossover";
  let edge = Measure.Fall in
  let tau_a = 500e-12 in
  List.iter
    (fun tau_b ->
      let d_a = c.models.Models.delay1 ~pin:0 ~edge ~tau:tau_a in
      let d_b = c.models.Models.delay1 ~pin:1 ~edge ~tau:tau_b in
      let t_a = c.models.Models.trans1 ~pin:0 ~edge ~tau:tau_a in
      let t_b = c.models.Models.trans1 ~pin:1 ~edge ~tau:tau_b in
      let crossover = d_a -. d_b in
      subsection
        (Printf.sprintf
           "fall(a) = 500 ps, fall(b) = %.0f ps; predicted crossover at s = \
            %.1f ps"
           (ps tau_b) (ps crossover));
      Printf.printf "  s_ab[ps]   dom | delay gold[ps]  model[ps]  err%%\n";
      let points = if !quick then 9 else 15 in
      Array.iter
        (fun s ->
          let base = 3e-9 in
          let events =
            [ event 0 edge tau_a base; event 1 edge tau_b (base +. s) ]
          in
          let r = Proximity.evaluate c.models events in
          let g = golden c events ~ref_pin:r.Proximity.ref_pin in
          let derr =
            (r.Proximity.delay -. g.Measure.delay) /. g.Measure.delay *. 100.
          in
          Printf.printf "  %8.1f    %s  |      %8.1f   %8.1f  %+5.1f\n" (ps s)
            (Gate.pin_name r.Proximity.ref_pin)
            (ps g.Measure.delay) (ps r.Proximity.delay) derr)
        (Floatx.linspace (-.(d_b +. t_b)) (d_a +. t_a) points))
    [ 100e-12; 500e-12; 1000e-12 ]

(* ------------------------------------------------------------------ *)
(* Figure 4-2: storage complexity                                      *)

let fig4_2 () =
  section "Figure 4-2: storage complexity of the modeling options";
  List.iter
    (fun fan_in ->
      Format.printf "%a" (fun ppf () ->
        Storage.pp_comparison ppf ~fan_in ~points_per_axis:10) ())
    [ 2; 3; 4; 6; 8 ];
  Printf.printf
    "(cells are for delay only; double for the transition-time models)\n"

(* ------------------------------------------------------------------ *)
(* The 100-configuration validation dataset (Table 5-1 and friends)    *)

type sample = {
  s_events : Proximity.event list;
  s_gold : Measure.observation;
  s_ref_pin : int;
  s_ref_cross : float;
}

let validation_dataset = ref None

let dataset () =
  match !validation_dataset with
  | Some d -> d
  | None ->
    let c = Lazy.force ctx in
    let n = if !quick then 30 else 100 in
    let rng = Prng.create 19951010L (* the report's date *) in
    let samples =
      Array.init n (fun _ ->
        let tau () = Prng.float rng ~lo:50e-12 ~hi:2000e-12 in
        let base = 2.5e-9 in
        let sep () = Prng.float rng ~lo:(-500e-12) ~hi:500e-12 in
        let events =
          [
            event 0 Measure.Fall (tau ()) base;
            event 1 Measure.Fall (tau ()) (base +. sep ());
            event 2 Measure.Fall (tau ()) (base +. sep ());
          ]
        in
        let r = Proximity.evaluate c.models events in
        let g = golden c events ~ref_pin:r.Proximity.ref_pin in
        {
          s_events = events;
          s_gold = g;
          s_ref_pin = r.Proximity.ref_pin;
          s_ref_cross = r.Proximity.ref_cross;
        })
    in
    validation_dataset := Some samples;
    samples

let pct_errors ~pred_delay ~pred_trans samples =
  let derr =
    Array.map
      (fun s ->
        (pred_delay s -. s.s_gold.Measure.delay)
        /. s.s_gold.Measure.delay *. 100.)
      samples
  in
  let terr =
    Array.map
      (fun s ->
        (pred_trans s -. s.s_gold.Measure.out_transition)
        /. s.s_gold.Measure.out_transition *. 100.)
      samples
  in
  (derr, terr)

let print_stat_row label (st : Stats.summary) =
  Printf.printf "  %-28s %+7.2f  %6.2f  %+7.2f  %+7.2f\n" label st.Stats.mean
    st.Stats.std st.Stats.max st.Stats.min

let table5_1 () =
  let c = Lazy.force ctx in
  section
    (Printf.sprintf
       "Table 5-1: model vs circuit simulation, %d random configurations"
       (Array.length (dataset ())));
  let samples = dataset () in
  let eval ?correction s =
    Proximity.evaluate ?correction c.models s.s_events
  in
  let corr =
    Proximity.calibrate_correction c.nand3 c.th c.models ~edge:Measure.Fall
  in
  Printf.printf
    "  calibrated correction: delay %.1f ps, transition %.1f ps\n"
    (ps corr.Proximity.delay_err)
    (ps corr.Proximity.trans_err);
  Printf.printf "\n  quantity                       mean%%   std%%     max%%     min%%\n";
  let d_nc, t_nc =
    pct_errors samples
      ~pred_delay:(fun s -> (eval s).Proximity.delay)
      ~pred_trans:(fun s -> (eval s).Proximity.out_transition)
  in
  let d_c, t_c =
    pct_errors samples
      ~pred_delay:(fun s -> (eval ~correction:corr s).Proximity.delay)
      ~pred_trans:(fun s -> (eval ~correction:corr s).Proximity.out_transition)
  in
  print_stat_row "delay (no correction)" (Stats.summarize d_nc);
  print_stat_row "delay (with correction)" (Stats.summarize d_c);
  print_stat_row "rise time (no correction)" (Stats.summarize t_nc);
  print_stat_row "rise time (with correction)" (Stats.summarize t_c);
  Printf.printf "  paper: delay                   +1.40    2.46    +8.54    -6.94\n";
  Printf.printf "  paper: rise time               -1.33    4.82   +11.51   -13.15\n";
  (* Figure 5-1: error distributions *)
  subsection "Figure 5-1(a): delay error distribution [%] (no correction)";
  Format.printf "%a" Histogram.pp
    (Histogram.create ~lo:(-10.) ~hi:10. ~bins:10 d_nc);
  subsection "Figure 5-1(b): rise-time error distribution [%] (no correction)";
  Format.printf "%a" Histogram.pp
    (Histogram.create ~lo:(-15.) ~hi:15. ~bins:10 t_nc)

let ablation_correction () =
  (* the correction rows are already part of table5_1; this entry exists
     so the per-experiment index has a dedicated target *)
  table5_1 ()

let baseline_cmp () =
  let c = Lazy.force ctx in
  section "Baseline comparison: collapse-to-inverter vs proximity model";
  let samples = dataset () in
  let prox_d, prox_t =
    pct_errors samples
      ~pred_delay:(fun s ->
        (Proximity.evaluate c.models s.s_events).Proximity.delay)
      ~pred_trans:(fun s ->
        (Proximity.evaluate c.models s.s_events).Proximity.out_transition)
  in
  let of_variant variant =
    pct_errors samples
      ~pred_delay:(fun s ->
        let p = Collapse.predict variant c.nand3 c.th ~events:s.s_events in
        p.Collapse.out_cross -. s.s_ref_cross)
      ~pred_trans:(fun s ->
        let p = Collapse.predict variant c.nand3 c.th ~events:s.s_events in
        p.Collapse.out_transition)
  in
  let jun_d, jun_t = of_variant Collapse.Jun in
  let nl_d, nl_t = of_variant Collapse.Nabavi_lishi in
  Printf.printf "\n  method / delay error           mean%%   std%%     max%%     min%%\n";
  print_stat_row "proximity (this paper)" (Stats.summarize prox_d);
  print_stat_row "Jun et al. [8] collapse" (Stats.summarize jun_d);
  print_stat_row "Nabavi-Lishi [13] collapse" (Stats.summarize nl_d);
  Printf.printf "\n  method / rise-time error       mean%%   std%%     max%%     min%%\n";
  print_stat_row "proximity (this paper)" (Stats.summarize prox_t);
  print_stat_row "Jun et al. [8] collapse" (Stats.summarize jun_t);
  print_stat_row "Nabavi-Lishi [13] collapse" (Stats.summarize nl_t)

let ablation_table () =
  let c = Lazy.force ctx in
  section "Ablation: tabulated dual-input macromodel vs simulator oracle";
  let n = if !quick then 8 else 30 in
  let samples = Array.sub (dataset ()) 0 (min n (Array.length (dataset ()))) in
  Printf.printf "  building 3-D tables (this triggers many transient runs)...\n%!";
  let t0 = Unix.gettimeofday () in
  let full_x_tau = Floatx.logspace 0.25 16. 6 in
  let full_x_sep =
    [| -7.; -4.5; -3.; -2.; -1.25; -0.7; -0.3; 0.; 0.35; 0.7; 1.; 1.25 |]
  in
  let table_models =
    if !quick then
      Models.of_tables
        ~taus:(Floatx.logspace 30e-12 4e-9 8)
        ~x_tau:(Floatx.logspace 0.3 12. 5)
        ~x_sep:(Floatx.linspace (-2.5) 1.25 8)
        c.nand3 c.th
    else Models.of_tables ~x_tau:full_x_tau ~x_sep:full_x_sep c.nand3 c.th
  in
  let d_tbl, t_tbl =
    pct_errors samples
      ~pred_delay:(fun s ->
        (Proximity.evaluate table_models s.s_events).Proximity.delay)
      ~pred_trans:(fun s ->
        (Proximity.evaluate table_models s.s_events).Proximity.out_transition)
  in
  let d_orc, t_orc =
    pct_errors samples
      ~pred_delay:(fun s ->
        (Proximity.evaluate c.models s.s_events).Proximity.delay)
      ~pred_trans:(fun s ->
        (Proximity.evaluate c.models s.s_events).Proximity.out_transition)
  in
  (* the paper's Fig 4-2 claim: n dual tables (one per dominant pin,
     shared across the other inputs) suffice in practice *)
  let shared_models =
    if !quick then
      Models.of_tables
        ~taus:(Floatx.logspace 30e-12 4e-9 8)
        ~x_tau:(Floatx.logspace 0.3 12. 5)
        ~x_sep:(Floatx.linspace (-2.5) 1.25 8)
        ~share_others:true c.nand3 c.th
    else
      Models.of_tables ~x_tau:full_x_tau ~x_sep:full_x_sep ~share_others:true
        c.nand3 c.th
  in
  let d_shr, t_shr =
    pct_errors samples
      ~pred_delay:(fun s ->
        (Proximity.evaluate shared_models s.s_events).Proximity.delay)
      ~pred_trans:(fun s ->
        (Proximity.evaluate shared_models s.s_events).Proximity.out_transition)
  in
  Printf.printf "  table construction + queries: %.1f s\n" (Unix.gettimeofday () -. t0);
  Printf.printf "\n  dual-input model / delay       mean%%   std%%     max%%     min%%\n";
  print_stat_row "oracle (paper's methodology)" (Stats.summarize d_orc);
  print_stat_row "tabulated, n^2 tables" (Stats.summarize d_tbl);
  print_stat_row "tabulated, n shared (Fig 4-2)" (Stats.summarize d_shr);
  Printf.printf "\n  dual-input model / rise time   mean%%   std%%     max%%     min%%\n";
  print_stat_row "oracle (paper's methodology)" (Stats.summarize t_orc);
  print_stat_row "tabulated, n^2 tables" (Stats.summarize t_tbl);
  print_stat_row "tabulated, n shared (Fig 4-2)" (Stats.summarize t_shr)

let ablation_composition () =
  let c = Lazy.force ctx in
  section "Ablation: output-transition composition rule (eq 4.5 vs rates)";
  let samples = dataset () in
  let of_comp comp =
    pct_errors samples
      ~pred_delay:(fun s ->
        (Proximity.evaluate ~trans_composition:comp c.models s.s_events)
          .Proximity.delay)
      ~pred_trans:(fun s ->
        (Proximity.evaluate ~trans_composition:comp c.models s.s_events)
          .Proximity.out_transition)
  in
  let _, t_add = of_comp Proximity.Additive in
  let _, t_rate = of_comp Proximity.Rate_additive in
  Printf.printf "\n  rise-time composition          mean%%   std%%     max%%     min%%\n";
  print_stat_row "additive (eq 4.5 verbatim)" (Stats.summarize t_add);
  print_stat_row "rate-additive (default)" (Stats.summarize t_rate)

(* ------------------------------------------------------------------ *)
(* Figure 6-1: glitch magnitude vs separation (inertial delay)         *)

let fig6_1 () =
  let c = Lazy.force ctx in
  section "Figure 6-1: output glitch vs separation (a falls, b rises)";
  Printf.printf "  Vil threshold: %.3f V\n" c.th.Vtc.vil;
  List.iter
    (fun tau_rise ->
      subsection
        (Printf.sprintf "fall(a) = 500 ps, rise(b) = %.0f ps" (ps tau_rise));
      Printf.printf "  s_rise-fall[ps]   Vmin[V]   completes?\n";
      let points = if !quick then 8 else 14 in
      Array.iter
        (fun sep ->
          let g =
            Inertial.glitch c.nand3 c.th ~fall_pin:0 ~rise_pin:1
              ~tau_fall:500e-12 ~tau_rise ~sep
          in
          Printf.printf "  %12.1f   %8.3f   %s\n" (ps sep)
            g.Inertial.v_extreme
            (if g.Inertial.full_swing then "yes" else "no"))
        (Floatx.linspace (-2.5e-9) 0.5e-9 points);
      let s_min =
        Inertial.minimum_valid_separation c.nand3 c.th ~fall_pin:0
          ~rise_pin:1 ~tau_fall:500e-12 ~tau_rise
      in
      Printf.printf
        "  minimum separation for a valid output (inertial delay): %.1f ps\n"
        (ps s_min))
    [ 100e-12; 500e-12; 1000e-12 ]

(* ------------------------------------------------------------------ *)
(* Ablation: alpha-power device model (shape robustness)               *)

let ablation_alpha () =
  section "Ablation: alpha-power MOSFET model (shape robustness)";
  let tech = Tech.generic_5v_alpha in
  let nand3 = Gate.nand tech ~fan_in:3 in
  let th = Vtc.thresholds ~points:201 nand3 in
  let models = Models.of_oracle nand3 th in
  let edge = Measure.Fall in
  let tau_a = 500e-12 and tau_b = 100e-12 in
  let d_a = models.Models.delay1 ~pin:0 ~edge ~tau:tau_a in
  Printf.printf "  thresholds: Vil = %.3f V, Vih = %.3f V\n" th.Vtc.vil th.Vtc.vih;
  Printf.printf "  s_ab[ps]   delay gold[ps]  model[ps]  err%%\n";
  let mk_events s =
    let base = 2.5e-9 in
    [ event 0 edge tau_a base; event 1 edge tau_b (base +. s) ]
  in
  Array.iter
    (fun s ->
      let events = mk_events s in
      let r = Proximity.evaluate models events in
      let stimuli =
        List.map
          (fun (e : Proximity.event) ->
            ( e.Proximity.pin,
              { Measure.edge; tau = e.Proximity.tau;
                cross_time = e.Proximity.cross_time } ))
          events
      in
      let g = Measure.multi_input nand3 th ~stimuli ~ref_pin:r.Proximity.ref_pin in
      Printf.printf "  %8.1f        %8.1f   %8.1f  %+5.1f\n" (ps s)
        (ps g.Measure.delay) (ps r.Proximity.delay)
        ((r.Proximity.delay -. g.Measure.delay) /. g.Measure.delay *. 100.))
    (Floatx.linspace (-300e-12) d_a (if !quick then 5 else 9))

(* ------------------------------------------------------------------ *)
(* Generalization: other fan-ins and gate families (paper's §7 future
   work: "a comprehensive delay model for multi-input gates")           *)

let fanin_sweep () =
  section "Generalization: ProximityDelay on other gates (beyond the paper)";
  let tech = Tech.generic_5v in
  let rng = Prng.create 77L in
  List.iter
    (fun (gate, edge, label) ->
      let th = Vtc.thresholds ~points:201 gate in
      let models = Models.of_oracle gate th in
      let n = if !quick then 6 else 15 in
      let derrs = ref [] and terrs = ref [] in
      for _ = 1 to n do
        let base = 2.5e-9 in
        let events =
          List.init gate.Gate.fan_in (fun pin ->
            event pin edge
              (Prng.float rng ~lo:50e-12 ~hi:1500e-12)
              (base +. Prng.float rng ~lo:(-400e-12) ~hi:400e-12))
        in
        let r = Proximity.evaluate models events in
        let stimuli =
          List.map
            (fun (e : Proximity.event) ->
              ( e.Proximity.pin,
                { Measure.edge; tau = e.Proximity.tau;
                  cross_time = e.Proximity.cross_time } ))
            events
        in
        let g = Measure.multi_input gate th ~stimuli ~ref_pin:r.Proximity.ref_pin in
        derrs :=
          ((r.Proximity.delay -. g.Measure.delay) /. g.Measure.delay *. 100.)
          :: !derrs;
        terrs :=
          ((r.Proximity.out_transition -. g.Measure.out_transition)
           /. g.Measure.out_transition *. 100.)
          :: !terrs
      done;
      let ds = Stats.summarize (Array.of_list !derrs) in
      let ts = Stats.summarize (Array.of_list !terrs) in
      Printf.printf
        "  %-22s delay: mean %+5.2f%% std %5.2f%% [%+6.2f, %+6.2f] | trans:          mean %+5.2f%% std %5.2f%%
"
        label ds.Stats.mean ds.Stats.std ds.Stats.min ds.Stats.max ts.Stats.mean
        ts.Stats.std)
    [
      (Gate.nand tech ~fan_in:2, Measure.Fall, "nand2, falling");
      (Gate.nand tech ~fan_in:4, Measure.Fall, "nand4, falling");
      (Gate.nand tech ~fan_in:4, Measure.Rise, "nand4, rising");
      (Gate.nor tech ~fan_in:3, Measure.Rise, "nor3, rising");
      (Gate.nor tech ~fan_in:3, Measure.Fall, "nor3, falling");
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)

let microbench () =
  section "Microbenchmarks: model query vs golden simulation";
  let c = Lazy.force ctx in
  let single =
    Proxim_macromodel.Single.build
      ~taus:(Floatx.logspace 30e-12 4e-9 10)
      c.nand3 c.th ~pin:0 ~edge:Measure.Fall
  in
  let events =
    [
      event 0 Measure.Fall 400e-12 2.5e-9;
      event 1 Measure.Fall 200e-12 2.55e-9;
      event 2 Measure.Fall 800e-12 2.45e-9;
    ]
  in
  let high = Proxim_waveform.Pwl.constant c.tech.Tech.vdd in
  let fall = Proxim_waveform.Pwl.ramp ~t0:1e-9 ~width:400e-12 ~v_from:5. ~v_to:0. in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"single-input table query"
        (Staged.stage (fun () ->
           ignore (Proxim_macromodel.Single.delay single ~tau:333e-12)));
      Test.make ~name:"dominance ordering (3 events, memoized oracle)"
        (Staged.stage (fun () ->
           ignore (Proximity.dominance_order c.models events)));
      Test.make ~name:"full ProximityDelay (memoized oracle)"
        (Staged.stage (fun () -> ignore (Proximity.evaluate c.models events)));
      Test.make ~name:"golden transient (NAND3, one input)"
        (Staged.stage (fun () ->
           let inst =
             Gate.instantiate c.nand3 ~inputs:[| fall; high; high |]
           in
           ignore
             (Proxim_spice.Transient.run inst.Gate.net ~t_stop:3e-9)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.25 else 1.0))
      ~kde:(Some 1000) ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          instance results
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] ->
            let unit_, v =
              if t > 1e6 then ("ms", t /. 1e6)
              else if t > 1e3 then ("us", t /. 1e3)
              else ("ns", t)
            in
            Printf.printf "  %-48s %10.2f %s/run\n" name v unit_
          | Some _ | None -> Printf.printf "  %-48s (no estimate)\n" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* Incremental (ECO) re-analysis: Sta.update on a single edit vs a full
   Sta.reanalyze of the same final configuration.  Both run on a serial
   pool so the numbers measure the incremental machinery, not domain
   dispatch (parallel_bench covers the pool).  Writes
   BENCH_incremental.json.                                             *)

(* Strictly layered random designs ({!Harness.layered_design}) over
   two- and three-input gates: all inputs of a cell share one edge parity
   (the gates invert) and the fanout cone of a single edit stays a small
   fraction of the design -- the regime where ECO re-analysis pays. *)
let random_layered_design rng ~tech =
  Harness.layered_design rng
    ~gates:
      [|
        Gate.nand tech ~fan_in:2; Gate.nor tech ~fan_in:2;
        Gate.nand tech ~fan_in:3;
      |]

type incr_result = {
  ir_cells : int;
  ir_levels : int;
  ir_trials : int;
  ir_full_ms : float;  (** median *)
  ir_incr_ms : float;  (** median *)
  ir_speedup : float;
  ir_evaluated : float;  (** median cells re-evaluated per update *)
  ir_identical : bool;
  ir_stats : Memo_cache.stats;
}

let random_pi_event rng =
  {
    Sta.time = Prng.float rng ~lo:0. ~hi:300e-12;
    slew = Prng.float rng ~lo:150e-12 ~hi:600e-12;
    edge = Measure.Fall;
  }

(* ------------------------------------------------------------------ *)
(* Parallel scaling: serial vs the work-stealing domain pool on the
   characterization and STA workloads.  One run produces one row per
   domain count (2/4/8), each with the pool.* counter deltas observed
   during that row's build, so the committed BENCH_parallel.json shows
   the whole scaling curve and whether the pool actually fanned out.
   host_cores is recorded because domain counts beyond the physical
   cores measure OCaml's stop-the-world GC oversubscription penalty,
   not the pool -- the CI gate only enforces speedup floors on rows the
   host can actually run in parallel.                                  *)

type pool_delta = {
  pd_parallel_jobs : int;
  pd_serial_jobs : int;
  pd_tasks : int;
  pd_chunks : int;
  pd_steals : int;
}

let pool_counters () =
  ( Pool.parallel_jobs (),
    Pool.serial_jobs (),
    Pool.tasks_dispatched (),
    Pool.chunks_dispatched (),
    Pool.steals () )

let pool_delta_since (pj, sj, tk, ch, st) =
  let pj', sj', tk', ch', st' = pool_counters () in
  {
    pd_parallel_jobs = pj' - pj;
    pd_serial_jobs = sj' - sj;
    pd_tasks = tk' - tk;
    pd_chunks = ch' - ch;
    pd_steals = st' - st;
  }

let pool_delta_json d =
  Json.Obj
    [
      ("parallel_jobs", int d.pd_parallel_jobs);
      ("serial_jobs", int d.pd_serial_jobs); ("tasks", int d.pd_tasks);
      ("chunks", int d.pd_chunks); ("steals", int d.pd_steals);
    ]

let parallel_bench () =
  let c = Lazy.force ctx in
  let host_cores = Pool.recommended_domains () in
  section "Parallel scaling: characterization + STA, serial vs domain pool";
  Printf.printf "  host cores: %d%s\n" host_cores
    (if host_cores < 2 then
       " (multi-domain rows measure GC oversubscription, not scaling)"
     else "");
  (* characterization workload: the same nand3 tables at every width *)
  let taus = Floatx.logspace 30e-12 4e-9 (if !quick then 8 else 12) in
  let x_tau = Floatx.logspace 0.3 12. (if !quick then 5 else 6) in
  let x_sep =
    if !quick then Floatx.linspace (-2.5) 1.25 8
    else [| -7.; -4.5; -3.; -2.; -1.25; -0.7; -0.3; 0.; 0.35; 0.7; 1.; 1.25 |]
  in
  let grid_runs =
    2 * Array.length x_tau * Array.length x_tau * Array.length x_sep
  in
  Printf.printf
    "  characterization workload: 2 single tables (%d transients, one \
     batched job) + 1 dual table (%d transients)\n%!"
    (2 * Array.length taus) grid_runs;
  let build pool =
    let t0 = Unix.gettimeofday () in
    let singles =
      Single.build_many ~taus ~pool c.nand3 c.th
        [| (0, Measure.Fall); (1, Measure.Fall) |]
    in
    let dual =
      Dual.build ~x_tau ~x_sep ~pool c.nand3 c.th ~single_dom:singles.(0)
        ~single_other:singles.(1) ~other:1
    in
    ( Unix.gettimeofday () -. t0,
      Single.save singles.(0) ^ Single.save singles.(1) ^ Dual.save dual )
  in
  let serial_pool = Pool.create ~domains:1 in
  let t_serial, tables_serial = build serial_pool in
  Pool.shutdown serial_pool;
  Printf.printf "  serial (--domains 1): %6.2f s\n%!" t_serial;
  let char_rows =
    List.map
      (fun d ->
        let before = pool_counters () in
        let pool = Pool.create ~domains:d in
        let t, tables = build pool in
        Pool.shutdown pool;
        let delta = pool_delta_since before in
        let identical = String.equal tables_serial tables in
        let speedup = ratio t_serial t in
        Printf.printf
          "  %d domains: %6.2f s (%.2fx), %d parallel jobs, %d chunks, %d \
           steals, tables %s\n%!"
          d t speedup delta.pd_parallel_jobs delta.pd_chunks delta.pd_steals
          (if identical then "bit-identical" else "DIFFER");
        (d, t, speedup, identical, delta))
      [ 2; 4; 8 ]
  in
  (* STA workload: proximity-mode reanalysis of a layered design whose
     levels are wide enough for chunked level execution, with synthetic
     models carrying an artificial per-evaluation cost.  Synthetic models
     keep no query cache, so every query pays that cost and every run
     times real evaluations.  The same PRNG seed at every width
     makes the design, arrivals and models identical across runs. *)
  let depth, width = if !quick then (3, 48) else (5, 64) in
  let work = if !quick then 5_000 else 20_000 in
  let sta_domains = max 2 !domains in
  let trials = 3 in
  let sta_run d =
    let rng = Prng.create 0x57A11E1L in
    let ts = Array.make trials 0. in
    let report = ref None in
    let before = pool_counters () in
    let pool = Pool.create ~domains:d in
    for t = 0 to trials - 1 do
      let design = random_layered_design rng ~tech:c.tech ~depth ~width in
      let pi =
        List.map
          (fun net -> (net, random_pi_event rng))
          (Design.primary_inputs design)
      in
      let factory = Sta.synthetic_factory ~work () in
      let ir =
        Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models
          ~thresholds:c.th design ~pi
      in
      let t0 = Unix.gettimeofday () in
      ignore (Sta.reanalyze ~pool ir);
      ts.(t) <- Unix.gettimeofday () -. t0;
      report := Some (Sta.report ir)
    done;
    Pool.shutdown pool;
    (Stats.percentile ts 50., pool_delta_since before, Option.get !report)
  in
  Printf.printf
    "  STA workload: %d cells / %d levels, %d trials, synthetic work %d\n%!"
    (depth * width) depth trials work;
  let t_sta_serial, _, report_serial = sta_run 1 in
  Printf.printf "  STA serial (1 domain): median %.4f s\n%!" t_sta_serial;
  let t_sta_par, sta_delta, report_par = sta_run sta_domains in
  let sta_identical = Sta.report_equal report_serial report_par in
  let sta_speedup = ratio t_sta_serial t_sta_par in
  Printf.printf
    "  STA %d domains: median %.4f s (%.2fx), %d parallel jobs, %d steals, \
     reports %s\n%!"
    sta_domains t_sta_par sta_speedup sta_delta.pd_parallel_jobs
    sta_delta.pd_steals
    (if sta_identical then "bit-identical" else "DIFFER");
  let all_identical =
    sta_identical && List.for_all (fun (_, _, _, i, _) -> i) char_rows
  in
  Printf.printf
    "  PARALLEL SUMMARY: characterization %s at 2/4/8 domains; STA %.2fx at \
     %d domains (%d parallel jobs); host %d core(s)\n"
    (String.concat "/"
       (List.map
          (fun (_, _, s, _, _) -> Printf.sprintf "%.2fx" s)
          char_rows))
    sta_speedup sta_domains sta_delta.pd_parallel_jobs host_cores;
  if not all_identical then
    Printf.printf "  ERROR: parallel results differ from serial!\n";
  write_bench "BENCH_parallel.json"
    [
      ( "workload",
        Json.String
          (Printf.sprintf
             "nand3 table build (%d transients) + proximity STA (%d cells, \
              synthetic work %d)"
             ((2 * Array.length taus) + grid_runs)
             (depth * width) work) );
      ("quick", Json.Bool !quick);
      ("host_cores", int host_cores);
      ( "characterization",
        Json.Obj
          [
            ("serial_s", num t_serial);
            ( "rows",
              Json.List
                (List.map
                   (fun (d, t, speedup, identical, delta) ->
                     Json.Obj
                       [
                         ("domains", int d); ("parallel_s", num t);
                         ("speedup", num speedup);
                         ("bit_identical", Json.Bool identical);
                         ("pool", pool_delta_json delta);
                       ])
                   char_rows) );
          ] );
      ( "sta",
        Json.Obj
          [
            ("cells", int (depth * width)); ("levels", int depth);
            ("trials", int trials); ("domains", int sta_domains);
            ("serial_s", num t_sta_serial); ("parallel_s", num t_sta_par);
            ("speedup", num sta_speedup);
            ("bit_identical", Json.Bool sta_identical);
            ("pool", pool_delta_json sta_delta);
          ] );
    ]

let incremental_design rng pool th ~tech ~depth ~width ~trials =
  let design = random_layered_design rng ~tech ~depth ~width in
  let n_cells = List.length (Design.cells design) in
  let { Sta.models; factory_stats }, reseed = Harness.reseedable_factory () in
  let pi =
    List.map
      (fun net -> (net, random_pi_event rng))
      (Design.primary_inputs design)
  in
  let build () =
    Sta.build_ir ~mode:Sta.Proximity ~models ~thresholds:th design ~pi
  in
  let ir = build () in
  let ir_full = build () in
  ignore (Sta.reanalyze ~pool ir);
  ignore (Sta.reanalyze ~pool ir_full);
  let pis = Array.of_list (Design.primary_inputs design) in
  let cell_names =
    Array.of_list (List.map (fun c -> c.Design.name) (Design.cells design))
  in
  let t_incr = Array.make trials 0. in
  let t_full = Array.make trials 0. in
  let evaluated = Array.make trials 0. in
  let identical = ref true in
  for t = 0 to trials - 1 do
    let eco =
      if Prng.int rng ~lo:0 ~hi:9 < 7 then
        (* re-timed primary input *)
        let net = pis.(Prng.int rng ~lo:0 ~hi:(Array.length pis - 1)) in
        Sta.Set_pi (net, Some (random_pi_event rng))
      else begin
        (* one re-characterized instance: swap its model seed *)
        let name =
          cell_names.(Prng.int rng ~lo:0 ~hi:(Array.length cell_names - 1))
        in
        reseed name (t + 1);
        Sta.Touch_cell name
      end
    in
    let t0 = Unix.gettimeofday () in
    let st = Sta.update ~pool ir [ eco ] in
    t_incr.(t) <- Unix.gettimeofday () -. t0;
    evaluated.(t) <- float_of_int st.Timing.evaluated;
    (* bring ir_full's sources/models to the same configuration, then
       time a from-scratch pass over it *)
    ignore (Sta.update ~pool ir_full [ eco ]);
    let t0 = Unix.gettimeofday () in
    ignore (Sta.reanalyze ~pool ir_full);
    t_full.(t) <- Unix.gettimeofday () -. t0;
    if not (Sta.report_equal (Sta.report ir) (Sta.report ir_full)) then
      identical := false
  done;
  let median a = Stats.percentile a 50. in
  let full_ms = 1e3 *. median t_full and incr_ms = 1e3 *. median t_incr in
  {
    ir_cells = n_cells;
    ir_levels = Graph.level_count (Design.graph design);
    ir_trials = trials;
    ir_full_ms = full_ms;
    ir_incr_ms = incr_ms;
    ir_speedup = ratio full_ms incr_ms;
    ir_evaluated = median evaluated;
    ir_identical = !identical;
    ir_stats = factory_stats ();
  }

(* ------------------------------------------------------------------ *)
(* Scaling curve: generated designs at 10^4 .. 10^6 cells, one full
   analyze and one single-edit update each, with the peak-RSS
   high-water mark reset per row so the footprint is attributable.
   Synthetic models keep no query cache, so the footprint is the
   design and its annotation arena.                                    *)

type scale_row = {
  sc_cells : int;
  sc_levels : int;
  sc_nets : int;
  sc_gen_ms : float;
  sc_analyze_ms : float;
  sc_update_ms : float;
  sc_update_evaluated : int;
  sc_incr_ratio : float;  (** update_evaluated / cells *)
  sc_bit_identical : bool;
  sc_peak_rss_mb : float;
  sc_arena_mb : float;
}

let scaling_row pool th ~tech ~cells =
  Gc.compact ();
  Obs_metrics.reset_peak_rss ();
  let t0 = Unix.gettimeofday () in
  let _name, design = Synthgen.generate ~seed:1 ~tech ~cells () in
  let gen_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  let factory = Sta.synthetic_factory () in
  let pi =
    List.map
      (fun net ->
        (net, { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall }))
      (Design.primary_inputs design)
  in
  let ir =
    Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds:th
      design ~pi
  in
  let t0 = Unix.gettimeofday () in
  ignore (Sta.reanalyze ~pool ir : Timing.stats);
  let analyze_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  let eco =
    Sta.Set_pi
      ("pi0", Some { Sta.time = 20e-12; slew = 250e-12; edge = Measure.Fall })
  in
  let t0 = Unix.gettimeofday () in
  let st = Sta.update ~pool ir [ eco ] in
  let update_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  let g = Design.graph design in
  (* read the high-water mark before the record-engine oracle runs: its
     boxed allocations are verification overhead, not the workload's *)
  let peak_rss_mb =
    float_of_int (Obs_metrics.peak_rss_bytes ()) /. (1024. *. 1024.)
  in
  let arena_mb =
    float_of_int (Timing.arena_bytes (Sta.timing ir)) /. (1024. *. 1024.)
  in
  let identical = Reference.agrees (Sta.timing ir) in
  {
    sc_cells = cells;
    sc_levels = Graph.level_count g;
    sc_nets = Graph.net_count g;
    sc_gen_ms = gen_ms;
    sc_analyze_ms = analyze_ms;
    sc_update_ms = update_ms;
    sc_update_evaluated = st.Timing.evaluated;
    sc_incr_ratio = float_of_int st.Timing.evaluated /. float_of_int cells;
    sc_bit_identical = identical;
    sc_peak_rss_mb = peak_rss_mb;
    sc_arena_mb = arena_mb;
  }

let incremental_bench () =
  let c = Lazy.force ctx in
  section "Incremental (ECO) re-analysis: Sta.update vs full reanalyze";
  let sizes =
    if !quick then [ (3, 64) ] else [ (3, 133); (4, 150) ]
  in
  let trials = if !quick then 8 else 40 in
  let rng = Prng.create 0xEC0L in
  let pool = Pool.create ~domains:1 in
  let results =
    List.map
      (fun (depth, width) ->
        let r =
          incremental_design rng pool c.th ~tech:c.tech ~depth ~width ~trials
        in
        Printf.printf
          "  %4d cells / %d levels: full %8.3f ms, incremental %8.3f ms \
           (%5.1fx), median %3.0f of %d cells re-evaluated, %s\n%!"
          r.ir_cells r.ir_levels r.ir_full_ms r.ir_incr_ms r.ir_speedup
          r.ir_evaluated r.ir_cells
          (if r.ir_identical then "bit-identical" else "MISMATCH");
        r)
      sizes
  in
  let identical = List.for_all (fun r -> r.ir_identical) results in
  let speedup =
    List.fold_left (fun acc r -> Float.min acc r.ir_speedup) infinity results
  in
  let stats =
    List.fold_left
      (fun acc r -> Models.merge_stats acc r.ir_stats)
      Memo_cache.zero_stats results
  in
  subsection "Scaling: generated designs, full analyze vs single-edit ECO";
  let scale_sizes =
    if !quick then [ 10_000; 100_000 ] else [ 10_000; 100_000; 1_000_000 ]
  in
  let scaling =
    List.map
      (fun cells ->
        let r = scaling_row pool c.th ~tech:c.tech ~cells in
        Printf.printf
          "  %8d cells: gen %7.0f ms, analyze %8.1f ms, update %6.2f ms \
           (%d cells, ratio %.2e), arena %.1f MB, peak RSS %.1f MB, %s\n%!"
          r.sc_cells r.sc_gen_ms r.sc_analyze_ms r.sc_update_ms
          r.sc_update_evaluated r.sc_incr_ratio r.sc_arena_mb r.sc_peak_rss_mb
          (if r.sc_bit_identical then "bit-identical" else "MISMATCH");
        r)
      scale_sizes
  in
  Pool.shutdown pool;
  let identical = identical && List.for_all (fun r -> r.sc_bit_identical) scaling in
  Printf.printf
    "  INCREMENTAL SUMMARY: median speedup %.1fx (worst design), reports \
     %s, model cache %d hits / %d misses / %d entries\n"
    speedup
    (if identical then "bit-identical" else "DIFFER")
    stats.Memo_cache.hits stats.Memo_cache.misses stats.Memo_cache.entries;
  write_bench "BENCH_incremental.json"
    [
      ( "workload",
        Json.String
          "single-edit ECO on random layered designs, proximity mode, \
           synthetic models" );
      ("quick", Json.Bool !quick);
      ("trials_per_design", int trials);
      ("median_speedup", num speedup);
      ("bit_identical", Json.Bool identical);
      ( "designs",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("cells", int r.ir_cells); ("levels", int r.ir_levels);
                   ("full_median_ms", num r.ir_full_ms);
                   ("incremental_median_ms", num r.ir_incr_ms);
                   ("median_speedup", num r.ir_speedup);
                   ("median_evaluated", num r.ir_evaluated);
                   ("bit_identical", Json.Bool r.ir_identical);
                 ])
             results) );
      ( "scaling",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("cells", int r.sc_cells); ("levels", int r.sc_levels);
                   ("nets", int r.sc_nets); ("gen_ms", num r.sc_gen_ms);
                   ("analyze_ms", num r.sc_analyze_ms);
                   ("update_ms", num r.sc_update_ms);
                   ("update_evaluated", int r.sc_update_evaluated);
                   ("incr_ratio", num r.sc_incr_ratio);
                   ("bit_identical", Json.Bool r.sc_bit_identical);
                   ("peak_rss_mb", num r.sc_peak_rss_mb);
                   ("arena_mb", num r.sc_arena_mb);
                 ])
             scaling) );
      ( "model_cache",
        Json.Obj
          [
            ("hits", int stats.Memo_cache.hits);
            ("misses", int stats.Memo_cache.misses);
            ("entries", int stats.Memo_cache.entries);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Static verification: interval soundness on a randomized design, and
   the never-proximate pruning payoff.  Writes BENCH_verify.json.      *)

module Verify = Proxim_verify.Verify

(* The pruning payoff the verify, hazard and sense benches share: the
   median wall time of [prune_passes ()] full re-analyses of one
   Proximity IR without and with [prune], then the harness's verdict on
   one more pair of runs: the pruned run's fast-path evaluations by
   source and whether its report is bit-identical (explaining the
   divergence on stdout when it is not). *)
let prune_passes () = if !quick then 5 else 20

let prune_payoff ~pool ~models ~thresholds design ~pi prune =
  let median prune =
    let ir =
      Sta.build_ir ~mode:Sta.Proximity ~prune ~models ~thresholds design ~pi
    in
    let times =
      Array.init (prune_passes ()) (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (Sta.reanalyze ~pool ir : Timing.stats);
          Unix.gettimeofday () -. t0)
    in
    Stats.percentile times 50.
  in
  let t_full = median Prune.none in
  let t_pruned = median prune in
  let full, runs =
    Harness.prune_divergence ~pool ~models ~thresholds design ~pi
      [ ("pruned", prune) ]
  in
  let divergence = Harness.diverged design ~full runs in
  Option.iter print_string divergence;
  (t_full, t_pruned, (List.hd runs).Harness.pr_counts, divergence = None)

(* the number of cells a per-cell-id mask covers *)
let count_cells mask =
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 mask

(* roughly half the primary inputs fall, spread over 800 ps, the others
   stay quiet: the regime where many cells see a single switching input
   and the static verdicts pay *)
let half_falling rng design =
  Harness.falling_events rng ~quiet_one_in:2 ~time_hi:800e-12
    ~slew_hi:600e-12 (Design.primary_inputs design)

(* the placement and slew windows of the verify and hazard soundness
   draws *)
let time_window = 40e-12
let tau_window = 20e-12

let verify_bench () =
  let c = Lazy.force ctx in
  section
    "Static verification: interval soundness and never-proximate pruning";
  let depth = 4 and width = if !quick then 40 else 110 in
  let rng = Prng.create 0x5AFEL in
  let design = random_layered_design rng ~tech:c.tech ~depth ~width in
  let n_cells = List.length (Design.cells design) in
  let models = (Sta.synthetic_factory ()).Sta.models in
  let pi = half_falling rng design in
  let events = List.map (Verify.of_sta_event ~time_window ~tau_window) pi in
  let verify_of mode =
    Verify.analyze ~mode ~models ~thresholds:c.th design ~pi:events
  in
  let v_prox = verify_of Sta.Proximity in
  let s = Verify.summary v_prox in
  let prune_rate =
    if s.Verify.switching_cells = 0 then 0.
    else float_of_int s.Verify.never /. float_of_int s.Verify.switching_cells
  in
  Printf.printf
    "  design: %d cells, %d switching, %d constrained of %d primary inputs \
     (±%.0f ps time, ±%.0f ps tau windows)\n"
    n_cells s.Verify.switching_cells (List.length pi)
    (List.length (Design.primary_inputs design))
    (ps time_window) (ps tau_window);
  Printf.printf
    "  classification: never %d / always %d / may %d  (prune rate %.1f%%)\n"
    s.Verify.never s.Verify.always s.Verify.may (100. *. prune_rate);
  (* soundness: randomized concrete analyses must land inside the
     intervals, in both abstracted modes *)
  let pool = Pool.create ~domains:1 in
  let trials = if !quick then 20 else 100 in
  let draw_rng = Prng.create 0xD12AL in
  let violations mode v =
    List.length
      (Harness.window_escapes ~pool draw_rng ~draws:trials ~mode ~models
         ~thresholds:c.th ~time_window ~tau_window
         ~window:(Harness.verify_windows v) design ~pi)
  in
  let viol_prox = violations Sta.Proximity v_prox in
  let viol_classic = violations Sta.Classic (verify_of Sta.Classic) in
  let sound = viol_prox = 0 && viol_classic = 0 in
  Printf.printf
    "  soundness: %d randomized concrete analyses per mode, violations: \
     proximity %d, classic %d\n"
    trials viol_prox viol_classic;
  (* pruning: bit-identity and wall-clock payoff on the nominal events *)
  let t_full, t_pruned, pruned, identical =
    prune_payoff ~pool ~models ~thresholds:c.th design ~pi
      (Prune.make ~never_proximate:(Verify.prune_mask v_prox) ())
  in
  let speedup = ratio t_full t_pruned in
  Pool.shutdown pool;
  Printf.printf
    "  VERIFY SUMMARY: prune rate %.1f%%, %d evaluations fast-pathed per \
     pass, full %.3f ms vs pruned %.3f ms (%.2fx), reports %s, intervals %s\n"
    (100. *. prune_rate)
    (Prune.total pruned)
    (1e3 *. t_full) (1e3 *. t_pruned) speedup
    (if identical then "bit-identical" else "DIFFER")
    (if sound then "sound" else "VIOLATED");
  write_bench "BENCH_verify.json"
    [
      ( "workload",
        Json.String
          "interval verification of a random layered design, synthetic \
           models" );
      ("quick", Json.Bool !quick);
      ("cells", int n_cells);
      ("switching_cells", int s.Verify.switching_cells);
      ("never", int s.Verify.never); ("always", int s.Verify.always);
      ("may", int s.Verify.may); ("prune_rate", num prune_rate);
      ("soundness_trials_per_mode", int trials);
      ( "soundness_violations",
        Json.Obj [ ("proximity", int viol_prox); ("classic", int viol_classic) ]
      );
      ("sound", Json.Bool sound); ("bit_identical", Json.Bool identical);
      ("full_median_ms", num (1e3 *. t_full));
      ("pruned_median_ms", num (1e3 *. t_pruned));
      ("speedup", num speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Static hazard analysis: §6 classification of a randomized design,
   edge-window soundness against the concrete STA, and the quiet-cell
   pruning payoff.  Writes BENCH_hazard.json.                          *)

module Hazard = Proxim_hazard.Hazard

let hazard_bench () =
  let c = Lazy.force ctx in
  section "Static hazard analysis: §6 classification and quiet-cell pruning";
  let depth = 4 and width = if !quick then 40 else 110 in
  let rng = Prng.create 0x6A2A12DL in
  let design = random_layered_design rng ~tech:c.tech ~depth ~width in
  let n_cells = List.length (Design.cells design) in
  let models = (Sta.synthetic_factory ()).Sta.models in
  let pi = half_falling rng design in
  (* the classification showcase flips a coin per input edge — the
     abstract analyzer orders glitches that a single concrete vector
     cannot, so only the hazard pass sees this stimulus *)
  let pi_mixed =
    List.map
      (fun (net, (a : Sta.arrival)) ->
        ( net,
          {
            a with
            Sta.edge =
              (if Prng.int rng ~lo:0 ~hi:1 = 0 then Measure.Rise
               else Measure.Fall);
          } ))
      pi
  in
  let events_of = List.map (Verify.of_sta_event ~time_window ~tau_window) in
  let t0 = Unix.gettimeofday () in
  let s =
    Hazard.summary
      (Hazard.analyze ~models ~thresholds:c.th design ~pi:(events_of pi_mixed))
  in
  let analyze_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  (* the soundness and pruning halves ride the all-fall stimulus, where
     the concrete single-vector STA is defined *)
  let h = Hazard.analyze ~models ~thresholds:c.th design ~pi:(events_of pi) in
  Printf.printf
    "  design: %d cells, %d window-bearing, %d constrained of %d primary \
     inputs (±%.0f ps time, ±%.0f ps tau windows), analysis %.3f ms\n"
    n_cells s.Hazard.classified (List.length pi)
    (List.length (Design.primary_inputs design))
    (ps time_window) (ps tau_window) analyze_ms;
  Printf.printf
    "  classification: never %d / filtered %d / may-glitch %d (%d \
     observable at endpoints)\n"
    s.Hazard.never s.Hazard.filtered s.Hazard.may_glitch s.Hazard.observable;
  (* soundness: randomized concrete analyses must land inside the per-edge
     windows of every switching net *)
  let pool = Pool.create ~domains:1 in
  let trials = if !quick then 20 else 100 in
  let violations =
    List.length
      (Harness.window_escapes ~pool (Prng.create 0xD12BL) ~draws:trials
         ~mode:Sta.Proximity ~models ~thresholds:c.th ~time_window
         ~tau_window ~window:(Harness.hazard_windows h) design ~pi)
  in
  let sound = violations = 0 in
  Printf.printf
    "  soundness: %d randomized concrete analyses, %d window violations\n"
    trials violations;
  (* quiet-cell pruning: bit-identity and wall-clock payoff *)
  let mask = Hazard.quiet_mask h in
  let quiet_cells = count_cells mask in
  let prune_rate =
    if n_cells = 0 then 0. else float_of_int quiet_cells /. float_of_int n_cells
  in
  let t_full, t_pruned, pruned, identical =
    prune_payoff ~pool ~models ~thresholds:c.th design ~pi
      (Prune.make ~quiet:mask ())
  in
  let speedup = ratio t_full t_pruned in
  Pool.shutdown pool;
  Printf.printf
    "  HAZARD SUMMARY: quiet-mask rate %.1f%%, %d evaluations fast-pathed \
     per pass, full %.3f ms vs pruned %.3f ms (%.2fx), reports %s, windows %s\n"
    (100. *. prune_rate)
    (Prune.total pruned)
    (1e3 *. t_full) (1e3 *. t_pruned) speedup
    (if identical then "bit-identical" else "DIFFER")
    (if sound then "sound" else "VIOLATED");
  write_bench "BENCH_hazard.json"
    [
      ( "workload",
        Json.String
          "section-6 hazard analysis of a random layered design, synthetic \
           models" );
      ("quick", Json.Bool !quick);
      ("cells", int n_cells); ("classified", int s.Hazard.classified);
      ("never", int s.Hazard.never); ("filtered", int s.Hazard.filtered);
      ("may_glitch", int s.Hazard.may_glitch);
      ("observable", int s.Hazard.observable);
      ("analyze_ms", num analyze_ms);
      ("soundness_trials", int trials);
      ("soundness_violations", int violations);
      ("sound", Json.Bool sound);
      ("quiet_cells", int quiet_cells); ("quiet_rate", num prune_rate);
      ("bit_identical", Json.Bool identical);
      ("full_median_ms", num (1e3 *. t_full));
      ("pruned_median_ms", num (1e3 *. t_pruned));
      ("speedup", num speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Static sensitization: ternary classification of a randomized design,
   implication soundness against concrete two-frame simulation, the
   May-to-Never refinement payoff and the fused prune engine.  Writes
   BENCH_sense.json.                                                   *)

module Sense = Proxim_sense.Sense
module Netlist_bin = Proxim_sta.Netlist_bin

let sense_bench () =
  let c = Lazy.force ctx in
  section "Static sensitization: implication engine and the fused prune mask";
  let depth = 4 and width = if !quick then 30 else 80 in
  let rng = Prng.create 0x5E45E1L in
  let base = random_layered_design rng ~tech:c.tech ~depth ~width in
  let nand2 = Gate.nand c.tech ~fan_in:2 in
  let inverter = Gate.inverter c.tech in
  (* graft witness structures so each prune source provably contributes
     something the others miss (the strictness half of the gate):
     - gassist: two falling inputs separated just past the exact
       dominance window — the point-event verification proves the cell
       Never-proximate, but the hazard pass sees +/-40 ps placement
       windows, cannot re-prove dominance, and keeps it out of the
       quiet mask; both pins carry events, so the sense mask keeps it
       too.  Only the never-proximate source prunes it.
     - ghalf: one switching, one quiet input — the quiet and sense masks
       cover it, the interval verification never classifies it;
     - gfar: two rising inputs 50 ns apart — a gating (latest-wins)
       input group that no mask may touch, keeping the denominators
       honest;
     - gr1..gr4: the a/q reconvergence whose gr4 pair the implication
       engine proves unsensitizable — the May-to-Never conversion and a
       guaranteed soundness-draw target. *)
  let gadget_cells =
    [
      { Design.name = "gassist"; gate = nand2;
        input_nets = [| "gas_a"; "gas_b" |]; output_net = "gas_z" };
      { Design.name = "gfar"; gate = nand2;
        input_nets = [| "gfar_a"; "gfar_b" |]; output_net = "gfar_z" };
      { Design.name = "ghalf"; gate = nand2;
        input_nets = [| "ghalf_a"; "ghalf_b" |]; output_net = "ghalf_z" };
      { Design.name = "gr1"; gate = inverter; input_nets = [| "gq" |];
        output_net = "gqn" };
      { Design.name = "gr2"; gate = nand2; input_nets = [| "ga"; "gq" |];
        output_net = "gx1" };
      { Design.name = "gr3"; gate = nand2; input_nets = [| "ga"; "gqn" |];
        output_net = "gx2" };
      { Design.name = "gr4"; gate = nand2; input_nets = [| "gx1"; "gx2" |];
        output_net = "gr_z" };
    ]
  in
  let design =
    Design.create
      ~cells:(Design.cells base @ gadget_cells)
      ~primary_inputs:
        (Design.primary_inputs base
        @ [ "gas_a"; "gas_b"; "gfar_a"; "gfar_b"; "ghalf_a"; "ghalf_b";
            "gq"; "ga" ])
      ~primary_outputs:
        (Design.primary_outputs base
        @ [ "gas_z"; "gfar_z"; "ghalf_z"; "gr_z" ])
  in
  let n_cells = List.length (Design.cells design) in
  let factory = Sta.synthetic_factory () in
  let models = factory.Sta.models in
  let ev ?(edge = Measure.Fall) ?slew net time =
    let slew =
      match slew with
      | Some s -> s
      | None -> Prng.float rng ~lo:150e-12 ~hi:600e-12
    in
    (net, { Sta.time; slew; edge })
  in
  (* gassist pin separation: just past the exact single-input response
     window (d1 + t1 at the pin-0 slew), so the degenerate-interval
     verification proves dominance while the +/-40 ps hazard windows
     leave a gap strictly inside the window and dominance fails there *)
  let gas_slew = 300e-12 in
  let gas_sep =
    let cell =
      List.find (fun c0 -> c0.Design.name = "gassist") (Design.cells design)
    in
    let m = models cell in
    let _, d_hi =
      Models.delay1_bounds m ~pin:0 ~edge:Measure.Fall
        ~tau:(gas_slew, gas_slew)
    in
    let _, t_hi =
      Models.trans1_bounds m ~pin:0 ~edge:Measure.Fall
        ~tau:(gas_slew, gas_slew)
    in
    (1.02 *. (d_hi +. t_hi)) +. 10e-12
  in
  let pi =
    List.filter_map
      (fun net ->
        if Prng.int rng ~lo:0 ~hi:1 = 0 then None
        else Some (ev net (Prng.float rng ~lo:0. ~hi:800e-12)))
      (Design.primary_inputs base)
    @ [ ev ~slew:gas_slew "gas_a" 0.; ev ~slew:gas_slew "gas_b" gas_sep;
        ev ~edge:Measure.Rise "gfar_a" 0.;
        ev ~edge:Measure.Rise "gfar_b" 50e-9; ev "ghalf_a" 100e-12;
        ev "ga" 100e-12 ]
  in
  let stim_of pi =
    List.map (fun (n, (a : Sta.arrival)) -> (n, Sense.Switch a.Sta.edge)) pi
  in
  let events = List.map Verify.of_sta_event pi in
  (* the hazard pass gets placement/slew windows around the same events:
     sound for the point stimulus, but deliberately too coarse to
     re-prove gassist's dominance *)
  let events_h = List.map (Verify.of_sta_event ~time_window ~tau_window) pi in
  let stim = stim_of pi in
  let t0 = Unix.gettimeofday () in
  let s = Sense.analyze design ~pi:stim in
  (* the summary forces the pair implications: the pass timed in full *)
  let sum = Sense.summary s in
  let analyze_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  Printf.printf
    "  design: %d cells (+7 grafted witnesses), %d switching of %d primary \
     inputs, sensitization pass %.3f ms\n"
    n_cells (List.length pi)
    (List.length (Design.primary_inputs design))
    analyze_ms;
  Printf.printf
    "  classification: %d cells / %d pairs — %d sensitizable, %d \
     unsensitizable, %d exhausted; %d derived constants, %d false-path \
     cells\n"
    sum.Sense.classified_cells sum.Sense.pairs sum.Sense.sensitizable
    sum.Sense.unsensitizable sum.Sense.exhausted sum.Sense.constant_nets
    sum.Sense.false_path_cells;
  (* May-to-Never conversion through the interval verification *)
  let v = Verify.analyze ~models ~thresholds:c.th design ~pi:events in
  let h = Hazard.analyze ~models ~thresholds:c.th design ~pi:events_h in
  let before = Verify.summary v in
  let v', refd = Verify.refine v ~unsensitizable:(Sense.pair_unsensitizable s) in
  let after = Verify.summary v' in
  Printf.printf
    "  refinement: %d pairs / %d cells converted May-to-Never (may %d -> \
     %d)\n"
    refd.Verify.refined_pairs refd.Verify.refined_cells before.Verify.may
    after.Verify.may;
  (* soundness: concrete two-frame draws against every proven pair; the
     per-pair count adapts so the total always clears the gate's floor *)
  let draw_rng = Prng.create 0xD4A15L in
  let n_unsens = sum.Sense.unsensitizable in
  let draws_per_pair = max 20 (200 / max 1 n_unsens) in
  let draws, joints =
    Harness.unsensitizable_draws draw_rng design s ~stim ~draws_per_pair
  in
  let violations = List.length joints in
  (* the prune masks, solo and fused *)
  let fused_of v h s =
    Prune.make
      ~unsensitizable:(Sense.prune_mask s)
      ~quiet:(Hazard.quiet_mask h)
      ~never_proximate:(Verify.prune_mask v)
      ()
  in
  let n_sense = count_cells (Sense.prune_mask s) in
  let n_quiet = count_cells (Hazard.quiet_mask h) in
  let n_never = count_cells (Verify.prune_mask v) in
  let fused = fused_of v h s in
  let n_fused = count_cells (Array.init n_cells (Prune.member fused)) in
  let strictly_best =
    n_fused > n_sense && n_fused > n_quiet && n_fused > n_never
  in
  let pct n = 100. *. float_of_int n /. float_of_int n_cells in
  Printf.printf
    "  prune masks: unsensitizable %d (%.1f%%), quiet %d (%.1f%%), \
     never-proximate %d (%.1f%%), fused %d (%.1f%%)%s\n"
    n_sense (pct n_sense) n_quiet (pct n_quiet) n_never (pct n_never) n_fused
    (pct n_fused)
    (if strictly_best then " — fused strictly widest" else " — NOT strict");
  (* bit-identity and wall-clock payoff on the main design *)
  let pool = Pool.create ~domains:1 in
  let t_full, t_fused, counts, identical =
    prune_payoff ~pool ~models ~thresholds:c.th design ~pi fused
  in
  let identical = ref identical in
  let designs_checked = ref 1 in
  (* ... and across independent random designs and every example netlist *)
  let check_design design pi =
    let events = List.map Verify.of_sta_event pi in
    let v = Verify.analyze ~models ~thresholds:c.th design ~pi:events in
    let h = Hazard.analyze ~models ~thresholds:c.th design ~pi:events in
    let fused = fused_of v h (Sense.analyze design ~pi:(stim_of pi)) in
    let full, runs =
      Harness.prune_divergence ~pool ~models ~thresholds:c.th design ~pi
        [ ("fused", fused) ]
    in
    incr designs_checked;
    Option.iter
      (fun text ->
        identical := false;
        print_string text)
      (Harness.diverged design ~full runs)
  in
  for _ = 1 to 10 do
    let d = random_layered_design rng ~tech:c.tech ~depth:3 ~width:20 in
    let pi =
      List.filter_map
        (fun net ->
          if Prng.int rng ~lo:0 ~hi:1 = 0 then None
          else Some (ev net (Prng.float rng ~lo:0. ~hi:800e-12)))
        (Design.primary_inputs d)
    in
    check_design d pi
  done;
  List.iter
    (fun file ->
      if Sys.file_exists file then
        match Netlist_bin.load_file c.tech file with
        | Error _ -> () (* lint fodder; not a loadable design *)
        | Ok (_, d, _) ->
          (* an all-input stimulus when the reconvergence parities allow
             it, else one event per run — the single-vector STA refuses
             to order mixed edges at a cell *)
          let all =
            List.mapi
              (fun i net -> ev net (float_of_int i *. 50e-12))
              (Design.primary_inputs d)
          in
          (try check_design d all
           with Sta.Mixed_input_edges _ ->
             List.iter
               (fun e ->
                 try check_design d [ e ] with Sta.Mixed_input_edges _ -> ())
               all))
    [
      "examples/carry_tree.ntl"; "examples/hazard_demo.ntl";
      "examples/lint_demo.ntl"; "examples/sense_demo.ntl";
      "examples/verify_demo.ntl";
    ];
  Pool.shutdown pool;
  let speedup = ratio t_full t_fused in
  let sound = violations = 0 in
  Printf.printf
    "  SENSE SUMMARY: %d soundness draws (%d violations), %d designs \
     bit-checked, %d evaluations fast-pathed per pass (%d/%d/%d by source), \
     full %.3f ms vs fused %.3f ms (%.2fx), reports %s\n"
    draws violations !designs_checked
    (Prune.total counts)
    counts.Prune.unsensitizable counts.Prune.quiet counts.Prune.never_proximate
    (1e3 *. t_full) (1e3 *. t_fused) speedup
    (if !identical then "bit-identical" else "DIFFER");
  write_bench "BENCH_sense.json"
    [
      ( "workload",
        Json.String
          "static sensitization of a random layered design with grafted \
           witness structures, synthetic models" );
      ("quick", Json.Bool !quick);
      ("cells", int n_cells);
      ("classified_cells", int sum.Sense.classified_cells);
      ("pairs", int sum.Sense.pairs);
      ("sensitizable", int sum.Sense.sensitizable);
      ("unsensitizable", int sum.Sense.unsensitizable);
      ("exhausted", int sum.Sense.exhausted);
      ("constant_nets", int sum.Sense.constant_nets);
      ("false_path_cells", int sum.Sense.false_path_cells);
      ("analyze_ms", num analyze_ms);
      ("refined_pairs", int refd.Verify.refined_pairs);
      ("refined_cells", int refd.Verify.refined_cells);
      ("may_before", int before.Verify.may);
      ("may_after", int after.Verify.may);
      ("soundness_draws", int draws);
      ("soundness_violations", int violations);
      ("sound", Json.Bool sound);
      ("sense_cells", int n_sense); ("quiet_cells", int n_quiet);
      ("never_cells", int n_never); ("fused_cells", int n_fused);
      ("fused_rate", num (float_of_int n_fused /. float_of_int n_cells));
      ("fused_strictly_best", Json.Bool strictly_best);
      ("designs_checked", int !designs_checked);
      ("bit_identical", Json.Bool !identical);
      ("full_median_ms", num (1e3 *. t_full));
      ("fused_median_ms", num (1e3 *. t_fused));
      ("speedup", num speedup);
    ]

(* ------------------------------------------------------------------ *)
(* The serve daemon under concurrent sessions: ECO/query latency
   percentiles, response bit-identity against the offline engine, and
   survival of adversarial frames.  Writes BENCH_serve.json.           *)

module Serve = Proxim_serve.Serve
module Frame = Proxim_serve.Frame

(* percentile over a metrics histogram (log10-seconds axis): walk the
   merged bins to the target rank and interpolate inside the bin *)
let hist_percentile (h : Obs_metrics.hist_snapshot) p =
  if h.count = 0 then 0.
  else begin
    let target = float_of_int h.count *. p /. 100. in
    let hist = h.hist in
    let edges = Histogram.bin_edges hist in
    let cum = ref (float_of_int hist.Histogram.underflow) in
    let res = ref h.max in
    (try
       Array.iteri
         (fun i c ->
           let c = float_of_int c in
           if !cum +. c >= target && c > 0. then begin
             let frac = (target -. !cum) /. c in
             res := 10. ** (edges.(i) +. (frac *. (edges.(i + 1) -. edges.(i))));
             raise Exit
           end
           else cum := !cum +. c)
         hist.Histogram.counts
     with Exit -> ());
    Float.min !res (if h.max > 0. then h.max else !res)
  end

(* a rejected request fails the bench *)
let serve_rpc fd req =
  match Serve.call fd req with
  | Ok j -> j
  | Error m -> failwith ("serve bench: " ^ m)

let serve_bench () =
  section "proxim serve: concurrent sessions over the ECO engine";
  let cells = if !quick then 2_000 else 10_000 in
  let sessions = 4 in
  let rounds = if !quick then 10 else 30 in
  let seed = 7 and depth = 4 in
  let tech = Tech.generic_5v in

  (* the deterministic per-round ECO script every session replays *)
  let eco_at r =
    let net = Printf.sprintf "pi%d" (r mod 17) in
    Sta.Set_pi
      ( net,
        Some
          {
            Sta.time = float_of_int (r + 1) *. 3e-12;
            slew = 250e-12 +. (float_of_int (r mod 5) *. 10e-12);
            edge = Measure.Fall;
          } )
  in

  (* offline reference: the same design, stimulus and ECO script through
     the same engine entry points the daemon calls *)
  subsection "offline reference";
  let _name, design = Synthgen.generate ~seed ~depth ~tech ~cells () in
  let factory = Sta.synthetic_factory ~seed:0 () in
  let thresholds = Sta.default_thresholds design None in
  let pi =
    List.map
      (fun net ->
        (net, { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall }))
      (Design.primary_inputs design)
  in
  let ir =
    Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds
      design ~pi
  in
  ignore (Sta.reanalyze ir : Timing.stats);
  for r = 0 to rounds - 1 do
    ignore (Sta.update ir [ eco_at r ] : Timing.stats)
  done;
  let offline = Sta.report ir in
  Printf.printf "  %d cells, %d rounds scripted\n" cells rounds;

  subsection (Printf.sprintf "%d concurrent sessions" sessions);
  let srv = Serve.start (`Tcp ("127.0.0.1", 0)) in
  let addr = `Tcp ("127.0.0.1", Option.get (Serve.port srv)) in
  let gen_req =
    Json.Obj
      [
        ("op", Json.String "gen");
        ("cells", Json.Number (float_of_int cells));
        ("depth", Json.Number (float_of_int depth));
        ("seed", Json.Number (float_of_int seed));
        ("name", Json.String "bench");
      ]
  in
  let attach_req =
    Json.Obj
      [
        ("op", Json.String "attach");
        ("design", Json.String "bench");
        ("mode", Json.String "proximity");
        ("models", Json.String "synthetic");
        ( "pi_all",
          Serve.arrival_to_json
            { Sta.time = 0.; slew = 300e-12; edge = Measure.Fall } );
      ]
  in
  (* one connection loads the shared design into the store *)
  let fd0 = Serve.connect addr in
  ignore (serve_rpc fd0 gen_req : Json.t);
  Unix.close fd0;
  let eco_ts = Array.make (sessions * rounds) 0. in
  let query_ts = Array.make (sessions * rounds) 0. in
  let finals = Array.make sessions None in
  let session s () =
    let fd = Serve.connect addr in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (serve_rpc fd attach_req : Json.t);
        for r = 0 to rounds - 1 do
          let t0 = Unix.gettimeofday () in
          ignore
            (serve_rpc fd
               (Json.Obj
                  [
                    ("op", Json.String "eco");
                    ("ecos", Json.List [ Serve.eco_to_json (eco_at r) ]);
                  ])
              : Json.t);
          eco_ts.((s * rounds) + r) <- Unix.gettimeofday () -. t0;
          let t0 = Unix.gettimeofday () in
          let resp =
            serve_rpc fd (Json.Obj [ ("op", Json.String "report") ])
          in
          query_ts.((s * rounds) + r) <- Unix.gettimeofday () -. t0;
          if r = rounds - 1 then
            finals.(s) <-
              (match
                 Option.map Serve.report_of_json (Json.member "report" resp)
               with
               | Some (Ok rep) -> Some rep
               | _ -> None)
        done)
  in
  let threads = List.init sessions (fun s -> Thread.create (session s) ()) in
  List.iter Thread.join threads;
  let bit_identical =
    Array.for_all
      (function Some r -> Sta.report_equal r offline | None -> false)
      finals
  in
  let p a q = 1e3 *. Stats.percentile a q in
  Printf.printf "  eco   p50 %.3f ms  p99 %.3f ms\n" (p eco_ts 50.)
    (p eco_ts 99.);
  Printf.printf "  query p50 %.3f ms  p99 %.3f ms\n" (p query_ts 50.)
    (p query_ts 99.);
  Printf.printf "  responses bit-identical to offline: %b\n" bit_identical;

  subsection "adversarial client";
  (* garbage JSON, an oversized length claim and a mid-frame disconnect:
     each gets a typed error (or a dropped session) and the daemon keeps
     answering *)
  let adversarial_survived =
    try
      let fd = Serve.connect addr in
      Frame.write fd "not json at all";
      let bad_json_typed =
        match Frame.read fd with
        | Ok s -> (
          match Json.of_string s with
          | Ok j -> Serve.error_code j = Some "bad_json"
          | Error _ -> false)
        | Error _ -> false
      in
      ignore (serve_rpc fd (Json.Obj [ ("op", Json.String "ping") ]));
      Unix.close fd;
      let fd = Serve.connect addr in
      ignore (Unix.write fd (Bytes.of_string "\x7f\xff\xff\xff") 0 4 : int);
      let oversized_typed =
        match Frame.read fd with
        | Ok s -> (
          match Json.of_string s with
          | Ok j -> Serve.error_code j = Some "bad_frame"
          | Error _ -> false)
        | Error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let fd = Serve.connect addr in
      ignore (Unix.write fd (Bytes.of_string "\x00\x02") 0 2 : int);
      Unix.close fd;
      let fd = Serve.connect addr in
      ignore (serve_rpc fd (Json.Obj [ ("op", Json.String "ping") ]));
      Unix.close fd;
      bad_json_typed && oversized_typed
    with _ -> false
  in
  Printf.printf "  survived with typed errors: %b\n" adversarial_survived;

  (* server-side latency distributions from the metrics registry *)
  let snap = Obs_metrics.snapshot () in
  let hist name =
    match List.assoc_opt name snap.Obs_metrics.histograms with
    | Some h -> h
    | None -> failwith ("serve bench: no histogram " ^ name)
  in
  let h_eco = hist "serve.eco_seconds" in
  let h_query = hist "serve.query_seconds" in
  let total_requests =
    match List.assoc_opt "serve.requests" snap.Obs_metrics.counters with
    | Some n -> n
    | None -> 0
  in
  Printf.printf
    "  server-side eco   p50 %.3f ms  p99 %.3f ms  (%d observed)\n"
    (1e3 *. hist_percentile h_eco 50.)
    (1e3 *. hist_percentile h_eco 99.)
    h_eco.Obs_metrics.count;

  Serve.stop srv;
  Serve.wait srv;

  let server_ms h q = num (1e3 *. hist_percentile h q) in
  write_bench "BENCH_serve.json"
    [
      ( "workload",
        Json.String
          "generated design served to concurrent sessions, a scripted \
           ECO+report round-trip per request pair, synthetic models" );
      ("quick", Json.Bool !quick);
      ("cells", int cells); ("sessions", int sessions);
      ("rounds", int rounds); ("requests", int total_requests);
      ("bit_identical", Json.Bool bit_identical);
      ("adversarial_survived", Json.Bool adversarial_survived);
      ("eco_p50_ms", num (p eco_ts 50.)); ("eco_p99_ms", num (p eco_ts 99.));
      ("query_p50_ms", num (p query_ts 50.));
      ("query_p99_ms", num (p query_ts 99.));
      ("server_eco_p50_ms", server_ms h_eco 50.);
      ("server_eco_p99_ms", server_ms h_eco 99.);
      ("server_query_p50_ms", server_ms h_query 50.);
      ("server_query_p99_ms", server_ms h_query 99.);
    ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1_2", fig1_2);
    ("fig2_1", fig2_1);
    ("fig3_3", fig3_3);
    ("fig4_2", fig4_2);
    ("table5_1", table5_1);
    ("baseline_cmp", baseline_cmp);
    ("ablation_correction", ablation_correction);
    ("ablation_table", ablation_table);
    ("ablation_composition", ablation_composition);
    ("fig6_1", fig6_1);
    ("ablation_alpha", ablation_alpha);
    ("fanin_sweep", fanin_sweep);
    ("microbench", microbench);
    ("parallel_bench", parallel_bench);
    ("incremental_bench", incremental_bench);
    ("verify_bench", verify_bench);
    ("hazard_bench", hazard_bench);
    ("sense_bench", sense_bench);
    ("serve_bench", serve_bench);
  ]

(* ablation_correction shares its output with table5_1; avoid printing it
   twice on a full run *)
let default_run =
  List.filter (fun (name, _) -> name <> "ablation_correction") experiments

let () =
  let args =
    let rec parse acc = function
      | [] -> List.rev acc
      | "--quick" :: tl ->
        quick := true;
        parse acc tl
      | [ "--domains" ] ->
        Printf.eprintf "--domains expects an integer argument\n";
        exit 2
      | "--domains" :: n :: tl -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
          domains := n;
          parse acc tl
        | Some _ | None ->
          Printf.eprintf "--domains expects a positive integer, got %s\n" n;
          exit 2)
      | [ "--trace" ] ->
        Printf.eprintf "--trace expects a file argument\n";
        exit 2
      | "--trace" :: f :: tl ->
        trace_file := Some f;
        parse acc tl
      | "--metrics" :: "text" :: tl ->
        metrics_fmt := Some `Text;
        parse acc tl
      | "--metrics" :: "json" :: tl ->
        metrics_fmt := Some `Json;
        parse acc tl
      | "--metrics" :: _ ->
        Printf.eprintf "--metrics expects text or json\n";
        exit 2
      | a :: tl -> parse (a :: acc) tl
    in
    parse [] (List.tl (Array.to_list Sys.argv))
  in
  Pool.set_default_domains !domains;
  Obs_metrics.install_util_sources ();
  if !trace_file <> None then Obs_trace.enable ();
  let selected =
    match args with
    | [] -> default_run
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some fn -> (name, fn)
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        names
  in
  let t_total = Unix.gettimeofday () in
  List.iter
    (fun (name, fn) ->
      let t0 = Unix.gettimeofday () in
      fn ();
      Printf.printf "\n[%s: %.1f s]\n" name (Unix.gettimeofday () -. t0))
    selected;
  Printf.printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t_total);
  (match !trace_file with
   | None -> ()
   | Some f ->
     Obs_trace.write_file f;
     Printf.printf "trace written to %s (load in ui.perfetto.dev)\n" f);
  match !metrics_fmt with
  | None -> ()
  | Some `Text -> print_string (Obs_metrics.to_text (Obs_metrics.snapshot ()))
  | Some `Json -> print_endline (metrics_json ())

(* CI perf-regression gate.

   Compares a bench artifact (BENCH_parallel.json / BENCH_incremental.json)
   against a committed baseline in bench/baselines/, and fails the build
   when a gated metric regresses past its tolerance band.

     gate.exe parallel    bench/baselines/parallel.json    BENCH_parallel.json
     gate.exe incremental bench/baselines/incremental.json BENCH_incremental.json
     gate.exe sense       bench/baselines/sense.json       BENCH_sense.json

   Gated metrics are machine-independent where possible (speedup ratios,
   job counts, bit-identity); wall-clock-dependent floors are core-aware:
   a speedup floor for an N-domain row only applies when the artifact's
   host_cores >= N, because oversubscribed OCaml domains measure the
   stop-the-world GC penalty, not the pool.  Skipped rows are reported as
   such, never silently dropped.

   Prints an actual-vs-baseline table on stdout and, when the
   GITHUB_STEP_SUMMARY environment variable is set, appends the same
   table as markdown to that file (the Actions job summary). *)

module Json = Proxim_util.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("gate: " ^ s);
      exit 2)
    fmt

let load path =
  let ic = try open_in path with Sys_error e -> die "%s" e in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string text with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

(* all lookups are fatal on absence: a missing field means the bench and
   the gate disagree about the schema, which must fail loudly *)
let mem ~ctx name j =
  match Json.member name j with
  | Some v -> v
  | None -> die "%s: missing field %S" ctx name

let num ~ctx name j =
  match Json.to_number (mem ~ctx name j) with
  | Some v -> v
  | None -> die "%s: field %S is not a number" ctx name

let boolean ~ctx name j =
  match mem ~ctx name j with
  | Json.Bool b -> b
  | _ -> die "%s: field %S is not a bool" ctx name

let list ~ctx name j =
  match Json.to_list (mem ~ctx name j) with
  | Some l -> l
  | None -> die "%s: field %S is not a list" ctx name

(* --- result table ---------------------------------------------------- *)

type status = Pass | Fail | Skip of string

type row = {
  metric : string;
  baseline : string;
  actual : string;
  status : status;
}

let rows : row list ref = ref []

let check ~metric ~baseline ~actual ok =
  rows := { metric; baseline; actual; status = (if ok then Pass else Fail) }
          :: !rows

let skip ~metric ~baseline ~actual reason =
  rows := { metric; baseline; actual; status = Skip reason } :: !rows

let status_text = function
  | Pass -> "ok"
  | Fail -> "FAIL"
  | Skip reason -> "skipped (" ^ reason ^ ")"

let print_table () =
  let all = List.rev !rows in
  let width f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 all in
  let wm = max 6 (width (fun r -> r.metric)) in
  let wb = max 8 (width (fun r -> r.baseline)) in
  let wa = max 6 (width (fun r -> r.actual)) in
  Printf.printf "  %-*s  %*s  %*s  %s\n" wm "metric" wb "baseline" wa "actual"
    "status";
  List.iter
    (fun r ->
      Printf.printf "  %-*s  %*s  %*s  %s\n" wm r.metric wb r.baseline wa
        r.actual (status_text r.status))
    all;
  match Sys.getenv_opt "GITHUB_STEP_SUMMARY" with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "### Bench gate\n\n";
        output_string oc "| metric | baseline | actual | status |\n";
        output_string oc "| --- | --- | --- | --- |\n";
        List.iter
          (fun r ->
            Printf.fprintf oc "| `%s` | %s | %s | %s |\n" r.metric r.baseline
              r.actual
              (match r.status with
               | Pass -> "✅"
               | Fail -> "❌ regressed"
               | Skip reason -> "⏭ " ^ reason))
          all;
        output_string oc "\n")

(* --- parallel gate --------------------------------------------------- *)

let pool_jobs ~ctx j = int_of_float (num ~ctx "parallel_jobs" (mem ~ctx "pool" j))

let gate_parallel baseline actual =
  let ctx = "parallel" in
  let tolerance = num ~ctx "tolerance" baseline in
  let host_cores = int_of_float (num ~ctx "host_cores" actual) in
  let charac = mem ~ctx "characterization" actual in
  let actual_rows = list ~ctx "rows" charac in
  let find_row domains =
    List.find_opt
      (fun r -> int_of_float (num ~ctx "domains" r) = domains)
      actual_rows
  in
  List.iter
    (fun b ->
      let domains = int_of_float (num ~ctx "domains" b) in
      let min_speedup = num ~ctx "min_speedup" b in
      let min_jobs = int_of_float (num ~ctx "min_parallel_jobs" b) in
      let label = Printf.sprintf "char[%dd]" domains in
      match find_row domains with
      | None ->
        check ~metric:(label ^ ".row") ~baseline:"present" ~actual:"missing"
          false
      | Some r ->
        let ctx = label in
        check
          ~metric:(label ^ ".bit_identical")
          ~baseline:"true"
          ~actual:(string_of_bool (boolean ~ctx "bit_identical" r))
          (boolean ~ctx "bit_identical" r);
        let jobs = pool_jobs ~ctx r in
        check
          ~metric:(label ^ ".pool.parallel_jobs")
          ~baseline:(Printf.sprintf ">= %d" min_jobs)
          ~actual:(string_of_int jobs)
          (jobs >= min_jobs);
        let speedup = num ~ctx "speedup" r in
        let floor = min_speedup *. (1. -. tolerance) in
        if host_cores >= domains then
          check
            ~metric:(label ^ ".speedup")
            ~baseline:(Printf.sprintf ">= %.2f" floor)
            ~actual:(Printf.sprintf "%.2f" speedup)
            (speedup >= floor)
        else
          skip
            ~metric:(label ^ ".speedup")
            ~baseline:(Printf.sprintf ">= %.2f" floor)
            ~actual:(Printf.sprintf "%.2f" speedup)
            (Printf.sprintf "host has %d core(s)" host_cores))
    (list ~ctx "rows" baseline);
  let sta_b = mem ~ctx "sta" baseline in
  let sta_a = mem ~ctx "sta" actual in
  let ctx = "sta" in
  check ~metric:"sta.bit_identical" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "bit_identical" sta_a))
    (boolean ~ctx "bit_identical" sta_a);
  let min_jobs = int_of_float (num ~ctx "min_parallel_jobs" sta_b) in
  let jobs = pool_jobs ~ctx sta_a in
  check ~metric:"sta.pool.parallel_jobs"
    ~baseline:(Printf.sprintf ">= %d" min_jobs)
    ~actual:(string_of_int jobs)
    (jobs >= min_jobs);
  let sta_domains = int_of_float (num ~ctx "domains" sta_a) in
  let speedup = num ~ctx "speedup" sta_a in
  let floor = num ~ctx "min_speedup" sta_b *. (1. -. tolerance) in
  if host_cores >= sta_domains then
    check ~metric:"sta.speedup"
      ~baseline:(Printf.sprintf ">= %.2f" floor)
      ~actual:(Printf.sprintf "%.2f" speedup)
      (speedup >= floor)
  else
    skip ~metric:"sta.speedup"
      ~baseline:(Printf.sprintf ">= %.2f" floor)
      ~actual:(Printf.sprintf "%.2f" speedup)
      (Printf.sprintf "host has %d core(s)" host_cores)

(* --- incremental gate ------------------------------------------------ *)

let gate_incremental baseline actual =
  let ctx = "incremental" in
  let tolerance = num ~ctx "tolerance" baseline in
  check ~metric:"eco.bit_identical" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "bit_identical" actual))
    (boolean ~ctx "bit_identical" actual);
  (* incremental-vs-full is a ratio of two runs on the same host, so it
     is enforced everywhere *)
  let speedup = num ~ctx "median_speedup" actual in
  let floor = num ~ctx "min_median_speedup" baseline *. (1. -. tolerance) in
  check ~metric:"eco.median_speedup"
    ~baseline:(Printf.sprintf ">= %.1f" floor)
    ~actual:(Printf.sprintf "%.1f" speedup)
    (speedup >= floor);
  (* absolute ECO latency depends on the host; the slack multiplier in
     the baseline sets how much headroom CI runners get *)
  let max_ms = num ~ctx "max_incremental_median_ms" baseline in
  let slack = num ~ctx "latency_slack" baseline in
  let worst =
    List.fold_left
      (fun acc d -> Float.max acc (num ~ctx "incremental_median_ms" d))
      0.
      (list ~ctx "designs" actual)
  in
  check ~metric:"eco.incremental_median_ms"
    ~baseline:(Printf.sprintf "<= %.2f (x%.0f slack)" (max_ms *. slack) slack)
    ~actual:(Printf.sprintf "%.2f" worst)
    (worst <= max_ms *. slack);
  List.iteri
    (fun i d ->
      check
        ~metric:(Printf.sprintf "eco.designs[%d].bit_identical" i)
        ~baseline:"true"
        ~actual:(string_of_bool (boolean ~ctx "bit_identical" d))
        (boolean ~ctx "bit_identical" d))
    (list ~ctx "designs" actual);
  (* scaling rows: bit-identity and the touched-cells ratio are
     machine-independent and enforced wherever the row ran; the analyze
     latency floor is wall-clock and gets the slack multiplier.  A
     baseline size absent from the artifact (the quick bench skips the
     10^6 row) is reported as skipped, never silently dropped. *)
  let sb = mem ~ctx "scaling" baseline in
  let actual_scaling = list ~ctx "scaling" actual in
  let max_ratio = num ~ctx "max_incr_ratio" sb in
  let sslack = num ~ctx "latency_slack" sb in
  List.iter
    (fun b ->
      let cells = int_of_float (num ~ctx "cells" b) in
      let max_analyze = num ~ctx "max_analyze_ms" b in
      let label = Printf.sprintf "scale[%d]" cells in
      match
        List.find_opt
          (fun r -> int_of_float (num ~ctx "cells" r) = cells)
          actual_scaling
      with
      | None ->
        skip ~metric:(label ^ ".row") ~baseline:"present" ~actual:"missing"
          "not run (quick)"
      | Some r ->
        check
          ~metric:(label ^ ".bit_identical")
          ~baseline:"true"
          ~actual:(string_of_bool (boolean ~ctx "bit_identical" r))
          (boolean ~ctx "bit_identical" r);
        let ratio = num ~ctx "incr_ratio" r in
        check
          ~metric:(label ^ ".incr_ratio")
          ~baseline:(Printf.sprintf "<= %.3f" max_ratio)
          ~actual:(Printf.sprintf "%.4f" ratio)
          (ratio <= max_ratio);
        let analyze = num ~ctx "analyze_ms" r in
        check
          ~metric:(label ^ ".analyze_ms")
          ~baseline:
            (Printf.sprintf "<= %.0f (x%.0f slack)" (max_analyze *. sslack)
               sslack)
          ~actual:(Printf.sprintf "%.1f" analyze)
          (analyze <= max_analyze *. sslack))
    (list ~ctx "rows" sb)

(* --- sense gate ------------------------------------------------------ *)

let gate_sense baseline actual =
  let ctx = "sense" in
  let tolerance = num ~ctx "tolerance" baseline in
  (* soundness and bit-identity are correctness properties: hard gates,
     no tolerance band *)
  check ~metric:"sense.sound" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "sound" actual))
    (boolean ~ctx "sound" actual);
  check ~metric:"sense.bit_identical" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "bit_identical" actual))
    (boolean ~ctx "bit_identical" actual);
  check ~metric:"sense.fused_strictly_best" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "fused_strictly_best" actual))
    (boolean ~ctx "fused_strictly_best" actual);
  let violations = int_of_float (num ~ctx "soundness_violations" actual) in
  check ~metric:"sense.soundness_violations" ~baseline:"0"
    ~actual:(string_of_int violations)
    (violations = 0);
  let min_draws = int_of_float (num ~ctx "min_soundness_draws" baseline) in
  let draws = int_of_float (num ~ctx "soundness_draws" actual) in
  check ~metric:"sense.soundness_draws"
    ~baseline:(Printf.sprintf ">= %d" min_draws)
    ~actual:(string_of_int draws)
    (draws >= min_draws);
  let min_checked = int_of_float (num ~ctx "min_designs_checked" baseline) in
  let checked = int_of_float (num ~ctx "designs_checked" actual) in
  check ~metric:"sense.designs_checked"
    ~baseline:(Printf.sprintf ">= %d" min_checked)
    ~actual:(string_of_int checked)
    (checked >= min_checked);
  let min_refined = int_of_float (num ~ctx "min_refined_pairs" baseline) in
  let refined = int_of_float (num ~ctx "refined_pairs" actual) in
  check ~metric:"sense.refined_pairs"
    ~baseline:(Printf.sprintf ">= %d" min_refined)
    ~actual:(string_of_int refined)
    (refined >= min_refined);
  (* the fused prune rate is a coverage ratio of two analyses of the
     same netlist, machine-independent, but the random layer mix shifts
     with the workload knobs — give it the tolerance band *)
  let rate = num ~ctx "fused_rate" actual in
  let floor = num ~ctx "min_fused_rate" baseline *. (1. -. tolerance) in
  check ~metric:"sense.fused_rate"
    ~baseline:(Printf.sprintf ">= %.3f" floor)
    ~actual:(Printf.sprintf "%.4f" rate)
    (rate >= floor)

(* --- serve gate ------------------------------------------------------ *)

let gate_serve baseline actual =
  let ctx = "serve" in
  (* correctness properties: hard gates, no tolerance band *)
  check ~metric:"serve.bit_identical" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "bit_identical" actual))
    (boolean ~ctx "bit_identical" actual);
  check ~metric:"serve.adversarial_survived" ~baseline:"true"
    ~actual:(string_of_bool (boolean ~ctx "adversarial_survived" actual))
    (boolean ~ctx "adversarial_survived" actual);
  let min_sessions = int_of_float (num ~ctx "min_sessions" baseline) in
  let got_sessions = int_of_float (num ~ctx "sessions" actual) in
  check ~metric:"serve.sessions"
    ~baseline:(Printf.sprintf ">= %d" min_sessions)
    ~actual:(string_of_int got_sessions)
    (got_sessions >= min_sessions);
  let min_requests = int_of_float (num ~ctx "min_requests" baseline) in
  let requests = int_of_float (num ~ctx "requests" actual) in
  check ~metric:"serve.requests"
    ~baseline:(Printf.sprintf ">= %d" min_requests)
    ~actual:(string_of_int requests)
    (requests >= min_requests);
  (* latency percentiles are wall-clock on a shared CI host: the slack
     multiplier keeps this a catch-the-order-of-magnitude gate (a lost
     pipeline or an accidental global serialization), not a timer *)
  let slack = num ~ctx "latency_slack" baseline in
  let lat name max_name =
    let ceiling = num ~ctx max_name baseline *. slack in
    let v = num ~ctx name actual in
    check ~metric:("serve." ^ name)
      ~baseline:(Printf.sprintf "<= %.0f (x%.0f slack)" ceiling slack)
      ~actual:(Printf.sprintf "%.2f" v)
      (v <= ceiling)
  in
  lat "eco_p50_ms" "max_eco_p50_ms";
  lat "eco_p99_ms" "max_eco_p99_ms";
  lat "query_p50_ms" "max_query_p50_ms";
  lat "query_p99_ms" "max_query_p99_ms"

(* --------------------------------------------------------------------- *)

let () =
  match Sys.argv with
  | [| _; kind; baseline_path; actual_path |] ->
    let baseline = load baseline_path and actual = load actual_path in
    (match kind with
     | "parallel" -> gate_parallel baseline actual
     | "incremental" -> gate_incremental baseline actual
     | "sense" -> gate_sense baseline actual
     | "serve" -> gate_serve baseline actual
     | k ->
       die "unknown kind %S (expected parallel, incremental, sense or serve)"
         k);
    Printf.printf "bench gate: %s vs %s\n" actual_path baseline_path;
    print_table ();
    let failed =
      List.exists (fun r -> r.status = Fail) !rows
    in
    if failed then begin
      prerr_endline "gate: FAILED — a gated metric regressed past its baseline";
      exit 1
    end
    else print_endline "gate: ok"
  | _ ->
    prerr_endline
      "usage: gate.exe <parallel|incremental|sense|serve> <baseline.json> \
       <actual.json>";
    exit 2

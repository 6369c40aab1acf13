(* Tests for the observability layer (metrics registry + tracing core)
   and regression tests for the latent bugs the same PR fixed: grid3
   extrapolation, memo-cache wait accounting, and the typed ECO errors
   at the CLI boundary. *)

module Metrics = Proxim_obs.Metrics
module Trace = Proxim_obs.Trace
module Pool = Proxim_util.Pool
module Memo_cache = Proxim_util.Memo_cache
module Interp = Proxim_util.Interp
module Json = Proxim_util.Json
module Sta = Proxim_sta.Sta
module Design = Proxim_sta.Design
module Netlist_text = Proxim_sta.Netlist_text
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc

open Testkit

let wide = lazy (Pool.create ~domains:4)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_counter_under_contention () =
  let registry = Metrics.create () in
  let c = Metrics.Counter.v ~registry "test.contended" in
  let n = 20_000 in
  Pool.parallel_for (Lazy.force wide) ~n (fun _ -> Metrics.Counter.incr c);
  Alcotest.(check int) "all increments survive" n (Metrics.Counter.value c);
  Metrics.Counter.add c 5;
  Alcotest.(check int) "add" (n + 5) (Metrics.Counter.value c);
  let snap = Metrics.snapshot ~registry () in
  Alcotest.(check (list (pair string int)))
    "snapshot sees it"
    [ ("test.contended", n + 5) ]
    snap.Metrics.counters

let test_counter_idempotent_registration () =
  let registry = Metrics.create () in
  let a = Metrics.Counter.v ~registry "same" in
  Metrics.Counter.incr a;
  let b = Metrics.Counter.v ~registry "same" in
  Metrics.Counter.incr b;
  Alcotest.(check int) "one counter behind one name" 2
    (Metrics.Counter.value a);
  let snap = Metrics.snapshot ~registry () in
  Alcotest.(check int) "registry holds a single entry" 1
    (List.length snap.Metrics.counters)

let test_gauge () =
  let registry = Metrics.create () in
  let g = Metrics.Gauge.v ~registry "test.gauge" in
  Alcotest.(check (float 0.)) "initial" 0. (Metrics.Gauge.value g);
  Metrics.Gauge.set g 0.75;
  Metrics.Gauge.set g 0.25;
  Alcotest.(check (float 0.)) "last write wins" 0.25 (Metrics.Gauge.value g)

let test_histogram_merge_across_domains () =
  let registry = Metrics.create () in
  let h = Metrics.Histogram.v ~registry "test.latency" in
  let n = 4_000 in
  (* every task observes the same duration from whichever domain runs
     it; the merged snapshot must account for each observation once *)
  Pool.parallel_for (Lazy.force wide) ~n (fun _ ->
      Metrics.Histogram.observe h 1e-3);
  let snap = Metrics.snapshot ~registry () in
  match List.assoc_opt "test.latency" snap.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
    Alcotest.(check int) "count" n hs.Metrics.count;
    Alcotest.(check (float 1e-6)) "sum" (float_of_int n *. 1e-3)
      hs.Metrics.sum;
    Alcotest.(check (float 0.)) "min" 1e-3 hs.Metrics.min;
    Alcotest.(check (float 0.)) "max" 1e-3 hs.Metrics.max

let test_metrics_json_parses () =
  let registry = Metrics.create () in
  let c = Metrics.Counter.v ~registry "needs \"escaping\"\n" in
  Metrics.Counter.incr c;
  let h = Metrics.Histogram.v ~registry "lat" in
  Metrics.Histogram.observe h 2e-4;
  Metrics.register_gauge_source ~registry "src.gauge" (fun () -> 0.5);
  let json = Metrics.to_json (Metrics.snapshot ~registry ()) in
  match Json.of_string json with
  | Error m -> Alcotest.fail ("metrics JSON does not parse: " ^ m)
  | Ok j ->
    let counters = Option.get (Json.member "counters" j) in
    Alcotest.(check (option (float 0.)))
      "escaped counter round-trips" (Some 1.)
      (Option.bind
         (Json.member "needs \"escaping\"\n" counters)
         Json.to_number)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let test_disabled_tracing_is_inert () =
  Trace.disable ();
  Trace.clear ();
  let r = Trace.with_span "quiet" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events ()))

let test_span_nesting () =
  Trace.clear ();
  Trace.enable ();
  let r =
    Trace.with_span ~cat:"t" "outer" (fun () ->
        Trace.with_span ~cat:"t" ~args:[ ("k", "v") ] "inner" (fun () -> 7))
  in
  Trace.disable ();
  Alcotest.(check int) "result" 7 r;
  let find name =
    match
      List.find_opt (fun e -> e.Trace.name = name) (Trace.events ())
    with
    | Some e -> e
    | None -> Alcotest.fail ("span not recorded: " ^ name)
  in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner starts inside outer" true
    (inner.Trace.ts >= outer.Trace.ts);
  Alcotest.(check bool) "inner ends inside outer" true
    (inner.Trace.ts +. inner.Trace.dur
     <= outer.Trace.ts +. outer.Trace.dur +. 1e-3);
  Alcotest.(check int) "same recording domain" outer.Trace.tid
    inner.Trace.tid;
  Alcotest.(check (list (pair string string)))
    "args preserved"
    [ ("k", "v") ]
    inner.Trace.args

let test_span_recorded_on_exception () =
  Trace.clear ();
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Trace.disable ();
  Alcotest.(check bool) "exceptional exit still recorded" true
    (List.exists (fun e -> e.Trace.name = "boom") (Trace.events ()))

let test_pool_spans () =
  Trace.clear ();
  Trace.enable ();
  Pool.parallel_for (Lazy.force wide) ~n:64 (fun _ -> ());
  Trace.disable ();
  let names = List.map (fun e -> e.Trace.name) (Trace.events ()) in
  Alcotest.(check bool) "pool.job span" true (List.mem "pool.job" names);
  Alcotest.(check bool) "pool.run span" true (List.mem "pool.run" names)

(* Metric and span names go through [Json.add_string]: a quote, a
   backslash, the two-character escapes, a lowercase [\u00XX] control
   character and multi-byte UTF-8 keep the bytes the reporters wrote
   with their own escaper *)
let tricky = "q\"b\\s\nr\rt\tc\001u\xc3\xa9\xe2\x82\xac"
let escaped = {|q\"b\\s\nr\rt\tc\u0001ué€|}

let test_json_name_bytes () =
  let registry = Metrics.create () in
  Metrics.Counter.add (Metrics.Counter.v ~registry ("c." ^ tricky)) 3;
  Metrics.Gauge.set (Metrics.Gauge.v ~registry ("g." ^ tricky)) 0.5;
  Metrics.Histogram.observe
    (Metrics.Histogram.v ~registry ~bins:2 ~lo:1e-3 ~hi:1. ("h." ^ tricky))
    0.01;
  Alcotest.(check string) "metrics bytes"
    (Printf.sprintf
       {|{"counters":{"c.%s":3},"gauges":{"g.%s":0.5},"histograms":{"h.%s":{"count":1,"sum":0.01,"min":0.01,"max":0.01,"log10_lo":-3,"log10_hi":0,"underflow":0,"overflow":0,"counts":[1,0]}}}|}
       escaped escaped escaped)
    (Metrics.to_json (Metrics.snapshot ~registry ()));
  Trace.clear ();
  Trace.enable ();
  Trace.with_span ~cat:tricky ~args:[ (tricky, tricky) ] tricky ignore;
  Trace.disable ();
  let doc = Trace.to_chrome_json () in
  Alcotest.(check bool) "span name and category bytes" true
    (contains doc
       (Printf.sprintf {|{"name":"%s","cat":"%s","ph":"X",|} escaped escaped));
  Alcotest.(check bool) "span argument bytes" true
    (contains doc (Printf.sprintf {|,"%s":"%s"}}|} escaped escaped))

let test_chrome_json_wellformed () =
  Trace.clear ();
  Trace.enable ();
  Trace.with_span ~args:[ ("path", "a\\b\"c\n") ] "na\"me" (fun () ->
      Trace.with_span "child" ignore);
  Trace.disable ();
  let doc = Trace.to_chrome_json () in
  match Json.of_string doc with
  | Error m -> Alcotest.fail ("trace JSON does not parse: " ^ m)
  | Ok j ->
    let events =
      Option.get (Option.bind (Json.member "traceEvents" j) Json.to_list)
    in
    Alcotest.(check int) "two events" 2 (List.length events);
    List.iter
      (fun e ->
        Alcotest.(check (option string))
          "complete event" (Some "X")
          (Option.bind (Json.member "ph" e) Json.to_string_value);
        List.iter
          (fun k ->
            if Json.member k e = None then
              Alcotest.fail (Printf.sprintf "event misses field %s" k))
          [ "name"; "cat"; "pid"; "tid"; "ts"; "dur"; "args" ])
      events;
    Alcotest.(check bool) "escaped name round-trips" true
      (List.exists
         (fun e ->
           Option.bind (Json.member "name" e) Json.to_string_value
           = Some "na\"me")
         events)

(* ------------------------------------------------------------------ *)
(* Bugfix regressions: grid3 extrapolation                             *)

(* f is affine, so trilinear interpolation AND linear extrapolation
   reproduce it exactly; pchip along z preserves affine data too. *)
let affine_grid () =
  Interp.grid3_make ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |] ~zs:[| 0.; 1.; 2. |]
    ~f:(fun x y z -> x +. (2. *. y) +. (3. *. z))
    ()

let test_grid3_extrapolation_modes () =
  let g = affine_grid () in
  Interp.reset_grid_clamp_events ();
  (* in range: both policies agree, no clamp events *)
  Alcotest.(check (float 1e-12)) "in range" 3.
    (Interp.trilinear g 0.5 0.5 0.5);
  Alcotest.(check (float 1e-12)) "in range (linear)" 3.
    (Interp.trilinear ~extrapolation:Interp.Linear g 0.5 0.5 0.5);
  Alcotest.(check int) "no clamps in range" 0 (Interp.grid_clamp_events ());
  (* x out of range: Linear extrapolates, Clamp pins to the edge *)
  Alcotest.(check (float 1e-12)) "linear extrapolates x" 4.5
    (Interp.trilinear ~extrapolation:Interp.Linear g 2. 0.5 0.5);
  Alcotest.(check (float 1e-12)) "clamp pins x" 3.5
    (Interp.trilinear g 2. 0.5 0.5);
  Alcotest.(check int) "one clamp counted" 1 (Interp.grid_clamp_events ());
  (* z out of range exercises the pchip axis of bilinear_pchip_z *)
  Alcotest.(check (float 1e-9)) "pchip-z linear extrapolates" 10.5
    (Interp.bilinear_pchip_z ~extrapolation:Interp.Linear g 0.5 0.5 3.);
  Alcotest.(check (float 1e-9)) "pchip-z clamp pins" 7.5
    (Interp.bilinear_pchip_z g 0.5 0.5 3.);
  Alcotest.(check int) "second clamp counted" 2 (Interp.grid_clamp_events ())

let test_grid3_linear_no_clamp_events () =
  let g = affine_grid () in
  Interp.reset_grid_clamp_events ();
  ignore (Interp.trilinear ~extrapolation:Interp.Linear g 5. 5. 5.);
  ignore (Interp.bilinear_pchip_z ~extrapolation:Interp.Linear g 5. 5. 5.);
  Alcotest.(check int) "linear mode never clamps" 0
    (Interp.grid_clamp_events ())

(* ------------------------------------------------------------------ *)
(* Bugfix regressions: memo-cache wait accounting                      *)

let test_cache_serial_stats () =
  let c = Memo_cache.create () in
  Alcotest.(check int) "first lookup computes" 1
    (Memo_cache.find_or_compute c 1 (fun () -> 1));
  Alcotest.(check int) "second lookup hits" 1
    (Memo_cache.find_or_compute c 1 (fun () -> 2));
  let s = Memo_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Memo_cache.hits;
  Alcotest.(check int) "misses" 1 s.Memo_cache.misses;
  Alcotest.(check int) "waits" 0 s.Memo_cache.waits;
  Alcotest.(check int) "evictions" 0 s.Memo_cache.evictions;
  Alcotest.(check int) "entries" 1 s.Memo_cache.entries

let test_cache_wait_counted () =
  let c = Memo_cache.create () in
  let started = Atomic.make false in
  let waiter_near = Atomic.make false in
  let release = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        Memo_cache.find_or_compute c 1 (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            42))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* the entry is now Pending; this lookup must block, NOT recompute,
     and be accounted as a wait (the old code counted it as a hit) *)
  let waiter =
    Domain.spawn (fun () ->
        Atomic.set waiter_near true;
        Memo_cache.find_or_compute c 1 (fun () -> 99))
  in
  while not (Atomic.get waiter_near) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.1;
  Atomic.set release true;
  Alcotest.(check int) "owner computed" 42 (Domain.join owner);
  Alcotest.(check int) "waiter got the owner's value" 42 (Domain.join waiter);
  let s = Memo_cache.stats c in
  Alcotest.(check int) "one computation" 1 s.Memo_cache.misses;
  Alcotest.(check int) "blocked lookup counted as wait" 1 s.Memo_cache.waits;
  Alcotest.(check int) "not double-counted as hit" 0 s.Memo_cache.hits;
  Alcotest.(check int) "entries" 1 s.Memo_cache.entries

let test_cache_eviction_on_error () =
  let c = Memo_cache.create () in
  (try ignore (Memo_cache.find_or_compute c 1 (fun () -> failwith "no"))
   with Failure _ -> ());
  let s = Memo_cache.stats c in
  Alcotest.(check int) "failed computation evicted" 1 s.Memo_cache.evictions;
  Alcotest.(check int) "no entry left behind" 0 s.Memo_cache.entries;
  Alcotest.(check int) "retry recomputes" 7
    (Memo_cache.find_or_compute c 1 (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Bugfix regressions: typed ECO errors and the CLI boundary           *)

let tiny_netlist =
  "design tiny\ninput a\noutput y\ncell u1 inv a -> y\nend\n"

let tiny_ir () =
  match Netlist_text.parse Tech.generic_5v tiny_netlist with
  | Error m -> Alcotest.fail m
  | Ok (_, design) ->
    let th =
      match Design.cells design with
      | c :: _ -> Vtc.thresholds c.Design.gate
      | [] -> Alcotest.fail "tiny design has no cells"
    in
    let factory = Sta.synthetic_factory () in
    let ir =
      Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models
        ~thresholds:th design
        ~pi:
          [
            ( "a",
              { Sta.time = 0.; slew = 300e-12; edge = Proxim_measure.Measure.Fall }
            );
          ]
    in
    ignore (Sta.reanalyze ir);
    ir

let test_update_unknown_net () =
  let ir = tiny_ir () in
  Alcotest.check_raises "unknown net is a typed error"
    (Sta.Unknown_eco_target { kind = "net"; name = "nosuch" })
    (fun () -> ignore (Sta.update ir [ Sta.Set_pi ("nosuch", None) ]))

let test_update_unknown_cell () =
  let ir = tiny_ir () in
  Alcotest.check_raises "unknown cell is a typed error"
    (Sta.Unknown_eco_target { kind = "cell"; name = "bogus" })
    (fun () -> ignore (Sta.update ir [ Sta.Touch_cell "bogus" ]))

let with_tiny_netlist_file f =
  let file = Filename.temp_file "proxim_obs" ".ntl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc tiny_netlist);
      f file)

let test_cli_eco_exit_code () =
  with_tiny_netlist_file (fun file ->
      let cmd =
        Printf.sprintf
          "%s sta %s --models synthetic --pi a:fall:300:0 --eco \
           pi:nosuch:quiet >/dev/null 2>&1"
          cli (Filename.quote file)
      in
      Alcotest.(check int) "unknown eco target exits 2" 2 (Sys.command cmd))

let test_cli_trace_and_metrics () =
  with_tiny_netlist_file (fun file ->
      let trace = Filename.temp_file "proxim_obs" ".trace.json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
        (fun () ->
          let cmd =
            Printf.sprintf
              "%s sta %s --models synthetic --pi a:fall:300:0 --trace %s \
               --metrics json >/dev/null 2>&1"
              cli (Filename.quote file) (Filename.quote trace)
          in
          Alcotest.(check int) "clean run" 0 (Sys.command cmd);
          let doc = In_channel.with_open_text trace In_channel.input_all in
          match Json.of_string doc with
          | Error m -> Alcotest.fail ("--trace output does not parse: " ^ m)
          | Ok j ->
            let events =
              Option.bind (Json.member "traceEvents" j) Json.to_list
            in
            Alcotest.(check bool) "trace has spans" true
              (match events with Some (_ :: _) -> true | _ -> false)))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter under contention" `Quick
            test_counter_under_contention;
          Alcotest.test_case "idempotent registration" `Quick
            test_counter_idempotent_registration;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram merge across domains" `Quick
            test_histogram_merge_across_domains;
          Alcotest.test_case "json reporter parses" `Quick
            test_metrics_json_parses;
          Alcotest.test_case "json name bytes" `Quick test_json_name_bytes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled tracing is inert" `Quick
            test_disabled_tracing_is_inert;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "recorded on exception" `Quick
            test_span_recorded_on_exception;
          Alcotest.test_case "pool spans" `Quick test_pool_spans;
          Alcotest.test_case "chrome json well-formed" `Quick
            test_chrome_json_wellformed;
        ] );
      ( "grid3",
        [
          Alcotest.test_case "extrapolation modes" `Quick
            test_grid3_extrapolation_modes;
          Alcotest.test_case "linear never clamps" `Quick
            test_grid3_linear_no_clamp_events;
        ] );
      ( "cache",
        [
          Alcotest.test_case "serial stats" `Quick test_cache_serial_stats;
          Alcotest.test_case "wait counted" `Quick test_cache_wait_counted;
          Alcotest.test_case "eviction on error" `Quick
            test_cache_eviction_on_error;
        ] );
      ( "eco-errors",
        [
          Alcotest.test_case "unknown net" `Quick test_update_unknown_net;
          Alcotest.test_case "unknown cell" `Quick test_update_unknown_cell;
          Alcotest.test_case "cli exit code" `Quick test_cli_eco_exit_code;
          Alcotest.test_case "cli trace + metrics" `Quick
            test_cli_trace_and_metrics;
        ] );
    ]

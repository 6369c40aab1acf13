(* Tests for the domain pool and the sharded memo cache, plus the
   parallel == serial determinism guarantees of the characterization
   paths built on them. *)

module Pool = Proxim_util.Pool
module Memo_cache = Proxim_util.Memo_cache
module Floatx = Proxim_util.Floatx
module Prng = Proxim_util.Prng
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Single = Proxim_macromodel.Single
module Dual = Proxim_macromodel.Dual
module Timing = Proxim_timing.Timing
module Reference = Proxim_timing.Reference
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Harness = Proxim_harness.Harness

(* a shared wide pool keeps domain spawning out of the per-test cost *)
let wide = lazy (Pool.create ~domains:4)

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)

let test_create_invalid () =
  Alcotest.check_raises "domains:0 rejected"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0))

let test_map_preserves_order () =
  let pool = Lazy.force wide in
  let n = 1000 in
  let input = Array.init n (fun i -> i) in
  let out = Pool.map pool (fun i -> i * i) input in
  Alcotest.(check int) "length" n (Array.length out);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
    out

let test_map_list_preserves_order () =
  let pool = Lazy.force wide in
  let input = List.init 257 (fun i -> i) in
  let out = Pool.map_list pool (fun i -> 2 * i) input in
  Alcotest.(check (list int)) "order" (List.map (fun i -> 2 * i) input) out

let test_parallel_for_covers_all_indices () =
  let pool = Lazy.force wide in
  let n = 500 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_for pool ~n (fun i -> Atomic.incr counts.(i));
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "index %d run exactly once" i)
        1 (Atomic.get c))
    counts

let test_exceptions_propagate () =
  let pool = Lazy.force wide in
  Alcotest.check_raises "exception from a task reaches the caller"
    (Failure "task 42") (fun () ->
      ignore
        (Pool.map pool
           (fun i -> if i = 42 then failwith "task 42" else i)
           (Array.init 100 Fun.id)));
  (* the pool must survive the failed job *)
  let out = Pool.map pool Fun.id (Array.init 10 Fun.id) in
  Alcotest.(check int) "pool usable after exception" 9 out.(9)

let test_nested_use_is_safe () =
  let pool = Lazy.force wide in
  (* a task that re-enters the same pool must not deadlock; the inner
     job degrades to a serial loop on the occupied domain *)
  let out =
    Pool.map pool
      (fun i ->
        let inner = Pool.map pool (fun j -> (10 * i) + j) (Array.init 5 Fun.id) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 20 Fun.id)
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "nested result %d" i)
        ((50 * i) + 10) v)
    out

let test_serial_pool_matches_wide_pool () =
  let serial = Pool.create ~domains:1 in
  let wide = Lazy.force wide in
  let input = Array.init 128 (fun i -> float_of_int i /. 7.) in
  let f x = sin x *. exp (cos x) in
  let a = Pool.map serial f input and b = Pool.map wide f input in
  Alcotest.(check bool) "bit-identical floats" true (a = b);
  Pool.shutdown serial

let test_run_serially () =
  let pool = Lazy.force wide in
  let out =
    Pool.run_serially (fun () ->
      Pool.map pool (fun i -> i + 1) (Array.init 50 Fun.id))
  in
  Alcotest.(check int) "serial-mode map still correct" 50 out.(49)

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* submissions to a shut-down pool raise the typed error — they must
     neither hang on vanished workers nor silently degrade to serial *)
  Alcotest.check_raises "post-shutdown map raises" Pool.Shut_down (fun () ->
      ignore (Pool.map pool (fun i -> i * 3) (Array.init 5 Fun.id)));
  Alcotest.check_raises "post-shutdown parallel_for raises" Pool.Shut_down
    (fun () -> Pool.parallel_for pool ~n:5 ignore);
  (* even for the empty job: shutdown state dominates *)
  Alcotest.check_raises "post-shutdown empty job raises" Pool.Shut_down
    (fun () -> Pool.parallel_for pool ~n:0 ignore);
  (* a width-1 pool follows the same contract *)
  let serial = Pool.create ~domains:1 in
  Pool.shutdown serial;
  Alcotest.check_raises "shut-down serial pool raises" Pool.Shut_down
    (fun () -> Pool.parallel_for serial ~n:1 ignore);
  (* the error is catchable and the process stays healthy: a live pool
     still works afterwards *)
  let fresh = Pool.create ~domains:2 in
  (match Pool.parallel_for pool ~n:1 ignore with
   | () -> Alcotest.fail "expected Shut_down"
   | exception Pool.Shut_down -> ());
  let out = Pool.map fresh (fun i -> i + 1) (Array.init 6 Fun.id) in
  Alcotest.(check int) "fresh pool unaffected" 6 out.(5);
  Pool.shutdown fresh

(* ------------------------------------------------------------------ *)
(* Work-stealing internals: persistence, skewed chunks, nested chunks  *)

let test_persistent_pool_reuse () =
  let pool = Lazy.force wide in
  let jobs_before = Pool.parallel_jobs () in
  let calls = 50 in
  for k = 1 to calls do
    let out = Pool.map pool (fun i -> i + k) (Array.init 64 Fun.id) in
    Alcotest.(check int) (Printf.sprintf "call %d result" k) (63 + k) out.(63)
  done;
  (* the same resident domains serve every call: each map is exactly one
     parallel job submitted to the persistent pool, never a fresh spawn *)
  Alcotest.(check int) "one parallel job per map" (jobs_before + calls)
    (Pool.parallel_jobs ());
  Alcotest.(check int) "pool width unchanged" 4 (Pool.domains pool)

let test_steal_correctness_under_skew () =
  let pool = Lazy.force wide in
  let n = 64 in
  (* chunk:4 block-deals 16 chunks, 4 per queue; all the heavy work sits
     in queue 0's chunks (i < 16), so the other domains drain their own
     queues immediately and finish the job through the steal loop *)
  let spin i = if i < 16 then 30_000 else 10 in
  let f i =
    let acc = ref 0. in
    for k = 1 to spin i do
      acc := !acc +. sin (float_of_int ((i * 7) + k))
    done;
    !acc
  in
  let expect = Array.init n f in
  let chunks_before = Pool.chunks_dispatched () in
  let out = Pool.map ~chunk:4 pool f (Array.init n Fun.id) in
  Alcotest.(check int) "16 chunks dispatched" (chunks_before + 16)
    (Pool.chunks_dispatched ());
  Alcotest.(check bool) "skewed map bit-identical to serial reference" true
    (out = expect)

let test_nested_parallel_for_chunked () =
  let pool = Lazy.force wide in
  let n = 40 in
  let serial_before = Pool.serial_jobs () in
  let out = Array.make n 0 in
  Pool.parallel_for ~chunk:2 pool ~n (fun i ->
    (* re-entry from a busy domain must degrade to a serial loop, even
       with an explicit chunk size that would otherwise fan out *)
    let inner = Array.make 8 0 in
    Pool.parallel_for ~chunk:3 pool ~n:8 (fun j -> inner.(j) <- (i * 8) + j);
    out.(i) <- Array.fold_left ( + ) 0 inner);
  Array.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "nested chunked %d" i)
        ((i * 64) + 28) v)
    out;
  Alcotest.(check int) "each inner call counted as a serial job"
    (serial_before + n) (Pool.serial_jobs ())

(* ------------------------------------------------------------------ *)
(* Memo cache                                                          *)

let test_cache_basic_memoization () =
  let cache = Memo_cache.create () in
  let computed = Atomic.make 0 in
  let f key =
    Memo_cache.find_or_compute cache key (fun () ->
      Atomic.incr computed;
      key * key)
  in
  Alcotest.(check int) "first" 49 (f 7);
  Alcotest.(check int) "second" 49 (f 7);
  Alcotest.(check int) "other key" 81 (f 9);
  Alcotest.(check int) "computed once per key" 2 (Atomic.get computed);
  let s = Memo_cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Memo_cache.hits;
  Alcotest.(check int) "misses" 2 s.Memo_cache.misses;
  Alcotest.(check int) "entries" 2 s.Memo_cache.entries;
  Alcotest.(check bool) "mem" true (Memo_cache.mem cache 7);
  Alcotest.(check bool) "not mem" false (Memo_cache.mem cache 8);
  Memo_cache.reset_stats cache;
  let s = Memo_cache.stats cache in
  Alcotest.(check int) "hits reset" 0 s.Memo_cache.hits;
  Alcotest.(check int) "entries survive reset" 2 s.Memo_cache.entries

let test_cache_exception_not_cached () =
  let cache = Memo_cache.create () in
  Alcotest.check_raises "first attempt raises" (Failure "flaky") (fun () ->
    ignore (Memo_cache.find_or_compute cache 1 (fun () -> failwith "flaky")));
  (* the failure must not poison the key *)
  Alcotest.(check int) "retry succeeds" 11
    (Memo_cache.find_or_compute cache 1 (fun () -> 11));
  Alcotest.(check int) "cached after retry" 11
    (Memo_cache.find_or_compute cache 1 (fun () -> 999))

let test_cache_concurrent_dedup () =
  (* hammer a few keys from every domain; each distinct key must be
     computed exactly once, everyone else waits on the pending entry *)
  let pool = Lazy.force wide in
  let cache = Memo_cache.create () in
  let keys = 8 and queries = 400 in
  let computed = Array.init keys (fun _ -> Atomic.make 0) in
  let out =
    Pool.map pool
      (fun i ->
        let key = i mod keys in
        Memo_cache.find_or_compute cache key (fun () ->
          Atomic.incr computed.(key);
          (* widen the race window so waiters actually hit Pending *)
          ignore (Array.init 1000 Fun.id);
          key * 100))
      (Array.init queries (fun i -> i))
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "query %d" i) (i mod keys * 100) v)
    out;
  Array.iteri
    (fun key c ->
      Alcotest.(check int)
        (Printf.sprintf "key %d computed exactly once" key)
        1 (Atomic.get c))
    computed;
  let s = Memo_cache.stats cache in
  Alcotest.(check int) "misses = distinct keys" keys s.Memo_cache.misses;
  (* a query resolved while the computation was in flight counts as a
     wait, not a hit; together they account for everything else *)
  Alcotest.(check int) "hits + waits = the rest" (queries - keys)
    (s.Memo_cache.hits + s.Memo_cache.waits);
  Alcotest.(check int) "no evictions" 0 s.Memo_cache.evictions;
  Alcotest.(check int) "length" keys (Memo_cache.length cache)

(* ------------------------------------------------------------------ *)
(* Determinism of the characterization paths                           *)

let tech = Tech.generic_5v
let nand2 = Gate.nand tech ~fan_in:2
let th = lazy (Vtc.thresholds ~points:201 nand2)

let build_tables pool =
  let th = Lazy.force th in
  let taus = Floatx.logspace 50e-12 2e-9 5 in
  let single_dom = Single.build ~taus ~pool nand2 th ~pin:0 ~edge:Measure.Fall in
  let single_other =
    Single.build ~taus ~pool nand2 th ~pin:1 ~edge:Measure.Fall
  in
  let dual =
    Dual.build
      ~x_tau:(Floatx.logspace 0.4 8. 3)
      ~x_sep:[| -2.; -0.5; 0.4; 1.1 |]
      ~pool nand2 th ~single_dom ~single_other ~other:1
  in
  Single.save single_dom ^ Single.save single_other ^ Dual.save dual

let test_dual_table_parallel_matches_serial () =
  let serial = Pool.create ~domains:1 in
  let a = build_tables serial in
  Pool.shutdown serial;
  let b = build_tables (Lazy.force wide) in
  Alcotest.(check bool) "serial and 4-domain tables bit-identical" true
    (String.equal a b)

let test_vtc_family_parallel_matches_serial () =
  let serial = Pool.create ~domains:1 in
  let a = Vtc.family ~points:101 ~pool:serial nand2 in
  Pool.shutdown serial;
  let b = Vtc.family ~points:101 ~pool:(Lazy.force wide) nand2 in
  Alcotest.(check bool) "VTC families bit-identical" true (a = b)

(* ------------------------------------------------------------------ *)
(* Randomized STA equivalence on chunked levels: with a level width
   above Timing.parallel_threshold every evaluation wave takes the
   chunked parallel path, each chunk on its own cursor, and the
   harness's ECO-batch oracle must still see update == fresh analysis
   and SoA == Reference bit-for-bit at 4 domains, in both modes        *)

let nor2 = Gate.nor tech ~fan_in:2

let test_sta_update_equals_analyze_chunked mode () =
  let jobs_before = Pool.parallel_jobs () in
  let r =
    Harness.eco_batches ~pool:(Lazy.force wide) (Prng.create 0x9001L)
      ~mode ~thresholds:(Lazy.force th) ~sequences:1
      ~batches:4 ~design:(fun rng ->
        Harness.layered_design rng ~gates:[| nand2; nor2 |] ~depth:3
          ~width:(Timing.parallel_threshold + 8))
  in
  Alcotest.(check bool) "levels actually ran on the pool" true
    (Pool.parallel_jobs () > jobs_before);
  Option.iter Alcotest.fail r.Harness.er_divergence;
  Alcotest.(check int) "batches checked" 4 r.Harness.er_batches

(* Update's chunked path: the oracle's batches touch a few inputs, so
   their dirty levels stay under Timing.parallel_threshold.  Moving
   about half the inputs of a 96-wide design dirties ~70 cells per
   level: the workers commit, and the caller must count every change
   and enqueue its readers, or a reader whose other inputs kept their
   arrivals is left stale *)
let test_sta_wide_update mode () =
  let pool = Lazy.force wide in
  let rng = Prng.create 0x1DE5L in
  let design =
    Harness.layered_design rng ~gates:[| nand2; nor2 |] ~depth:4 ~width:96
  in
  let { Sta.models; _ } = Sta.synthetic_factory () in
  let thresholds = Lazy.force th in
  let event () =
    let time = Prng.float rng ~lo:0. ~hi:400e-12 in
    let slew = Prng.float rng ~lo:100e-12 ~hi:600e-12 in
    { Sta.time; slew; edge = Measure.Fall }
  in
  let analyzed pi =
    let ir = Sta.build_ir ~mode ~models ~thresholds design ~pi in
    ignore (Sta.reanalyze ~pool ir : Timing.stats);
    ir
  in
  let pi =
    ref (List.map (fun p -> (p, event ())) (Design.primary_inputs design))
  in
  let ir = analyzed !pi in
  let chunked = ref 0 in
  for round = 1 to 8 do
    let ecos =
      List.filter_map
        (fun (p, _) ->
          if Prng.int rng ~lo:0 ~hi:1 = 0 then
            Some (Sta.Set_pi (p, Some (event ())))
          else None)
        !pi
    in
    let jobs = Pool.parallel_jobs () in
    ignore (Sta.update ~pool ir ecos : Timing.stats);
    chunked := !chunked + Pool.parallel_jobs () - jobs;
    pi := Sta.apply_ecos !pi ecos;
    Option.iter
      (fun d -> Alcotest.failf "round %d: %s" round d)
      (Harness.report_diff ~design
         ("update", Sta.report ir)
         ("fresh", Sta.report (analyzed !pi)));
    if not (Reference.agrees (Sta.timing ir)) then
      Alcotest.failf "round %d: the arena disagrees with Timing.Reference"
        round
  done;
  Alcotest.(check bool) "the updates ran chunked" true (!chunked > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "create rejects width 0" `Quick test_create_invalid;
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "map_list preserves order" `Quick
            test_map_list_preserves_order;
          Alcotest.test_case "parallel_for covers all indices" `Quick
            test_parallel_for_covers_all_indices;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exceptions_propagate;
          Alcotest.test_case "nested use is safe" `Quick
            test_nested_use_is_safe;
          Alcotest.test_case "serial pool matches wide pool" `Quick
            test_serial_pool_matches_wide_pool;
          Alcotest.test_case "run_serially" `Quick test_run_serially;
          Alcotest.test_case "shutdown is idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "persistent pool reused across maps" `Quick
            test_persistent_pool_reuse;
          Alcotest.test_case "steal path correct under skewed chunks" `Quick
            test_steal_correctness_under_skew;
          Alcotest.test_case "nested parallel_for with explicit chunks" `Quick
            test_nested_parallel_for_chunked;
        ] );
      ( "memo-cache",
        [
          Alcotest.test_case "basic memoization + counters" `Quick
            test_cache_basic_memoization;
          Alcotest.test_case "exception is not cached" `Quick
            test_cache_exception_not_cached;
          Alcotest.test_case "concurrent queries dedup" `Quick
            test_cache_concurrent_dedup;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dual-table build: parallel == serial" `Slow
            test_dual_table_parallel_matches_serial;
          Alcotest.test_case "VTC family: parallel == serial" `Quick
            test_vtc_family_parallel_matches_serial;
          Alcotest.test_case "STA update == analyze on chunked levels" `Quick
            (test_sta_update_equals_analyze_chunked Sta.Proximity);
          Alcotest.test_case
            "STA update == analyze on chunked levels, classic" `Quick
            (test_sta_update_equals_analyze_chunked Sta.Classic);
          Alcotest.test_case "STA update moving half the inputs" `Quick
            (test_sta_wide_update Sta.Proximity);
          Alcotest.test_case "STA update moving half the inputs, classic"
            `Quick (test_sta_wide_update Sta.Classic);
        ] );
    ]

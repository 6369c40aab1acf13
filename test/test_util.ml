(* Unit and property tests for Proxim_util. *)

module Floatx = Proxim_util.Floatx
module Linalg = Proxim_util.Linalg
module Rootfind = Proxim_util.Rootfind
module Interp = Proxim_util.Interp
module Stats = Proxim_util.Stats
module Histogram = Proxim_util.Histogram
module Prng = Proxim_util.Prng
module Json = Proxim_util.Json

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Floatx                                                              *)

let test_approx_eq () =
  Alcotest.(check bool) "equal" true (Floatx.approx_eq 1.0 1.0);
  Alcotest.(check bool) "close" true (Floatx.approx_eq 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx_eq 1.0 1.1);
  Alcotest.(check bool)
    "atol near zero" true
    (Floatx.approx_eq ~atol:1e-9 0. 1e-10)

let test_clamp () =
  check_float "below" 0. (Floatx.clamp ~lo:0. ~hi:1. (-3.));
  check_float "above" 1. (Floatx.clamp ~lo:0. ~hi:1. 7.);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0. ~hi:1. 0.5)

let test_linspace () =
  let xs = Floatx.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  check_float "first" 0. xs.(0);
  check_float "last" 1. xs.(4);
  check_float "middle" 0.5 xs.(2)

let test_logspace () =
  let xs = Floatx.logspace 1. 100. 3 in
  check_float "first" 1. xs.(0);
  check_float ~eps:1e-9 "middle" 10. xs.(1);
  check_float ~eps:1e-9 "last" 100. xs.(2)

let test_lerp_inverse () =
  check_float "lerp mid" 1.5 (Floatx.lerp 1. 2. 0.5);
  check_float "inv roundtrip" 0.3 (Floatx.inv_lerp 2. 4. (Floatx.lerp 2. 4. 0.3))

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)

let test_lu_identity () =
  let a = [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let x = Linalg.lu_solve a [| 3.; 4. |] in
  check_float "x0" 3. x.(0);
  check_float "x1" 4. x.(1)

let test_lu_known_system () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Linalg.lu_solve a [| 5.; 10. |] in
  check_float "x" 1. x.(0);
  check_float "y" 3. x.(1)

let test_lu_needs_pivoting () =
  (* zero on the leading diagonal forces a row exchange *)
  let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linalg.lu_solve a [| 2.; 3. |] in
  check_float "x" 3. x.(0);
  check_float "y" 2. x.(1)

let test_lu_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Linalg.Singular (fun () ->
    ignore (Linalg.lu_solve a [| 1.; 1. |]))

let prop_lu_random =
  QCheck.Test.make ~name:"lu solves random diagonally-dominant systems"
    ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 1)) in
      let n = 1 + Prng.int rng ~lo:1 ~hi:7 in
      let a =
        Array.init n (fun i ->
          Array.init n (fun j ->
            let v = Prng.float rng ~lo:(-1.) ~hi:1. in
            if i = j then v +. (10. *. Floatx.sign (v +. 0.5)) else v))
      in
      let x_true = Array.init n (fun _ -> Prng.float rng ~lo:(-5.) ~hi:5.) in
      let b = Linalg.mat_vec a x_true in
      let x = Linalg.lu_solve a b in
      Array.for_all2 (fun u v -> Floatx.approx_eq ~rtol:1e-8 ~atol:1e-8 u v)
        x x_true)

let prop_residual =
  QCheck.Test.make ~name:"residual of LU solution is tiny" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Prng.create (Int64.of_int (seed + 100)) in
      let n = 2 + Prng.int rng ~lo:0 ~hi:5 in
      let a =
        Array.init n (fun i ->
          Array.init n (fun j ->
            if i = j then 5. +. Prng.float rng ~lo:0. ~hi:1.
            else Prng.float rng ~lo:(-1.) ~hi:1.))
      in
      let b = Array.init n (fun _ -> Prng.float rng ~lo:(-3.) ~hi:3.) in
      let x = Linalg.lu_solve a b in
      Linalg.residual_norm a x b < 1e-10)

(* ------------------------------------------------------------------ *)
(* Rootfind                                                            *)

let test_bisect_linear () =
  let root = Rootfind.bisect ~f:(fun x -> x -. 0.25) 0. 1. in
  check_float ~eps:1e-10 "linear root" 0.25 root

let test_brent_cubic () =
  let f x = (x *. x *. x) -. (2. *. x) -. 5. in
  let root = Rootfind.brent ~f 2. 3. in
  check_float ~eps:1e-9 "cubic root" 2.0945514815423265 root

let test_brent_endpoint_root () =
  check_float "root at endpoint" 1.
    (Rootfind.brent ~f:(fun x -> x -. 1.) 1. 2.)

let test_no_bracket () =
  Alcotest.check_raises "no bracket" Rootfind.No_bracket (fun () ->
    ignore (Rootfind.bisect ~f:(fun x -> (x *. x) +. 1.) (-1.) 1.))

let test_find_bracket () =
  match Rootfind.find_bracket ~f:(fun x -> x -. 0.7) ~lo:0. ~hi:1. ~n:10 with
  | Some (lo, hi) ->
    Alcotest.(check bool) "brackets root" true (lo <= 0.7 && 0.7 <= hi)
  | None -> Alcotest.fail "expected a bracket"

let prop_brent_random_roots =
  QCheck.Test.make ~name:"brent finds planted roots" ~count:200
    QCheck.(float_range 0.05 0.95)
    (fun r ->
      let f x = (x -. r) *. ((x *. x) +. 1.) in
      let root = Rootfind.brent ~f 0. 1. in
      Float.abs (root -. r) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Interp                                                              *)

let test_linear_interp () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 10.; 40. |] in
  check_float "at sample" 10. (Interp.linear xs ys 1.);
  check_float "between" 25. (Interp.linear xs ys 1.5);
  check_float "clamped below" 0. (Interp.linear xs ys (-1.));
  check_float "clamped above" 40. (Interp.linear xs ys 9.)

let test_linear_extrapolation () =
  let xs = [| 0.; 1. |] and ys = [| 0.; 2. |] in
  check_float "extrapolate" 4.
    (Interp.linear ~extrapolation:Interp.Linear xs ys 2.)

let test_pchip_interpolates_samples () =
  let xs = [| 0.; 1.; 2.; 3. |] and ys = [| 0.; 1.; 4.; 9. |] in
  let p = Interp.pchip_make xs ys in
  Array.iteri
    (fun i x -> check_float "knot" ys.(i) (Interp.pchip_eval p x))
    xs

let prop_pchip_monotone =
  QCheck.Test.make ~name:"pchip preserves monotonicity" ~count:100
    QCheck.(list_of_size (Gen.int_range 3 10) (float_range 0.01 5.))
    (fun increments ->
      let n = List.length increments in
      QCheck.assume (n >= 3);
      let xs = Array.init n float_of_int in
      let ys = Array.make n 0. in
      List.iteri
        (fun i inc -> if i > 0 then ys.(i) <- ys.(i - 1) +. inc)
        increments;
      let p = Interp.pchip_make xs ys in
      let samples = Floatx.linspace 0. (float_of_int (n - 1)) 101 in
      let vals = Array.map (Interp.pchip_eval p) samples in
      let ok = ref true in
      for i = 0 to Array.length vals - 2 do
        if vals.(i + 1) < vals.(i) -. 1e-12 then ok := false
      done;
      !ok)

let test_bilinear_pchip_z_matches_trilinear_on_linear_data () =
  let axis = [| 0.; 1.; 2.; 3. |] in
  let f x y z = (2. *. x) -. y +. (0.5 *. z) in
  let g = Interp.grid3_make ~xs:axis ~ys:axis ~zs:axis ~f () in
  List.iter
    (fun (x, y, z) ->
      check_float ~eps:1e-12 "agrees with exact" (f x y z)
        (Interp.bilinear_pchip_z g x y z))
    [ (0.5, 1.5, 0.25); (2.9, 0.1, 2.5); (1., 1., 1.) ]

let test_bilinear_pchip_z_beats_trilinear_on_curved_z () =
  (* quadratic along z: pchip-z must interpolate much better between knots *)
  let axis = [| 0.; 1.; 2.; 3.; 4. |] in
  let f _ _ z = z *. z in
  let g = Interp.grid3_make ~xs:axis ~ys:axis ~zs:axis ~f () in
  let z = 2.5 in
  let exact = z *. z in
  let tri = Interp.trilinear g 1. 1. z in
  let pz = Interp.bilinear_pchip_z g 1. 1. z in
  Alcotest.(check bool) "pchip-z closer" true
    (Float.abs (pz -. exact) < Float.abs (tri -. exact))

let test_trilinear_exact_on_linear_function () =
  let axis = [| 0.; 1.; 2. |] in
  let f x y z = (2. *. x) +. (3. *. y) -. z +. 1. in
  let g = Interp.grid3_make ~xs:axis ~ys:axis ~zs:axis ~f () in
  check_float "interior" (f 0.5 1.5 0.25) (Interp.trilinear g 0.5 1.5 0.25);
  check_float "corner" (f 2. 2. 2.) (Interp.trilinear g 2. 2. 2.);
  check_float "clamped" (f 2. 0. 0.) (Interp.trilinear g 5. (-1.) 0.)

(* ------------------------------------------------------------------ *)
(* Stats / Histogram                                                   *)

let test_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1. s.Stats.min;
  check_float "max" 4. s.Stats.max;
  check_float ~eps:1e-9 "std" (sqrt (5. /. 3.)) s.Stats.std

let test_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "median" 3. (Stats.percentile xs 50.);
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 [| 0.; 1.; 2.5; 9.99; 10.; -1.; 11. |] in
  Alcotest.(check int) "total" 7 (Histogram.total h);
  Alcotest.(check int) "underflow" 1 h.Histogram.underflow;
  Alcotest.(check int) "overflow" 1 h.Histogram.overflow;
  Alcotest.(check int) "bin0" 2 h.Histogram.counts.(0);
  Alcotest.(check int) "bin1" 1 h.Histogram.counts.(1);
  (* 10. lands in the last bin by the closed-upper-edge rule *)
  Alcotest.(check int) "bin4" 2 h.Histogram.counts.(4)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_ranges () =
  let rng = Prng.create 13L in
  for _ = 1 to 1000 do
    let f = Prng.float rng ~lo:2. ~hi:3. in
    Alcotest.(check bool) "float in range" true (f >= 2. && f < 3.);
    let i = Prng.int rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "int in range" true (i >= -5 && i <= 5)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 99L in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

(* The wire contract for numbers: [%.0f] for integers below 1e15, [%.17g]
   for every other finite value (the bytes Printf prints), [null] for the
   rest, and every printed value reparses to the same bits.  A memo slot
   prints the same text cold, warm, and after it held another value. *)
let test_json_number_wire_format () =
  let rng = Prng.create 0x4a534f4eL in
  let specials =
    [
      0.; -0.; Float.min_float; -.Float.min_float; Float.max_float;
      -.Float.max_float; 4.9406564584124654e-324; 2.2250738585072009e-308;
      -5e-324; 1.; -1.; 0.1; Float.nan; Float.infinity; Float.neg_infinity;
      Int64.float_of_bits 0x7ff8000000000001L;
    ]
  in
  (* integers on both sides of 1e15, and 2^53 - 1, 2^53, 2^53 + 1 *)
  let integers =
    List.concat_map
      (fun k ->
        let k = float_of_int k in
        [ 1e15 +. k; 1e15 -. k; -.(1e15 +. k); -.(1e15 -. k);
          Float.pow 2. 53. +. k; Float.pow 2. 53. -. k ])
      [ 0; 1; 2; 3; 7; 100; 12345 ]
  in
  let random =
    List.init 100_000 (fun _ -> Int64.float_of_bits (Prng.next_int64 rng))
  in
  let values = specials @ integers @ random in
  let buf = Buffer.create 32 in
  (* one slot per value, and one slot every value passes through *)
  let memo = Json.Memo.create () and shared = Json.Memo.create () in
  Json.Memo.reserve memo (List.length values);
  Json.Memo.reserve shared 1;
  let same_bits a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  let through what m i v ~reused =
    Buffer.clear buf;
    let got = Json.Memo.add_number m buf i v in
    let text = Buffer.contents buf in
    Buffer.clear buf;
    Json.add_number buf v;
    if text <> Buffer.contents buf then
      Alcotest.failf "%h: %s memo slot %s, add_number %s" v what text
        (Buffer.contents buf);
    if got <> reused then
      Alcotest.failf "%h: %s memo slot reused %b, want %b" v what got reused
  in
  ignore
    (List.fold_left
       (fun (i, prev) v ->
         through "cold" memo i v ~reused:false;
         through "warm" memo i v ~reused:true;
         through "another value's" shared 0 v
           ~reused:(Option.fold ~none:false ~some:(same_bits v) prev);
         (i + 1, Some v))
       (0, None) values
      : int * float option);
  List.iter
    (fun v ->
      let text = Json.to_string (Json.Number v) in
      Buffer.clear buf;
      Json.add_number buf v;
      if Buffer.contents buf <> text then
        Alcotest.failf "%h: add_number %s, to_string %s" v
          (Buffer.contents buf) text;
      if not (Float.is_finite v) then
        Alcotest.(check string) "non-finite" "null" text
      else begin
        let want =
          if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%.17g" v
        in
        if text <> want then
          Alcotest.failf "%h printed %s, want %s" v text want;
        match Json.of_string text with
        | Ok (Json.Number w)
          when Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float v) ->
          ()
        | _ -> Alcotest.failf "%s does not reparse to %h" text v
      end)
    values

let test_json_strings () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) (Printf.sprintf "%S" s) want
        (Json.to_string (Json.String s));
      if Json.of_string want <> Ok (Json.String s) then
        Alcotest.failf "%s does not reparse to %S" want s)
    [
      ("plain", {|"plain"|});
      ("", {|""|});
      ("q\"b\\s/", {|"q\"b\\s/"|});
      ("n\nr\rt\t", {|"n\nr\rt\t"|});
      ("\001\031\127", "\"\\u0001\\u001f\127\"");
      ("\xc3\xa9\xe2\x82\xac", "\"\xc3\xa9\xe2\x82\xac\"");
    ]

(* every error message and offset, as the parser gave them before it
   was rewritten to read bytes in place *)
let malformed_documents =
  [
    ("", "at offset 0: unexpected end of input");
    ("   ", "at offset 3: unexpected end of input");
    ("{", "at offset 1: expected '\"', got end of input");
    ("[1,]", "at offset 3: bad number \"\"");
    ("[1 2]", "at offset 3: expected ',' or ']'");
    ("{\"a\" 1}", "at offset 5: expected ':', got '1'");
    ("{\"a\":1,}", "at offset 7: expected '\"', got '}'");
    ("\"abc", "at offset 4: unterminated string");
    ("\"ab\\", "at offset 4: unterminated escape");
    ("\"\\q\"", "at offset 3: bad escape \\q");
    ("\"\\u12\"", "at offset 3: truncated \\u escape");
    ("\"\\u12zz\"", "at offset 7: bad \\u escape");
    ("tru", "at offset 0: expected true");
    ("nul", "at offset 0: expected null");
    ("falsy", "at offset 0: expected false");
    ("1 2", "at offset 2: trailing content");
    ("-", "at offset 1: bad number \"-\"");
    ("1e", "at offset 2: bad number \"1e\"");
    ("{\"a\":1 \"b\":2}", "at offset 7: expected ',' or '}'");
    ( String.make (Json.max_depth + 1) '[',
      "at offset 64: nesting deeper than 64 levels" );
    ("[\"a\",\000]", "at offset 5: bad number \"\"");
    ("@", "at offset 0: bad number \"\"");
    ("{1:2}", "at offset 1: expected '\"', got '1'");
    ("[1,2", "at offset 4: expected ',' or ']'");
    ("1.5.3", "at offset 5: bad number \"1.5.3\"");
    ("\"\\u00e9", "at offset 7: unterminated string");
    ("{\"a\"\001", "at offset 4: expected ':', got '\\001'");
    ("[nan]", "at offset 1: expected null");
    ("{\"k\":[1,{\"x\":tru}]}", "at offset 13: expected true");
    ("\"\\u-123\"", "at offset 7: bad \\u escape");
  ]

let test_json_malformed () =
  List.iter
    (fun (doc, want) ->
      match Json.of_string doc with
      | Ok _ -> Alcotest.failf "%S parsed" doc
      | Error m -> Alcotest.(check string) (Printf.sprintf "%S" doc) want m)
    malformed_documents

let () =
  Alcotest.run "util"
    [
      ( "floatx",
        [
          Alcotest.test_case "approx_eq" `Quick test_approx_eq;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "logspace" `Quick test_logspace;
          Alcotest.test_case "lerp/inv_lerp" `Quick test_lerp_inverse;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "identity" `Quick test_lu_identity;
          Alcotest.test_case "known 2x2" `Quick test_lu_known_system;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          QCheck_alcotest.to_alcotest prop_lu_random;
          QCheck_alcotest.to_alcotest prop_residual;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "bisect linear" `Quick test_bisect_linear;
          Alcotest.test_case "brent cubic" `Quick test_brent_cubic;
          Alcotest.test_case "endpoint root" `Quick test_brent_endpoint_root;
          Alcotest.test_case "no bracket" `Quick test_no_bracket;
          Alcotest.test_case "find_bracket" `Quick test_find_bracket;
          QCheck_alcotest.to_alcotest prop_brent_random_roots;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linear" `Quick test_linear_interp;
          Alcotest.test_case "linear extrapolation" `Quick
            test_linear_extrapolation;
          Alcotest.test_case "pchip knots" `Quick test_pchip_interpolates_samples;
          QCheck_alcotest.to_alcotest prop_pchip_monotone;
          Alcotest.test_case "trilinear linear-exact" `Quick
            test_trilinear_exact_on_linear_function;
          Alcotest.test_case "bilinear-pchip-z linear" `Quick
            test_bilinear_pchip_z_matches_trilinear_on_linear_data;
          Alcotest.test_case "bilinear-pchip-z curved" `Quick
            test_bilinear_pchip_z_beats_trilinear_on_curved_z;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram_binning;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
        ] );
      ( "json",
        [
          Alcotest.test_case "number wire format" `Quick
            test_json_number_wire_format;
          Alcotest.test_case "string escapes" `Quick test_json_strings;
          Alcotest.test_case "malformed documents" `Quick test_json_malformed;
        ] );
    ]

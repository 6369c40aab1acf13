(* Tests for the structural netlist text format. *)

module Tech = Proxim_gates.Tech
module Gate = Proxim_gates.Gate
module Design = Proxim_sta.Design
module Netlist_text = Proxim_sta.Netlist_text
module Synthgen = Proxim_sta.Synthgen
module Prng = Proxim_util.Prng

let tech = Tech.generic_5v

let sample =
  {|
# carry tree
design carry_tree
input a b c
output carry
cell u1 nand2 a b -> n1
cell u2 nand2 a c -> n2
cell u3 nand2 b c -> n3
cell u5 nand3 n1 n2 n3 -> carry
end
|}

let test_parse_sample () =
  match Netlist_text.parse tech sample with
  | Error m -> Alcotest.fail m
  | Ok (name, design) ->
    Alcotest.(check string) "name" "carry_tree" name;
    Alcotest.(check int) "cells" 4 (List.length (Design.cells design));
    Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c" ]
      (Design.primary_inputs design);
    Alcotest.(check (list string)) "outputs" [ "carry" ]
      (Design.primary_outputs design);
    (match Design.driver design ~net:"carry" with
     | Some c ->
       Alcotest.(check string) "driver" "u5" c.Design.name;
       Alcotest.(check int) "fan-in" 3 c.Design.gate.Gate.fan_in
     | None -> Alcotest.fail "no driver")

let test_roundtrip () =
  match Netlist_text.parse tech sample with
  | Error m -> Alcotest.fail m
  | Ok (name, design) -> (
    let text = Netlist_text.to_string ~name design in
    match Netlist_text.parse tech text with
    | Error m -> Alcotest.fail ("reparse: " ^ m)
    | Ok (name', design') ->
      Alcotest.(check string) "name" name name';
      Alcotest.(check int) "cells" (List.length (Design.cells design))
        (List.length (Design.cells design'));
      Alcotest.(check (list string)) "inputs" (Design.primary_inputs design)
        (Design.primary_inputs design'))

let expect_error text fragment =
  match Netlist_text.parse tech text with
  | Ok _ -> Alcotest.failf "expected parse error mentioning %S" fragment
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" m fragment)
      true (Testkit.contains m fragment)

let test_error_messages () =
  expect_error "cell u1 nand2 a b -> y\nend" "design";
  expect_error "design d\ncell u1 frob a -> y\nend" "unknown gate";
  expect_error "design d\ncell u1 nand2 a -> y\nend" "wants 2 inputs";
  expect_error "design d\ncell u1 nand2 a b y\nend" "expected 'cell";
  expect_error "design d\nfrobnicate\nend" "unrecognized";
  expect_error "design d\nend\ninput a" "after 'end'";
  expect_error "design d\ndesign e\nend" "duplicate";
  (* structural validation comes through Design.create *)
  expect_error
    "design d\ninput a\noutput y\ncell u1 inv a -> y\ncell u2 inv a -> y\nend"
    "driven twice";
  expect_error
    "design d\ninput a\noutput y\ncell u1 inv ghost -> y\nend"
    "undriven"

let test_line_numbers () =
  match Netlist_text.parse tech "design d\n\ncell u1 frob a -> y\nend" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error m ->
    Alcotest.(check bool) "line 3 reported" true
      (String.length m >= 7 && String.sub m 0 7 = "line 3:")

let test_column_numbers () =
  (* the unknown gate name starts at column 9 of line 3 *)
  (match Netlist_text.parse tech "design d\n\ncell u1 frob a -> y\nend" with
   | Ok _ -> Alcotest.fail "expected error"
   | Error m ->
     Alcotest.(check string) "gate-name column" "line 3:9:"
       (String.sub m 0 9));
  (* an unrecognized directive is located at its own first column *)
  (match Netlist_text.parse tech "design d\n   frobnicate\nend" with
   | Ok _ -> Alcotest.fail "expected error"
   | Error m ->
     Alcotest.(check string) "directive column" "line 2:4:" (String.sub m 0 9));
  (* raw errors carry the same positions, structured *)
  let raw = Netlist_text.parse_raw tech "design d\nthresholds 1.0 oops 5.0\nend" in
  match raw.Netlist_text.raw_errors with
  | [ e ] ->
    Alcotest.(check int) "err_line" 2 e.Netlist_text.err_line;
    Alcotest.(check int) "err_col" 16 e.Netlist_text.err_col
  | es -> Alcotest.failf "expected 1 raw error, got %d" (List.length es)

let test_crlf () =
  (* a CRLF-encoded file parses identically to its LF twin *)
  let lf = "design d\ninput a\noutput y\ncell u1 inv a -> y\nend\n" in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' lf)
  in
  match (Netlist_text.parse tech lf, Netlist_text.parse tech crlf) with
  | Ok (n1, d1), Ok (n2, d2) ->
    Alcotest.(check string) "name" n1 n2;
    Alcotest.(check int) "cells" (List.length (Design.cells d1))
      (List.length (Design.cells d2));
    Alcotest.(check (list string)) "inputs" (Design.primary_inputs d1)
      (Design.primary_inputs d2)
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_comments_and_whitespace () =
  let text = "  design   d  # trailing\n# full line\n\tinput a\n output y\ncell u1 inv a -> y\nend" in
  match Netlist_text.parse tech text with
  | Error m -> Alcotest.fail m
  | Ok (name, design) ->
    Alcotest.(check string) "name" "d" name;
    Alcotest.(check int) "one cell" 1 (List.length (Design.cells design))

(* ------------------------------------------------------------------ *)
(* Seeded mutation fuzzer                                              *)

(* Every mutant of the example netlists and of a generated 200-cell text
   -- bit flips, overwrites from the directive alphabet, truncations,
   splices of two sources, long token runs, and injected [thresholds] and
   self-loop [cell] lines -- scans and parses to a value, never an
   exception, within a minor-heap allocation per input byte: both calls
   together, over the input's length plus 64 bytes for the fixed cost an
   empty input already pays (~120 words).  A 20 000-mutant run of this
   mix gave 4 907 [Ok], 15 093 [Error], no exception and at most ~25
   words per byte. *)
let words_per_byte_bound = 100.

let test_fuzz () =
  let examples =
    Sys.readdir "../examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ntl")
    |> List.sort compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat "../examples" f)
             In_channel.input_all)
  in
  let generated =
    let name, design = Synthgen.generate ~seed:1 ~depth:6 ~tech ~cells:200 () in
    Netlist_text.to_string ~name design
  in
  let sources = Array.of_list (generated :: examples) in
  let rng = Prng.create 0x4e544c46555a5aL in
  let below n = Prng.int rng ~lo:0 ~hi:(max 0 (n - 1)) in
  let one_of a = a.(Prng.int rng ~lo:0 ~hi:(Array.length a - 1)) in
  let tokens =
    [| "design"; "input"; "output"; "cell"; "->"; "end"; "thresholds"; "#";
       "nand2"; "nor3"; "inv"; "\n"; "\r\n"; "\t"; " "; "-"; "1e308";
       "nan"; "-5"; "0x1p-1074"; "\000"; "\xff" |]
  in
  let edit s at ~drop ins =
    String.sub s 0 at ^ ins ^ String.sub s (at + drop) (String.length s - at - drop)
  in
  let line_start s =
    match String.rindex_from_opt s (below (String.length s + 1) - 1) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  let mutate () =
    let s = one_of sources in
    match Prng.int rng ~lo:0 ~hi:6 with
    | 0 ->
      let m = Bytes.of_string s in
      for _ = 1 to Prng.int rng ~lo:1 ~hi:4 do
        let i = below (Bytes.length m) in
        Bytes.set m i
          (Char.chr (Char.code (Bytes.get m i) lxor (1 lsl Prng.int rng ~lo:0 ~hi:7)))
      done;
      Bytes.to_string m
    | 1 ->
      let at = below (String.length s) in
      edit s at ~drop:(min (Prng.int rng ~lo:0 ~hi:8) (String.length s - at))
        (one_of tokens)
    | 2 -> String.sub s 0 (below (String.length s + 1))
    | 3 ->
      let t = one_of sources in
      let i = below (String.length s + 1) and j = below (String.length t + 1) in
      String.sub s 0 i ^ String.sub t j (String.length t - j)
    | 4 ->
      let tok = one_of tokens in
      let sep = if Prng.bool rng then " " else "" in
      edit s (below (String.length s + 1)) ~drop:0
        (String.concat sep (List.init (Prng.int rng ~lo:100 ~hi:3000) (fun _ -> tok)))
    | 5 ->
      let num () =
        one_of [| "1.25"; "3.75"; "5.0"; "-1"; "0"; "nan"; "inf"; "1e400"; "x" |]
      in
      edit s (line_start s) ~drop:0
        (Printf.sprintf "thresholds %s %s %s\n" (num ()) (num ()) (num ()))
    | _ ->
      edit s (line_start s) ~drop:0
        (one_of
           [| "cell loop inv z -> z\n"; "cell loop nand2 a z -> z\n";
              "cell l1 inv q -> r\ncell l2 inv r -> q\n" |])
  in
  let ok = ref 0 and errors = ref 0 in
  for k = 1 to 3000 do
    let m = mutate () in
    let before = Gc.minor_words () in
    (match Netlist_text.parse_raw tech m with
    | _ -> ()
    | exception e ->
      Alcotest.failf "mutant %d: parse_raw raised %s" k (Printexc.to_string e));
    (match Netlist_text.parse_with_thresholds tech m with
    | Ok _ -> incr ok
    | Error _ -> incr errors
    | exception e ->
      Alcotest.failf "mutant %d: parse_with_thresholds raised %s" k
        (Printexc.to_string e));
    let per_byte =
      (Gc.minor_words () -. before) /. float_of_int (String.length m + 64)
    in
    if per_byte > words_per_byte_bound then
      Alcotest.failf "mutant %d (%d bytes): %.0f minor words per byte" k
        (String.length m) per_byte
  done;
  (* the mix exercises both outcomes *)
  Alcotest.(check bool) "some mutants parse" true (!ok > 0);
  Alcotest.(check bool) "most mutants fail" true (!errors > !ok)

let () =
  Alcotest.run "netlist_text"
    [
      ( "parse",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "errors" `Quick test_error_messages;
          Alcotest.test_case "line numbers" `Quick test_line_numbers;
          Alcotest.test_case "column numbers" `Quick test_column_numbers;
          Alcotest.test_case "crlf" `Quick test_crlf;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "seeded mutants" `Quick test_fuzz;
        ] );
    ]

(* Tests for the netlist loaders.  Corrupt-input regression tests for
   the binary decoder: the 63-bit varint overflow (a 9-byte varint whose
   final byte sets the sign bit used to come back negative and sail past
   every length guard), negative/oversized lengths and counts, phantom
   strings, and truncation at every byte boundary of a valid file — every
   vector must produce [Error _], never an exception, never [Ok] — plus a
   seeded mutation fuzzer, and the version 2 net table's own defects.
   Then the one construction path: the loaders (binary versions 1 and 2,
   text) build the same graph, and malformed designs give the same
   first error, in the same order, through each. *)

module Tech = Proxim_gates.Tech
module Gate = Proxim_gates.Gate
module Prng = Proxim_util.Prng
module Trace = Proxim_obs.Trace
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Synthgen = Proxim_sta.Synthgen
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_bin = Proxim_sta.Netlist_bin

let tech = Tech.generic_5v

let temp_bin f =
  let path = Filename.temp_file "proxim_nlbin" ".pxnb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Decode [bytes] as a binary netlist; the result is always a [result].
   Any escaping exception is the exact failure mode these tests exist
   to prevent, so it fails the test with the exception's name. *)
let read_bytes bytes =
  temp_bin (fun path ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      match Netlist_bin.read_file tech path with
      | r -> r
      | exception e ->
        Alcotest.failf "decoder raised %s" (Printexc.to_string e))

let expect_error ~ctx ~mentions bytes =
  match read_bytes bytes with
  | Ok _ -> Alcotest.failf "%s: accepted corrupt input" ctx
  | Error m ->
    if not (Testkit.contains m mentions) then
      Alcotest.failf "%s: error %S does not mention %S" ctx m mentions

(* A header up to the point where the design-name string begins: the
   first varint the decoder reads.  Corrupt length vectors splice in
   right here. *)
let header = "PXNB\x01"

let bytes l = String.concat "" (List.map (String.make 1) (List.map Char.chr l))

(* ------------------------------------------------------------------ *)
(* varint overflow                                                     *)

let test_varint_sign_bit () =
  (* 8 continuation bytes then a final byte with bit 0x40: that payload
     bit lands on bit 62 — OCaml's sign bit.  The unpatched decoder
     returned a negative length here. *)
  let vector = bytes [0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x80; 0x40] in
  expect_error ~ctx:"sign-bit varint" ~mentions:"varint overflows"
    (header ^ vector);
  (* all-ones: same overflow, detected on the ninth byte *)
  let ones = String.make 9 '\xff' in
  expect_error ~ctx:"all-ones varint" ~mentions:"varint overflows"
    (header ^ ones)

let test_varint_too_long () =
  (* nine continuation bytes that never overflow bit 62 but keep the
     continuation bit set past the last legal position *)
  let vector = String.make 9 '\x80' in
  expect_error ~ctx:"overlong varint" ~mentions:"varint too long"
    (header ^ vector)

let test_varint_truncated () =
  expect_error ~ctx:"varint cut mid-stream" ~mentions:"truncated varint"
    (header ^ bytes [0x80; 0x80])

(* ------------------------------------------------------------------ *)
(* length guards                                                       *)

let test_string_length_over_max () =
  (* 0x1000_0000 — one past the 256 MB - 1 cap *)
  let vector = bytes [0x80; 0x80; 0x80; 0x80; 0x01] in
  expect_error ~ctx:"string length over max" ~mentions:"out of range"
    (header ^ vector)

let test_huge_claimed_string () =
  (* a legal-looking length claim of 256 MB - 1 with no bytes behind
     it: the chunked reader must fail at end-of-file without first
     allocating the claimed size *)
  let vector = bytes [0xff; 0xff; 0xff; 0x7f] in
  let before = Gc.quick_stat () in
  expect_error ~ctx:"huge claimed string" ~mentions:"truncated string"
    (header ^ vector);
  let after = Gc.quick_stat () in
  let words = after.Gc.major_words -. before.Gc.major_words in
  (* one 64 KB chunk is fine; a quarter-gigabyte buffer is not *)
  if words > 4e6 then
    Alcotest.failf "decoder allocated %.0f major words for a phantom string"
      words

let test_count_guards () =
  (* empty design name, no thresholds, then a gate-table size past the
     0xffff cap *)
  let prefix = header ^ bytes [0x00; 0x00] in
  expect_error ~ctx:"gate table size" ~mentions:"gate table size"
    (prefix ^ bytes [0x80; 0x80; 0x04]);
  (* gate index beyond the (empty) gate table *)
  let no_gates_no_nets = prefix ^ bytes [0x00; 0x00; 0x00] in
  expect_error ~ctx:"gate index" ~mentions:"gate index"
    (no_gates_no_nets ^ bytes [0x01; 0x05])

(* ------------------------------------------------------------------ *)
(* truncation at every byte boundary                                   *)

let test_truncation_everywhere () =
  let name, design = Synthgen.generate ~seed:7 ~depth:3 ~tech ~cells:24 () in
  let th = { Proxim_vtc.Vtc.vil = 1.9; vih = 3.1; vdd = 5. } in
  let full =
    temp_bin (fun path ->
        Netlist_bin.write_file ~thresholds:th ~name design path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  (match read_bytes full with
   | Ok (name', design', Some _) ->
     Alcotest.(check string) "round-trip name" name name';
     Alcotest.(check string) "round-trip structure"
       (Netlist_text.to_string ~name design)
       (Netlist_text.to_string ~name design')
   | Ok (_, _, None) -> Alcotest.fail "thresholds lost"
   | Error m -> Alcotest.fail m);
  (* every proper prefix — cutting inside the magic, the version byte,
     a varint, a string body, a float, the end marker — must be a
     typed decode error *)
  for cut = 0 to String.length full - 1 do
    match read_bytes (String.sub full 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted file truncated at byte %d" cut
  done

(* garbage appended after a valid file is ignored (the format is
   self-delimiting); garbage replacing the end marker is not *)
let test_end_marker () =
  let name, design = Synthgen.generate ~seed:8 ~depth:3 ~tech ~cells:12 () in
  let full =
    temp_bin (fun path ->
        Netlist_bin.write_file ~name design path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let body = String.sub full 0 (String.length full - 1) in
  expect_error ~ctx:"bad end marker" ~mentions:"end marker"
    (body ^ bytes [0x00])

(* ------------------------------------------------------------------ *)
(* counts checked against the bytes left                               *)

let major_words f =
  let before = (Gc.quick_stat ()).Gc.major_words in
  let v = f () in
  (v, (Gc.quick_stat ()).Gc.major_words -. before)

(* 2^28 - 1, the largest count the caps let through *)
let huge = bytes [0xff; 0xff; 0xff; 0x7f]

let test_count_vs_bytes_left () =
  (* empty name, no thresholds, one gate "inv", then the net lists *)
  let prefix = header ^ bytes [0x00; 0x00; 0x01; 0x03] ^ "inv" in
  let padding = String.make 12 '\x00' in
  List.iter
    (fun (ctx, file) ->
      let r, words = major_words (fun () -> read_bytes file) in
      (match r with
       | Ok _ -> Alcotest.failf "%s: accepted" ctx
       | Error m ->
         if not (Testkit.contains m "exceeds") then
           Alcotest.failf "%s: error %S does not name the guard" ctx m);
      if words > 4e6 then
        Alcotest.failf "%s: decoder allocated %.0f major words" ctx words)
    [
      ("2^28 - 1 cells", prefix ^ bytes [0x00; 0x00] ^ huge ^ padding);
      ("2^28 - 1 primary inputs", prefix ^ huge ^ padding);
    ]

(* ------------------------------------------------------------------ *)
(* the version 2 net table                                             *)

(* A version 2 file: no thresholds, one gate "inv", the net table, the
   primary input and output id lists, then cells as (name, output id,
   input ids) *)
let v2_file ~nets ~pis ~pos ~cells =
  let b = Buffer.create 64 in
  let rec varint n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      varint (n lsr 7)
    end
  in
  let str s =
    varint (String.length s);
    Buffer.add_string b s
  in
  let ids l =
    varint (List.length l);
    List.iter varint l
  in
  Buffer.add_string b "PXNB\x02";
  str "v2";
  Buffer.add_char b '\x00';
  varint 1;
  str "inv";
  varint (List.length nets);
  List.iter str nets;
  ids pis;
  ids pos;
  varint (List.length cells);
  List.iter
    (fun (name, out, ins) ->
      varint 0;
      str name;
      varint out;
      ids ins)
    cells;
  Buffer.add_char b '\xed';
  Buffer.contents b

let test_v2_net_table () =
  let err f = match read_bytes f with Ok _ -> "accepted" | Error m -> m in
  let check ctx want f = Alcotest.(check string) ctx want (err f) in
  (match read_bytes (v2_file ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ]
                       ~cells:[ ("u1", 1, [ 0 ]) ]) with
   | Ok (_, d, _) ->
     Alcotest.(check (list string)) "nets" [ "a"; "y" ]
       (List.init (Graph.net_count (Design.graph d))
          (Graph.net_name (Design.graph d)))
   | Error m -> Alcotest.fail m);
  check "repeated net name" "binary netlist: repeated net name \"a\""
    (v2_file ~nets:[ "a"; "y"; "a" ] ~pis:[ 0 ] ~pos:[ 1 ]
       ~cells:[ ("u1", 1, [ 0 ]) ]);
  check "input id out of the table"
    "binary netlist: net id 5 out of table (2 nets)"
    (v2_file ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ]
       ~cells:[ ("u1", 1, [ 5 ]) ]);
  check "output id out of the table"
    "binary netlist: net id 2 out of table (2 nets)"
    (v2_file ~nets:[ "a"; "y" ] ~pis:[ 0 ] ~pos:[ 1 ]
       ~cells:[ ("u1", 2, [ 0 ]) ]);
  check "primary input id out of the table"
    "binary netlist: net id 9 out of table (2 nets)"
    (v2_file ~nets:[ "a"; "y" ] ~pis:[ 9 ] ~pos:[ 1 ]
       ~cells:[ ("u1", 1, [ 0 ]) ]);
  (* a structural defect still reads as the text path reports it *)
  check "undriven output" "Design.create: undriven primary output y"
    (v2_file ~nets:[ "a"; "y"; "z" ] ~pis:[ 0 ] ~pos:[ 1 ]
       ~cells:[ ("u1", 2, [ 0 ]) ]);
  (* a version past the one written *)
  let f = v2_file ~nets:[] ~pis:[] ~pos:[] ~cells:[] in
  check "version 3" "binary netlist: unsupported format version 3"
    (String.sub f 0 4 ^ "\x03" ^ String.sub f 5 (String.length f - 5))

(* ------------------------------------------------------------------ *)
(* seeded mutation fuzzer                                              *)

let file_of ?thresholds ~seed ~cells () =
  let name, design = Synthgen.generate ~seed ~depth:6 ~tech ~cells () in
  temp_bin (fun path ->
      Netlist_bin.write_file ?thresholds ~name design path;
      In_channel.with_open_bin path In_channel.input_all)

(* Every mutant decodes to [Ok] or [Error] — never an exception — within
   a fixed major-heap allocation: bit flips, byte overwrites,
   truncations, varints lengthened by a redundant continuation byte,
   counts inflated to 2^28 - 1, and splices of two files. *)
let test_fuzz () =
  let th = { Proxim_vtc.Vtc.vil = 1.9; vih = 3.1; vdd = 5. } in
  let a = file_of ~thresholds:th ~seed:21 ~cells:200 ()
  and b = file_of ~seed:22 ~cells:180 () in
  let rng = Prng.create 0x5058_4e42_4655_5aL in
  let pick s = Prng.int rng ~lo:0 ~hi:(String.length s - 1) in
  let edit s at ~drop ins =
    String.sub s 0 at ^ ins ^ String.sub s (at + drop) (String.length s - at - drop)
  in
  let mutate () =
    let s = if Prng.bool rng then a else b in
    match Prng.int rng ~lo:0 ~hi:5 with
    | 0 ->
      let m = Bytes.of_string s in
      for _ = 1 to Prng.int rng ~lo:1 ~hi:3 do
        let i = pick s in
        Bytes.set m i
          (Char.chr (Char.code (Bytes.get m i) lxor (1 lsl Prng.int rng ~lo:0 ~hi:7)))
      done;
      Bytes.to_string m
    | 1 ->
      let v = [| 0x00; 0x7f; 0x80; 0xed; 0xff; Prng.int rng ~lo:0 ~hi:255 |] in
      edit s (pick s) ~drop:1
        (String.make 1 (Char.chr v.(Prng.int rng ~lo:0 ~hi:5)))
    | 2 -> String.sub s 0 (pick s)
    | 3 ->
      (* a byte without the continuation bit, re-encoded as two: the same
         value if it ended a varint *)
      let i = pick s in
      let c = Char.code s.[i] in
      if c >= 0x80 then s
      else edit s i ~drop:1 (bytes [c lor 0x80; 0x00])
    | 4 -> edit s (pick s) ~drop:1 huge
    | _ ->
      let i = pick a and j = pick b in
      String.sub a 0 i ^ String.sub b j (String.length b - j)
  in
  let ok = ref 0 and errors = ref 0 in
  for k = 1 to 3000 do
    let m = mutate () in
    let r, words =
      major_words (fun () ->
          match Netlist_bin.of_string tech m with
          | r -> r
          | exception e ->
            Alcotest.failf "mutant %d: decoder raised %s" k (Printexc.to_string e))
    in
    (match r with Ok _ -> incr ok | Error _ -> incr errors);
    if words > 1e6 then
      Alcotest.failf "mutant %d (%d bytes): %.0f major words" k
        (String.length m) words
  done;
  (* the mix exercises both outcomes *)
  Alcotest.(check bool) "some mutants decode" true (!ok > 0);
  Alcotest.(check bool) "most mutants fail" true (!errors > !ok)

(* ------------------------------------------------------------------ *)
(* one construction path: the three loaders build the same graph       *)

(* A hand encoder of the version 1 layout, which {!Netlist_bin.write_file}
   no longer writes (and which it would write only for valid designs):
   no thresholds and the gate table in sorted order. *)
let defect_pxnb ?(end_marker = 0xed) (pis, pos, cells) =
  let b = Buffer.create 256 in
  let rec varint n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      varint (n lsr 7)
    end
  in
  let str s =
    varint (String.length s);
    Buffer.add_string b s
  in
  let list l =
    varint (List.length l);
    List.iter str l
  in
  Buffer.add_string b "PXNB\x01";
  str "bad";
  Buffer.add_char b '\x00';
  let gates = List.sort_uniq compare (List.map (fun (_, g, _, _) -> g) cells) in
  list gates;
  list pis;
  list pos;
  varint (List.length cells);
  List.iter
    (fun (n, g, ins, o) ->
      let rec index i = function
        | x :: tl -> if x = g then i else index (i + 1) tl
        | [] -> assert false
      in
      varint (index 0 gates);
      str n;
      str o;
      list ins)
    cells;
  Buffer.add_char b (Char.chr end_marker);
  Buffer.contents b


let same_graph ctx g g' =
  let chk what a b =
    if a <> b then Alcotest.failf "%s: %s differs" ctx what
  in
  let readers g n =
    let l = ref [] in
    Graph.iter_readers g ~net:n (fun c pin -> l := (c, pin) :: !l);
    !l
  in
  chk "net count" (Graph.net_count g) (Graph.net_count g');
  chk "cell count" (Graph.cell_count g) (Graph.cell_count g');
  for n = 0 to Graph.net_count g - 1 do
    let name = Graph.net_name g n in
    chk "net name" name (Graph.net_name g' n);
    chk "net id" (Some n) (Graph.net_id g' name);
    chk "driver" (Graph.driver_id g ~net:n) (Graph.driver_id g' ~net:n);
    chk "readers" (readers g n) (readers g' n)
  done;
  for c = 0 to Graph.cell_count g - 1 do
    let name = Graph.cell_name g c in
    chk "cell name" name (Graph.cell_name g' c);
    chk "cell id" (Some c) (Graph.cell_id g' name);
    chk "inputs" (Graph.cell_inputs g c) (Graph.cell_inputs g' c);
    chk "output" (Graph.cell_output g c) (Graph.cell_output g' c);
    chk "level" (Graph.cell_level g c) (Graph.cell_level g' c);
    let p : Design.cell = Graph.payload g c and p' : Design.cell = Graph.payload g' c in
    chk "payload"
      (p.Design.name, p.Design.gate.Gate.name, p.Design.input_nets, p.Design.output_net)
      (p'.Design.name, p'.Design.gate.Gate.name, p'.Design.input_nets, p'.Design.output_net)
  done;
  chk "primary inputs" (Graph.primary_inputs g) (Graph.primary_inputs g');
  chk "primary outputs" (Graph.primary_outputs g) (Graph.primary_outputs g');
  chk "topological" (Graph.topological g) (Graph.topological g');
  chk "level count" (Graph.level_count g) (Graph.level_count g');
  for l = 0 to Graph.level_count g - 1 do
    chk "level" (Graph.level g l) (Graph.level g' l)
  done

(* The version 1 file of a design *)
let v1_of design =
  defect_pxnb
    ( Design.primary_inputs design,
      Design.primary_outputs design,
      List.map
        (fun (c : Design.cell) ->
          ( c.Design.name,
            c.Design.gate.Gate.name,
            Array.to_list c.Design.input_nets,
            c.Design.output_net ))
        (Design.cells design) )

(* a version 2 file from [write_file], a version 1 file and the text
   form: the same graph through every loader *)
let three_ways ctx ~name design =
  let g = Design.graph design in
  (match
     temp_bin (fun path ->
         Netlist_bin.write_file ~name design path;
         Netlist_bin.read_file tech path)
   with
   | Ok (_, d, _) -> same_graph (ctx ^ " (binary v2)") g (Design.graph d)
   | Error m -> Alcotest.failf "%s: binary v2 read: %s" ctx m);
  (match Netlist_bin.of_string tech (v1_of design) with
   | Ok (_, d, _) -> same_graph (ctx ^ " (binary v1)") g (Design.graph d)
   | Error m -> Alcotest.failf "%s: binary v1 read: %s" ctx m);
  match Netlist_text.parse tech (Netlist_text.to_string ~name design) with
  | Ok (_, d) -> same_graph (ctx ^ " (text)") g (Design.graph d)
  | Error m -> Alcotest.failf "%s: text parse: %s" ctx m

let test_three_loaders_synthgen () =
  List.iter
    (fun (seed, cells, depth, window, reach) ->
      let name, design =
        Synthgen.generate ~seed ~depth ~window ~reach ~tech ~cells ()
      in
      three_ways name ~name design)
    [
      (1, 16, 4, 1, 1); (2, 200, 8, 8, 3); (3, 1500, 16, 2, 5);
      (4, 999, 3, 20, 2); (5, 64, 16, 1, 1); (6, 3000, 12, 4, 4);
    ]

let test_three_loaders_examples () =
  let dir = "../examples" in
  let compared =
    Array.fold_left
      (fun n file ->
        if not (Filename.check_suffix file ".ntl") then n
        else
          let text =
            In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
          in
          match Netlist_text.parse tech text with
          | Ok (name, design) ->
            three_ways file ~name design;
            n + 1
          | Error _ -> n (* the deliberately broken lint demo *))
      0 (Sys.readdir dir)
  in
  Alcotest.(check bool) "examples compared" true (compared >= 4)

let gate_of n = Result.get_ok (Gate.of_name tech n)

(* the numbering contract: primary inputs, then every cell's inputs in
   declaration and pin order, then outputs no cell reads, then the
   remaining primary outputs *)
let test_net_numbering () =
  let cell name g ins out =
    { Design.name; gate = gate_of g; input_nets = ins; output_net = out }
  in
  let d =
    Design.create
      ~cells:
        [
          cell "u1" "nand2" [| "a"; "n2" |] "n1";
          cell "u2" "inv" [| "b" |] "n2";
          cell "u3" "inv" [| "n1" |] "y";
          cell "u4" "inv" [| "a" |] "w";
        ]
      ~primary_inputs:[ "a"; "b" ] ~primary_outputs:[ "w"; "y" ]
  in
  let g = Design.graph d in
  Alcotest.(check (list string)) "net order"
    [ "a"; "b"; "n2"; "n1"; "y"; "w" ]
    (List.init (Graph.net_count g) (Graph.net_name g))

(* ------------------------------------------------------------------ *)
(* malformed designs: the first error, the same through every loader    *)

(* Recorded from the string-table validator this path replaced.  Text
   reports a pin-count mismatch itself, as a located syntax error. *)
let defects =
  [
    ( "duplicate cell", [ "a" ], [ "y" ],
      [ ("u1", "inv", [ "a" ], "x"); ("u1", "inv", [ "x" ], "y") ],
      "Design.create: duplicate cell u1", None );
    ( "arity mismatch", [ "a" ], [ "y" ],
      [ ("u1", "nand2", [ "a" ], "y") ],
      "Design.create: arity mismatch on u1",
      Some "line 4:9: gate nand2 wants 2 inputs, got 1" );
    ( "driven twice", [ "a" ], [ "x" ],
      [ ("u1", "inv", [ "a" ], "x"); ("u2", "inv", [ "a" ], "x") ],
      "Design.create: net driven twice: x", None );
    ( "driven input", [ "a"; "b" ], [ "b" ],
      [ ("u1", "inv", [ "a" ], "b") ],
      "Design.create: primary input driven: b", None );
    ( "undriven input", [ "a" ], [ "y" ],
      [ ("u1", "nand2", [ "a"; "ghost" ], "y") ],
      "Design.create: undriven net ghost", None );
    ( "undriven output", [ "a" ], [ "z" ],
      [ ("u1", "inv", [ "a" ], "y") ],
      "Design.create: undriven primary output z", None );
    ( "cycle", [ "a" ], [ "y" ],
      [ ("u1", "nand2", [ "a"; "y" ], "x"); ("u2", "inv", [ "x" ], "y") ],
      "Design.create: combinational cycle through u1", None );
    ( "arity before duplicate", [ "a" ], [ "y" ],
      [
        ("u0", "nand2", [ "a" ], "x"); ("u1", "inv", [ "a" ], "y");
        ("u1", "inv", [ "a" ], "z");
      ],
      "Design.create: arity mismatch on u0",
      Some "line 4:9: gate nand2 wants 2 inputs, got 1" );
    ( "duplicate before arity", [ "a" ], [ "y" ],
      [
        ("u1", "inv", [ "a" ], "x"); ("u1", "inv", [ "a" ], "y");
        ("u2", "nand2", [ "a" ], "z");
      ],
      "Design.create: duplicate cell u1",
      Some "line 6:9: gate nand2 wants 2 inputs, got 1" );
    ( "driven twice before undriven", [ "a" ], [ "x" ],
      [ ("u1", "inv", [ "ghost" ], "x"); ("u2", "inv", [ "a" ], "x") ],
      "Design.create: net driven twice: x", None );
    ( "driven input before driven twice", [ "a"; "b" ], [ "x" ],
      [
        ("u1", "inv", [ "a" ], "b"); ("u2", "inv", [ "a" ], "x");
        ("u3", "inv", [ "a" ], "x");
      ],
      "Design.create: primary input driven: b", None );
    ( "driven twice before driven input", [ "a"; "b" ], [ "x" ],
      [
        ("u1", "inv", [ "a" ], "x"); ("u2", "inv", [ "a" ], "x");
        ("u3", "inv", [ "a" ], "b");
      ],
      "Design.create: net driven twice: x", None );
    ( "input driven twice", [ "a"; "b" ], [ "b" ],
      [ ("u1", "inv", [ "a" ], "b"); ("u2", "inv", [ "a" ], "b") ],
      "Design.create: primary input driven: b", None );
    ( "undriven input before output", [ "a" ], [ "z" ],
      [ ("u1", "inv", [ "ghost" ], "y") ],
      "Design.create: undriven net ghost", None );
    ( "undriven inputs in pin order", [ "a" ], [ "y" ],
      [ ("u1", "nand2", [ "g1"; "g2" ], "y") ],
      "Design.create: undriven net g1", None );
    ( "undriven inputs in cell order", [ "a" ], [ "y" ],
      [ ("u1", "inv", [ "g2" ], "x"); ("u2", "nand2", [ "x"; "g1" ], "y") ],
      "Design.create: undriven net g2", None );
    ( "undriven output before cycle", [ "a" ], [ "y"; "z" ],
      [ ("u1", "nand2", [ "a"; "y" ], "x"); ("u2", "inv", [ "x" ], "y") ],
      "Design.create: undriven primary output z", None );
    ( "first cycle entered", [ "a" ], [ "p" ],
      [
        ("u1", "inv", [ "a" ], "p"); ("u2", "inv", [ "q" ], "r");
        ("u3", "inv", [ "r" ], "q"); ("u4", "inv", [ "s" ], "s");
      ],
      "Design.create: combinational cycle through u2", None );
    ( "self loop", [ "a" ], [ "y" ],
      [ ("u1", "nand2", [ "a"; "y" ], "y") ],
      "Design.create: combinational cycle through u1", None );
  ]

let defect_text (pis, pos, cells) =
  let b = Buffer.create 256 in
  Buffer.add_string b "design bad\n";
  Buffer.add_string b ("input " ^ String.concat " " pis ^ "\n");
  Buffer.add_string b ("output " ^ String.concat " " pos ^ "\n");
  List.iter
    (fun (n, g, ins, o) ->
      Printf.bprintf b "cell %s %s %s -> %s\n" n g (String.concat " " ins) o)
    cells;
  Buffer.add_string b "end\n";
  Buffer.contents b

let test_defects () =
  List.iter
    (fun (label, pis, pos, cells, want, want_text) ->
      let got_create =
        match
          Design.create
            ~cells:
              (List.map
                 (fun (n, g, ins, o) ->
                   {
                     Design.name = n;
                     gate = gate_of g;
                     input_nets = Array.of_list ins;
                     output_net = o;
                   })
                 cells)
            ~primary_inputs:pis ~primary_outputs:pos
        with
        | _ -> "accepted"
        | exception Invalid_argument m -> m
      in
      let err = function Ok _ -> "accepted" | Error m -> m in
      let design = (pis, pos, cells) in
      let check path want got =
        Alcotest.(check string) (label ^ " via " ^ path) want got
      in
      check "Design.create" want got_create;
      check "text" (Option.value want_text ~default:want)
        (err (Netlist_text.parse tech (defect_text design)));
      check "PXNB" want (err (read_bytes (defect_pxnb design)));
      (* a format defect outranks the structural one *)
      check "PXNB with a bad end marker" "binary netlist: bad end marker 0x00"
        (err (read_bytes (defect_pxnb ~end_marker:0 design)));
      let full = defect_pxnb design in
      check "truncated PXNB" "binary netlist: missing end marker"
        (err (read_bytes (String.sub full 0 (String.length full - 1)))))
    defects

(* ------------------------------------------------------------------ *)
(* the load's trace spans                                              *)

let test_load_spans () =
  let name, design = Synthgen.generate ~seed:9 ~depth:3 ~tech ~cells:12 () in
  temp_bin (fun path ->
      Netlist_bin.write_file ~name design path;
      Trace.clear ();
      Trace.enable ();
      let r = Netlist_bin.read_file tech path in
      Trace.disable ();
      Alcotest.(check bool) "read" true (Result.is_ok r));
  let spans name =
    List.filter
      (fun (e : Trace.event) -> e.Trace.cat = "sta" && e.Trace.name = name)
      (Trace.events ())
  in
  (match (spans "netlist_bin.read", spans "design.create") with
   | [ r ], [ c ] ->
     Alcotest.(check bool) "design.create inside netlist_bin.read" true
       (r.Trace.ts <= c.Trace.ts +. 1.
       && c.Trace.ts +. c.Trace.dur <= r.Trace.ts +. r.Trace.dur +. 1.)
   | rs, cs ->
     Alcotest.failf "%d netlist_bin.read and %d design.create spans"
       (List.length rs) (List.length cs));
  Trace.clear ()

let () =
  Alcotest.run "netlist_bin"
    [
      ( "varint",
        [
          Alcotest.test_case "sign-bit overflow rejected" `Quick
            test_varint_sign_bit;
          Alcotest.test_case "overlong continuation rejected" `Quick
            test_varint_too_long;
          Alcotest.test_case "truncated varint" `Quick test_varint_truncated;
        ] );
      ( "lengths",
        [
          Alcotest.test_case "string length over max" `Quick
            test_string_length_over_max;
          Alcotest.test_case "huge claimed string stays bounded" `Quick
            test_huge_claimed_string;
          Alcotest.test_case "count guards" `Quick test_count_guards;
          Alcotest.test_case "counts against bytes left" `Quick
            test_count_vs_bytes_left;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "every byte boundary" `Quick
            test_truncation_everywhere;
          Alcotest.test_case "end marker" `Quick test_end_marker;
        ] );
      ( "version 2",
        [ Alcotest.test_case "net table defects" `Quick test_v2_net_table ] );
      ("fuzz", [ Alcotest.test_case "seeded mutants" `Quick test_fuzz ]);
      ( "one path",
        [
          Alcotest.test_case "three loaders, synthetic designs" `Quick
            test_three_loaders_synthgen;
          Alcotest.test_case "three loaders, examples" `Quick
            test_three_loaders_examples;
          Alcotest.test_case "net numbering" `Quick test_net_numbering;
          Alcotest.test_case "defects, first error" `Quick test_defects;
          Alcotest.test_case "load spans" `Quick test_load_spans;
        ] );
    ]

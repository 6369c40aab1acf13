module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc

let magic = "PXNB"
let version = 1
let end_marker = 0xED

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* --- primitives ------------------------------------------------------ *)

let write_varint oc n =
  if n < 0 then invalid_arg "Netlist_bin: negative varint";
  let rec go n =
    if n < 0x80 then output_byte oc n
    else begin
      output_byte oc (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

(* An OCaml int has 63 bits, so a varint may carry at most 62 value bits
   (the sign bit must stay clear): 8 full continuation bytes (7 bits
   each) plus a final byte contributing bits 56..61.  A ninth byte with
   the continuation bit, or a bit-62 payload at shift 56, would wrap the
   accumulator negative — the overflow that once let attacker-controlled
   "lengths" slip past every [n > max] guard as negative ints. *)
let read_varint ic =
  let rec go shift acc =
    let b = try input_byte ic with End_of_file -> corrupt "truncated varint" in
    if shift = 56 && b land 0x40 <> 0 then
      corrupt "varint overflows the 63-bit integer range";
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift >= 56 then corrupt "varint too long"
    else go (shift + 7) acc
  in
  go 0 0

(* Every count and length decoded from the wire goes through this guard:
   [read_varint] can no longer return a negative value, but the decoders
   downstream ([really_input_string], [List.init], [Array.init]) must
   never see one even if the invariant breaks — a negative length is
   [Corrupt], not an untyped [Invalid_argument] escaping a daemon. *)
let read_count ic ~what ~max =
  let n = read_varint ic in
  if n < 0 then corrupt "negative %s %d" what n;
  if n > max then corrupt "%s %d out of range (max %d)" what n max;
  n

let max_string_len = 0x0fff_ffff

let write_string oc s =
  write_varint oc (String.length s);
  output_string oc s

(* The claimed length is attacker-controlled; the channel's remaining
   bytes are not.  Reading in bounded chunks means a 4-byte corrupt
   header claiming a 256 MB string over-allocates at most one chunk
   before end-of-file turns it into [Corrupt]. *)
let read_chunk_size = 65536

let read_string ic =
  let n = read_count ic ~what:"string length" ~max:max_string_len in
  if n <= read_chunk_size then (
    try really_input_string ic n with End_of_file -> corrupt "truncated string")
  else begin
    let buf = Buffer.create read_chunk_size in
    let remaining = ref n in
    while !remaining > 0 do
      let k = min read_chunk_size !remaining in
      (match really_input_string ic k with
       | s -> Buffer.add_string buf s
       | exception End_of_file -> corrupt "truncated string");
      remaining := !remaining - k
    done;
    Buffer.contents buf
  end

let write_f64 oc x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  output_bytes oc b

let read_f64 ic =
  let b = Bytes.create 8 in
  (try really_input ic b 0 8 with End_of_file -> corrupt "truncated float");
  Int64.float_of_bits (Bytes.get_int64_le b 0)

(* --- sniffing --------------------------------------------------------- *)

let string_is_binary s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

let file_is_binary path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (String.length magic) with
        | exception End_of_file -> false
        | head -> head = magic)

(* --- writer ----------------------------------------------------------- *)

let write_channel ?thresholds ~name design oc =
  output_string oc magic;
  output_byte oc version;
  write_string oc name;
  (match thresholds with
   | None -> output_byte oc 0
   | Some (th : Vtc.thresholds) ->
     output_byte oc 1;
     write_f64 oc th.Vtc.vil;
     write_f64 oc th.Vtc.vih;
     write_f64 oc th.Vtc.vdd);
  let cells = Design.cells design in
  (* dense gate-name table in first-appearance order *)
  let gate_idx = Hashtbl.create 16 in
  let gate_names = ref [] in
  List.iter
    (fun (c : Design.cell) ->
      let gname = c.Design.gate.Gate.name in
      if not (Hashtbl.mem gate_idx gname) then begin
        Hashtbl.add gate_idx gname (Hashtbl.length gate_idx);
        gate_names := gname :: !gate_names
      end)
    cells;
  let gate_names = List.rev !gate_names in
  write_varint oc (List.length gate_names);
  List.iter (write_string oc) gate_names;
  let write_net_list nets =
    write_varint oc (List.length nets);
    List.iter (write_string oc) nets
  in
  write_net_list (Design.primary_inputs design);
  write_net_list (Design.primary_outputs design);
  write_varint oc (List.length cells);
  List.iter
    (fun (c : Design.cell) ->
      write_varint oc (Hashtbl.find gate_idx c.Design.gate.Gate.name);
      write_string oc c.Design.name;
      write_string oc c.Design.output_net;
      write_varint oc (Array.length c.Design.input_nets);
      Array.iter (write_string oc) c.Design.input_nets)
    cells;
  output_byte oc end_marker;
  flush oc

let write_file ?thresholds ~name design path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_channel ?thresholds ~name design oc)

(* --- reader ----------------------------------------------------------- *)

let read_channel tech ic =
  try
    let head =
      try really_input_string ic (String.length magic)
      with End_of_file -> corrupt "file too short for magic"
    in
    if head <> magic then corrupt "bad magic %S (want %S)" head magic;
    let v =
      try input_byte ic with End_of_file -> corrupt "truncated version"
    in
    if v <> version then corrupt "unsupported format version %d" v;
    let name = read_string ic in
    let thresholds =
      match
        try input_byte ic with End_of_file -> corrupt "truncated thresholds"
      with
      | 0 -> None
      | 1 ->
        let vil = read_f64 ic in
        let vih = read_f64 ic in
        let vdd = read_f64 ic in
        Some { Vtc.vil; vih; vdd }
      | b -> corrupt "bad thresholds flag %d" b
    in
    let n_gates = read_count ic ~what:"gate table size" ~max:0xffff in
    let gates =
      Array.init n_gates (fun _ ->
        let gname = read_string ic in
        match Gate.of_name tech gname with
        | Ok g -> g
        | Error msg -> corrupt "gate table: %s" msg)
    in
    let read_net_list () =
      let n = read_count ic ~what:"net list length" ~max:max_string_len in
      List.init n (fun _ -> read_string ic)
    in
    let pis = read_net_list () in
    let pos = read_net_list () in
    let n_cells = read_count ic ~what:"cell count" ~max:max_string_len in
    (* streamed: one cell record decoded at a time, consed in reverse *)
    let cells = ref [] in
    for _ = 1 to n_cells do
      let gi = read_varint ic in
      if gi >= n_gates then corrupt "gate index %d out of table" gi;
      let cname = read_string ic in
      let output = read_string ic in
      let n_in = read_count ic ~what:"input count" ~max:0xffff in
      let inputs = Array.init n_in (fun _ -> read_string ic) in
      cells :=
        {
          Design.name = cname;
          gate = gates.(gi);
          input_nets = inputs;
          output_net = output;
        }
        :: !cells
    done;
    (match input_byte ic with
     | exception End_of_file -> corrupt "missing end marker"
     | b when b <> end_marker -> corrupt "bad end marker 0x%02x" b
     | _ -> ());
    let design =
      Design.create ~cells:(List.rev !cells) ~primary_inputs:pis
        ~primary_outputs:pos
    in
    Ok (name, design, thresholds)
  with
  | Corrupt msg -> Error ("binary netlist: " ^ msg)
  | Invalid_argument msg -> Error msg

let read_file tech path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read_channel tech ic)

let load_file tech path =
  if file_is_binary path then read_file tech path
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m -> Error m
    | text -> Netlist_text.parse_with_thresholds tech text

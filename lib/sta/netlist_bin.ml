module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Trace = Proxim_obs.Trace

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

(* The reader decodes from one string holding the whole file, through
   a cursor; every primitive checks the bytes left before it reads. *)
type src = { s : string; mutable at : int }

let left r = String.length r.s - r.at

let read_byte r ~eof =
  if r.at >= String.length r.s then corrupt "%s" eof;
  let b = Char.code (String.unsafe_get r.s r.at) in
  r.at <- r.at + 1;
  b

(* An OCaml int has 63 bits, so a varint may carry at most 62 value bits
   (the sign bit must stay clear): 8 full continuation bytes (7 bits
   each) plus a final byte contributing bits 56..61.  A ninth byte with
   the continuation bit, or a bit-62 payload at shift 56, would wrap the
   accumulator negative — the overflow that once let attacker-controlled
   "lengths" slip past every [n > max] guard as negative ints. *)
let rec varint_from r shift acc =
  let b = read_byte r ~eof:"truncated varint" in
  if shift = 56 && b land 0x40 <> 0 then
    corrupt "varint overflows the 63-bit integer range";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc
  else if shift >= 56 then corrupt "varint too long"
  else varint_from r (shift + 7) acc

let read_varint r = varint_from r 0 0

(* Every count and length decoded from the wire goes through this guard:
   [read_varint] can no longer return a negative value, but nothing
   downstream may ever see one even if the invariant breaks — a negative
   length is [Corrupt], not an untyped [Invalid_argument] escaping a
   daemon. *)
let read_count r ~what ~max =
  let n = read_varint r in
  if n < 0 then corrupt "negative %s %d" what n;
  if n > max then corrupt "%s %d out of range (max %d)" what n max;
  n

(* A count of records, each at least one byte long, is checked against
   the bytes left before anything is sized by it: a 30-byte file cannot
   claim 2^28 cells and have the reader allocate for them. *)
let read_items r ~what ~max =
  let n = read_count r ~what ~max in
  if n > left r then corrupt "%s %d exceeds the %d bytes left" what n (left r);
  n

let max_string_len = 0x0fff_ffff

let write_string oc s =
  write_varint oc (String.length s);
  output_string oc s

(* A string in place: its start in the buffer, with the cursor moved past
   it.  The claimed length is attacker-controlled; the bytes left are
   not. *)
let read_slice r =
  let n = read_count r ~what:"string length" ~max:max_string_len in
  if n > left r then corrupt "truncated string";
  let at = r.at in
  r.at <- at + n;
  at

let read_string r =
  let at = read_slice r in
  String.sub r.s at (r.at - at)

let write_f64 oc x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float x);
  output_bytes oc b

let read_f64 r =
  if left r < 8 then corrupt "truncated float";
  let x = Int64.float_of_bits (String.get_int64_le r.s r.at) in
  r.at <- r.at + 8;
  x

(* --- sniffing --------------------------------------------------------- *)

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

(* One pass over the bytes: names go straight from the buffer into the
   design builder, which hashes each once.  Only format defects surface
   here, as [Corrupt]; the structural ones wait for [Design.finish]. *)
let decode tech s =
  let r = { s; at = 0 } in
  if String.length s < String.length magic then
    corrupt "file too short for magic";
  let head = String.sub s 0 (String.length magic) in
  if head <> magic then corrupt "bad magic %S (want %S)" head magic;
  r.at <- String.length magic;
  let v = read_byte r ~eof:"truncated version" in
  if v <> version then corrupt "unsupported format version %d" v;
  let name = read_string r in
  let thresholds =
    match read_byte r ~eof:"truncated thresholds" with
    | 0 -> None
    | 1 ->
      let vil = read_f64 r in
      let vih = read_f64 r in
      let vdd = read_f64 r in
      Some { Vtc.vil; vih; vdd }
    | b -> corrupt "bad thresholds flag %d" b
  in
  let n_gates = read_items r ~what:"gate table size" ~max:0xffff in
  let gates =
    Array.init n_gates (fun _ ->
      match Gate.of_name tech (read_string r) with
      | Ok g -> g
      | Error msg -> corrupt "gate table: %s" msg)
  in
  (* the net lists precede the cell count the builder is sized by: keep
     where each name lies until then *)
  let read_net_list () =
    let n = read_items r ~what:"net list length" ~max:max_string_len in
    Array.init n (fun _ ->
      let at = read_slice r in
      (at, r.at - at))
  in
  let pis = read_net_list () in
  let pos = read_net_list () in
  let n_cells = read_items r ~what:"cell count" ~max:max_string_len in
  let b = Design.builder ~cells:n_cells ~nets:(Array.length pis + n_cells) in
  let add_nets add =
    Array.iter (fun (pos, len) -> add b (Design.net_sub b s ~pos ~len))
  in
  add_nets Design.add_primary_input pis;
  add_nets Design.add_primary_output pos;
  let read_net () =
    let at = read_slice r in
    Design.net_sub b s ~pos:at ~len:(r.at - at)
  in
  for _ = 1 to n_cells do
    let gi = read_varint r in
    if gi >= n_gates then corrupt "gate index %d out of table" gi;
    let cname = read_string r in
    let output = read_net () in
    let n_in = read_items r ~what:"input count" ~max:0xffff in
    let inputs = Array.make n_in 0 in
    for pin = 0 to n_in - 1 do
      inputs.(pin) <- read_net ()
    done;
    Design.add_cell b cname gates.(gi) inputs output
  done;
  (match read_byte r ~eof:"missing end marker" with
   | b when b <> end_marker -> corrupt "bad end marker 0x%02x" b
   | _ -> ());
  (name, b, thresholds)

let of_string tech s =
  match decode tech s with
  | exception Corrupt msg -> Error ("binary netlist: " ^ msg)
  | name, b, thresholds -> (
    match Design.finish b with
    | design -> Ok (name, design, thresholds)
    | exception Invalid_argument msg -> Error msg)

let read_file tech path =
  Trace.with_span ~cat:"sta" "netlist_bin.read" @@ fun () ->
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> of_string tech s

let load_file tech path =
  if file_is_binary path then read_file tech path
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error m -> Error m
    | text -> Netlist_text.parse_with_thresholds tech text

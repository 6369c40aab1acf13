let max_frame = 16 * 1024 * 1024

type read_error =
  | Closed
  | Truncated of string
  | Oversized of int

let read_error_to_string = function
  | Closed -> "connection closed"
  | Truncated what -> Printf.sprintf "connection dropped mid-%s" what
  | Oversized n ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n max_frame

(* Read exactly [n] bytes or report how far we got.  [Unix.read] may
   return short counts on sockets, so loop; 0 means the peer is gone. *)
let really_read fd buf n =
  let rec go off =
    if off >= n then n
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> off
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read fd =
  let header = Bytes.create 4 in
  match really_read fd header 4 with
  | 0 -> Error Closed
  | k when k < 4 -> Error (Truncated "header")
  | _ ->
    (* big-endian u32; OCaml ints are 63-bit so this cannot go negative *)
    let n =
      (Char.code (Bytes.get header 0) lsl 24)
      lor (Char.code (Bytes.get header 1) lsl 16)
      lor (Char.code (Bytes.get header 2) lsl 8)
      lor Char.code (Bytes.get header 3)
    in
    if n > max_frame then Error (Oversized n)
    else begin
      let payload = Bytes.create n in
      let k = really_read fd payload n in
      if k < n then Error (Truncated "payload")
      else Ok (Bytes.unsafe_to_string payload)
    end

let really_write fd buf n =
  let rec go off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let set_header buf n =
  Bytes.set buf 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (n land 0xff))

let check_size what n =
  if n > max_frame then
    invalid_arg
      (Printf.sprintf "Frame.%s: %d-byte payload exceeds max_frame" what n)

let write fd payload =
  let n = String.length payload in
  check_size "write" n;
  let buf = Bytes.create (4 + n) in
  set_header buf n;
  Bytes.blit_string payload 0 buf 4 n;
  really_write fd buf (4 + n)

(* [Unix.write] copies at most this many bytes per system call anyway *)
let chunk_size = 65536

type out = { out_fd : Unix.file_descr; payload : Buffer.t; chunk : Bytes.t }

let out fd =
  { out_fd = fd; payload = Buffer.create 4096; chunk = Bytes.create chunk_size }

let out_buffer o = o.payload

let send o =
  let n = Buffer.length o.payload in
  check_size "send" n;
  set_header o.chunk n;
  (* the header rides in the first chunk: one write for a small frame *)
  let rec go off fill =
    let k = min (n - off) (chunk_size - fill) in
    Buffer.blit o.payload off o.chunk fill k;
    really_write o.out_fd o.chunk (fill + k);
    if off + k < n then go (off + k) 0
  in
  go 0 4;
  Buffer.clear o.payload

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ------------------------------------------------------- *)

(* The runtime primitive [Printf]'s [%g] and [%f] conversions end in:
   for a finite float it prints the same bytes, without interpreting a
   format at every call. *)
external format_float : string -> float -> string = "caml_format_float"

let number_text v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then format_float "%.0f" v
  else format_float "%.17g" v

let add_number buf v = Buffer.add_string buf (number_text v)

(* Slot [i] holds [len.[i]] bytes at [i * slot_bytes] of [text], printed
   from a float with the bits of [bits.(i)]; a length of 0 marks a slot
   never written. *)
module Memo = struct
  type t = {
    mutable text : Bytes.t;
    mutable bits : float array;
    mutable len : Bytes.t;
  }

  (* the longest [number_text], [-2.2250738585072014e-308] *)
  let slot_bytes = 24

  let create () = { text = Bytes.empty; bits = [||]; len = Bytes.empty }

  let reserve m n =
    if Array.length m.bits < n then begin
      m.text <- Bytes.create (n * slot_bytes);
      m.bits <- Array.make n 0.;
      m.len <- Bytes.make n '\000'
    end

  let same_bits a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let add_number m buf i v =
    let n = Char.code (Bytes.get m.len i) in
    if n > 0 && same_bits m.bits.(i) v then begin
      Buffer.add_subbytes buf m.text (i * slot_bytes) n;
      true
    end
    else begin
      let s = number_text v in
      let n = String.length s in
      if n <= slot_bytes then begin
        Bytes.blit_string s 0 m.text (i * slot_bytes) n;
        Bytes.set m.len i (Char.chr n);
        m.bits.(i) <- v
      end;
      Buffer.add_string buf s;
      false
    end
end

let hex_digits = "0123456789abcdef"

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 0xf]
      | c -> Buffer.add_char buf c)
    s

let needs_escape s =
  let rec go i =
    i < String.length s
    &&
    let c = String.unsafe_get s i in
    c < ' ' || c = '"' || c = '\\' || go (i + 1)
  in
  go 0

let add_string buf s =
  Buffer.add_char buf '"';
  if needs_escape s then add_escaped buf s else Buffer.add_string buf s;
  Buffer.add_char buf '"'

let rec add_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number v -> add_number buf v
  | String s -> add_string buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_to buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        add_to buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_to buf v;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------- *)

exception Parse_error of int * string

(* The deepest document a writer in this tree emits is the SARIF log of
   [Diagnostic.report_sarif]: 9 levels (the log, then runs, run,
   results, result, locations, location, physicalLocation, region).
   Served frames and the BENCH files reach 5.  The bound leaves ample
   headroom for them, while a frame of bare '[' no longer recurses (and
   grows the stack) once per byte. *)
let max_depth = 64

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The parser reads bytes in place: no option per peek, one [String.sub]
   per string without escapes and per number token; only a string with
   escapes gets a [Buffer]. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  (* the next byte is [c]; false at end of input *)
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let expect c =
    if !pos >= n then fail (Printf.sprintf "expected %C, got end of input" c);
    let x = String.unsafe_get s !pos in
    if x <> c then fail (Printf.sprintf "expected %C, got %C" c x);
    incr pos
  in
  let skip_ws () =
    while !pos < n && is_ws (String.unsafe_get s !pos) do
      incr pos
    done
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  (* the rest of a string from its first escape, decoded into [buf] *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string";
    match String.unsafe_get s !pos with
    | '"' -> incr pos
    | '\\' ->
      incr pos;
      if !pos >= n then fail "unterminated escape";
      let c = String.unsafe_get s !pos in
      incr pos;
      (match c with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
         if !pos + 4 > n then fail "truncated \\u escape";
         let hex = String.sub s !pos 4 in
         pos := !pos + 4;
         (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail "bad \\u escape"
          | Some code -> add_utf8 buf code)
       | c -> fail (Printf.sprintf "bad escape \\%c" c));
      escaped buf
    | c ->
      Buffer.add_char buf c;
      incr pos;
      escaped buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let j = ref start in
    while
      !j < n
      &&
      let c = String.unsafe_get s !j in
      c <> '"' && c <> '\\'
    do
      incr j
    done;
    if !j < n && String.unsafe_get s !j = '"' then begin
      pos := !j + 1;
      String.sub s start (!j - start)
    end
    else begin
      let buf = Buffer.create (!j - start + 16) in
      Buffer.add_substring buf s start (!j - start);
      pos := !j;
      escaped buf;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    while !pos < n && is_num_char (String.unsafe_get s !pos) do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string text with
    | v -> Number v
    | exception Failure _ -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else Obj (fields depth [])
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else List (items depth [])
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  and fields depth acc =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    let v = value (depth + 1) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      fields depth ((key, v) :: acc)
    end
    else if at '}' then begin
      incr pos;
      List.rev ((key, v) :: acc)
    end
    else fail "expected ',' or '}'"
  and items depth acc =
    let v = value (depth + 1) in
    skip_ws ();
    if at ',' then begin
      incr pos;
      items depth (v :: acc)
    end
    else if at ']' then begin
      incr pos;
      List.rev (v :: acc)
    end
    else fail "expected ',' or ']'"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
    Error (Printf.sprintf "at offset %d: %s" p msg)

(* --- accessors ------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_string_value = function String s -> Some s | _ -> None
let to_number = function Number v -> Some v | _ -> None

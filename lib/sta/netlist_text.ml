module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Trace = Proxim_obs.Trace

type raw_cell = {
  line : int;
  gate_col : int;
  cell_name : string;
  gate : Gate.t;
  inputs : string list;
  output : string;
}

type raw_error = { err_line : int; err_col : int; err_msg : string }

type raw = {
  raw_name : (string * int) option;
  raw_inputs : (string * int) list;
  raw_outputs : (string * int) list;
  raw_cells : raw_cell list;
  raw_thresholds : (Vtc.thresholds * int) option;
  raw_errors : raw_error list;
}

type accum = {
  mutable r_name : (string * int) option;
  mutable r_inputs : (string * int) list;  (** reversed *)
  mutable r_outputs : (string * int) list;  (** reversed *)
  mutable r_cells : raw_cell list;  (** reversed *)
  mutable r_thresholds : (Vtc.thresholds * int) option;
  mutable r_errors : raw_error list;  (** reversed *)
  mutable r_ended : bool;
}

(* '\r' counts as whitespace so CRLF (and stray mid-line carriage
   returns) parse the same as LF files without shifting any column. *)
let is_ws c = c = ' ' || c = '\t' || c = '\r'

(* Tokens paired with their 1-based starting column in the line. *)
let tokens line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ws line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_ws line.[!j]) do
        incr j
      done;
      go !j ((String.sub line i (!j - i), i + 1) :: acc)
    end
  in
  go 0 []

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Scan the whole text, never stopping at a bad line: every syntax-level
   problem lands in [raw_errors] with its line and column, and everything
   that did parse is kept so the lint passes can analyze a broken file as
   a whole. *)
let parse_raw tech text =
  let acc =
    {
      r_name = None;
      r_inputs = [];
      r_outputs = [];
      r_cells = [];
      r_thresholds = None;
      r_errors = [];
      r_ended = false;
    }
  in
  let err lineno col fmt =
    Printf.ksprintf
      (fun m ->
        acc.r_errors <-
          { err_line = lineno; err_col = col; err_msg = m } :: acc.r_errors)
      fmt
  in
  let parse_line lineno line =
    match tokens (strip_comment line) with
    | [] -> ()
    | (_, col) :: _ when acc.r_ended -> err lineno col "content after 'end'"
    | [ ("design", col); (name, _) ] -> (
      match acc.r_name with
      | Some _ -> err lineno col "duplicate 'design'"
      | None -> acc.r_name <- Some (name, lineno))
    | ("input", _) :: nets when nets <> [] ->
      acc.r_inputs <-
        List.rev_append
          (List.map (fun (n, _) -> (n, lineno)) nets)
          acc.r_inputs
    | ("output", _) :: nets when nets <> [] ->
      acc.r_outputs <-
        List.rev_append
          (List.map (fun (n, _) -> (n, lineno)) nets)
          acc.r_outputs
    | [ ("thresholds", col); (vil_s, vil_col); (vih_s, vih_col); (vdd_s, vdd_col) ]
      -> (
      match
        ( acc.r_thresholds,
          float_of_string_opt vil_s,
          float_of_string_opt vih_s,
          float_of_string_opt vdd_s )
      with
      | Some _, _, _, _ -> err lineno col "duplicate 'thresholds'"
      | None, Some vil, Some vih, Some vdd ->
        acc.r_thresholds <- Some ({ Vtc.vil; vih; vdd }, lineno)
      | None, vil, vih, _ ->
        (* point at the first token that failed to parse as a number *)
        let bad_col =
          if vil = None then vil_col else if vih = None then vih_col
          else vdd_col
        in
        err lineno bad_col
          "bad numbers in 'thresholds' (expected VIL VIH VDD)")
    | ("cell", cell_col) :: (name, _) :: (gate_name, gate_col) :: rest -> (
      match Gate.of_name tech gate_name with
      | Error m -> err lineno gate_col "%s" m
      | Ok gate -> (
        let rec split_arrow before = function
          | ("->", _) :: [ (out, _) ] -> Some (List.rev before, out)
          | ("->", _) :: _ -> None
          | (t, _) :: tl -> split_arrow (t :: before) tl
          | [] -> None
        in
        match split_arrow [] rest with
        | None -> err lineno cell_col "expected 'cell NAME GATE in... -> out'"
        | Some (ins, out) ->
          acc.r_cells <-
            {
              line = lineno;
              gate_col;
              cell_name = name;
              gate;
              inputs = ins;
              output = out;
            }
            :: acc.r_cells))
    | [ ("end", _) ] -> acc.r_ended <- true
    | (tok, col) :: _ -> err lineno col "unrecognized directive %S" tok
  in
  List.iteri (fun i line -> parse_line (i + 1) line) (String.split_on_char '\n' text);
  {
    raw_name = acc.r_name;
    raw_inputs = List.rev acc.r_inputs;
    raw_outputs = List.rev acc.r_outputs;
    raw_cells = List.rev acc.r_cells;
    raw_thresholds = acc.r_thresholds;
    raw_errors = List.rev acc.r_errors;
  }

let arity_errors raw =
  List.filter_map
    (fun c ->
      let want = c.gate.Gate.fan_in and got = List.length c.inputs in
      if got <> want then
        Some
          {
            err_line = c.line;
            err_col = c.gate_col;
            err_msg =
              Printf.sprintf "gate %s wants %d inputs, got %d" c.gate.Gate.name
                want got;
          }
      else None)
    raw.raw_cells

let design_cell c =
  {
    Design.name = c.cell_name;
    gate = c.gate;
    input_nets = Array.of_list c.inputs;
    output_net = c.output;
  }

let parse_with_thresholds tech text =
  Trace.with_span ~cat:"sta" "netlist_text.parse" @@ fun () ->
  let raw = parse_raw tech text in
  let errors =
    List.sort
      (fun a b -> compare (a.err_line, a.err_col) (b.err_line, b.err_col))
      (raw.raw_errors @ arity_errors raw)
  in
  match errors with
  | _ :: _ ->
    Error
      (String.concat "\n"
         (List.map
            (fun e ->
              Printf.sprintf "line %d:%d: %s" e.err_line e.err_col e.err_msg)
            errors))
  | [] -> (
    match raw.raw_name with
    | None -> Error "missing 'design' directive"
    | Some (name, _) -> (
      try
        Ok
          ( name,
            Design.create
              ~cells:(List.map design_cell raw.raw_cells)
              ~primary_inputs:(List.map fst raw.raw_inputs)
              ~primary_outputs:(List.map fst raw.raw_outputs),
            Option.map fst raw.raw_thresholds )
      with Invalid_argument m -> Error m))

let parse tech text =
  Result.map (fun (name, design, _) -> (name, design))
    (parse_with_thresholds tech text)

let to_string ~name design =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "design %s\n" name);
  (match Design.primary_inputs design with
   | [] -> ()
   | pis -> Buffer.add_string buf ("input " ^ String.concat " " pis ^ "\n"));
  (match Design.primary_outputs design with
   | [] -> ()
   | pos -> Buffer.add_string buf ("output " ^ String.concat " " pos ^ "\n"));
  List.iter
    (fun (c : Design.cell) ->
      Buffer.add_string buf
        (Printf.sprintf "cell %s %s %s -> %s\n" c.Design.name
           c.Design.gate.Gate.name
           (String.concat " " (Array.to_list c.Design.input_nets))
           c.Design.output_net))
    (Design.cells design);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

module Json = Proxim_util.Json

type severity = Info | Warning | Error

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_name = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

type code =
  (* PX0xx: threshold sets (paper §2) *)
  | PX001
  | PX002
  | PX003
  | PX004
  (* PX1xx: netlist structure *)
  | PX100
  | PX101
  | PX102
  | PX103
  | PX104
  | PX105
  | PX106
  | PX107
  | PX108
  | PX110
  | PX111
  | PX112
  | PX113
  (* PX2xx: characterized model stores *)
  | PX201
  | PX202
  | PX203
  | PX204
  | PX205
  | PX206
  | PX207
  | PX208
  (* PX3xx: static proximity verification (interval analysis) *)
  | PX301
  | PX302
  | PX303
  | PX304
  (* PX4xx: static hazard analysis (§6 minimum separation) *)
  | PX401
  | PX402
  | PX403
  | PX404
  (* PX5xx: static sensitization analysis (ternary implication engine) *)
  | PX501
  | PX502
  | PX503
  | PX504

let all_codes =
  [
    PX001; PX002; PX003; PX004;
    PX100; PX101; PX102; PX103; PX104; PX105; PX106; PX107; PX108;
    PX110; PX111; PX112; PX113;
    PX201; PX202; PX203; PX204; PX205; PX206; PX207; PX208;
    PX301; PX302; PX303; PX304;
    PX401; PX402; PX403; PX404;
    PX501; PX502; PX503; PX504;
  ]

let code_name = function
  | PX001 -> "PX001"
  | PX002 -> "PX002"
  | PX003 -> "PX003"
  | PX004 -> "PX004"
  | PX100 -> "PX100"
  | PX101 -> "PX101"
  | PX102 -> "PX102"
  | PX103 -> "PX103"
  | PX104 -> "PX104"
  | PX105 -> "PX105"
  | PX106 -> "PX106"
  | PX107 -> "PX107"
  | PX108 -> "PX108"
  | PX110 -> "PX110"
  | PX111 -> "PX111"
  | PX112 -> "PX112"
  | PX113 -> "PX113"
  | PX201 -> "PX201"
  | PX202 -> "PX202"
  | PX203 -> "PX203"
  | PX204 -> "PX204"
  | PX205 -> "PX205"
  | PX206 -> "PX206"
  | PX207 -> "PX207"
  | PX208 -> "PX208"
  | PX301 -> "PX301"
  | PX302 -> "PX302"
  | PX303 -> "PX303"
  | PX304 -> "PX304"
  | PX401 -> "PX401"
  | PX402 -> "PX402"
  | PX403 -> "PX403"
  | PX404 -> "PX404"
  | PX501 -> "PX501"
  | PX502 -> "PX502"
  | PX503 -> "PX503"
  | PX504 -> "PX504"

let code_of_name s = List.find_opt (fun c -> code_name c = s) all_codes

let default_severity = function
  | PX001 | PX002 | PX003 -> Error
  | PX004 -> Warning
  | PX100 | PX101 | PX102 | PX103 | PX104 | PX105 | PX106 | PX107 | PX108 ->
    Error
  | PX110 | PX111 | PX112 | PX113 -> Warning
  | PX201 | PX202 | PX203 | PX207 -> Error
  | PX204 | PX205 | PX206 -> Warning
  | PX208 -> Info
  | PX303 -> Error
  | PX301 | PX302 | PX304 -> Warning
  | PX401 | PX402 | PX404 -> Warning
  | PX403 -> Info
  | PX501 | PX502 -> Warning
  | PX503 | PX504 -> Info

let code_doc = function
  | PX001 ->
    "negative-delay threshold hazard: a VTC switching threshold Vm falls \
     outside (Vil, Vih), so measured delays can be negative (paper §2)"
  | PX002 ->
    "threshold set disagrees with the family rule Vil = min Vil, Vih = max \
     Vih over all 2^n-1 VTCs (paper §2)"
  | PX003 -> "broken threshold ordering: expected 0 <= Vil < Vih <= Vdd"
  | PX004 -> "degenerate VTC curve: unity-gain points collapsed (Vil = Vih)"
  | PX100 -> "netlist syntax error"
  | PX101 -> "duplicate cell name"
  | PX102 -> "cell arity disagrees with its gate's fan-in"
  | PX103 -> "net driven by more than one cell"
  | PX104 -> "primary input driven by a cell"
  | PX105 -> "net read but never driven and not a primary input"
  | PX106 -> "combinational cycle"
  | PX107 -> "primary output neither driven nor a primary input"
  | PX108 -> "missing 'design' directive"
  | PX110 -> "cell output read by nothing and not a primary output"
  | PX111 -> "primary input read by no cell"
  | PX112 -> "fanout outlier: net drives more pins than the configured limit"
  | PX113 -> "primary output unreachable from any primary input"
  | PX201 -> "non-finite (NaN/inf) entry in a characterized table"
  | PX202 -> "non-positive single-input delay/transition sample"
  | PX203 -> "table grid axis not strictly increasing"
  | PX204 ->
    "dual-input ratio surface does not saturate to 1 outside the proximity \
     window"
  | PX205 -> "characterized axis range too narrow to cover realistic queries"
  | PX206 ->
    "dominance inconsistency: the (a,b) and (b,a) dual tables disagree at \
     the s_ab = Delta_a - Delta_b crossover"
  | PX207 -> "dual table references a pin/edge with no single-input table"
  | PX208 -> "incomplete single-table coverage over the gate's pins/edges"
  | PX301 ->
    "separation interval straddles the dominance crossover s_ab = Delta_a - \
     Delta_b: the delay estimate is discontinuity-sensitive"
  | PX302 ->
    "reachable transition-time interval exceeds the characterized table \
     coverage: queries extrapolate (clamp) silently"
  | PX303 ->
    "interval lower bound yields a negative pin-to-output delay under the \
     §2 thresholds"
  | PX304 ->
    "unconstrained primary input feeds a proximity-sensitive cone: the \
     analysis assumes it is quiet"
  | PX401 ->
    "static hazard possible: an opposing-edge input pair can beat the §6 \
     minimum-separation filter, so the cell output may glitch"
  | PX402 ->
    "a possible glitch reaches a primary output within its observability \
     window (nonnegative required-time slack along the fanout cone)"
  | PX403 ->
    "filtered hazard within the widening band: the worst-case separation \
     clears the §6 filter threshold by less than the margin"
  | PX404 ->
    "unconstrained primary input feeds a glitch-capable cone: an event on \
     it could create an opposing-edge pair the analysis has not seen"
  | PX501 ->
    "statically-constant net feeds a proximity-sensitive cone: the ternary \
     constant propagation pinned its value, so downstream pairs involving \
     it can never switch together"
  | PX502 ->
    "unsensitizable critical-path segment: every switching input pair of \
     the cell fails static sensitization, so the proximity arc is a false \
     path"
  | PX503 ->
    "input pair pruned by implication: no consistent side-input assignment \
     lets both pins switch (witness cube attached)"
  | PX504 ->
    "implication budget exhausted: the recursive-learning cone exceeded \
     the depth/support limit, so the pair conservatively stays sensitizable"

type location = {
  file : string option;
  line : int option;
  col : int option;
  context : string option;
}

type t = {
  code : code;
  severity : severity;
  location : location;
  message : string;
}

let make ?severity ?file ?line ?col ?context code fmt =
  Printf.ksprintf
    (fun message ->
      {
        code;
        severity = Option.value severity ~default:(default_severity code);
        location = { file; line; col; context };
        message;
      })
    fmt

(* --- ordering and summaries ----------------------------------------- *)

let sort diags =
  (* total order by (file, line, col, code, severity, context, message):
     two distinct diagnostics never compare equal, so the report order is
     fully deterministic whatever order the passes emitted them in *)
  List.stable_sort
    (fun a b ->
      let cmp =
        List.find_opt
          (fun c -> c <> 0)
          [
            compare a.location.file b.location.file;
            compare a.location.line b.location.line;
            compare a.location.col b.location.col;
            compare (code_name a.code) (code_name b.code);
            compare a.severity b.severity;
            compare a.location.context b.location.context;
            compare a.message b.message;
          ]
      in
      Option.value cmp ~default:0)
    diags

let count diags =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) diags

let worst diags =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some s when s >= d.severity -> acc
      | Some _ | None -> Some d.severity)
    None diags

let exit_code ?(fail_on = Warning) diags =
  match worst diags with
  | Some Error -> 2
  | Some Warning -> if fail_on = Error then 0 else 1
  | Some Info | None -> 0

let filter_codes codes diags =
  match codes with
  | [] -> diags
  | _ -> List.filter (fun d -> List.mem d.code codes) diags

(* --- text reporter --------------------------------------------------- *)

let pp ppf d =
  let where =
    let colpart =
      match d.location.col with
      | Some c -> Printf.sprintf ":%d" c
      | None -> ""
    in
    match (d.location.file, d.location.line) with
    | Some f, Some l -> Printf.sprintf "%s:%d%s: " f l colpart
    | Some f, None -> f ^ ": "
    | None, Some l -> Printf.sprintf "line %d%s: " l colpart
    | None, None -> ""
  in
  let ctx =
    match d.location.context with
    | Some c -> Printf.sprintf " [%s]" c
    | None -> ""
  in
  Format.fprintf ppf "%s%s[%s]: %s%s" where
    (severity_name d.severity)
    (code_name d.code) d.message ctx

let report_text diags =
  let buf = Buffer.create 512 in
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "%a\n" pp d))
    (sort diags);
  let e, w, i = count diags in
  Buffer.add_string buf
    (Printf.sprintf "%d error%s, %d warning%s, %d info%s\n" e
       (if e = 1 then "" else "s")
       w
       (if w = 1 then "" else "s")
       i
       (if i = 1 then "" else "s"));
  Buffer.contents buf

(* --- JSON reporter ---------------------------------------------------- *)

let to_json d =
  let base =
    [
      ("code", Json.String (code_name d.code));
      ("severity", Json.String (severity_name d.severity));
      ("message", Json.String d.message);
    ]
  in
  let opt name conv v =
    match v with Some v -> [ (name, conv v) ] | None -> []
  in
  Json.Obj
    (base
    @ opt "file" (fun f -> Json.String f) d.location.file
    @ opt "line" (fun l -> Json.Number (float_of_int l)) d.location.line
    @ opt "col" (fun c -> Json.Number (float_of_int c)) d.location.col
    @ opt "context" (fun c -> Json.String c) d.location.context)

let of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_value in
  match (str "code", str "severity", str "message") with
  | Some code_s, Some sev_s, Some message -> (
    match (code_of_name code_s, severity_of_name sev_s) with
    | Some code, Some severity ->
      Ok
        {
          code;
          severity;
          message;
          location =
            {
              file = str "file";
              line =
                Option.map int_of_float
                  (Option.bind (Json.member "line" j) Json.to_number);
              col =
                Option.map int_of_float
                  (Option.bind (Json.member "col" j) Json.to_number);
              context = str "context";
            };
        }
    | None, _ -> Error (Printf.sprintf "unknown diagnostic code %S" code_s)
    | _, None -> Error (Printf.sprintf "unknown severity %S" sev_s))
  | _ -> Error "diagnostic object needs code, severity and message fields"

let report_json diags =
  let e, w, i = count diags in
  Json.Obj
    [
      ("diagnostics", Json.List (List.map to_json (sort diags)));
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Number (float_of_int e));
            ("warnings", Json.Number (float_of_int w));
            ("infos", Json.Number (float_of_int i));
          ] );
    ]

let report_json_string diags = Json.to_string (report_json diags)

(* --- SARIF 2.1.0 reporter --------------------------------------------- *)

(* Static Analysis Results Interchange Format, the schema GitHub code
   scanning ingests.  One run, one tool ("proxim"), one rule per distinct
   code present in the report (ruleIndex points into that array), one
   result per diagnostic.  Severities map onto SARIF levels: Error ->
   "error", Warning -> "warning", Info -> "note". *)

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let sarif_version = "2.1.0"
let sarif_schema = "https://json.schemastore.org/sarif-2.1.0.json"

let report_sarif diags =
  let diags = sort diags in
  let rule_codes =
    List.filter (fun c -> List.exists (fun d -> d.code = c) diags) all_codes
  in
  let rule_index c =
    let rec go i = function
      | [] -> assert false (* every result's code is in [rule_codes] *)
      | c' :: tl -> if c = c' then i else go (i + 1) tl
    in
    go 0 rule_codes
  in
  let rules =
    List.map
      (fun c ->
        Json.Obj
          [
            ("id", Json.String (code_name c));
            ( "shortDescription",
              Json.Obj [ ("text", Json.String (code_doc c)) ] );
            ( "defaultConfiguration",
              Json.Obj
                [ ("level", Json.String (sarif_level (default_severity c))) ]
            );
          ])
      rule_codes
  in
  let result d =
    let message =
      match d.location.context with
      | Some ctx -> d.message ^ " [" ^ ctx ^ "]"
      | None -> d.message
    in
    let location =
      match d.location.file with
      | None -> []
      | Some f ->
        let region =
          (match d.location.line with
           | Some l -> [ ("startLine", Json.Number (float_of_int l)) ]
           | None -> [])
          @
          match d.location.col with
          | Some c -> [ ("startColumn", Json.Number (float_of_int c)) ]
          | None -> []
        in
        let physical =
          ("artifactLocation", Json.Obj [ ("uri", Json.String f) ])
          :: (if region = [] then [] else [ ("region", Json.Obj region) ])
        in
        [
          ( "locations",
            Json.List
              [ Json.Obj [ ("physicalLocation", Json.Obj physical) ] ] );
        ]
    in
    Json.Obj
      ([
         ("ruleId", Json.String (code_name d.code));
         ("ruleIndex", Json.Number (float_of_int (rule_index d.code)));
         ("level", Json.String (sarif_level d.severity));
         ("message", Json.Obj [ ("text", Json.String message) ]);
       ]
      @ location)
  in
  Json.Obj
    [
      ("$schema", Json.String sarif_schema);
      ("version", Json.String sarif_version);
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "proxim");
                            ("version", Json.String "1.0.0");
                            ("rules", Json.List rules);
                          ] );
                    ] );
                ("results", Json.List (List.map result diags));
              ];
          ] );
    ]

let report_sarif_string diags = Json.to_string (report_sarif diags)

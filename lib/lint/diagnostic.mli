(** The diagnostics core of the lint subsystem.

    Every lint finding is a {!t}: a {e stable} machine-readable code
    ([PXnnn]), a severity, a source location (file / line / named
    context such as a cell, net or table) and a human-readable message.
    Codes are stable across releases — tools may match on them — while
    messages are free to improve.

    Code blocks:
    - [PX0xx] — threshold-set rules from the paper's §2 (the
      negative-delay hazard and the min-Vil/max-Vih family rule);
    - [PX1xx] — structural netlist checks, the collect-all counterpart
      of {!Proxim_sta.Design.create}'s first-failure validation plus
      style warnings (unused nets, fanout outliers, unreachable
      outputs);
    - [PX2xx] — characterized model-store sanity (finiteness,
      monotonicity, proximity-window saturation, dominance
      consistency);
    - [PX3xx] — static proximity-verification findings produced by the
      interval abstract interpretation ([Proxim_verify]): dominance
      crossover straddles, table-coverage escapes, negative-delay bounds,
      unconstrained inputs in proximity-sensitive cones;
    - [PX4xx] — static hazard-analysis findings produced by the §6
      minimum-separation dataflow ([Proxim_hazard]): may-glitch cells,
      endpoint-observable glitches, near-threshold filtered pairs,
      unconstrained inputs in glitch-capable cones;
    - [PX5xx] — static sensitization findings produced by the ternary
      constant-propagation and implication engine ([Proxim_sense]):
      statically-constant nets in proximity-sensitive cones, false-path
      cells, implication-pruned pairs with witness cubes, implication
      budget exhaustion. *)

type severity = Info | Warning | Error
(** Ordered: [Info < Warning < Error] (the polymorphic compare order). *)

val severity_name : severity -> string
(** ["info"], ["warning"], ["error"]. *)

val severity_of_name : string -> severity option

type code =
  | PX001  (** negative-delay threshold hazard: Vm outside (Vil, Vih), §2 *)
  | PX002  (** threshold set violates the min-Vil / max-Vih family rule *)
  | PX003  (** broken threshold ordering (0 <= Vil < Vih <= Vdd) *)
  | PX004  (** degenerate VTC curve (unity-gain points collapsed) *)
  | PX100  (** netlist syntax error *)
  | PX101  (** duplicate cell name *)
  | PX102  (** cell arity disagrees with the gate's fan-in *)
  | PX103  (** net driven twice *)
  | PX104  (** primary input driven by a cell *)
  | PX105  (** undriven net *)
  | PX106  (** combinational cycle *)
  | PX107  (** undriven primary output *)
  | PX108  (** missing 'design' directive *)
  | PX110  (** unused cell output *)
  | PX111  (** unused primary input *)
  | PX112  (** fanout outlier *)
  | PX113  (** primary output unreachable from any primary input *)
  | PX201  (** non-finite table entry *)
  | PX202  (** non-positive single-input sample *)
  | PX203  (** non-monotone grid axis *)
  | PX204  (** ratio surface fails to saturate outside the window *)
  | PX205  (** characterized axis coverage too narrow *)
  | PX206  (** dominance-crossover inconsistency between paired duals *)
  | PX207  (** dual table missing its single-input tables *)
  | PX208  (** incomplete single-table pin/edge coverage *)
  | PX301
      (** separation interval straddles the dominance crossover
          [s_ab = Delta_a - Delta_b] *)
  | PX302  (** reachable intervals exceed characterized table coverage *)
  | PX303  (** interval lower bound gives a negative pin-to-output delay *)
  | PX304  (** unconstrained primary input in a proximity-sensitive cone *)
  | PX401  (** static hazard possible (§6 separation may beat the filter) *)
  | PX402  (** possible glitch reaches a primary output in its window *)
  | PX403  (** filtered hazard within the widening band of the threshold *)
  | PX404  (** unconstrained primary input in a glitch-capable cone *)
  | PX501  (** statically-constant net feeds a proximity-sensitive cone *)
  | PX502  (** unsensitizable critical-path segment (false proximity path) *)
  | PX503  (** input pair pruned by implication (witness cube attached) *)
  | PX504  (** implication budget exhausted: pair stays sensitizable *)

val all_codes : code list
(** Every code, ascending. *)

val code_name : code -> string
(** ["PX001"], ... — the stable wire format. *)

val code_of_name : string -> code option

val default_severity : code -> severity

val code_doc : code -> string
(** One-line description (the rows of the README code table and of
    [proxim lint --codes]). *)

type location = {
  file : string option;
  line : int option;
  col : int option;  (** 1-based column, when the source pass knows one *)
  context : string option;  (** cell / net / curve / table name *)
}

val no_loc : location

type t = {
  code : code;
  severity : severity;
  location : location;
  message : string;
}

val make :
  ?severity:severity ->
  ?file:string ->
  ?line:int ->
  ?col:int ->
  ?context:string ->
  code ->
  ('a, unit, string, t) format4 ->
  'a
(** [make code fmt ...] builds a diagnostic with a printf-formatted
    message; [severity] defaults to {!default_severity}. *)

val sort : t list -> t list
(** Total order by (file, line, col, code, severity, context, message) —
    the report order.  Distinct diagnostics never tie, so the rendered
    reports are byte-deterministic regardless of emission order. *)

val count : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val worst : t list -> severity option

val exit_code : ?fail_on:severity -> t list -> int
(** Process exit status for a lint run: [2] when any error is present,
    [1] when the worst finding is a warning (suppressed to [0] under
    [~fail_on:Error]), [0] otherwise.  [fail_on] defaults to
    [Warning]. *)

val filter_codes : code list -> t list -> t list
(** Keep only the diagnostics whose code is listed; an empty list keeps
    everything (the [--codes] CLI filter). *)

val pp : Format.formatter -> t -> unit
(** One line: [file:line:col: severity[PXnnn]: message [context]]. *)

val report_text : t list -> string
(** Sorted one-per-line rendering followed by an
    ["E errors, W warnings, I infos"] summary line. *)

val to_json : t -> Proxim_util.Json.t
val of_json : Proxim_util.Json.t -> (t, string) result
(** Field-level round-trip: [of_json (to_json d) = Ok d]. *)

val report_json : t list -> Proxim_util.Json.t
(** [{"diagnostics": [...], "summary": {"errors": ..., ...}}]. *)

val report_json_string : t list -> string

val report_sarif : ?tool_version:string -> t list -> Proxim_util.Json.t
(** SARIF 2.1.0 report (the format GitHub code scanning ingests): one
    run by the "proxim" driver, a [rules] array holding every distinct
    code present (id, {!code_doc} short description, default level), and
    one [result] per diagnostic ([ruleId]/[ruleIndex]/[level]/[message],
    plus a [physicalLocation] when the diagnostic carries a file;
    contexts are folded into the message text).  Severities map to SARIF
    levels error/warning/note.  [tool_version] defaults to ["1.0.0"]. *)

val report_sarif_string : ?tool_version:string -> t list -> string

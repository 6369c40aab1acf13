(** Static sensitization analysis: ternary constant propagation and a
    bounded implication engine over the timing-graph IR.

    The timing analyses so far ([Proxim_verify], [Proxim_hazard]) reason
    about {e windows}: two inputs of a gate are proximity-suspect when
    their arrival intervals can overlap.  This module adds the missing
    {e logic} dimension.  Under the two-frame semantics of a single
    input vector — every net has a boolean value before any event
    ([init]) and after all events settle ([final]) — three questions
    become decidable:

    - {b Constants.}  A forward pass propagates three-valued (0/1/X)
      values per frame through the {!Proxim_gates.Gate.t} series/parallel
      semantics.  Controlling values absorb: a definite 0 on one NAND
      input pins the output at 1 whatever the others do — exactly the
      skip branch of the paper's §3 fold, decided statically.  Nets
      definite and equal in both frames are statically constant.
    - {b Activity.}  The same pass tracks which nets are structurally
      {e event-bearing} (reachable from a switching primary input the
      way the event-driven STA propagates events), which possible
      completed-transition polarities they carry, and whether a pulse
      (an excursion that returns to its resting level) can reach them.
    - {b Sensitization.}  For every cell with at least two event-bearing
      inputs, each input pair is classified: does {e any} consistent
      assignment of the free (quiet) primary inputs make both pins
      change value?  The engine enumerates the quiet support of the
      pair's fanin cone exhaustively — bounded recursive learning with
      an explicit budget, no SAT dependency — and answers
      {!Sensitizable} with a witness cube, {!Unsensitizable} with the
      blocking implication, or {!Exhausted} (conservatively unknown)
      when the cone or support outgrows the budget.

    Products: a {!prune_mask} source for the fused {!Proxim_sta.Prune.t}
    (the {e structural} projection — see the soundness note there), the
    [unsensitizable] oracles behind [Proxim_verify.Verify.refine] and
    [Proxim_hazard.Hazard.refine] (false-path May-to-Never conversion),
    and the PX5xx diagnostics. *)

(** {1 Ternary logic} *)

type logic = Proxim_gates.Ternary.logic = L0 | L1 | LX
(** Kleene three-valued logic ({!Proxim_gates.Ternary}); [LX] is
    "unknown", not "illegal". *)

(** {1 Inputs} *)

type stimulus =
  | Switch of Proxim_measure.Measure.edge
      (** a definite transition: 0 to 1 ([Rise]) or 1 to 0 ([Fall]) *)
  | Pulse
      (** an excursion that returns to its (unknown) resting level —
          how a both-windows hazard stimulus reaches this analysis *)
  | Const of bool
      (** pinned at a level in both frames (the [--const] flag) *)

val stimuli_of_events :
  ?consts:(string * bool) list ->
  Proxim_verify.Verify.pi_event list ->
  (string * stimulus) list
(** Project interval events onto logic stimuli: a net with one event
    becomes [Switch] of its edge, a net with events of both edges (a
    pulse pair) becomes [Pulse].  [consts] are appended.  Raises
    [Invalid_argument] when a net is both pinned and switching. *)

(** {1 Results} *)

type activity = {
  act_init : logic;  (** ternary value before any event *)
  act_final : logic;  (** ternary value after all events settle *)
  act_steady : bool;
      (** provably no init-to-final value change (all fanin steady, or
          both frames definite and equal).  A steady net can still carry
          a pulse — see [act_may_pulse]. *)
  act_active : bool;
      (** structurally event-bearing: the event-driven STA places an
          event here (reachable from a switching primary input).  The
          STA is logic-blind, so this — not [act_steady] — is what the
          bit-identical prune mask may use. *)
  act_may_rise : bool;  (** a completed rising transition is possible *)
  act_may_fall : bool;
  act_may_pulse : bool;
      (** a pulse can reach this net: a [Pulse] stimulus, or
          opposing-polarity events reconverging at some driver in the
          fanin — on such nets the two-frame argument proves nothing *)
}

type decision =
  | Sensitizable of (string * bool) list
      (** witness cube: an assignment of the free support inputs under
          which both pins switch *)
  | Unsensitizable of string
      (** proven impossible; carries the human-readable blocking
          implication (the PX503 witness) *)
  | Exhausted of string
      (** budget or pulse-taint bailout; conservatively sensitizable
          (the PX504 reason) *)

type pair_info = {
  sp_a : int;  (** pin id, [sp_a < sp_b] *)
  sp_b : int;
  sp_support : string list;
      (** the free primary inputs enumerated (empty when every cone
          input is pinned) *)
  sp_cone_cells : int;  (** fanin-cone size the budget was charged *)
  sp_decision : decision;
}

type cell_info = {
  sc_name : string;
  sc_gate : string;
  sc_active : int list;  (** event-bearing input pins, pin order *)
  sc_pairs : pair_info list;  (** unordered active pairs, [(a, b)] with [a < b] *)
  sc_false_path : bool;
      (** at least one pair and every pair {!Unsensitizable}: the
          multi-input proximity interaction here is a false path — the
          PX502 trigger *)
}

type t
(** A completed sensitization analysis. *)

(** {1 Analysis} *)

val default_budget : int
(** Fanin-cone cell limit per pair before {!Exhausted} (128). *)

val default_max_support : int
(** Free-input limit per pair before {!Exhausted} (10, i.e. at most
    1024 enumerated cubes). *)

val analyze :
  ?budget:int ->
  ?max_support:int ->
  Proxim_sta.Design.t ->
  pi:(string * stimulus) list ->
  t
(** One topological ternary pass plus a per-pair implication pass.  The
    implication pass, the analysis' cost, runs on first use: {!cell_info},
    {!cells}, {!summary}, {!pair_unsensitizable}, {!check} and
    {!report_text} force it, {!activity}, {!constants} and {!prune_mask}
    do not.  Primary inputs absent from [pi] are free (quiet at an unknown
    level); stimuli naming nets unknown to the design are inert, like
    {!Proxim_sta.Sta.analyze}; stimuli on cell-driven nets raise
    [Invalid_argument].  No macromodels are consulted — this is pure
    logic.  Raises [Invalid_argument] on a non-positive budget. *)

val activity : t -> net:string -> activity option
(** [None] for nets unknown to the design. *)

val constants : t -> (string * bool) list
(** Statically-constant {e derived} nets, topological order: cell-driven,
    event-bearing (the STA thinks they switch), both frames pinned to
    the same definite value by constant propagation.  Primary-input
    constants the user declared are not repeated here. *)

val cell_info : t -> cell:string -> cell_info option
(** [None] for unknown cells and cells with fewer than two event-bearing
    inputs. *)

val cells : t -> cell_info list
(** Every classified cell (two or more event-bearing inputs),
    topological order. *)

type summary = {
  total_cells : int;
  classified_cells : int;  (** cells with >= 2 event-bearing inputs *)
  pairs : int;
  sensitizable : int;
  unsensitizable : int;
  exhausted : int;
  constant_nets : int;
  false_path_cells : int;
  prunable_cells : int;  (** cells the {!prune_mask} covers *)
}

val summary : t -> summary

(** {1 Consumers} *)

val prune_mask : t -> bool array
(** The sense source for {!Proxim_sta.Prune.make}'s [~unsensitizable],
    indexed by the design's {!Proxim_timing.Graph} cell id: [true] for
    cells with at most one event-bearing input (a fresh copy of the
    analysis' own per-cell table).  This is
    deliberately the {e structural} projection of the analysis: the
    event-driven STA propagates events without consulting logic, so a
    cell whose §3 fold the implication engine proved logically
    unsensitizable still {e evaluates} both events — only cells where at
    most one event can structurally arrive degenerate bit-identically to
    the single-input fast path.  The implication results instead refine
    the [Verify]/[Hazard] verdicts (see {!pair_unsensitizable}) and feed
    the PX5xx diagnostics.  Only valid while the switching/quiet status
    of every primary input matches what {!analyze} was given. *)

val pair_unsensitizable : t -> cell:string -> a:int -> b:int -> bool
(** The oracle for [Proxim_verify.Verify.refine] and
    [Proxim_hazard.Hazard.refine]: [true] when pins [a] and [b] of
    [cell] (either order) can never both carry events — the pair was
    proven {!Unsensitizable}, or one pin's net is provably inert (not
    event-bearing and pulse-free).  [false] for unknown cells/pins and
    {!Exhausted} pairs — never guesses. *)

val check : ?file:string -> t -> Proxim_lint.Diagnostic.t list
(** The PX5xx findings, sorted: [PX501] per derived constant net feeding
    a classified cell, [PX502] per false-path cell, [PX503] per
    unsensitizable pair (witness in the message), [PX504] per exhausted
    pair. *)

val report_text : t -> string
(** Human summary: classification counts, derived constants, then the
    classified cells with their pair verdicts. *)

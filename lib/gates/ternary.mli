(** Kleene three-valued logic over a gate's pull-down network.

    One evaluator for the static analyses that reason about logic levels
    without a simulator: the hazard analysis (resting levels before and
    after the events) and the sensitization analysis (two-frame constant
    propagation).  [LX] is "unknown", not "illegal". *)

type logic = L0 | L1 | LX

val name : logic -> string
(** ["0"], ["1"], ["x"]. *)

val not3 : logic -> logic
val and3 : logic -> logic -> logic
val or3 : logic -> logic -> logic

val eval_gate : Gate.t -> (int -> logic) -> logic
(** Ternary output of a static CMOS gate: the complement of whether the
    pull-down network conducts (Series = AND, Parallel = OR over the
    NMOS gates).  A definite controlling value absorbs the rest of its
    stack — the §3 skip branch decided statically.  Exact for every gate
    the netlists can instantiate. *)

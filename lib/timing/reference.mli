(** The records-of-options evaluator, kept as a bit-identity oracle.

    Before the SoA arena ({!Soa}), {!Timing} stored one [verdict option]
    record per cell and propagated by mapping over those options.  This
    module preserves that formulation — a plain topological walk over
    boxed records, no worklist, no arena — so tests and the scaling
    bench can demand that the flat engine reproduces the record engine
    to the last bit at every design size.

    It reads the engine and the current source events out of a
    {!Timing.t} but never touches its committed state: calling
    {!analyze} between two incremental updates is side-effect free.  The
    engine runs on a {!Timing.cursor} of the oracle's own, filled from
    its option arrivals, and each answer is decoded into a
    {!Timing.verdict} record here. *)

val analyze : 'cell Timing.t -> Timing.verdict option array
(** Evaluate every cell of [t]'s graph in topological order with [t]'s
    engine over [t]'s current source events, records-of-options style.
    Index [c] holds cell [c]'s verdict. *)

val agrees : 'cell Timing.t -> bool
(** [true] iff [t]'s committed verdicts are bit-identical
    ({!Timing.verdict_eq}) to a fresh {!analyze} — i.e. the SoA engine,
    after whatever sequence of [analyze]/[update] calls produced [t]'s
    state, matches the record engine run from scratch. *)

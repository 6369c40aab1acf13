(** The unified STA prune mask.

    Three static analyses can each prove that a cell's §3 proximity fold
    degenerates to its dominant input's single-input response, so the
    single-input fast path answers it bit-identically.  The fold itself
    makes no dual-macromodel query on such a cell either: it stops at the
    first input outside the dominant's transition window.  What the fast
    path saves is one assist-table lookup and the dominance sort.  No
    [proxim] command builds a mask; the bench's prune-payoff sections and
    the benchmark's oracle layer do.  The sources:

    - {e never-proximate} — the interval verification
      ([Proxim_verify.prune_mask]) separated every input pair's windows
      beyond the proximity range;
    - {e quiet} — the §6 hazard dataflow ([Proxim_hazard.quiet_mask])
      found at most one possibly-switching input;
    - {e unsensitizable} — the ternary sensitization engine
      ([Proxim_sense.prune_mask]) proved at most one input can carry an
      event once statically-constant nets are absorbed.

    Each analysis hands over a [bool array] indexed by the design's
    {!Proxim_timing.Graph} cell id.  {!make} fuses any subset of them
    into one immutable per-cell table that records, for every covered
    cell, the {e first} source covering it in the priority order
    unsensitizable, quiet, never-proximate (cheapest analysis first).
    Membership and attribution are then one array read by cell id.  The
    table is consulted by {!Sta.build_ir} in [Proximity] mode only, and
    the hits are counted per analysis state ({!Sta.pruned_counts}); each
    source keeps its own validity contract (see the producing module). *)

type source = Unsensitizable | Quiet | Never_proximate
(** Attribution priority order: an earlier source claims a cell both
    sources cover. *)

val source_name : source -> string
(** ["unsensitizable"], ["quiet"], ["never_proximate"] — the stable
    names used in reports and BENCH files. *)

type t
(** The fused table.  Never mutated after {!make}, so one mask may back
    any number of analysis states and domains at once. *)

val none : t
(** The empty mask: covers no cell. *)

val make :
  ?unsensitizable:bool array ->
  ?quiet:bool array ->
  ?never_proximate:bool array ->
  unit ->
  t
(** Fuse the given per-cell-id bitmaps, resolving the priority order
    once.  Omitted sources contribute nothing; with none given the
    result is {!none}.  Raises [Invalid_argument] when the given bitmaps
    differ in length. *)

val is_empty : t -> bool
(** The mask covers no cell id at all ({!none}, or {!make} without a
    source), so {!member} is constantly [false]. *)

val length : t -> int
(** The number of cell ids the table covers — the cell count of the
    design the masks were computed on (0 when {!is_empty}). *)

val source : t -> int -> source option
(** [source t id]: the source that claims cell [id], if any — [None]
    for ids beyond {!length}. *)

val member : t -> int -> bool
(** [source t id <> None]: the fused predicate. *)

type counts = {
  unsensitizable : int;
  quiet : int;
  never_proximate : int;
}
(** Fast-path evaluations per claiming source, as reported by
    {!Sta.pruned_counts}. *)

val total : counts -> int

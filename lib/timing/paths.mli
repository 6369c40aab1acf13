(** K-worst path enumeration over an analyzed {!Timing} state.

    Replaces the single [critical_path] chain: for an endpoint the
    top-K latest-arriving paths are enumerated by merging per-net top-K
    lists in topological order over the endpoint's fan-in cone only
    (cost [O(E_cone * K log K)], where [E_cone] counts the arcs into
    that cone; cells outside it cannot reach the endpoint).

    Path semantics: every arc [(input net -> cell output)] contributes
    [would_be - arrival(input)], where [would_be] is the engine's
    estimate of the output arrival had that pin set the timing alone
    (the actual arrival for the winning pin).  Rank 1 is always the
    timing-setting chain — the winner pins followed back to a source —
    and its arrival reproduces the reported arrival and the critical
    path exactly.  Ranks 2..K order the alternatives by their
    single-input would-be estimates, latest first — the standard
    pin-to-pin view of the paper's introduction, which is exactly the
    lens a designer wants on the near-critical alternatives.  (Under
    proximity the two views genuinely differ: assisting inputs compose
    to the {e earliest} would-be crossing, so an alternative's estimate
    can exceed the critical arrival.) *)

type step = {
  net : int;
  via_pin : int;  (** pin through which the path enters the driving cell
                      of [net]; [-1] at the source step *)
}

type path = {
  p_arrival : float;  (** estimated endpoint arrival via this path, s *)
  p_steps : step list;  (** endpoint first, back to the source net *)
}

val k_worst : 'cell Timing.t -> po:int -> k:int -> path list
(** The up-to-[k] worst paths ending at net [po]: the timing-setting
    chain first, then the alternatives worst-estimate first.  [[]] when
    the net never switched.  Raises [Invalid_argument] when [k < 1]. *)

val nets_of_path : 'cell Graph.t -> path -> string list
(** The net names along a path, endpoint first. *)

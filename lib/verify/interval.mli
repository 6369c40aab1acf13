(** Closed floating-point intervals [[lo, hi]] — the abstract values of
    the {!Verify} interpreter.

    All operations are outward-conservative under real arithmetic (no
    directed rounding: the sub-ulp rounding of [+.]/[*.] is absorbed by
    the sampling safety margins of
    {!Proxim_macromodel.Models.delay1_bounds} and friends, which dominate
    by many orders of magnitude). *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi]; raises [Invalid_argument] when [lo > hi] or either
    bound is NaN. *)

val exact : float -> t
(** The degenerate interval [[v, v]]. *)

val of_pair : float * float -> t
val pair : t -> float * float
val lo : t -> float
val hi : t -> float

val width : t -> float
val degenerate : t -> bool
(** [width i = 0.] — a single point; abstract operations on degenerate
    inputs stay exact. *)

val contains : t -> float -> bool
val subset : t -> t -> bool
(** [subset a b]: [a] lies entirely inside [b]. *)

val intersects : t -> t -> bool

val hull : t -> t -> t
val hull0 : t -> t
(** [hull0 a = hull a (exact 0.)] — the "contributed or not" envelope of
    a prefix-sum term. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t

val max2 : t -> t -> t
(** Interval image of [Stdlib.max]: [[max lo lo', max hi hi']]. *)

val clamp_lo : float -> t -> t
(** Raise both bounds to at least the given floor (e.g. keep a slew
    interval positive before inversion). *)

val inv : t -> t
(** [1/x] for a strictly positive interval; raises [Invalid_argument]
    when [lo <= 0.]. *)

val to_string : t -> string
(** ["[lo, hi]"] with %g bounds, or ["{v}"] when degenerate. *)

val to_ps_string : t -> string
(** {!to_string} of a seconds interval, in picoseconds — the form the
    PX3xx/PX4xx messages print. *)

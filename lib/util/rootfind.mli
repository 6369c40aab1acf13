(** Scalar root finding.

    Used for threshold-crossing refinement (unity-gain points of a VTC,
    waveform/threshold intersections) where the function is cheap and a
    bracketing interval is known. *)

exception No_bracket
(** Raised when the supplied interval does not bracket a sign change. *)

val bisect : ?tol:float -> f:(float -> float) -> float -> float -> float
(** [bisect ~f a b] finds [x] in [\[a, b\]] with [f x = 0] by bisection.
    Requires [f a] and [f b] to have opposite signs (zero endpoints are
    returned immediately); raises {!No_bracket} otherwise.  [tol] is the
    absolute interval width at which iteration stops (default [1e-15] of
    the initial width, floored at machine epsilon scale); at most 200
    halvings run. *)

val brent : ?tol:float -> f:(float -> float) -> float -> float -> float
(** [brent ~f a b] is Brent's method (inverse quadratic interpolation with
    bisection fallback) on the bracket [\[a, b\]].  Same contract as
    {!bisect}, converges much faster on smooth functions; at most 100
    iterations run. *)

val find_bracket :
  f:(float -> float) -> lo:float -> hi:float -> n:int -> (float * float) option
(** [find_bracket ~f ~lo ~hi ~n] scans [n] equal subintervals of
    [\[lo, hi\]] and returns the first one across which [f] changes sign. *)

(** Small floating-point helpers shared across the project.

    All simulator and model code works in SI units (volts, seconds, farads,
    amperes).  Time spans range from femtoseconds to microseconds, so most
    comparisons must be made with a relative tolerance; this module
    centralizes those conventions. *)

val approx_eq : ?rtol:float -> ?atol:float -> float -> float -> bool
(** [approx_eq a b] is [true] when [|a - b| <= atol + rtol * max |a| |b|]
    ([rtol] defaults to 1e-9, [atol] to 1e-15). *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to the closed interval [\[lo, hi\]].
    Requires [lo <= hi]. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] is the affine blend [a + t * (b - a)]; [t] need not lie in
    [\[0, 1\]] (extrapolation is deliberate). *)

val inv_lerp : float -> float -> float -> float
(** [inv_lerp a b x] is the parameter [t] such that [lerp a b t = x].
    Requires [a <> b]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced samples from [a] to [b] inclusive.
    Requires [n >= 2] (or [n = 1], which yields [[|a|]]). *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] logarithmically spaced samples from [a] to [b]
    inclusive.  Requires [a > 0.], [b > 0.]. *)

val is_finite : float -> bool
(** [is_finite x] is [true] iff [x] is neither infinite nor NaN. *)

val sign : float -> float
(** [sign x] is [-1.], [0.] or [1.] according to the sign of [x]. *)

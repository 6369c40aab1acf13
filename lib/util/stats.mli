(** Descriptive statistics for the validation experiments (Table 5-1). *)

type summary = {
  n : int;
  mean : float;
  std : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val summarize : float array -> summary
(** Requires a non-empty array.  For [n = 1] the standard deviation is 0. *)

val mean : float array -> float
val std : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation between
    order statistics.  Does not modify [xs]. *)

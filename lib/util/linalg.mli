(** Dense linear algebra for the MNA solver.

    Circuits in this project have at most a dozen unknowns, so a dense
    LU factorization with partial pivoting is both the simplest and the
    fastest adequate tool.  Matrices are ordinary [float array array] in
    row-major order.  The solver's inner loop factors and solves into
    arrays its caller owns ({!lu_factor}, {!lu_back_substitute}), so a
    Newton iteration allocates nothing here; {!lu_solve} is the
    allocating one-shot form. *)

type mat = float array array
type vec = float array

exception Singular
(** Raised when a factorization or solve meets an (almost) singular
    matrix; the caller (e.g. the DC solver) treats this as a convergence
    failure and retries with continuation aids. *)

val make_mat : int -> mat
(** [make_mat n] is a fresh [n] x [n] zero matrix. *)

val mat_vec : mat -> vec -> vec
(** [mat_vec a x] is the product [a * x]. *)

val residual_norm : mat -> vec -> vec -> float
(** [residual_norm a x b] is [||a x - b||_inf], used in solver sanity
    assertions. *)

val lu_factor : mat -> perm:int array -> unit
(** [lu_factor a ~perm] factorizes [a] in place by LU with partial
    pivoting: the rows of [a] are exchanged as the pivots require and
    [perm] (length [n]) receives the original row index of each.
    Raises {!Singular} when a pivot falls below a tiny absolute
    threshold. *)

val lu_back_substitute : mat -> perm:int array -> vec -> x:vec -> unit
(** [lu_back_substitute a ~perm b ~x] writes into [x] the solution of
    the system [a] and [perm] were factored from, with right-hand side
    [b] ([b] is not modified; [x] and [b] must be distinct). *)

val lu_solve : mat -> vec -> vec
(** [lu_solve a b] solves [a x = b] by LU with partial pivoting.
    [a] and [b] are not modified.  Raises {!Singular} as
    {!lu_factor}. *)

val norm_inf : vec -> float
(** Maximum absolute entry. *)

(** Damped Newton–Raphson iteration on an assembled MNA system.

    Shared by the DC and transient engines. *)

type outcome =
  | Converged of int  (** iteration count *)
  | Diverged of string

val solve :
  Mna.t ->
  Mna.workspace ->
  opts:Options.t ->
  gmin:float ->
  source_values:float array ->
  companions:Mna.companions option ->
  x:float array ->
  outcome
(** Iterate from the seed in [x], updating it in place, with the
    workspace's arrays for the Jacobian, the residual and the LU solve:
    an iteration allocates nothing.  Each update is damped so that no
    component moves more than [opts.newton_dv_limit].  Convergence
    requires both the update and the KCL residual to fall under the
    respective tolerances. *)

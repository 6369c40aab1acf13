(** MOSFET compact models.

    Two square-law-family models are provided, matching the modeling level
    of the paper's era:

    - {b Shichman–Hodges} (SPICE level 1) with channel-length modulation —
      the default throughout the repo;
    - {b Sakurai–Newton alpha-power} (reference \[14\] of the paper), which
      captures velocity saturation via the exponent [alpha] ([alpha = 2.]
      reduces exactly to Shichman–Hodges with the same parameters).

    The evaluator writes the drain current together with its partial
    derivatives with respect to the three terminal voltages into a float
    array, which is what the MNA Newton stamps need: the solver's inner
    loop calls it once per transistor per iteration and allocates
    nothing.  Source/drain symmetry is handled
    internally (the device conducts identically with the channel reversed),
    so callers never need to order the diffusion terminals. *)

type polarity = Nmos | Pmos

type model_kind =
  | Shichman_hodges
  | Alpha_power of float  (** the alpha exponent, typically 1.0–2.0 *)

type params = {
  polarity : polarity;
  vt0 : float;
      (** zero-bias threshold voltage; positive for NMOS, negative for PMOS *)
  kp : float;  (** process transconductance [mu * Cox], A/V^2 *)
  lambda : float;  (** channel-length modulation, 1/V *)
  w : float;  (** channel width, m *)
  l : float;  (** channel length, m *)
  kind : model_kind;
}

val k_strength : params -> float
(** The paper's transistor strength [K = 1/2 * mu * Cox * W / L]
    (footnote 1 of the paper), in A/V^2. *)

val beta : params -> float
(** [kp * w / l], the conventional gain factor (= [2 * k_strength]). *)

val eval_into : params -> float array -> float array -> unit
(** [eval_into p v out] evaluates the channel current and its
    derivatives at the absolute terminal voltages [v = [|vg; vd; vs|]]
    and writes [out.(0) = id] (current into the drain terminal, A),
    [out.(1) = d(id)/d(Vgate)], [out.(2) = d(id)/d(Vdrain)] and
    [out.(3) = d(id)/d(Vsource)] (S).  The body terminal is assumed tied
    to the rail (no body effect, as in the paper's analysis).  Allocates
    nothing. *)

type eval = {
  id : float;  (** current into the drain terminal, A *)
  did_dvg : float;  (** d(id)/d(Vgate), S *)
  did_dvd : float;  (** d(id)/d(Vdrain), S *)
  did_dvs : float;  (** d(id)/d(Vsource), S *)
}

val eval : params -> vg:float -> vd:float -> vs:float -> eval
(** {!eval_into} as a record, for tests and one-off queries. *)

val region : params -> vg:float -> vd:float -> vs:float -> string
(** ["cutoff"], ["linear"] or ["saturation"] — for diagnostics and tests. *)

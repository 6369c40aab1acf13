type polarity = Nmos | Pmos

type model_kind = Shichman_hodges | Alpha_power of float

type params = {
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
  w : float;
  l : float;
  kind : model_kind;
}

let beta p = p.kp *. p.w /. p.l
let k_strength p = 0.5 *. beta p

type eval = {
  id : float;
  did_dvg : float;
  did_dvd : float;
  did_dvs : float;
}

(* Core NMOS-convention current: given vgs, vds >= 0 (already normalized),
   write ids, d/dvgs and d/dvds into [out.(0..2)].  [vt] is the positive
   threshold.  Inlined into {!eval_into}, so its float arguments and
   results never leave registers. *)
let[@inline] nmos_current p vgs vds (out : float array) =
  let vt = (match p.polarity with Nmos -> p.vt0 | Pmos -> -.p.vt0) in
  let vov = vgs -. vt in
  if vov <= 0. then begin
    out.(0) <- 0.;
    out.(1) <- 0.;
    out.(2) <- 0.
  end
  else begin
    let b = beta p in
    let clm = 1. +. (p.lambda *. vds) in
    match p.kind with
    | Shichman_hodges ->
      if vds < vov then begin
        (* linear (triode): Id = b * (vov*vds - vds^2/2) * (1 + lambda vds) *)
        let core = (vov *. vds) -. (0.5 *. vds *. vds) in
        out.(0) <- b *. core *. clm;
        out.(1) <- b *. vds *. clm;
        out.(2) <- (b *. (vov -. vds) *. clm) +. (b *. core *. p.lambda)
      end
      else begin
        (* saturation: Id = (b/2) vov^2 (1 + lambda vds) *)
        out.(0) <- 0.5 *. b *. vov *. vov *. clm;
        out.(1) <- b *. vov *. clm;
        out.(2) <- 0.5 *. b *. vov *. vov *. p.lambda
      end
    | Alpha_power alpha ->
      (* Simplified Sakurai–Newton: Id_sat = (b/2) vov^alpha (1+l vds),
         Vdsat = vov, triode Id = Id_sat0 * (2 - vds/vdsat)(vds/vdsat).
         alpha = 2 recovers Shichman–Hodges exactly. *)
      let idsat0 = 0.5 *. b *. (vov ** alpha) in
      let didsat0_dvgs = 0.5 *. b *. alpha *. (vov ** (alpha -. 1.)) in
      if vds < vov then begin
        let u = vds /. vov in
        let shape = u *. (2. -. u) in
        (* d shape/d vds = (2 - 2u)/vov ; d shape/d vgs via u = vds/vov *)
        let dshape_dvds = (2. -. (2. *. u)) /. vov in
        let dshape_dvgs = (2. *. u *. (u -. 1.)) /. vov in
        out.(0) <- idsat0 *. shape *. clm;
        out.(1) <- ((didsat0_dvgs *. shape) +. (idsat0 *. dshape_dvgs)) *. clm;
        out.(2) <-
          (idsat0 *. dshape_dvds *. clm) +. (idsat0 *. shape *. p.lambda)
      end
      else begin
        out.(0) <- idsat0 *. clm;
        out.(1) <- didsat0_dvgs *. clm;
        out.(2) <- idsat0 *. p.lambda
      end
  end

(* Normalize polarity and diffusion orientation, evaluate, and map the
   derivatives back to absolute terminal voltages. *)
let eval_into p (v : float array) (out : float array) =
  (* Polarity transform: a PMOS behaves as an NMOS with all voltages
     negated (and current direction flipped back at the end). *)
  let pmos = (match p.polarity with Nmos -> false | Pmos -> true) in
  let sgn = if pmos then -1. else 1. in
  let vg = if pmos then -.v.(0) else v.(0) in
  let vd = if pmos then -.v.(1) else v.(1) in
  let vs = if pmos then -.v.(2) else v.(2) in
  (* Diffusion symmetry: if vd < vs the channel conducts in reverse. *)
  let swapped = vd < vs in
  let vd' = if swapped then vs else vd in
  let vs' = if swapped then vd else vs in
  nmos_current p (vg -. vs') (vd' -. vs') out;
  let ids = out.(0) and dvgs = out.(1) and dvds = out.(2) in
  (* In normalized space: Id flows d' -> s'.
     d Id / d vg = dvgs; d Id / d vd' = dvds; d Id / d vs' = -dvgs - dvds.
     When swapped, the actual drain current is -Id (it flowed s' -> d' in
     the actual orientation) and the actual vd is the normalized vs'.
     Undoing the polarity negation: Id_actual = sgn * Id_n(vg_n =
     sgn*vg, ...) => d Id_actual / d v_actual = sgn * dId_n/dv_n * sgn
     = dId_n/dv_n. *)
  let did_dvs'_n = -.dvgs -. dvds in
  if swapped then begin
    out.(0) <- sgn *. -.ids;
    out.(1) <- -.dvgs;
    out.(2) <- -.did_dvs'_n;
    out.(3) <- -.dvds
  end
  else begin
    out.(0) <- sgn *. ids;
    out.(1) <- dvgs;
    out.(2) <- dvds;
    out.(3) <- did_dvs'_n
  end

let eval p ~vg ~vd ~vs =
  let out = Array.make 4 0. in
  eval_into p [| vg; vd; vs |] out;
  { id = out.(0); did_dvg = out.(1); did_dvd = out.(2); did_dvs = out.(3) }

let region p ~vg ~vd ~vs =
  let vg, vd, vs =
    match p.polarity with
    | Nmos -> (vg, vd, vs)
    | Pmos -> (-.vg, -.vd, -.vs)
  in
  let vd', vs' = if vd < vs then (vs, vd) else (vd, vs) in
  let vt = (match p.polarity with Nmos -> p.vt0 | Pmos -> -.p.vt0) in
  let vov = vg -. vs' -. vt in
  let vds = vd' -. vs' in
  if vov <= 0. then "cutoff" else if vds < vov then "linear" else "saturation"

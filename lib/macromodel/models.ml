module Gate = Proxim_gates.Gate
module Measure = Proxim_measure.Measure
module Memo_cache = Proxim_util.Memo_cache

type t = {
  fan_in : int;
  name : string;
  tau_range : (float * float) option;
  cache_stats : unit -> Memo_cache.stats;
  assist : edge:Measure.edge -> first:int -> set:int -> bool;
  delay1 : pin:int -> edge:Measure.edge -> tau:float -> float;
  trans1 : pin:int -> edge:Measure.edge -> tau:float -> float;
  delay2 :
    dom:int ->
    other:int ->
    edge:Measure.edge ->
    tau_dom:float ->
    tau_other:float ->
    sep:float ->
    float;
  trans2 :
    dom:int ->
    other:int ->
    edge:Measure.edge ->
    tau_dom:float ->
    tau_other:float ->
    sep:float ->
    float;
}

let merge_stats (a : Memo_cache.stats) (b : Memo_cache.stats) =
  {
    Memo_cache.hits = a.Memo_cache.hits + b.Memo_cache.hits;
    misses = a.Memo_cache.misses + b.Memo_cache.misses;
    waits = a.Memo_cache.waits + b.Memo_cache.waits;
    evictions = a.Memo_cache.evictions + b.Memo_cache.evictions;
    entries = a.Memo_cache.entries + b.Memo_cache.entries;
  }

(* the [assist] field of a model of [gate]: its table, built once *)
let assist_of gate =
  let table = Gate.assist_table gate in
  fun ~edge ~first ~set ->
    table ~output_rising:(edge = Measure.Fall) ~first ~set

let synthetic ?(seed = 0) ?(work = 0) gate =
  let jitter key =
    (* deterministic per-(gate, seed, key) value in [0, 1) *)
    let h = Hashtbl.hash (gate.Gate.name, seed, key) in
    float_of_int (h land 0xffff) /. 65536.
  in
  let[@inline] spin x =
    (* optional artificial evaluation cost: a pure float loop folded into
       the result at zero weight so it cannot be dead-code eliminated *)
    if work = 0 then x
    else begin
      let acc = ref 1e-3 in
      for i = 1 to work do
        acc := !acc +. (1. /. float_of_int (i + (i mod 7)))
      done;
      x +. (0. *. !acc)
    end
  in
  let assist = assist_of gate in
  let base_of ~pin ~e =
    80e-12
    *. (1. +. (0.09 *. float_of_int pin))
    *. (1. +. (0.12 *. float_of_int e))
    *. (1. +. (0.1 *. (jitter (pin, e) -. 0.5)))
  in
  (* the per-(pin, edge) base delays, tabulated once: a query reads one
     float instead of hashing a boxed key *)
  let fan_in = gate.Gate.fan_in in
  let bases =
    Array.init (2 * fan_in) (fun i -> base_of ~pin:(i / 2) ~e:(i mod 2))
  in
  let[@inline] base ~pin ~edge =
    let e = match edge with Measure.Rise -> 0 | Measure.Fall -> 1 in
    if pin >= 0 && pin < fan_in then Array.unsafe_get bases ((2 * pin) + e)
    else base_of ~pin ~e
  in
  let[@inline] d1 ~pin ~edge ~tau = base ~pin ~edge +. (0.30 *. tau) in
  let[@inline] t1 ~pin ~edge ~tau =
    (1.25 *. base ~pin ~edge) +. (0.55 *. tau)
  in
  let window = 120e-12 in
  let[@inline] strength other tau_other =
    0.35
    *. (1. +. (0.05 *. float_of_int other))
    *. (1. +. (0.1 *. (tau_other /. (tau_other +. window))))
  in
  (* proximity influence of the other input at equivalent separation
     [sep]: for assisting (parallel) inputs it saturates to 1 as the
     other input moves earlier and to 0 as it moves far later; for gating
     (series) inputs it peaks at simultaneity and decays either way *)
  let[@inline] influence ~assist ~sep =
    if assist then 0.5 *. (1. -. tanh (sep /. window))
    else 1. /. (1. +. ((sep /. window) ** 2.))
  in
  (* the dominant input's single-input response, sped up (assisting) or
     slowed down (gating) by the other input's weighted influence *)
  let[@inline] dual single ~weight ~dom ~other ~edge ~tau_dom ~tau_other ~sep
      =
    let assist = assist ~edge ~first:dom ~set:(1 lsl other) in
    let infl = influence ~assist ~sep in
    let k = weight *. strength other tau_other in
    let v = single ~pin:dom ~edge ~tau:tau_dom in
    spin
      (if assist then v *. (1. -. (k *. infl)) else v *. (1. +. (k *. infl)))
  in
  {
    fan_in = gate.Gate.fan_in;
    name = Printf.sprintf "synthetic:%s#%d" gate.Gate.name seed;
    tau_range = None;
    cache_stats = (fun () -> Memo_cache.zero_stats);
    assist;
    delay1 = (fun ~pin ~edge ~tau -> spin (d1 ~pin ~edge ~tau));
    trans1 = (fun ~pin ~edge ~tau -> spin (t1 ~pin ~edge ~tau));
    (* [1. *. x] is exactly [x]: delay2 keeps its unweighted strength.
       Applied in full, so [dual] and its helpers inline into each query
       and only the arguments and the answer are boxed *)
    delay2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        dual d1 ~weight:1. ~dom ~other ~edge ~tau_dom ~tau_other ~sep);
    trans2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        dual t1 ~weight:0.6 ~dom ~other ~edge ~tau_dom ~tau_other ~sep);
  }

let of_oracle ?load gate th =
  let single_cache = Memo_cache.create () in
  let dual_cache = Memo_cache.create () in
  let single ~pin ~edge ~tau =
    Memo_cache.find_or_compute single_cache (pin, edge, tau) (fun () ->
      Measure.single_input ?load gate th ~pin ~edge ~tau)
  in
  let dual ~dom ~other ~edge ~tau_dom ~tau_other ~sep =
    Memo_cache.find_or_compute dual_cache
      (dom, other, edge, tau_dom, tau_other, sep)
      (fun () ->
        Dual.oracle ?load gate th ~dom ~other ~edge ~tau_dom ~tau_other ~sep)
  in
  {
    fan_in = gate.Gate.fan_in;
    name = "oracle:" ^ gate.Gate.name;
    tau_range = None;
    cache_stats =
      (fun () ->
        merge_stats
          (Memo_cache.stats single_cache)
          (Memo_cache.stats dual_cache));
    assist = assist_of gate;
    delay1 = (fun ~pin ~edge ~tau -> (single ~pin ~edge ~tau).Measure.delay);
    trans1 =
      (fun ~pin ~edge ~tau -> (single ~pin ~edge ~tau).Measure.out_transition);
    delay2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        (dual ~dom ~other ~edge ~tau_dom ~tau_other ~sep).Measure.delay);
    trans2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        (dual ~dom ~other ~edge ~tau_dom ~tau_other ~sep)
          .Measure.out_transition);
  }

let of_tables ?taus ?x_tau ?x_sep ?(share_others = false) ?pool gate th =
  let singles = Memo_cache.create () in
  let duals = Memo_cache.create () in
  let single ~pin ~edge =
    Memo_cache.find_or_compute singles (pin, edge) (fun () ->
      Single.build ?taus ?pool gate th ~pin ~edge)
  in
  let dual ~dom ~other ~edge =
    (* with sharing, one representative other pin per dominant pin *)
    let other = if share_others then (if dom = 0 then 1 else 0) else other in
    Memo_cache.find_or_compute duals (dom, other, edge) (fun () ->
      let single_dom = single ~pin:dom ~edge in
      let single_other = single ~pin:other ~edge in
      Dual.build ?x_tau ?x_sep ?pool gate th ~single_dom ~single_other ~other)
  in
  let tau_axis = Option.value taus ~default:Single.default_taus in
  let tau_range =
    if Array.length tau_axis = 0 then None
    else
      Some
        (Array.fold_left min tau_axis.(0) tau_axis,
         Array.fold_left max tau_axis.(0) tau_axis)
  in
  {
    fan_in = gate.Gate.fan_in;
    name = "tables:" ^ gate.Gate.name;
    tau_range;
    cache_stats =
      (fun () ->
        merge_stats (Memo_cache.stats singles) (Memo_cache.stats duals));
    assist = assist_of gate;
    delay1 =
      (fun ~pin ~edge ~tau -> Single.delay (single ~pin ~edge) ~tau);
    trans1 =
      (fun ~pin ~edge ~tau -> Single.out_transition (single ~pin ~edge) ~tau);
    delay2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        Dual.delay (dual ~dom ~other ~edge)
          ~single_dom:(single ~pin:dom ~edge)
          ~single_other:(single ~pin:other ~edge) ~tau_dom ~tau_other ~sep);
    trans2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        Dual.out_transition (dual ~dom ~other ~edge)
          ~single_dom:(single ~pin:dom ~edge)
          ~single_other:(single ~pin:other ~edge) ~tau_dom ~tau_other ~sep);
  }

(* --- sampled interval bounds ------------------------------------------- *)

(* The abstract interpreter ([Proxim_verify]) needs conservative lower and
   upper bounds of each oracle over a box of arguments.  The oracles are
   opaque closures, so we bound by sampling: evaluate on a small grid over
   the box, take the observed min/max, and widen both ends by a fraction
   of the observed spread as a safety margin against curvature between
   sample points.  A degenerate box (every axis a single point) is a
   single evaluation with zero spread, so the bounds are exact — with ±0
   PI windows the interval analysis reproduces the concrete STA. *)

let widen_frac = 0.25

(* grid points over [lo, hi]: the endpoints always, [n] points total when
   the axis has width, plus any [extra] interior landmarks (e.g. sep = 0,
   where the gating influence peaks) *)
let axis ?(extra = []) n (lo, hi) =
  if not (hi > lo) then [ lo ]
  else
    let pts =
      List.init n (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))
    in
    pts @ List.filter (fun x -> lo < x && x < hi) extra

let widen (lo, hi) =
  let m = widen_frac *. (hi -. lo) in
  (lo -. m, hi +. m)

let bounds_over pts f =
  match pts with
  | [] -> invalid_arg "Models.bounds_over: empty sample set"
  | p0 :: rest ->
    let v0 = f p0 in
    widen
      (List.fold_left
         (fun (lo, hi) p ->
           let v = f p in
           (min lo v, max hi v))
         (v0, v0) rest)

let bounds1 oracle ~pin ~edge ~tau =
  bounds_over (axis 5 tau) (fun tau -> oracle ~pin ~edge ~tau)

let delay1_bounds t ~pin ~edge ~tau = bounds1 t.delay1 ~pin ~edge ~tau
let trans1_bounds t ~pin ~edge ~tau = bounds1 t.trans1 ~pin ~edge ~tau

let bounds2 oracle ~dom ~other ~edge ~tau_dom ~tau_other ~sep =
  let taus_d = axis 3 tau_dom in
  let taus_o = axis 3 tau_other in
  let seps = axis ~extra:[ 0. ] 7 sep in
  let pts =
    List.concat_map
      (fun td ->
        List.concat_map
          (fun to_ -> List.map (fun s -> (td, to_, s)) seps)
          taus_o)
      taus_d
  in
  bounds_over pts (fun (tau_dom, tau_other, sep) ->
    oracle ~dom ~other ~edge ~tau_dom ~tau_other ~sep)

let delay2_bounds t ~dom ~other ~edge ~tau_dom ~tau_other ~sep =
  bounds2 t.delay2 ~dom ~other ~edge ~tau_dom ~tau_other ~sep

let trans2_bounds t ~dom ~other ~edge ~tau_dom ~tau_other ~sep =
  bounds2 t.trans2 ~dom ~other ~edge ~tau_dom ~tau_other ~sep

(* --- §6 minimum-separation surrogate ----------------------------------- *)

(* The opposing-edge glitch of paper §6, phrased through the single-input
   oracles.  The starter input's transition begins the output excursion
   after its single-input delay; the ender's transition recovers it after
   its own.  The excursion reaches the measurement threshold only when the
   window between the two responses covers a fraction of the starter's
   output transition time:

     (t_ender + D_ender) - (t_starter + D_starter) >= kappa * T_starter

   so the oriented separation sigma = t_ender - t_starter must reach

     sigma_min = D_starter - D_ender + kappa * T_starter.

   kappa is the threshold fraction of the full output swing the glitch
   must cross; with the measurement thresholds near 25%/75% of Vdd about
   half the starter's transition is needed, so kappa = 0.5.  This is a
   calibrated surrogate, not a simulation: its role is to give synthetic
   models a §6 rule with the right shape and monotonicity.  The interval
   evaluation composes the sampled single-input bounds and applies the
   same spread widening as every other bound here. *)

let kappa_min_sep = 0.5

let min_separation_bounds t ~starter_pin ~starter_edge ~ender_pin
    ~tau_starter ~tau_ender =
  let ender_edge = Proxim_measure.Measure.opposite starter_edge in
  let ds_lo, ds_hi =
    delay1_bounds t ~pin:starter_pin ~edge:starter_edge ~tau:tau_starter
  in
  let de_lo, de_hi =
    delay1_bounds t ~pin:ender_pin ~edge:ender_edge ~tau:tau_ender
  in
  let ts_lo, ts_hi =
    trans1_bounds t ~pin:starter_pin ~edge:starter_edge ~tau:tau_starter
  in
  widen
    ( ds_lo -. de_hi +. (kappa_min_sep *. ts_lo),
      ds_hi -. de_lo +. (kappa_min_sep *. ts_hi) )

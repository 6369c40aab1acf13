module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Gate = Proxim_gates.Gate

type event = {
  pin : int;
  edge : Measure.edge;
  tau : float;
  cross_time : float;
}

type result = {
  ref_pin : int;
  ref_cross : float;
  delay : float;
  out_transition : float;
  used_inputs : int;
}

let check_events events =
  match events with
  | [] -> invalid_arg "Proximity: no input events"
  | first :: rest ->
    if List.exists (fun e -> e.edge <> first.edge) rest then
      invalid_arg "Proximity: mixed edge directions";
    first.edge

type correction = { delay_err : float; trans_err : float }

let no_correction = { delay_err = 0.; trans_err = 0. }

type trans_composition = Additive | Rate_additive

type scratch = {
  key : float array;
  d1 : float array;
  order : int array;
  result : float array;
  mutable dominant : int;
  mutable used : int;
}

let scratch capacity =
  {
    key = Array.make capacity 0.;
    d1 = Array.make capacity 0.;
    order = Array.make capacity 0;
    result = [| 0.; 0. |];
    dominant = 0;
    used = 0;
  }

(* Dominance (§3): the dominant input is the one whose would-be
   single-input output crossing [t_i + Delta_i^(1)] lies closest to the
   combined response.  When the switching transistors assist each other
   (parallel branches in the driving network, e.g. falling NAND inputs or
   rising NOR inputs) the combined response tracks the EARLIEST would-be
   crossing; when they gate each other (a series stack) it waits for the
   LATEST.  Both orderings share the paper's crossover point
   [s_ij = Delta_i^(1) - Delta_j^(1)].

   Each input's Delta^(1) is queried once, here: the key [t + Delta^(1)]
   is also the would-be response a caller reports, and [d1] of the
   dominant input is the fold's [d1_ref].  The order is an insertion
   sort — stable like [List.sort], so ties keep the given order, and
   allocation-free over a fan-in's worth of inputs.  Returns [assist]. *)
let rank (models : Models.t) s ~edge ~n ~pins ~cross ~taus =
  let set = ref 0 in
  for k = 0 to n - 1 do
    let d1 = models.Models.delay1 ~pin:pins.(k) ~edge ~tau:taus.(k) in
    s.d1.(k) <- d1;
    s.key.(k) <- cross.(k) +. d1;
    set := !set lor (1 lsl pins.(k))
  done;
  let assist = models.Models.assist ~edge ~first:pins.(0) ~set:!set in
  for k = 0 to n - 1 do
    let kk = s.key.(k) in
    let j = ref (k - 1) in
    while
      !j >= 0
      &&
      let kj = s.key.(s.order.(!j)) in
      if assist then Float.compare kj kk > 0 else Float.compare kk kj > 0
    do
      s.order.(!j + 1) <- s.order.(!j);
      decr j
    done;
    s.order.(!j + 1) <- k
  done;
  assist

(* Fig 4-1, with the output-transition variant folded into the same loop.
   Per-iteration state:
   - [d_cum] : Delta^(i-1) with respect to y1
   - [t_cum] : tau_out^(i-1)
   - [last_s], [d_before_last]: separation of the last in-window input and
     the cumulative delay at which it was processed (correction weight).

   Windows (§3 end): an input beyond the current cumulative delay cannot
   affect the delay but still shapes the output transition until
   [Delta + tau_out]; an input beyond that is ignored entirely.  For
   gating (series-stack) transitions the window logic is not needed:
   inputs that conducted long before the dominant one yield a dual-model
   ratio of 1 and drop out by saturation. *)
let fold ?(correction = no_correction) ?(trans_composition = Rate_additive)
    (models : Models.t) s ~edge ~n ~pins ~cross ~taus =
  let assist = rank models s ~edge ~n ~pins ~cross ~taus in
  let y1 = s.order.(0) in
  let pin1 = pins.(y1) and cross1 = cross.(y1) and tau1 = taus.(y1) in
  let d1_ref = s.d1.(y1) in
  let t1_ref = models.Models.trans1 ~pin:pin1 ~edge ~tau:tau1 in
  let d_cum = ref d1_ref and t_cum = ref t1_ref and used = ref 1 in
  let last_s = ref 0. and d_before_last = ref d1_ref in
  let i = ref 1 in
  while !i < n do
    let yi = s.order.(!i) in
    let sep = cross.(yi) -. cross1 in
    let in_delay_window = (not assist) || sep < !d_cum in
    let in_trans_window = (not assist) || sep < !d_cum +. !t_cum in
    if not in_trans_window then
      (* inputs are dominance-ordered, so for assisting inputs every
         remaining one is even further out *)
      i := n
    else begin
      (* equivalent waveform (eq 4.3): shift y1 so its single-input
         response crosses the threshold when the cumulative response
         does *)
      let s_star = sep +. d1_ref -. !d_cum in
      let t2 =
        models.Models.trans2 ~dom:pin1 ~other:pins.(yi) ~edge ~tau_dom:tau1
          ~tau_other:taus.(yi) ~sep:s_star
      in
      let t_cum' =
        match trans_composition with
        | Additive -> !t_cum +. (t2 -. t1_ref)
        | Rate_additive ->
          1. /. ((1. /. !t_cum) +. (1. /. t2) -. (1. /. t1_ref))
      in
      if in_delay_window then begin
        let d2 =
          models.Models.delay2 ~dom:pin1 ~other:pins.(yi) ~edge ~tau_dom:tau1
            ~tau_other:taus.(yi) ~sep:s_star
        in
        d_before_last := !d_cum;
        d_cum := !d_cum +. (d2 -. d1_ref);
        last_s := sep
      end;
      t_cum := t_cum';
      incr used;
      incr i
    end
  done;
  (* correction term (§4): full weight for a simultaneous(-or-earlier)
     last in-window input, linear decay to zero as its separation
     approaches the cumulative delay.  For gating (series) transitions
     the decay is applied to |s| (the failure mode is simultaneity,
     approached from the other side). *)
  let weight =
    if !used < 2 || !d_before_last <= 0. then 0.
    else if assist then begin
      if !last_s <= 0. then 1.
      else if !last_s >= !d_before_last then 0.
      else 1. -. (!last_s /. !d_before_last)
    end
    else begin
      let mag = Float.abs !last_s in
      if mag >= !d_before_last then 0. else 1. -. (mag /. !d_before_last)
    end
  in
  s.dominant <- y1;
  s.used <- !used;
  s.result.(0) <- !d_cum +. (weight *. correction.delay_err);
  s.result.(1) <- !t_cum +. (weight *. correction.trans_err)

(* the list entry points: one event array each, through the same kernel *)
let arrays events =
  let evs = Array.of_list events in
  ( evs,
    Array.map (fun e -> e.pin) evs,
    Array.map (fun e -> e.cross_time) evs,
    Array.map (fun e -> e.tau) evs )

let dominance_order (models : Models.t) events =
  let edge = check_events events in
  let evs, pins, cross, taus = arrays events in
  let n = Array.length evs in
  let s = scratch n in
  ignore (rank models s ~edge ~n ~pins ~cross ~taus : bool);
  List.init n (fun i -> evs.(s.order.(i)))

let evaluate ?correction ?trans_composition (models : Models.t) events =
  let edge = check_events events in
  let evs, pins, cross, taus = arrays events in
  let n = Array.length evs in
  let s = scratch n in
  fold ?correction ?trans_composition models s ~edge ~n ~pins ~cross ~taus;
  {
    ref_pin = pins.(s.dominant);
    ref_cross = cross.(s.dominant);
    delay = s.result.(0);
    out_transition = s.result.(1);
    used_inputs = s.used;
  }

let golden gate th events ~ref_pin =
  let stimuli =
    List.map
      (fun e ->
        ( e.pin,
          { Measure.edge = e.edge; tau = e.tau; cross_time = e.cross_time } ))
      events
  in
  Measure.multi_input gate th ~stimuli ~ref_pin

let calibrate_correction gate th models ~edge =
  let tau_step = 20e-12 in
  let fan_in = gate.Gate.fan_in in
  let cross_time = tau_step +. 0.3e-9 in
  let events =
    List.init fan_in (fun pin -> { pin; edge; tau = tau_step; cross_time })
  in
  let predicted = evaluate models events in
  let golden = golden gate th events ~ref_pin:predicted.ref_pin in
  {
    delay_err = golden.Measure.delay -. predicted.delay;
    trans_err = golden.Measure.out_transition -. predicted.out_transition;
  }

module Pwl = Proxim_waveform.Pwl
module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Rootfind = Proxim_util.Rootfind

type glitch = { v_extreme : float; t_extreme : float; full_swing : bool }

(* Boolean resting level of the output before either input moves: the
   fall pin still high, the rise pin still low, every other pin at its
   non-controlling level.  The gate is a monotone series/parallel
   pull-down, so one 2-valued evaluation decides the glitch polarity:
   resting high (NAND-like) means a negative-going glitch measured
   against Vil; resting low (NOR-like) a positive-going one against
   Vih. *)
let rests_high gate th ~fall_pin ~rise_pin =
  let base = Gate.noncontrolling_sensitization gate ~pin:fall_pin in
  let level p =
    if p = fall_pin then true
    else if p = rise_pin then false
    else base.(p) > th.Vtc.vdd /. 2.
  in
  not (Gate.network_conducts gate.Gate.pulldown ~on:level)

let glitch ?load gate th ~fall_pin ~rise_pin ~tau_fall ~tau_rise ~sep =
  if fall_pin = rise_pin then invalid_arg "Inertial.glitch: same pin";
  let margin = 0.3e-9 in
  let t_fall =
    margin +. tau_fall +. Float.max 0. (tau_rise -. sep)
  in
  let t_rise = t_fall +. sep in
  let fall_stim = { Measure.edge = Measure.Fall; tau = tau_fall; cross_time = t_fall } in
  let rise_stim = { Measure.edge = Measure.Rise; tau = tau_rise; cross_time = t_rise } in
  let base = Gate.noncontrolling_sensitization gate ~pin:fall_pin in
  let inputs =
    Array.init gate.Gate.fan_in (fun p ->
      if p = fall_pin then Measure.ramp_of_stimulus th fall_stim
      else if p = rise_pin then Measure.ramp_of_stimulus th rise_stim
      else Pwl.constant base.(p))
  in
  let run = Measure.simulate ?load gate ~inputs in
  let out = run.Measure.out_wave in
  let lo = Pwl.start_time out and hi = Pwl.end_time out in
  if rests_high gate th ~fall_pin ~rise_pin then begin
    let t_extreme, v_extreme = Pwl.extremum out ~lo ~hi in
    { v_extreme; t_extreme; full_swing = v_extreme <= th.Vtc.vil }
  end
  else begin
    let t_extreme, v_extreme = Pwl.maximum out ~lo ~hi in
    { v_extreme; t_extreme; full_swing = v_extreme >= th.Vtc.vih }
  end

let minimum_valid_separation ?load gate th ~fall_pin ~rise_pin ~tau_fall
    ~tau_rise =
  let high = rests_high gate th ~fall_pin ~rise_pin in
  let f sep =
    let g = glitch ?load gate th ~fall_pin ~rise_pin ~tau_fall ~tau_rise ~sep in
    (* signed glitch-magnitude shortfall: negative once the extreme has
       passed the measurement threshold (the transition completed) *)
    if high then g.v_extreme -. th.Vtc.vil else th.Vtc.vih -. g.v_extreme
  in
  let lo, hi = if high then (-3e-9, 1e-9) else (-1e-9, 3e-9) in
  match Rootfind.bisect ~tol:1e-13 ~f lo hi with
  | root -> root
  | exception Rootfind.No_bracket ->
    failwith
      "Inertial.minimum_valid_separation: glitch never crosses the \
       measurement threshold in the search window"

module Pwl = Proxim_waveform.Pwl
module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Transient = Proxim_spice.Transient

type edge = Rise | Fall

let opposite = function Rise -> Fall | Fall -> Rise

let edge_name = function Rise -> "rise" | Fall -> "fall"

let edge_of_name = function
  | "rise" -> Some Rise
  | "fall" -> Some Fall
  | _ -> None

type stimulus = { edge : edge; tau : float; cross_time : float }

let input_threshold (th : Vtc.thresholds) = function
  | Rise -> th.Vtc.vil
  | Fall -> th.Vtc.vih

exception Unsimulatable of string

let () =
  Printexc.register_printer (function
    | Unsimulatable m -> Some ("Measure.Unsimulatable: " ^ m)
    | _ -> None)

let unsimulatable fmt = Printf.ksprintf (fun m -> raise (Unsimulatable m)) fmt

(* The golden simulator's input domain.  A ramp narrower than 1 fs may
   have no two distinct breakpoints near its crossing time, and the
   transient's stop time follows the last input: a run to 5-10 us
   already takes about a second, and the cost grows with the span. *)
let min_slew = 1e-15
let max_input_end = 10e-6

let ramp_of_stimulus (th : Vtc.thresholds) { edge; tau; cross_time } =
  if not (tau >= min_slew) then
    unsimulatable "slew %g s is below the simulator's 1 fs floor" tau;
  let vdd = th.Vtc.vdd in
  let frac, v_from, v_to =
    match edge with
    | Rise -> (th.Vtc.vil /. vdd, 0., vdd)
    | Fall -> ((vdd -. th.Vtc.vih) /. vdd, vdd, 0.)
  in
  let t0 = cross_time -. (frac *. tau) in
  if not (Float.is_finite t0 && t0 +. tau <= max_input_end) then
    unsimulatable "an input ending at %g s runs past the simulator's 10 us bound"
      (t0 +. tau);
  Pwl.ramp ~t0 ~width:tau ~v_from ~v_to

let input_cross_time (th : Vtc.thresholds) wave edge =
  match edge with
  | Rise -> Pwl.first_crossing ~direction:Pwl.Rising wave th.Vtc.vil
  | Fall -> Pwl.first_crossing ~direction:Pwl.Falling wave th.Vtc.vih

let separation th ~i:(wi, ei) ~j:(wj, ej) =
  match (input_cross_time th wi ei, input_cross_time th wj ej) with
  | Some ti, Some tj -> Some (tj -. ti)
  | None, _ | _, None -> None

let output_delay th ~input_edge ~input_cross ~output =
  let crossing =
    match input_edge with
    | Rise -> Pwl.first_crossing ~direction:Pwl.Falling output th.Vtc.vih
    | Fall -> Pwl.first_crossing ~direction:Pwl.Rising output th.Vtc.vil
  in
  Option.map (fun t -> t -. input_cross) crossing

let output_transition_time th ~output_edge ~output =
  match output_edge with
  | Rise -> Pwl.transition_time output ~v_start:th.Vtc.vil ~v_end:th.Vtc.vih
  | Fall -> Pwl.transition_time output ~v_start:th.Vtc.vih ~v_end:th.Vtc.vil

type run = {
  instance : Gate.instance;
  result : Transient.result;
  out_wave : Pwl.t;
  in_waves : Pwl.t array;
}

let settle_margin = 3e-9

let simulate ?load ?t_stop gate ~inputs =
  let t_stop =
    match t_stop with
    | Some t -> t
    | None ->
      let latest =
        Array.fold_left
          (fun acc w -> Float.max acc (Pwl.end_time w))
          0. inputs
      in
      latest +. settle_margin
  in
  let instance = Gate.instantiate ?load gate ~inputs in
  let result = Transient.run instance.Gate.net ~t_stop in
  let out_wave = Transient.probe result instance.Gate.out in
  let in_waves =
    Array.map (fun node -> Transient.probe result node) instance.Gate.input_nodes
  in
  { instance; result; out_wave; in_waves }

type observation = { delay : float; out_transition : float }

let observe th ~run ~ref_edge ~ref_cross =
  let output = run.out_wave in
  let delay = output_delay th ~input_edge:ref_edge ~input_cross:ref_cross ~output in
  let out_transition =
    output_transition_time th ~output_edge:(opposite ref_edge) ~output
  in
  match (delay, out_transition) with
  | Some d, Some t -> { delay = d; out_transition = t }
  | None, _ -> unsimulatable "output never crossed the delay threshold"
  | _, None -> unsimulatable "output never completed its transition"

let stimuli_waves gate th ~stimuli =
  let fan_in = gate.Gate.fan_in in
  let switching = List.map fst stimuli in
  (match switching with
   | [] -> invalid_arg "Measure: no switching input"
   | pin :: _ -> ignore pin);
  List.iter
    (fun p ->
      if p < 0 || p >= fan_in then invalid_arg "Measure: pin out of range")
    switching;
  let base =
    match switching with
    | pin :: _ -> Gate.noncontrolling_sensitization gate ~pin
    | [] -> assert false
  in
  Array.init fan_in (fun p ->
    match List.assoc_opt p stimuli with
    | Some stim -> ramp_of_stimulus th stim
    | None -> Pwl.constant base.(p))

let multi_input ?load gate th ~stimuli ~ref_pin =
  let ref_stim =
    match List.assoc_opt ref_pin stimuli with
    | Some s -> s
    | None -> invalid_arg "Measure.multi_input: ref_pin not in stimuli"
  in
  (match stimuli with
   | [] -> invalid_arg "Measure.multi_input: empty stimuli"
   | (_, first) :: rest ->
     if List.exists (fun (_, s) -> s.edge <> first.edge) rest then
       invalid_arg "Measure.multi_input: mixed edge directions");
  let inputs = stimuli_waves gate th ~stimuli in
  let run = simulate ?load gate ~inputs in
  observe th ~run ~ref_edge:ref_stim.edge ~ref_cross:ref_stim.cross_time

let single_input ?load gate th ~pin ~edge ~tau =
  let cross_time = tau +. 0.2e-9 in
  multi_input ?load gate th
    ~stimuli:[ (pin, { edge; tau; cross_time }) ]
    ~ref_pin:pin

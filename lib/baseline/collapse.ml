module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Proximity = Proxim_core.Proximity

type variant = Jun | Nabavi_lishi

type failure = Never_switched | Transition_incomplete

exception Prediction_failed of { gate : string; failure : failure }

let failure_message ~gate = function
  | Never_switched ->
    Printf.sprintf
      "Collapse.predict: equivalent inverter for %s never switched" gate
  | Transition_incomplete ->
    Printf.sprintf
      "Collapse.predict: output transition of the %s equivalent inverter is \
       incomplete"
      gate

let () =
  Printexc.register_printer (function
    | Prediction_failed { gate; failure } -> Some (failure_message ~gate failure)
    | _ -> None)

type prediction = {
  out_cross : float;
  out_transition : float;
  wn_eq : float;
  wp_eq : float;
  ref_pin : int;
}

(* Series/parallel width reduction.  [conducts pin] decides whether a
   transistor participates; its width is [w]. *)
let rec reduce_width nw ~conducts ~w =
  match nw with
  | Gate.Pin p -> if conducts p then w else 0.
  | Gate.Parallel l ->
    List.fold_left (fun acc child -> acc +. reduce_width child ~conducts ~w) 0. l
  | Gate.Series l ->
    let inverse_sum =
      List.fold_left
        (fun acc child ->
          match acc with
          | None -> None
          | Some s ->
            let weq = reduce_width child ~conducts ~w in
            if weq <= 0. then None else Some (s +. (1. /. weq)))
        (Some 0.) l
    in
    (match inverse_sum with
     | None | Some 0. -> 0.
     | Some s -> 1. /. s)

let equivalent_widths gate ~switching ~edge =
  let tech = gate.Gate.tech in
  let vdd = tech.Tech.vdd in
  let base =
    match switching with
    | pin :: _ -> Gate.noncontrolling_sensitization gate ~pin
    | [] -> invalid_arg "Collapse.equivalent_widths: no switching input"
  in
  ignore edge;
  let is_switching p = List.mem p switching in
  let nmos_conducts p = is_switching p || base.(p) > vdd /. 2. in
  let pmos_conducts p = is_switching p || base.(p) < vdd /. 2. in
  let pulldown = gate.Gate.pulldown in
  let pullup = Gate.dual pulldown in
  let wn_eq = reduce_width pulldown ~conducts:nmos_conducts ~w:gate.Gate.wn in
  let wp_eq = reduce_width pullup ~conducts:pmos_conducts ~w:gate.Gate.wp in
  (* degenerate reductions (a blocked network) fall back to a minimum-size
     device so the equivalent inverter stays simulatable *)
  let floor_w = 0.05 *. Float.min gate.Gate.wn gate.Gate.wp in
  (Float.max wn_eq floor_w, Float.max wp_eq floor_w)

let equivalent_event variant gate ~switching ~edge
    ~(events : Proximity.event list) =
  (* do the switching transistors assist each other (parallel: one
     suffices) or gate each other (series: all required) in the network
     that drives the output for this edge? *)
  let assist =
    Gate.switching_assist gate ~pins:switching
      ~output_rising:(edge = Measure.Fall)
  in
  (* the critical input: earliest crossing when the switching transistors
     assist each other, latest when they gate each other — the input the
     equivalent-inverter response is referenced to *)
  let pick better =
    match events with
    | [] -> assert false
    | first :: rest ->
      List.fold_left
        (fun (acc : Proximity.event) (e : Proximity.event) ->
          if better e.Proximity.cross_time acc.Proximity.cross_time then e
          else acc)
        first rest
  in
  let critical = if assist then pick ( < ) else pick ( > ) in
  match variant with
  | Jun ->
    (* the critical input alone defines the waveform *)
    (critical.Proximity.tau, critical.Proximity.cross_time,
     critical.Proximity.pin)
  | Nabavi_lishi ->
    (* blend the switching inputs: average transition time, crossing
       weighted by slew rate (faster inputs contribute current sooner) *)
    let n = float_of_int (List.length events) in
    let tau_eq =
      List.fold_left (fun acc (e : Proximity.event) -> acc +. e.Proximity.tau)
        0. events
      /. n
    in
    let wsum, twsum =
      List.fold_left
        (fun (ws, ts) (e : Proximity.event) ->
          let w = 1. /. e.Proximity.tau in
          (ws +. w, ts +. (w *. e.Proximity.cross_time)))
        (0., 0.) events
    in
    (tau_eq, twsum /. wsum, critical.Proximity.pin)

let predict ?opts ?load variant gate th ~events =
  let edge =
    match events with
    | [] -> invalid_arg "Collapse.predict: no events"
    | (first : Proximity.event) :: rest ->
      if List.exists (fun (e : Proximity.event) -> e.Proximity.edge <> first.Proximity.edge) rest
      then invalid_arg "Collapse.predict: mixed edges";
      first.Proximity.edge
  in
  let switching = List.map (fun (e : Proximity.event) -> e.Proximity.pin) events in
  let wn_eq, wp_eq = equivalent_widths gate ~switching ~edge in
  let tau_eq, cross_eq, ref_pin =
    equivalent_event variant gate ~switching ~edge ~events
  in
  let load = match load with Some l -> l | None -> gate.Gate.load in
  let inv = Gate.inverter ~wn:wn_eq ~wp:wp_eq ~load gate.Gate.tech in
  let stim = { Measure.edge; tau = tau_eq; cross_time = cross_eq } in
  (* keep the ramp start positive by shifting the whole experiment and
     subtracting the shift from the result *)
  let shift = Float.max 0. (tau_eq +. 0.2e-9 -. cross_eq) in
  let stim = { stim with Measure.cross_time = cross_eq +. shift } in
  let wave = Measure.ramp_of_stimulus th stim in
  let run = Measure.simulate ?opts inv ~inputs:[| wave |] in
  let out = run.Measure.out_wave in
  let out_cross =
    match
      Measure.output_delay th ~input_edge:edge ~input_cross:0. ~output:out
    with
    | Some t -> t -. shift
    | None ->
      raise
        (Prediction_failed
           { gate = gate.Gate.name; failure = Never_switched })
  in
  let out_transition =
    match
      Measure.output_transition_time th ~output_edge:(Measure.opposite edge)
        ~output:out
    with
    | Some t -> t
    | None ->
      raise
        (Prediction_failed
           { gate = gate.Gate.name; failure = Transition_incomplete })
  in
  { out_cross; out_transition; wn_eq; wp_eq; ref_pin }

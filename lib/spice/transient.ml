module Netlist = Proxim_circuit.Netlist
module Pwl = Proxim_waveform.Pwl

type result = {
  times : float array;
  node_voltages : float array array;
  accepted_steps : int;
  rejected_steps : int;
  newton_iterations : int;
}

exception No_convergence of string

(* Union of all source-waveform knots inside (0, t_stop), sorted. *)
let breakpoints sys ~t_stop ~overridden =
  let times = ref [] in
  for k = 0 to Mna.source_count sys - 1 do
    if not overridden.(k) then
      Array.iter
        (fun (t, _) -> if t > 0. && t < t_stop then times := t :: !times)
        (Pwl.points (Mna.source_wave sys k))
  done;
  let arr = Array.of_list (t_stop :: !times) in
  Array.sort compare arr;
  (* drop near-duplicates to keep steps well conditioned *)
  let out = ref [] in
  Array.iter
    (fun t ->
      match !out with
      | prev :: _ when t -. prev < 1e-16 -> ()
      | _ -> out := t :: !out)
    arr;
  Array.of_list (List.rev !out)

let run ?(opts = Options.default) ?(overrides = []) net ~t_stop =
  assert (t_stop > 0.);
  let sys = Mna.build net in
  let n = Mna.size sys in
  let nv = Mna.node_unknowns sys in
  let names = Mna.source_names sys in
  let override_value =
    Array.map (fun name -> List.assoc_opt name overrides) names
  in
  let sv = Array.make (Mna.source_count sys) 0. in
  let source_values_at t =
    Array.iteri
      (fun k ov ->
        sv.(k) <-
          (match ov with
           | Some v -> v
           | None -> Pwl.value (Mna.source_wave sys k) t))
      override_value
  in
  (* initial condition: DC at t = 0 *)
  source_values_at 0.;
  let dc_overrides =
    Array.to_list (Array.mapi (fun k name -> (name, sv.(k))) names)
  in
  let op = Dc.operating_point ~opts ~overrides:dc_overrides net in
  let x = Array.copy op.Dc.raw in
  assert (Array.length x = n);
  (* one workspace, one trial iterate and one pair of companion planes
     for every step *)
  let ws = Mna.workspace sys in
  let x_try = Array.make n 0. in
  let comps = Mna.companions sys in
  let companions = Some comps in
  let n_caps = Mna.cap_count sys in
  let cap_i = Array.make n_caps 0. in
  (* trapezoidal needs the capacitor current at the old time point; at the
     DC point it is zero by definition *)
  let cap_v = Array.make n_caps 0. and v_new = Array.make n_caps 0. in
  Mna.cap_voltages sys ~x cap_v;
  let cap_farads =
    (* recover C from companion construction: stash from the netlist *)
    let farads = ref [] in
    Array.iter
      (fun d ->
        match d with
        | Netlist.Capacitor { farads = f; _ } -> farads := f :: !farads
        | Netlist.Mosfet _ | Netlist.Resistor _ | Netlist.Vsource _ -> ())
      net.Netlist.devices;
    Array.of_list (List.rev !farads)
  in
  assert (Array.length cap_farads = n_caps);
  let bps = breakpoints sys ~t_stop ~overridden:(Array.map Option.is_some override_value) in
  let times_acc = ref [ 0. ] in
  let states_acc = ref [ Array.copy x ] in
  let accepted = ref 0 and rejected = ref 0 and newton_total = ref 0 in
  let t = ref 0. in
  let h = ref (Float.min opts.Options.h_max (t_stop /. 1000.)) in
  let bp_index = ref 0 in
  (* first step after a breakpoint (or t=0) integrates with backward Euler
     to avoid trapezoidal ringing on slope discontinuities *)
  let force_be = ref true in
  while !t < t_stop -. 1e-18 do
    (* clamp the step to the next breakpoint *)
    while !bp_index < Array.length bps && bps.(!bp_index) <= !t +. 1e-18 do
      incr bp_index
    done;
    let next_bp = if !bp_index < Array.length bps then bps.(!bp_index) else t_stop in
    let h_try = Float.min !h (next_bp -. !t) in
    let h_try = Float.max h_try opts.Options.h_min in
    let use_trap =
      (not !force_be) && opts.Options.integration = Options.Trapezoidal
    in
    for k = 0 to n_caps - 1 do
      let c = cap_farads.(k) in
      if use_trap then begin
        let geq = 2. *. c /. h_try in
        comps.Mna.geq.(k) <- geq;
        comps.Mna.ieq.(k) <- (geq *. cap_v.(k)) +. cap_i.(k)
      end
      else begin
        let geq = c /. h_try in
        comps.Mna.geq.(k) <- geq;
        comps.Mna.ieq.(k) <- geq *. cap_v.(k)
      end
    done;
    let t_new = !t +. h_try in
    source_values_at t_new;
    Array.blit x 0 x_try 0 n;
    let outcome =
      Newton.solve sys ws ~opts ~gmin:opts.Options.gmin ~source_values:sv
        ~companions ~x:x_try
    in
    let max_dv = ref 0. in
    for i = 0 to nv - 1 do
      max_dv := Float.max !max_dv (Float.abs (x_try.(i) -. x.(i)))
    done;
    let max_dv = !max_dv in
    let step_ok =
      match outcome with
      | Newton.Converged _ ->
        max_dv <= opts.Options.dv_step_target || h_try <= opts.Options.h_min *. 1.01
      | Newton.Diverged _ -> false
    in
    if step_ok then begin
      (match outcome with
       | Newton.Converged k -> newton_total := !newton_total + k
       | Newton.Diverged _ -> ());
      (* update capacitor companion state *)
      Mna.cap_voltages sys ~x:x_try v_new;
      for k = 0 to n_caps - 1 do
        cap_i.(k) <- (comps.Mna.geq.(k) *. v_new.(k)) -. comps.Mna.ieq.(k);
        cap_v.(k) <- v_new.(k)
      done;
      Array.blit x_try 0 x 0 n;
      t := t_new;
      incr accepted;
      times_acc := !t :: !times_acc;
      states_acc := Array.copy x :: !states_acc;
      force_be := Float.abs (t_new -. next_bp) < 1e-18 && t_new < t_stop;
      (* grow the step when the solution barely moved *)
      if max_dv < 0.3 *. opts.Options.dv_step_target then
        h := Float.min opts.Options.h_max (!h *. 1.6)
    end
    else begin
      incr rejected;
      if h_try <= opts.Options.h_min *. 1.01 then begin
        let reason =
          match outcome with
          | Newton.Converged _ ->
            Printf.sprintf "dv %.3g V exceeds target" max_dv
          | Newton.Diverged m -> m
        in
        raise
          (No_convergence
             (Printf.sprintf
                "transient: step underflow at t = %.6g s (h = %.3g s): %s" !t
                h_try reason))
      end;
      h := Float.max opts.Options.h_min (h_try *. 0.4)
    end
  done;
  let times = Array.of_list (List.rev !times_acc) in
  let states = Array.of_list (List.rev !states_acc) in
  let node_voltages =
    Array.init net.Netlist.node_count (fun node ->
      let trace = Array.make (Array.length states) 0. in
      if node > 0 then
        Array.iteri
          (fun i (st : float array) -> trace.(i) <- st.(node - 1))
          states;
      trace)
  in
  {
    times;
    node_voltages;
    accepted_steps = !accepted;
    rejected_steps = !rejected;
    newton_iterations = !newton_total;
  }

let probe result node =
  Pwl.of_samples ~times:result.times ~values:result.node_voltages.(node)

let probe_named net result name = probe result (Netlist.find_node net name)

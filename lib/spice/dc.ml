module Pwl = Proxim_waveform.Pwl

type solution = {
  voltages : float array;
  branch_currents : float array;
  raw : float array;
  newton_iterations : int;
}

exception No_convergence of string

let base_source_values sys overrides =
  let names = Mna.source_names sys in
  Array.mapi
    (fun k name ->
      match List.assoc_opt name overrides with
      | Some v -> v
      | None -> Pwl.value (Mna.source_wave sys k) 0.)
    names

let make_solution sys x iterations =
  let nv = Mna.node_unknowns sys in
  let voltages = Array.make (nv + 1) 0. in
  Array.blit x 0 voltages 1 nv;
  {
    voltages;
    branch_currents = Array.sub x nv (Mna.source_count sys);
    raw = Array.copy x;
    newton_iterations = iterations;
  }

(* Continuation ladder: plain Newton from the seed in [x]; then gmin
   stepping (start with a heavily damped circuit and relax); then source
   stepping (grow the EMFs from 0).  Each rung reuses the best iterate
   found so far.  [x] holds the solution on return; the result is the
   final Newton iteration count. *)
let solve sys ws ~opts ~source_values x =
  let n = Mna.size sys in
  let attempt ~gmin ~sv =
    Newton.solve sys ws ~opts ~gmin ~source_values:sv ~companions:None ~x
  in
  match attempt ~gmin:opts.Options.gmin ~sv:source_values with
  | Newton.Converged k -> k
  | Newton.Diverged _ ->
    (* gmin stepping *)
    Array.fill x 0 n 0.;
    let gmin_ladder = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10; opts.Options.gmin ] in
    let gmin_ok =
      List.for_all
        (fun g ->
          match attempt ~gmin:g ~sv:source_values with
          | Newton.Converged _ -> true
          | Newton.Diverged _ -> false)
        gmin_ladder
    in
    if gmin_ok then
      match attempt ~gmin:opts.Options.gmin ~sv:source_values with
      | Newton.Converged k -> k
      | Newton.Diverged msg -> raise (No_convergence msg)
    else begin
      (* source stepping *)
      Array.fill x 0 n 0.;
      let steps = 20 in
      let ok = ref true in
      for s = 1 to steps do
        if !ok then begin
          let alpha = float_of_int s /. float_of_int steps in
          let sv = Array.map (fun v -> alpha *. v) source_values in
          match attempt ~gmin:opts.Options.gmin ~sv with
          | Newton.Converged _ -> ()
          | Newton.Diverged _ -> ok := false
        end
      done;
      if !ok then
        match attempt ~gmin:opts.Options.gmin ~sv:source_values with
        | Newton.Converged k -> k
        | Newton.Diverged msg -> raise (No_convergence msg)
      else raise (No_convergence "dc: all continuation strategies failed")
    end

let operating_point ?(opts = Options.default) ?(overrides = []) ?seed net =
  let sys = Mna.build net in
  let n = Mna.size sys in
  let source_values = base_source_values sys overrides in
  let x =
    match seed with
    | Some s when Array.length s = n -> Array.copy s
    | Some _ | None -> Array.make n 0.
  in
  let k = solve sys (Mna.workspace sys) ~opts ~source_values x in
  make_solution sys x k

(* One system, one workspace and one iterate for the whole sweep: each
   point is seeded with the previous one's solution (continuation). *)
let sweep_many ?(opts = Options.default) ?(overrides = []) net ~sources ~values
    =
  let sys = Mna.build net in
  let names = Mna.source_names sys in
  List.iter
    (fun s ->
      if not (Array.mem s names) then
        invalid_arg ("Dc.sweep: unknown source " ^ s))
    sources;
  let swept = Array.map (fun name -> List.mem name sources) names in
  let source_values = base_source_values sys overrides in
  let ws = Mna.workspace sys in
  let x = Array.make (Mna.size sys) 0. in
  Array.map
    (fun v ->
      Array.iteri (fun k s -> if s then source_values.(k) <- v) swept;
      make_solution sys x (solve sys ws ~opts ~source_values x))
    values

let sweep ?opts ?overrides net ~source ~values =
  sweep_many ?opts ?overrides net ~sources:[ source ] ~values

module Linalg = Proxim_util.Linalg

type outcome = Converged of int | Diverged of string

let solve sys (ws : Mna.workspace) ~opts ~gmin ~source_values ~companions ~x =
  let n = Mna.size sys and nv = Mna.node_unknowns sys in
  let jac = ws.Mna.jac and res = ws.Mna.res and rhs = ws.Mna.rhs
  and dx = ws.Mna.dx and perm = ws.Mna.perm in
  let rec iterate k =
    if k > opts.Options.newton_max_iter then
      Diverged "newton: iteration limit"
    else begin
      Mna.assemble sys ws ~x ~gmin ~source_values ~companions;
      for i = 0 to n - 1 do
        rhs.(i) <- -.res.(i)
      done;
      match Linalg.lu_factor jac ~perm with
      | exception Linalg.Singular -> Diverged "newton: singular jacobian"
      | () ->
        Linalg.lu_back_substitute jac ~perm rhs ~x:dx;
        let dx_norm = Linalg.norm_inf dx in
        if not (Float.is_finite dx_norm) then
          Diverged "newton: non-finite update"
        else begin
          (* Damp only the node-voltage components; branch currents may
             legitimately jump by many amps-equivalents in one step. *)
          let v_norm = ref 0. in
          for i = 0 to nv - 1 do
            v_norm := Float.max !v_norm (Float.abs dx.(i))
          done;
          let scale =
            if !v_norm > opts.Options.newton_dv_limit then
              opts.Options.newton_dv_limit /. !v_norm
            else 1.
          in
          for i = 0 to n - 1 do
            x.(i) <- x.(i) +. (scale *. dx.(i))
          done;
          let res_norm = Linalg.norm_inf res in
          if
            scale = 1.
            && !v_norm < opts.Options.newton_tol_v
            && res_norm < opts.Options.newton_tol_i
          then Converged k
          else iterate (k + 1)
        end
    end
  in
  iterate 1

module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Single = Proxim_macromodel.Single
module Dual = Proxim_macromodel.Dual
module Store = Proxim_macromodel.Store
module Interp = Proxim_util.Interp

let subset_name subset =
  "{" ^ String.concat "" (List.map Gate.pin_name subset) ^ "}"

(* --- threshold sets (§2) --------------------------------------------- *)

let check_thresholds ?file ?line ?(curves = []) ~name (th : Vtc.thresholds) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let mk ?severity ?context code fmt =
    Diagnostic.make ?severity ?file ?line ?context code fmt
  in
  (* PX003: the ordering every measurement assumes *)
  if
    not
      (Float.is_finite th.Vtc.vil && Float.is_finite th.Vtc.vih
      && Float.is_finite th.Vtc.vdd && th.Vtc.vdd > 0. && th.Vtc.vil >= 0.
      && th.Vtc.vil < th.Vtc.vih && th.Vtc.vih <= th.Vtc.vdd)
  then
    add
      (mk ~context:name PX003
         "threshold set %s breaks the ordering 0 <= Vil < Vih <= Vdd"
         (Format.asprintf "%a" Vtc.pp_thresholds th));
  let eps = 1e-9 *. Float.max 1. (Float.abs th.Vtc.vdd) in
  (match curves with
   | [] ->
     (* no VTC family available: estimate each curve's Vm by the only
        value knowable statically, Vdd/2, and apply the §2 guard to it *)
     let vm_est = th.Vtc.vdd /. 2. in
     if not (th.Vtc.vil < vm_est && vm_est < th.Vtc.vih) then
       add
         (mk ~context:name PX001
            "negative-delay hazard: estimated switching threshold Vm = Vdd/2 \
             = %.3f V is not strictly inside (Vil = %.3f V, Vih = %.3f V) — \
             delays measured with this set can be negative (paper §2)"
            vm_est th.Vtc.vil th.Vtc.vih)
   | curves ->
     (* PX002: the set must be at least as wide as the family extremes *)
     let min_vil =
       List.fold_left
         (fun acc (c : Vtc.curve) -> Float.min acc c.Vtc.vil)
         Float.infinity curves
     in
     let max_vih =
       List.fold_left
         (fun acc (c : Vtc.curve) -> Float.max acc c.Vtc.vih)
         Float.neg_infinity curves
     in
     if th.Vtc.vil > min_vil +. eps then
       add
         (mk ~context:name PX002
            "Vil = %.3f V is above the family minimum %.3f V — the §2 rule \
             takes min Vil over all 2^n-1 VTCs"
            th.Vtc.vil min_vil);
     if th.Vtc.vih < max_vih -. eps then
       add
         (mk ~context:name PX002
            "Vih = %.3f V is below the family maximum %.3f V — the §2 rule \
             takes max Vih over all 2^n-1 VTCs"
            th.Vtc.vih max_vih);
     List.iter
       (fun (c : Vtc.curve) ->
         let sub = subset_name c.Vtc.subset in
         (* PX004: collapsed unity-gain points make Vil/Vih meaningless *)
         if Float.abs (c.Vtc.vih -. c.Vtc.vil) <= eps then
           add
             (mk ~context:(name ^ " " ^ sub) PX004
                "degenerate VTC: unity-gain points collapsed at %.3f V (gain \
                 never reached -1?)"
                c.Vtc.vil)
         else if not (th.Vtc.vil < c.Vtc.vm && c.Vtc.vm < th.Vtc.vih) then
           (* PX001: the §2 negative-delay guard, curve by curve *)
           add
             (mk ~context:(name ^ " " ^ sub) PX001
                "negative-delay hazard: curve %s has Vm = %.3f V outside \
                 (Vil = %.3f V, Vih = %.3f V) — delays measured with this \
                 set can be negative (paper §2)"
                sub c.Vtc.vm th.Vtc.vil th.Vtc.vih))
       curves);
  List.rev !diags

(* --- table helpers ---------------------------------------------------- *)

let non_finite_count arr =
  Array.fold_left (fun n v -> if Float.is_finite v then n else n + 1) 0 arr

let strictly_increasing arr =
  let ok = ref (Array.length arr >= 2) in
  for i = 0 to Array.length arr - 2 do
    (* NaN entries also fail this comparison, which is what we want *)
    if not (arr.(i) < arr.(i + 1)) then ok := false
  done;
  !ok

(* --- single-input tables ---------------------------------------------- *)

(* Narrower than a factor of 4 in the dimensionless argument means the
   table is effectively a point sample: every realistic (tau, load)
   sweep spans far more. *)
let min_argument_span = log 4.

let check_single ?file ~name (s : Single.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let mk ?severity code fmt =
    Diagnostic.make ?severity ?file ~context:name code fmt
  in
  let xs, d, tr = Single.samples s in
  let n = Array.length xs in
  let bad = non_finite_count xs + non_finite_count d + non_finite_count tr in
  if bad > 0 then
    add (mk PX201 "%d non-finite entr%s in the tabulated samples" bad
           (if bad = 1 then "y" else "ies"));
  let nonpos a what =
    let k =
      Array.fold_left (fun n v -> if Float.is_finite v && v <= 0. then n + 1 else n) 0 a
    in
    if k > 0 then
      add
        (mk PX202
           "%d non-positive %s sample%s — Delta^(1) and tau_out^(1) are \
            strictly positive for any physical gate"
           k what
           (if k = 1 then "" else "s"))
  in
  nonpos d "normalized delay";
  nonpos tr "normalized transition";
  if not (strictly_increasing xs) then
    add (mk PX203 "ln-argument axis is not strictly increasing");
  if n < 4 then
    add
      (mk PX205 "only %d sample%s — too few to interpolate reliably" n
         (if n = 1 then "" else "s"))
  else if
    Float.is_finite xs.(0)
    && Float.is_finite xs.(n - 1)
    && xs.(n - 1) -. xs.(0) < min_argument_span
  then
    add
      (mk PX205
         "tabulated argument range spans a factor of %.2f — less than 4x; \
          most queries will extrapolate by clamping"
         (exp (xs.(n - 1) -. xs.(0))));
  List.rev !diags

(* --- dual-input tables ------------------------------------------------- *)

(* How far the outermost separation plane may sit from the single-input
   asymptote (ratio 1) before we call the surface unsaturated.  The
   dominance clamp keeps legitimate tables within ~20-30% here; seeded
   garbage is far beyond. *)
let saturation_tolerance = 0.35

let check_grid ~add ?file ~context ~assist ~what (g : Interp.grid3) =
  let axes_ok = ref true in
  let check_ax label ax =
    if non_finite_count ax > 0 then begin
      axes_ok := false;
      add
        (Diagnostic.make ?file ~context Diagnostic.PX201
           "non-finite entries in the %s %s axis" what label)
    end
    else if not (strictly_increasing ax) then begin
      axes_ok := false;
      add
        (Diagnostic.make ?file ~context Diagnostic.PX203
           "%s %s axis is not strictly increasing" what label)
    end
  in
  check_ax "x1" g.Interp.xs;
  check_ax "x2" g.Interp.ys;
  check_ax "x3 (separation)" g.Interp.zs;
  let bad_values =
    Array.fold_left
      (fun n plane ->
        Array.fold_left (fun n row -> n + non_finite_count row) n plane)
      0 g.Interp.values
  in
  if bad_values > 0 then
    add
      (Diagnostic.make ?file ~context Diagnostic.PX201
         "%d non-finite entr%s in the %s surface" bad_values
         (if bad_values = 1 then "y" else "ies")
         what);
  let nz = Array.length g.Interp.zs in
  if !axes_ok && nz >= 2 then begin
    (* PX205: the separation axis must straddle simultaneity, and for
       assisting pairs reach the window edge on the late side *)
    if g.Interp.zs.(0) > 0. || g.Interp.zs.(nz - 1) < 0. then
      add
        (Diagnostic.make ?file ~context Diagnostic.PX205
           "%s separation axis [%g, %g] does not include simultaneity (0)"
           what g.Interp.zs.(0)
           g.Interp.zs.(nz - 1));
    if assist && g.Interp.zs.(nz - 1) < 1. then
      add
        (Diagnostic.make ?file ~context Diagnostic.PX205
           "%s separation axis tops out at %g < 1 — it never reaches the \
            proximity-window edge"
           what
           g.Interp.zs.(nz - 1));
    (* PX204: far outside the window the pair behaves single-input, so
       the tabulated ratio must approach 1 on the outermost plane of the
       side where the window closes *)
    if bad_values = 0 then begin
      let iz = if assist then nz - 1 else 0 in
      let sum = ref 0. and count = ref 0 in
      Array.iter
        (fun plane ->
          Array.iter
            (fun row ->
              sum := !sum +. Float.abs (row.(iz) -. 1.);
              incr count)
            plane)
        g.Interp.values;
      if !count > 0 then begin
        let mean = !sum /. float_of_int !count in
        if mean > saturation_tolerance then
          add
            (Diagnostic.make ?file ~context Diagnostic.PX204
               "%s surface does not approach 1 on its far-outside separation \
                plane (mean |ratio - 1| = %.2f at x3 = %g) — D^(2) must \
                decay to the single-input asymptote beyond the proximity \
                window"
               what mean
               g.Interp.zs.(iz))
      end
    end
  end

let check_dual ?file ~name (d : Dual.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let assist = Dual.assist d in
  check_grid ~add ?file ~context:name ~assist ~what:"delay" (Dual.delay_grid d);
  check_grid ~add ?file ~context:name ~assist ~what:"transition"
    (Dual.trans_grid d);
  List.rev !diags

(* --- whole stores ------------------------------------------------------ *)

let single_name gate pin edge =
  Printf.sprintf "%s single %s %s" gate (Gate.pin_name pin)
    (Measure.edge_name edge)

let dual_name gate dom other edge =
  Printf.sprintf "%s dual %s<-%s %s" gate (Gate.pin_name dom)
    (Gate.pin_name other) (Measure.edge_name edge)

(* Relative disagreement allowed between the two predicted output
   crossings at the dominance crossover before PX206 fires. *)
let crossover_tolerance = 0.2

let representative_tau = 200e-12

let grids_clean d =
  let ok (g : Interp.grid3) =
    strictly_increasing g.Interp.xs
    && strictly_increasing g.Interp.ys
    && strictly_increasing g.Interp.zs
    && Array.for_all
         (Array.for_all (fun row -> non_finite_count row = 0))
         g.Interp.values
  in
  ok (Dual.delay_grid d) && ok (Dual.trans_grid d)

let check_store ?file (set : Store.set) =
  let gate = set.Store.gate_name in
  let diags = ref [] in
  let add_all ds = diags := List.rev_append ds !diags in
  let add d = diags := d :: !diags in
  add_all
    (check_thresholds ?file ~name:gate
       { Vtc.vil = set.Store.vil; vih = set.Store.vih; vdd = set.Store.vdd });
  List.iter
    (fun s ->
      add_all
        (check_single ?file
           ~name:(single_name gate (Single.pin s) (Single.edge s))
           s))
    set.Store.singles;
  let find_single pin edge =
    List.find_opt
      (fun s -> Single.pin s = pin && Single.edge s = edge)
      set.Store.singles
  in
  List.iter
    (fun d ->
      let name = dual_name gate (Dual.dom d) (Dual.other d) (Dual.edge d) in
      add_all (check_dual ?file ~name d);
      (* PX207: a dual is only queryable through its two singles *)
      List.iter
        (fun pin ->
          if find_single pin (Dual.edge d) = None then
            add
              (Diagnostic.make ?file ~context:name PX207
                 "no single-input table for pin %s edge %s — this dual can \
                  never be evaluated"
                 (Gate.pin_name pin)
                 (Measure.edge_name (Dual.edge d))))
        [ Dual.dom d; Dual.other d ])
    set.Store.duals;
  (* PX208: pins/edges visible anywhere in the set but not singly
     characterized *)
  let max_pin =
    List.fold_left
      (fun acc s -> max acc (Single.pin s))
      (List.fold_left
         (fun acc d -> max acc (max (Dual.dom d) (Dual.other d)))
         (-1) set.Store.duals)
      set.Store.singles
  in
  for pin = 0 to max_pin do
    List.iter
      (fun edge ->
        if find_single pin edge = None then
          add
            (Diagnostic.make ?file ~context:gate PX208
               "no single-input table for pin %s edge %s" (Gate.pin_name pin)
               (Measure.edge_name edge)))
      [ Measure.Rise; Measure.Fall ]
  done;
  (* PX206: at the crossover separation s_ab = Delta_a - Delta_b the
     (a,b) and (b,a) tables describe the same physical situation, so the
     two predicted output crossings must agree *)
  List.iter
    (fun d ->
      let dom = Dual.dom d and other = Dual.other d and edge = Dual.edge d in
      if dom < other && grids_clean d then
        match
          List.find_opt
            (fun r ->
              Dual.dom r = other && Dual.other r = dom && Dual.edge r = edge
              && grids_clean r)
            set.Store.duals
        with
        | None -> ()
        | Some r -> (
          match (find_single dom edge, find_single other edge) with
          | Some sa, Some sb -> (
            try
              let tau = representative_tau in
              let da = Single.delay sa ~tau and db = Single.delay sb ~tau in
              let s_star = da -. db in
              let out_a =
                Dual.delay d ~single_dom:sa ~single_other:sb ~tau_dom:tau
                  ~tau_other:tau ~sep:s_star
              in
              let out_b =
                s_star
                +. Dual.delay r ~single_dom:sb ~single_other:sa ~tau_dom:tau
                     ~tau_other:tau ~sep:(-.s_star)
              in
              let scale = Float.max (Float.abs out_a) (Float.abs da) in
              if
                scale > 0.
                && Float.abs (out_a -. out_b) /. scale > crossover_tolerance
              then
                add
                  (Diagnostic.make ?file
                     ~context:(dual_name gate dom other edge)
                     PX206
                     "at the dominance crossover s_ab = Delta_a - Delta_b = \
                      %.1f ps the paired tables predict output crossings %.1f \
                      ps vs %.1f ps (tau = %.0f ps) — the surfaces disagree \
                      about who dominates"
                     (s_star *. 1e12) (out_a *. 1e12) (out_b *. 1e12)
                     (tau *. 1e12))
            with _ -> ())
          | _ -> ()))
    set.Store.duals;
  List.rev !diags

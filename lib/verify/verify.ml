module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Gate = Proxim_gates.Gate
module Ternary = Proxim_gates.Ternary
module Vtc = Proxim_vtc.Vtc
module Proximity = Proxim_core.Proximity
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Diagnostic = Proxim_lint.Diagnostic
module Trace = Proxim_obs.Trace
module Metrics = Proxim_obs.Metrics

(* one count per fixpoint round that actually grew a hull *)
let c_widenings = Metrics.Counter.v "verify.fixpoint_widenings"

(* --- inputs ----------------------------------------------------------- *)

type pi_event = {
  ev_net : string;
  ev_edge : Measure.edge;
  ev_time : Interval.t;
  ev_tau : Interval.t;
}

let tiny_slew = 1e-15

exception Not_primary_input of { flag : string; net : string }

let () =
  Printexc.register_printer (function
    | Not_primary_input { flag; net } ->
      Some
        (Printf.sprintf
           "Verify.Not_primary_input: %s names %S, which is not a primary \
            input of the design" flag net)
    | _ -> None)

let validate_pi_nets ~flag design nets =
  let g = Design.graph design in
  let is_pi net =
    match Graph.net_id g net with
    | None -> false
    | Some id -> Graph.driver g ~net:id = None
  in
  List.iter
    (fun net -> if not (is_pi net) then raise (Not_primary_input { flag; net }))
    nets

let of_sta_event ?(time_window = 0.) ?(tau_window = 0.) (net, (a : Sta.arrival))
    =
  if time_window < 0. || tau_window < 0. then
    invalid_arg "Verify.of_sta_event: negative window";
  {
    ev_net = net;
    ev_edge = a.Sta.edge;
    ev_time = Interval.make (a.Sta.time -. time_window) (a.Sta.time +. time_window);
    ev_tau =
      Interval.make
        (max tiny_slew (a.Sta.slew -. tau_window))
        (max tiny_slew (a.Sta.slew +. tau_window));
  }

(* --- results ----------------------------------------------------------- *)

type aarrival = {
  a_time : Interval.t;
  a_slew : Interval.t;
  a_edge : Measure.edge;
}

type classification = Never_proximate | Always_proximate | May_be_proximate

let classification_name = function
  | Never_proximate -> "never-proximate"
  | Always_proximate -> "always-proximate"
  | May_be_proximate -> "may-be-proximate"

type pair_info = {
  pr_a : int;
  pr_b : int;
  pr_class : classification;
  pr_straddles : bool;
  pr_separation : Interval.t;  (** t_b - t_a *)
  pr_crossover : Interval.t;  (** Delta_a - Delta_b *)
}

type cell_info = {
  ci_name : string;
  ci_gate : string;
  ci_edge : Measure.edge;
  ci_switching : int list;
  ci_assist : bool;
  ci_class : classification;
  ci_pairs : pair_info list;
  ci_neg_delay : (int * Interval.t) list;
      (** switching pins whose single-input delay bound dips negative *)
  ci_tau_escape : (int * Interval.t * (float * float)) list;
      (** switching pins whose slew interval escapes the characterized
          tau span of a table-backed model *)
}

(* --- edge windows and the §6 rule -------------------------------------- *)

type awin = { w_time : Interval.t; w_slew : Interval.t }

type logic = Ternary.logic = L0 | L1 | LX

type net_state = {
  ns_rise : awin option;
  ns_fall : awin option;
  ns_init : logic;
  ns_final : logic;
}

type verdict = Never | Filtered | May_glitch

type pair = {
  hp_fall_pin : int;
  hp_rise_pin : int;
  hp_starter_edge : Measure.edge;
  hp_sep : Interval.t;
  hp_min_sep : Interval.t;
  hp_filtered : bool;
  hp_margin : float;
}

type rule =
  Design.cell ->
  Models.t ->
  starter_pin:int ->
  starter_edge:Measure.edge ->
  ender_pin:int ->
  tau_starter:float * float ->
  tau_ender:float * float ->
  float * float

let model_rule : rule =
 fun _cell m ~starter_pin ~starter_edge ~ender_pin ~tau_starter ~tau_ender ->
  Models.min_separation_bounds m ~starter_pin ~starter_edge ~ender_pin
    ~tau_starter ~tau_ender

(* --- abstract transfer -------------------------------------------------- *)

(* per window-bearing input of a same-edge group *)
type ainput = {
  i_pin : int;
  i_time : Interval.t;
  i_tau : Interval.t;
  i_d1 : Interval.t;
  i_t1 : Interval.t;
  i_wb : Interval.t;  (** would-be response: time + d1 *)
}

let slew_cap = 1e-6
(* far above any reachable slew (concrete values are < ns scale): the
   finite stand-in for "unbounded above" when a rate interval loses
   positivity, so downstream arithmetic stays finite *)

let trans_of_rate r =
  if Interval.lo r > 0. then Interval.inv r
  else if Interval.hi r > 0. then
    Interval.make (1. /. Interval.hi r) slew_cap
  else Interval.make tiny_slew slew_cap

let ainput_of (m : Models.t) ~edge (pin, w) =
  let tau = Interval.pair w.w_slew in
  let d1 = Interval.of_pair (Models.delay1_bounds m ~pin ~edge ~tau) in
  let t1 = Interval.of_pair (Models.trans1_bounds m ~pin ~edge ~tau) in
  {
    i_pin = pin;
    i_time = w.w_time;
    i_tau = w.w_slew;
    i_d1 = d1;
    i_t1 = t1;
    i_wb = Interval.add w.w_time d1;
  }

(* --- classic mode ------------------------------------------------------- *)

(* latest single-input response wins; slew hull over every input whose
   would-be can reach the maximum *)
let classic_out ~slew_scale inputs =
  let out_time =
    List.fold_left
      (fun acc i -> Interval.max2 acc i.i_wb)
      (List.hd inputs).i_wb (List.tl inputs)
  in
  let max_lo =
    List.fold_left (fun acc i -> max acc (Interval.lo i.i_wb)) neg_infinity
      inputs
  in
  let out_slew =
    List.filter (fun i -> Interval.hi i.i_wb >= max_lo) inputs
    |> List.map (fun i -> i.i_t1)
    |> function
    | [] -> assert false
    | s :: tl -> List.fold_left Interval.hull s tl
  in
  { w_time = out_time; w_slew = Interval.scale slew_scale out_slew }

(* --- proximity mode ----------------------------------------------------- *)

(* Abstract image of the Fig 4-1 fold with [yd] dominant (§3-§4):

   The concrete fold threads a cumulative delay [d_cum] (started at the
   dominant's Delta^(1)) and transition [t_cum] through the other inputs
   in dominance order, testing each against the current transition
   window and querying the dual models at the equivalent separation
   [s* = s + Delta_ref - d_cum].  The processing order is not static
   under intervals, so instead of simulating one order we bound the
   whole trajectory:

   - each other input's contribution is bounded as an interval, with the
     branch (skipped / transition-only / full) resolved three-way
     against the current global [d_cum]/[t_cum] hulls;
   - any intermediate concrete [d_cum] is the reference delay plus a
     sub-multiset of those contributions, so the running hull is the sum
     of every contribution hulled with 0 (prefix-sum bound) — and in
     rate space ([1/t]) the transition composition is additive too, so
     [t_cum] gets the identical treatment;
   - the window tests and [s*] depend on those hulls, so we iterate to a
     fixpoint (the hulls only grow; the dual-model influence saturates
     outside the proximity window, so growth stalls after a couple of
     rounds; a safety cap bounds the loop).

   The final output applies {e every} contribution (each one's branch
   uncertainty is already inside its interval), which is tighter than
   the running hull.  When every input interval is degenerate each
   branch test is definite and every box is a point, so the result is
   exact. *)
let fold_abstract (m : Models.t) ~edge ~assist yd others =
  let d1_ref = yd.i_d1 in
  let t1_ref_pos = Interval.clamp_lo tiny_slew yd.i_t1 in
  let inv_t1ref = Interval.inv t1_ref_pos in
  let contributions d_hull rate_hull =
    List.map
      (fun yj ->
        let s = Interval.sub yj.i_time yd.i_time in
        let t_hull = trans_of_rate rate_hull in
        let sum_dt = Interval.add d_hull t_hull in
        if assist && Interval.lo s >= Interval.hi sum_dt then
          (Interval.exact 0., Interval.exact 0.)
        else begin
          let may_skip = assist && Interval.hi s >= Interval.lo sum_dt in
          let s_star = Interval.add s (Interval.sub d1_ref d_hull) in
          let box =
            ( Interval.pair yd.i_tau,
              Interval.pair yj.i_tau,
              Interval.pair s_star )
          in
          let tau_dom, tau_other, sep = box in
          let t2 =
            Interval.of_pair
              (Models.trans2_bounds m ~dom:yd.i_pin ~other:yj.i_pin ~edge
                 ~tau_dom ~tau_other ~sep)
          in
          let rc =
            Interval.sub (Interval.inv (Interval.clamp_lo tiny_slew t2)) inv_t1ref
          in
          let rc = if may_skip then Interval.hull0 rc else rc in
          let may_delay = (not assist) || Interval.lo s < Interval.hi d_hull in
          let must_delay = (not assist) || Interval.hi s < Interval.lo d_hull in
          let dc =
            if not may_delay then Interval.exact 0.
            else begin
              let d2 =
                Interval.of_pair
                  (Models.delay2_bounds m ~dom:yd.i_pin ~other:yj.i_pin ~edge
                     ~tau_dom ~tau_other ~sep)
              in
              let full = Interval.sub d2 d1_ref in
              if must_delay && not may_skip then full else Interval.hull0 full
            end
          in
          (dc, rc)
        end)
      others
  in
  let running base cs = List.fold_left (fun acc c -> Interval.add acc (Interval.hull0 c)) base cs in
  let rec iterate n d_hull rate_hull =
    let cs = contributions d_hull rate_hull in
    let d' = running d1_ref (List.map fst cs) in
    let r' = running inv_t1ref (List.map snd cs) in
    if n = 0 || (Interval.subset d' d_hull && Interval.subset r' rate_hull)
    then (cs, d_hull, rate_hull)
    else begin
      Metrics.Counter.incr c_widenings;
      iterate (n - 1) (Interval.hull d_hull d') (Interval.hull rate_hull r')
    end
  in
  let cs, _, _ = iterate 12 d1_ref inv_t1ref in
  let delay_out =
    List.fold_left (fun acc (dc, _) -> Interval.add acc dc) d1_ref cs
  in
  let rate_out =
    List.fold_left (fun acc (_, rc) -> Interval.add acc rc) inv_t1ref cs
  in
  (delay_out, trans_of_rate rate_out)

(* the never-proximate lemma: input [i] with every other input provably
   beyond its initial transition window is the unique dominant, and the
   fold reduces to its single-input response.  [t_j - t_i >= D_i + T_i]
   with positive delays/transitions forces [t_j + D_j > t_i + D_i]
   strictly, so no sort-order tie-breaking is involved. *)
let never_dominant inputs =
  let positive i = Interval.lo i.i_d1 > 0. && Interval.lo i.i_t1 > 0. in
  if not (List.for_all positive inputs) then None
  else
    List.find_opt
      (fun i ->
        let wnd = Interval.hi i.i_d1 +. Interval.hi i.i_t1 in
        List.for_all
          (fun j ->
            j.i_pin = i.i_pin
            || Interval.lo j.i_time -. Interval.hi i.i_time >= wnd)
          inputs)
      inputs

let proximity_dominants ~assist inputs =
  if assist then begin
    let min_hi =
      List.fold_left (fun acc i -> min acc (Interval.hi i.i_wb)) infinity
        inputs
    in
    List.filter (fun i -> Interval.lo i.i_wb <= min_hi) inputs
  end
  else begin
    let max_lo =
      List.fold_left (fun acc i -> max acc (Interval.lo i.i_wb)) neg_infinity
        inputs
    in
    List.filter (fun i -> Interval.hi i.i_wb >= max_lo) inputs
  end

let proximity_out (m : Models.t) ~slew_scale ~edge ~assist inputs =
  match inputs with
  | [ i ] -> { w_time = i.i_wb; w_slew = Interval.scale slew_scale i.i_t1 }
  | _ ->
    let all_degenerate =
      List.for_all
        (fun i -> Interval.degenerate i.i_time && Interval.degenerate i.i_tau)
        inputs
    in
    if all_degenerate then begin
      (* exact inputs: run the concrete algorithm itself, so ±0 windows
         reproduce the concrete STA bit-for-bit *)
      let events =
        List.map
          (fun i ->
            {
              Proximity.pin = i.i_pin;
              edge;
              tau = Interval.lo i.i_tau;
              cross_time = Interval.lo i.i_time;
            })
          inputs
      in
      let r = Proximity.evaluate m events in
      {
        w_time = Interval.exact (r.Proximity.ref_cross +. r.Proximity.delay);
        w_slew = Interval.exact (r.Proximity.out_transition *. slew_scale);
      }
    end
    else begin
      let per_dominant =
        List.map
          (fun yd ->
            let others =
              List.filter (fun j -> j.i_pin <> yd.i_pin) inputs
            in
            let delay, trans = fold_abstract m ~edge ~assist yd others in
            (Interval.add yd.i_time delay, trans))
          (proximity_dominants ~assist inputs)
      in
      match per_dominant with
      | [] -> assert false
      | (t0, s0) :: tl ->
        let w_time, slew =
          List.fold_left
            (fun (ta, sa) (tb, sb) -> (Interval.hull ta tb, Interval.hull sa sb))
            (t0, s0) tl
        in
        { w_time; w_slew = Interval.scale slew_scale slew }
    end

(* --- classification ------------------------------------------------------ *)

let cell_classification ~assist inputs dominants =
  match inputs with
  | [ _ ] -> Never_proximate
  | _ when not assist -> Always_proximate
  | _ -> (
    match never_dominant inputs with
    | Some _ -> Never_proximate
    | None -> (
      match dominants with
      | [ d ] ->
        (* unique dominant with every other input provably inside its
           initial window: the first-tested other is inside for sure,
           so at least one dual query always fires *)
        let definitely_in j =
          j.i_pin = d.i_pin
          || Interval.hi (Interval.sub j.i_time d.i_time)
             < Interval.lo d.i_d1 +. Interval.lo d.i_t1
        in
        if List.for_all definitely_in inputs then Always_proximate
        else May_be_proximate
      | _ -> May_be_proximate))

let pair_classification ~assist ~n_switching dominants a b =
  let sep = Interval.sub b.i_time a.i_time in
  let crossover = Interval.sub a.i_d1 b.i_d1 in
  let straddles = Interval.intersects a.i_wb b.i_wb in
  let is_dom i = List.exists (fun d -> d.i_pin = i.i_pin) dominants in
  let cls =
    if not assist then Always_proximate
    else begin
      let skip_under dom other =
        Interval.lo (Interval.sub other.i_time dom.i_time)
        >= Interval.hi dom.i_d1 +. Interval.hi dom.i_t1
      in
      let in_under dom other =
        Interval.hi (Interval.sub other.i_time dom.i_time)
        < Interval.lo dom.i_d1 +. Interval.lo dom.i_t1
      in
      if
        ((not (is_dom a)) || skip_under a b)
        && ((not (is_dom b)) || skip_under b a)
      then Never_proximate
      else if
        (* only claim certainty on two-input cells, where the pair's
           window test provably runs against the initial state *)
        n_switching = 2
        && ((is_dom a && (not (is_dom b)) && in_under a b)
           || (is_dom b && (not (is_dom a)) && in_under b a)
           || (is_dom a && is_dom b && in_under a b && in_under b a))
      then Always_proximate
      else May_be_proximate
    end
  in
  {
    pr_a = a.i_pin;
    pr_b = b.i_pin;
    pr_class = cls;
    pr_straddles = straddles;
    pr_separation = sep;
    pr_crossover = crossover;
  }

let rec pairs_of = function
  | [] | [ _ ] -> []
  | a :: tl -> List.map (fun b -> (a, b)) tl @ pairs_of tl

(* a single-edge cell's classification, pairs and PX302/PX303 triggers *)
let cell_info_of ~mode (cell : Design.cell) (m : Models.t) ~edge ~assist inputs =
  let cls, pairs =
    match mode with
    | Sta.Classic -> (Never_proximate, [])
    | Sta.Proximity | Sta.Collapsed _ ->
      let dominants = proximity_dominants ~assist inputs in
      let n_switching = List.length inputs in
      ( cell_classification ~assist inputs dominants,
        List.map
          (fun (a, b) -> pair_classification ~assist ~n_switching dominants a b)
          (pairs_of inputs) )
  in
  let neg_delay =
    List.filter_map
      (fun i -> if Interval.lo i.i_d1 < 0. then Some (i.i_pin, i.i_d1) else None)
      inputs
  in
  let tau_escape =
    match m.Models.tau_range with
    | None -> []
    | Some (lo, hi) ->
      List.filter_map
        (fun i ->
          if Interval.lo i.i_tau < lo || Interval.hi i.i_tau > hi then
            Some (i.i_pin, i.i_tau, (lo, hi))
          else None)
        inputs
  in
  {
    ci_name = cell.Design.name;
    ci_gate = cell.Design.gate.Gate.name;
    ci_edge = edge;
    ci_switching = List.map (fun i -> i.i_pin) inputs;
    ci_assist = assist;
    ci_class = cls;
    ci_pairs = pairs;
    ci_neg_delay = neg_delay;
    ci_tau_escape = tau_escape;
  }

(* --- the forward pass ---------------------------------------------------- *)

type fwd = {
  f_cell : Design.cell;
  f_info : cell_info option;
  f_delays : (int * Interval.t) list;
  f_pairs : pair list;
  f_verdict : verdict;
  f_glitch : Interval.t option;
  f_quiet : bool;
}

type flow = {
  fl_design : Design.t;
  fl_mode : Sta.mode;
  fl_nets : net_state option array;
  fl_cells : fwd option array;
  fl_unconstrained : string list;
}

let hull_win a b =
  {
    w_time = Interval.hull a.w_time b.w_time;
    w_slew = Interval.hull a.w_slew b.w_slew;
  }

(* several events may target one net: one edge's windows are hulled,
   both edges make a pulse of unknown order *)
let seed_events g nets pi =
  let no_event = { ns_rise = None; ns_fall = None; ns_init = LX; ns_final = LX } in
  List.iter
    (fun ev ->
      match Graph.net_id g ev.ev_net with
      | None -> () (* events for nets the design never mentions are inert *)
      | Some id ->
        if Graph.driver g ~net:id <> None then
          invalid_arg
            ("Proxim_verify.flow: net " ^ ev.ev_net ^ " is driven by a cell");
        let w = { w_time = ev.ev_time; w_slew = ev.ev_tau } in
        let prev = Option.value nets.(id) ~default:no_event in
        let merge = function None -> Some w | Some w0 -> Some (hull_win w0 w) in
        let ns =
          match ev.ev_edge with
          | Measure.Rise -> { prev with ns_rise = merge prev.ns_rise }
          | Measure.Fall -> { prev with ns_fall = merge prev.ns_fall }
        in
        nets.(id) <-
          Some
            (match (ns.ns_rise, ns.ns_fall) with
            | Some _, None -> { ns with ns_init = L0; ns_final = L1 }
            | None, Some _ -> { ns with ns_init = L1; ns_final = L0 }
            | _ -> { ns with ns_init = LX; ns_final = LX }))
    pi

(* one opposing-edge pair, oriented by the output resting level; an
   unknown resting level evaluates both orientations and keeps the
   least-filtered one *)
let opposing_pair (rule : rule) cell m ~init_out f r =
  let candidate (starter, ender, starter_edge) =
    let ms =
      rule cell m ~starter_pin:starter.i_pin ~starter_edge
        ~ender_pin:ender.i_pin ~tau_starter:(Interval.pair starter.i_tau)
        ~tau_ender:(Interval.pair ender.i_tau)
    in
    (starter_edge, Interval.sub ender.i_time starter.i_time, Interval.of_pair ms)
  in
  let orientations =
    match init_out with
    | L1 -> [ (r, f, Measure.Rise) ]
    | L0 -> [ (f, r, Measure.Fall) ]
    | LX -> [ (r, f, Measure.Rise); (f, r, Measure.Fall) ]
  in
  let margin (_, sep, ms) = Interval.lo ms -. Interval.hi sep in
  let governing =
    match List.map candidate orientations with
    | [] -> assert false
    | c0 :: tl ->
      List.fold_left (fun acc c -> if margin c < margin acc then c else acc) c0 tl
  in
  let starter_edge, sep, ms = governing in
  let mg = margin governing in
  {
    hp_fall_pin = f.i_pin;
    hp_rise_pin = r.i_pin;
    hp_starter_edge = starter_edge;
    hp_sep = sep;
    hp_min_sep = ms;
    hp_filtered = mg > 0.;
    hp_margin = mg;
  }

let flow ?(mode = Sta.Proximity) ?(rule = model_rule) ~models ~thresholds
    design ~pi =
  (match mode with
   | Sta.Collapsed _ ->
     invalid_arg "Proxim_verify: Collapsed mode is not supported"
   | Sta.Classic | Sta.Proximity -> ());
  let g = Design.graph design in
  let half_vdd = thresholds.Vtc.vdd /. 2. in
  let slew_scale = Vtc.slew_scale thresholds in
  let nets : net_state option array = Array.make (Graph.net_count g) None in
  seed_events g nets pi;
  let cells : fwd option array = Array.make (Graph.cell_count g) None in
  let process c =
    let ins = Graph.cell_inputs g c in
    (* the (pin, window) pairs of one edge, pin order; allocates nothing
       on the many cells no window reaches *)
    let windows edge_of =
      let rec go p acc =
        if p < 0 then acc
        else
          match Option.bind nets.(ins.(p)) edge_of with
          | Some w -> go (p - 1) ((p, w) :: acc)
          | None -> go (p - 1) acc
      in
      go (Array.length ins - 1) []
    in
    let rise_wins = windows (fun ns -> ns.ns_rise) in
    let fall_wins = windows (fun ns -> ns.ns_fall) in
    if rise_wins <> [] || fall_wins <> [] then begin
      let cell = Graph.payload g c in
      let gate = cell.Design.gate in
      let m = models cell in
      (* each same-edge group's abstract inputs, computed once: its
         response, the never-proximate classification and the quiet
         verdict all read them.  The falling inputs drive the output
         rise, the rising ones its fall (inverting monotone gates). *)
      let group edge = function
        | [] -> (None, None)
        | wins ->
          let inputs = List.map (ainput_of m ~edge) wins in
          let assist =
            match inputs with
            | first :: _ :: _ ->
              m.Models.assist ~edge ~first:first.i_pin
                ~set:
                  (List.fold_left (fun s i -> s lor (1 lsl i.i_pin)) 0 inputs)
            | [] | [ _ ] -> false
          in
          let resp =
            match mode with
            | Sta.Classic -> classic_out ~slew_scale inputs
            | Sta.Proximity | Sta.Collapsed _ ->
              proximity_out m ~slew_scale ~edge ~assist inputs
          in
          (Some (inputs, assist), Some resp)
      in
      let rises, out_fall_c = group Measure.Rise rise_wins in
      let falls, out_rise_c = group Measure.Fall fall_wins in
      (* quiet inputs sit at the levels of a switching pin's sensitization
         vector — the Sta/Gate.switching_assist convention.  The vector's
         entry for the reference pin itself is always Vdd, so it must be a
         window-bearing pin, never a quiet one. *)
      let nc =
        let first = function (p, _) :: _ -> p | [] -> max_int in
        Gate.noncontrolling_sensitization gate
          ~pin:(min (first rise_wins) (first fall_wins))
      in
      let level which p =
        match nets.(ins.(p)) with
        | Some ns -> which ns
        | None -> if nc.(p) > half_vdd then L1 else L0
      in
      (* one Kleene evaluation per state gives the output's resting
         levels; LX stands for "both states reachable" *)
      let init_out = Ternary.eval_gate gate (level (fun ns -> ns.ns_init)) in
      let final_out = Ternary.eval_gate gate (level (fun ns -> ns.ns_final)) in
      let pairs =
        match (rises, falls) with
        | Some (r, _), Some (f, _) ->
          List.concat_map
            (fun fi -> List.map (opposing_pair rule cell m ~init_out fi) r)
            f
        | _ -> []
      in
      let verdict =
        if pairs = [] then Never
        else if List.for_all (fun p -> p.hp_filtered) pairs then Filtered
        else May_glitch
      in
      (* §6 refinement: with every pair filtered and definite boolean
         levels, only the net init->final transition can cross the
         thresholds — a static output loses its windows entirely *)
      let out_rise, out_fall =
        match (verdict, init_out, final_out) with
        | May_glitch, _, _ | _, LX, _ | _, _, LX -> (out_rise_c, out_fall_c)
        | _, L0, L1 -> (out_rise_c, None)
        | _, L1, L0 -> (None, out_fall_c)
        | _ -> (None, None) (* static *)
      in
      (* the excursion leaves the resting level: downward from a
         resting-high output (a fall window), upward from a resting-low
         one.  A possible glitch has an opposing pair, so both groups
         and both responses exist. *)
      let glitch =
        match (verdict, out_rise_c, out_fall_c) with
        | May_glitch, Some rw, Some fw ->
          Some
            (match init_out with
            | L1 -> fw.w_time
            | L0 -> rw.w_time
            | LX -> Interval.hull rw.w_time fw.w_time)
        | _ -> None
      in
      let quiet =
        match (rises, falls) with
        | Some ([ _ ], _), None | None, Some ([ _ ], _) -> true
        (* the collapse lemma needs earliest-wins dominance: a gating
           group (NAND-rising / NOR-falling) folds to the *latest* input,
           which the pruned fast path does not compute *)
        | Some (inputs, assist), None | None, Some (inputs, assist) ->
          assist && Option.is_some (never_dominant inputs)
        (* a pulse on one pin is still one switching input *)
        | Some ([ a ], _), Some ([ b ], _) -> a.i_pin = b.i_pin
        | _ -> false
      in
      let info =
        match (rises, falls) with
        | Some (inputs, assist), None ->
          Some (cell_info_of ~mode cell m ~edge:Measure.Rise ~assist inputs)
        | None, Some (inputs, assist) ->
          Some (cell_info_of ~mode cell m ~edge:Measure.Fall ~assist inputs)
        | _ -> None
      in
      let inputs = function Some (l, _) -> l | None -> [] in
      nets.(Graph.cell_output g c) <-
        Some
          {
            ns_rise = out_rise;
            ns_fall = out_fall;
            ns_init = init_out;
            ns_final = final_out;
          };
      cells.(c) <-
        Some
          {
            f_cell = cell;
            f_info = info;
            f_delays =
              List.map (fun i -> (i.i_pin, i.i_d1)) (inputs rises @ inputs falls);
            f_pairs = pairs;
            f_verdict = verdict;
            f_glitch = glitch;
            f_quiet = quiet;
          }
    end
  in
  Trace.with_span ~cat:"verify" "verify.propagate" (fun () ->
    Array.iter process (Graph.topological g));
  (* quiet primary inputs whose fanout cone holds a window-bearing
     multi-input cell: an event there could change a proximity verdict
     or form an opposing pair (PX304 / PX404) *)
  let unconstrained =
    Trace.with_span ~cat:"verify" "verify.unconstrained" @@ fun () ->
    let sensitive =
      Graph.reaches g ~cell:(fun c ->
          cells.(c) <> None && (Graph.payload g c).Design.gate.Gate.fan_in >= 2)
    in
    Array.to_list (Graph.primary_inputs g)
    |> List.filter_map (fun net ->
         if nets.(net) = None && sensitive.(net) then
           Some (Graph.net_name g net)
         else None)
  in
  {
    fl_design = design;
    fl_mode = mode;
    fl_nets = nets;
    fl_cells = cells;
    fl_unconstrained = unconstrained;
  }

(* --- the single-edge view ---------------------------------------------- *)

type t = {
  v_design : Design.t;
  v_mode : Sta.mode;
  v_nets : net_state option array;
  v_cells : cell_info option array;
  v_timing_cells : cell_info option array;
      (** the classifications as the interval pass computed them, before
          any logic refinement — the ones {!prune_mask} may trust (the
          STA fast path is only bit-identical for timing-proven
          never-proximate cells) *)
  v_unconstrained : string list;
      (** quiet primary inputs whose fanout cone contains a switching
          multi-input cell *)
}

let of_flow fl =
  let g = Design.graph fl.fl_design in
  let infos = Array.make (Graph.cell_count g) None in
  (* topological order: a mixed-edge stimulus names its first mixed cell,
     as the concrete engines do *)
  Array.iter
    (fun c ->
      match fl.fl_cells.(c) with
      | None -> ()
      | Some { f_info = Some ci; _ } -> infos.(c) <- Some ci
      | Some f -> raise (Sta.Mixed_input_edges { cell = f.f_cell.Design.name }))
    (Graph.topological g);
  {
    v_design = fl.fl_design;
    v_mode = fl.fl_mode;
    v_nets = fl.fl_nets;
    v_cells = infos;
    v_timing_cells = infos;
    v_unconstrained = fl.fl_unconstrained;
  }

let analyze ?mode ~models ~thresholds design ~pi =
  (* the concrete STA's seeding: the last event naming a net wins *)
  let last = Hashtbl.create 16 in
  List.iter (fun ev -> Hashtbl.replace last ev.ev_net ev) pi;
  let pi = List.filter (fun ev -> Hashtbl.find last ev.ev_net == ev) pi in
  of_flow (flow ?mode ~models ~thresholds design ~pi)

(* --- accessors ---------------------------------------------------------- *)

let net_arrival t ~net =
  Option.bind (Graph.net_id (Design.graph t.v_design) net) (fun id ->
    match t.v_nets.(id) with
    | Some { ns_rise = Some w; _ } ->
      Some { a_time = w.w_time; a_slew = w.w_slew; a_edge = Measure.Rise }
    | Some { ns_fall = Some w; _ } ->
      Some { a_time = w.w_time; a_slew = w.w_slew; a_edge = Measure.Fall }
    | _ -> None)

let cell_info t ~cell =
  Option.bind (Graph.cell_id (Design.graph t.v_design) cell) (fun id ->
    t.v_cells.(id))

let unconstrained_pis t = t.v_unconstrained

type summary = {
  total_cells : int;
  switching_cells : int;
  never : int;
  always : int;
  may : int;
}

let summary t =
  let acc = { total_cells = Array.length t.v_cells;
              switching_cells = 0; never = 0; always = 0; may = 0 } in
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some ci ->
        let acc = { acc with switching_cells = acc.switching_cells + 1 } in
        (match ci.ci_class with
         | Never_proximate -> { acc with never = acc.never + 1 }
         | Always_proximate -> { acc with always = acc.always + 1 }
         | May_be_proximate -> { acc with may = acc.may + 1 }))
    acc t.v_cells

let prune_mask t =
  let proximity =
    match t.v_mode with
    | Sta.Proximity -> true
    | Sta.Classic | Sta.Collapsed _ -> false
  in
  Array.map
    (function
      | Some ci -> proximity && ci.ci_class = Never_proximate
      | None -> false)
    t.v_timing_cells

(* --- logic refinement --------------------------------------------------- *)

type refinement = { refined_pairs : int; refined_cells : int }

let refine t ~unsensitizable =
  let pairs = ref 0 and cells = ref 0 in
  let refined =
    Array.map
      (function
        | None -> None
        | Some ci ->
          let changed = ref false in
          let new_pairs =
            List.map
              (fun p ->
                if
                  p.pr_class <> Never_proximate
                  && unsensitizable ~cell:ci.ci_name ~a:p.pr_a ~b:p.pr_b
                then begin
                  incr pairs;
                  changed := true;
                  { p with pr_class = Never_proximate }
                end
                else p)
              ci.ci_pairs
          in
          if not !changed then Some ci
          else begin
            (* a cell is proximity-free once every switching pair is: the
               remaining verdicts only weaken (Always with a dead pair is
               no longer provably-always) *)
            let cls =
              if
                new_pairs <> []
                && List.for_all
                     (fun p -> p.pr_class = Never_proximate)
                     new_pairs
              then Never_proximate
              else
                match ci.ci_class with
                | Always_proximate -> May_be_proximate
                | c -> c
            in
            if cls = Never_proximate && ci.ci_class <> Never_proximate then
              incr cells;
            Some { ci with ci_pairs = new_pairs; ci_class = cls }
          end)
      t.v_cells
  in
  ( { t with v_cells = refined },
    { refined_pairs = !pairs; refined_cells = !cells } )

(* --- diagnostics -------------------------------------------------------- *)

let check ?file t =
  Trace.with_span ~cat:"verify" "verify.check" @@ fun () ->
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iter
    (function
      | None -> ()
      | Some ci ->
        List.iter
          (fun (pin, d1) ->
            add
              (Diagnostic.make ?file ~context:ci.ci_name Diagnostic.PX303
                 "input pin %d: reachable single-input delay %s ps has a \
                  negative lower bound — the measurement thresholds admit \
                  negative pin-to-output delays (§2)"
                 pin
                 (Interval.to_ps_string d1)))
          ci.ci_neg_delay;
        List.iter
          (fun (pin, tau, (lo, hi)) ->
            add
              (Diagnostic.make ?file ~context:ci.ci_name Diagnostic.PX302
                 "input pin %d: reachable slew %s ps escapes the \
                  characterized tau span [%g, %g] ps — table queries clamp \
                  (silent extrapolation)"
                 pin
                 (Interval.to_ps_string tau)
                 (lo *. 1e12) (hi *. 1e12)))
          ci.ci_tau_escape;
        List.iter
          (fun p ->
            if p.pr_straddles && p.pr_class <> Never_proximate then
              add
                (Diagnostic.make ?file ~context:ci.ci_name Diagnostic.PX301
                   "inputs %d and %d: separation %s ps straddles the \
                    dominance crossover s_ab = Delta_a - Delta_b = %s ps — \
                    the delay estimate is discontinuity-sensitive near the \
                    dominance flip"
                   p.pr_a p.pr_b
                   (Interval.to_ps_string p.pr_separation)
                   (Interval.to_ps_string p.pr_crossover)))
          ci.ci_pairs)
    t.v_cells;
  List.iter
    (fun pi_net ->
      add
        (Diagnostic.make ?file ~context:pi_net Diagnostic.PX304
         "primary input %s carries no event but feeds a proximity-sensitive \
          cone — the analysis assumes it is quiet"
         pi_net))
    t.v_unconstrained;
  Diagnostic.sort !diags

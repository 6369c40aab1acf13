module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Gate = Proxim_gates.Gate
module Ternary = Proxim_gates.Ternary
module Vtc = Proxim_vtc.Vtc
module Inertial = Proxim_core.Inertial
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Diagnostic = Proxim_lint.Diagnostic
module Trace = Proxim_obs.Trace
module Metrics = Proxim_obs.Metrics
module Interval = Proxim_verify.Interval
module Verify = Proxim_verify.Verify

let c_classified = Metrics.Counter.v "hazard.cells_classified"
let c_may = Metrics.Counter.v "hazard.may_glitch"

(* --- windows and values ------------------------------------------------ *)

type awin = { w_time : Interval.t; w_slew : Interval.t }

type logic = Ternary.logic = L0 | L1 | LX

type net_state = {
  ns_rise : awin option;
  ns_fall : awin option;
  ns_init : logic;
  ns_final : logic;
}

type verdict = Never | Filtered | May_glitch

let verdict_name = function
  | Never -> "never"
  | Filtered -> "filtered"
  | May_glitch -> "may-glitch"

type pair = {
  hp_fall_pin : int;
  hp_rise_pin : int;
  hp_starter_edge : Measure.edge;
  hp_sep : Interval.t;
  hp_min_sep : Interval.t;
  hp_filtered : bool;
  hp_margin : float;
}

type cell_report = {
  hc_name : string;
  hc_gate : string;
  hc_verdict : verdict;
  hc_pairs : pair list;
  hc_out_rise : awin option;
  hc_out_fall : awin option;
  hc_glitch : Interval.t option;
  hc_reaches : string list;
  hc_slack : Interval.t option;
  hc_observable : bool;
  hc_quiet : bool;
}

type t = {
  h_design : Design.t;
  h_nets : net_state option array;
  h_cells : cell_report option array;
  h_unconstrained : string list;
  h_required : float;
  h_filter_margin : float;
}

(* --- the §6 minimum-separation rule ------------------------------------ *)

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

(* corner sampling + spread widening, the Models.delay1_bounds idiom:
   exact on degenerate boxes, a curvature margin otherwise *)
let widen_frac = 0.25

let corner_bounds (lo_a, hi_a) (lo_b, hi_b) f =
  let axis (lo, hi) = if hi > lo then [ lo; hi ] else [ lo ] in
  let vs =
    List.concat_map (fun a -> List.map (fun b -> f a b) (axis (lo_b, hi_b)))
      (axis (lo_a, hi_a))
  in
  let lo = List.fold_left min infinity vs
  and hi = List.fold_left max neg_infinity vs in
  (* [hi > lo] also guards the infinite sentinels: widening a degenerate
     [+inf] box would produce NaN bounds *)
  let m = if hi > lo then widen_frac *. (hi -. lo) else 0. in
  (lo -. m, hi +. m)

let inertial_rule ?opts ?load ~thresholds () : rule =
  let memo : (string * int * int * float * float, float) Hashtbl.t =
    Hashtbl.create 64
  in
  fun cell m ~starter_pin ~starter_edge ~ender_pin ~tau_starter ~tau_ender ->
    let gate = cell.Design.gate in
    (* orient back to Inertial's physical fall/rise convention *)
    let fall_pin, rise_pin =
      match starter_edge with
      | Measure.Rise -> (ender_pin, starter_pin)
      | Measure.Fall -> (starter_pin, ender_pin)
    in
    if fall_pin = rise_pin then
      (* a pulse re-converging on one pin: the two-pin simulation cannot
         drive it, so fall back to the macromodel surrogate *)
      Models.min_separation_bounds m ~starter_pin ~starter_edge ~ender_pin
        ~tau_starter ~tau_ender
    else begin
      let rests_high = Inertial.rests_high gate thresholds ~fall_pin ~rise_pin in
      let physical_starter =
        if rests_high then Measure.Rise else Measure.Fall
      in
      if physical_starter <> starter_edge then
        (* the requested excursion polarity does not exist for this gate:
           the glitch in that orientation never completes *)
        (infinity, infinity)
      else begin
        (* sep (Inertial) is t_rise - t_fall; the oriented separation is
           t_ender - t_starter *)
        let sigma_of_sep sep =
          match starter_edge with Measure.Rise -> -.sep | Measure.Fall -> sep
        in
        let sigma_min ~tau_fall ~tau_rise =
          let key = (gate.Gate.name, fall_pin, rise_pin, tau_fall, tau_rise) in
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
            let v =
              match
                Inertial.minimum_valid_separation ?opts ?load gate thresholds
                  ~fall_pin ~rise_pin ~tau_fall ~tau_rise
              with
              | root -> sigma_of_sep root
              | exception Failure _ ->
                (* no bracket: the glitch either never or always
                   completes in the search window; one probe at the
                   completion-favorable end decides which *)
                let probe = if rests_high then -3e-9 else 3e-9 in
                let g =
                  Inertial.glitch ?opts ?load gate thresholds ~fall_pin
                    ~rise_pin ~tau_fall ~tau_rise ~sep:probe
                in
                if g.Inertial.full_swing then neg_infinity else infinity
            in
            Hashtbl.add memo key v;
            v
        in
        let tau_fall_box, tau_rise_box =
          match starter_edge with
          | Measure.Rise -> (tau_ender, tau_starter)
          | Measure.Fall -> (tau_starter, tau_ender)
        in
        corner_bounds tau_fall_box tau_rise_box (fun tau_fall tau_rise ->
          sigma_min ~tau_fall ~tau_rise)
      end
    end

(* --- forward pass ------------------------------------------------------- *)

(* per-cell forward result, completed by the backward pass *)
type fwd = {
  f_cell : Design.cell;
  f_model : Models.t;
  f_pairs : pair list;
  f_verdict : verdict;
  f_out_rise : awin option;
  f_out_fall : awin option;
  f_glitch : Interval.t option;
  f_wins : (int * Measure.edge * awin) list;
      (* window-bearing input pins: (pin, edge, window) *)
  f_quiet : bool;
}

let win_of (r : Verify.aarrival) =
  { w_time = r.Verify.a_time; w_slew = r.Verify.a_slew }

let hull_win a b =
  {
    w_time = Interval.hull a.w_time b.w_time;
    w_slew = Interval.hull a.w_slew b.w_slew;
  }

(* the never-dominant lemma of Verify, restated over edge windows: with
   one same-edge window per switching input and input [i]'s transition
   window provably excluding every other input, the proximity fold
   degenerates to [i]'s single-input response *)
let never_dominant_wins m wins =
  let bnds (pin, edge, w) =
    let tau = Interval.pair w.w_slew in
    ( pin,
      w,
      Models.delay1_bounds m ~pin ~edge ~tau,
      Models.trans1_bounds m ~pin ~edge ~tau )
  in
  let bs = List.map bnds wins in
  let positive (_, _, (d_lo, _), (t_lo, _)) = d_lo > 0. && t_lo > 0. in
  List.for_all positive bs
  && List.exists
       (fun (pin, w, (_, d_hi), (_, t_hi)) ->
         let wnd = d_hi +. t_hi in
         List.for_all
           (fun (pin', w', _, _) ->
             pin' = pin
             || Interval.lo w'.w_time -. Interval.hi w.w_time >= wnd)
           bs)
       bs

let analyze ?(mode = Sta.Proximity) ?(filter_margin = 25e-12) ?required
    ?(rule = model_rule) ~models ~thresholds design ~pi =
  (match mode with
   | Sta.Collapsed _ ->
     invalid_arg "Proxim_hazard: Collapsed mode is not supported"
   | Sta.Classic | Sta.Proximity -> ());
  let g = Design.graph design in
  let th : Vtc.thresholds = thresholds in
  let half_vdd = th.Vtc.vdd /. 2. in
  let slew_scale = th.Vtc.vdd /. (th.Vtc.vih -. th.Vtc.vil) in
  let nets : net_state option array = Array.make (Graph.net_count g) None in
  (* seed the primary-input windows; several events may target one net
     (same edge: hulled; both edges: a pulse with unknown order) *)
  List.iter
    (fun (ev : Verify.pi_event) ->
      match Graph.net_id g ev.Verify.ev_net with
      | None -> () (* events for unknown nets are inert, as in Sta/Verify *)
      | Some id ->
        if Graph.driver g ~net:id <> None then
          invalid_arg
            ("Proxim_hazard.analyze: net " ^ ev.Verify.ev_net
           ^ " is driven by a cell")
        else begin
          let w = { w_time = ev.Verify.ev_time; w_slew = ev.Verify.ev_tau } in
          let prev =
            Option.value nets.(id)
              ~default:
                { ns_rise = None; ns_fall = None; ns_init = LX; ns_final = LX }
          in
          let merge = function None -> Some w | Some w0 -> Some (hull_win w0 w) in
          let ns =
            match ev.Verify.ev_edge with
            | Measure.Rise -> { prev with ns_rise = merge prev.ns_rise }
            | Measure.Fall -> { prev with ns_fall = merge prev.ns_fall }
          in
          let ns =
            match (ns.ns_rise, ns.ns_fall) with
            | Some _, None -> { ns with ns_init = L0; ns_final = L1 }
            | None, Some _ -> { ns with ns_init = L1; ns_final = L0 }
            | _ -> { ns with ns_init = LX; ns_final = LX }
          in
          nets.(id) <- Some ns
        end)
    pi;
  let fwds : fwd option array = Array.make (Graph.cell_count g) None in
  let process c =
    let cell = Graph.payload g c in
    let gate = cell.Design.gate in
    let ins = Graph.cell_inputs g c in
    let n = Array.length ins in
    let state p = nets.(ins.(p)) in
    let wins =
      List.concat
        (List.init n (fun p ->
           match state p with
           | None -> []
           | Some ns ->
             (match ns.ns_rise with
              | Some w -> [ (p, Measure.Rise, w) ]
              | None -> [])
             @
             (match ns.ns_fall with
              | Some w -> [ (p, Measure.Fall, w) ]
              | None -> [])))
    in
    if wins <> [] then begin
      let m = models cell in
      (* quiet inputs sit at the levels of a switching pin's sensitization
         vector — the Sta/Gate.switching_assist convention.  The vector's
         entry for the reference pin itself is always Vdd, so it must be a
         window-bearing pin, never a quiet one. *)
      let nc =
        let ref_pin = match wins with (p, _, _) :: _ -> p | [] -> assert false in
        Gate.noncontrolling_sensitization gate ~pin:ref_pin
      in
      let value which p =
        match state p with
        | Some ns -> (match which with `Init -> ns.ns_init | `Final -> ns.ns_final)
        | None -> if nc.(p) > half_vdd then L1 else L0
      in
      (* one Kleene evaluation per state gives the output's resting
         levels; LX stands for "both states reachable" *)
      let init_out = Ternary.eval_gate gate (value `Init) in
      let final_out = Ternary.eval_gate gate (value `Final) in
      let rises = List.filter_map (function (p, Measure.Rise, w) -> Some (p, w) | _ -> None) wins in
      let falls = List.filter_map (function (p, Measure.Fall, w) -> Some (p, w) | _ -> None) wins in
      (* opposing-edge pairs, oriented by the output resting level; an
         unknown resting level evaluates both orientations and keeps the
         least-filtered one *)
      let orientations =
        match init_out with
        | L1 -> [ `Rise_starts ]
        | L0 -> [ `Fall_starts ]
        | LX -> [ `Rise_starts; `Fall_starts ]
      in
      let pair_of (fp, fw) (rp, rw) =
        let candidate = function
          | `Rise_starts ->
            let sep = Interval.sub fw.w_time rw.w_time in
            let ms =
              rule cell m ~starter_pin:rp ~starter_edge:Measure.Rise
                ~ender_pin:fp ~tau_starter:(Interval.pair rw.w_slew)
                ~tau_ender:(Interval.pair fw.w_slew)
            in
            (Measure.Rise, sep, Interval.of_pair ms)
          | `Fall_starts ->
            let sep = Interval.sub rw.w_time fw.w_time in
            let ms =
              rule cell m ~starter_pin:fp ~starter_edge:Measure.Fall
                ~ender_pin:rp ~tau_starter:(Interval.pair fw.w_slew)
                ~tau_ender:(Interval.pair rw.w_slew)
            in
            (Measure.Fall, sep, Interval.of_pair ms)
        in
        let margin (_, sep, ms) = Interval.lo ms -. Interval.hi sep in
        let governing =
          match List.map candidate orientations with
          | [] -> assert false
          | c0 :: tl ->
            List.fold_left
              (fun acc c -> if margin c < margin acc then c else acc)
              c0 tl
        in
        let starter_edge, sep, ms = governing in
        let mg = margin governing in
        {
          hp_fall_pin = fp;
          hp_rise_pin = rp;
          hp_starter_edge = starter_edge;
          hp_sep = sep;
          hp_min_sep = ms;
          hp_filtered = mg > 0.;
          hp_margin = mg;
        }
      in
      let pairs = List.concat_map (fun f -> List.map (pair_of f) rises) falls in
      let verdict =
        if pairs = [] then Never
        else if List.for_all (fun p -> p.hp_filtered) pairs then Filtered
        else May_glitch
      in
      (* same-edge group transfers: output rise from the falling inputs,
         output fall from the rising ones (inverting monotone gates) *)
      let resp edge = function
        | [] -> None
        | group ->
          let inputs =
            List.map
              (fun (p, w) ->
                ( p,
                  {
                    Verify.a_time = w.w_time;
                    a_slew = w.w_slew;
                    a_edge = edge;
                  } ))
              group
          in
          Some (win_of (Verify.abstract_response ~mode m ~slew_scale ~edge inputs))
      in
      let out_rise_c = resp Measure.Fall falls in
      let out_fall_c = resp Measure.Rise rises in
      (* §6 refinement: with every pair filtered and definite boolean
         levels, only the net init->final transition can cross the
         thresholds — a static output loses its windows entirely *)
      let out_rise, out_fall =
        if verdict <> May_glitch && init_out <> LX && final_out <> LX then
          match (init_out, final_out) with
          | L0, L1 -> (out_rise_c, None)
          | L1, L0 -> (None, out_fall_c)
          | _ -> (None, None) (* static *)
        else (out_rise_c, out_fall_c)
      in
      let glitch =
        if verdict <> May_glitch then None
        else begin
          (* the excursion leaves the resting level: downward from a
             resting-high output (a fall window), upward from a
             resting-low one *)
          let of_win = Option.map (fun w -> w.w_time) in
          match init_out with
          | L1 -> of_win out_fall_c
          | L0 -> of_win out_rise_c
          | LX -> (
            match (of_win out_rise_c, of_win out_fall_c) with
            | Some a, Some b -> Some (Interval.hull a b)
            | (Some _ as s), None | None, (Some _ as s) -> s
            | None, None -> None)
        end
      in
      let quiet =
        let wpins = List.sort_uniq compare (List.map (fun (p, _, _) -> p) wins) in
        List.length wpins <= 1
        || (pairs = []
           && List.length wins = List.length wpins (* one edge per pin *)
           && (match wins with
              | [] -> true
              | (_, e0, _) :: rest ->
                (* the collapse lemma needs earliest-wins dominance:
                   a gating group (NAND-rising / NOR-falling) folds to
                   the *latest* input, which the pruned fast path does
                   not compute — mirror Verify's not-assist guard *)
                List.for_all (fun (_, e, _) -> e = e0) rest
                && m.Models.assist ~edge:e0
                     ~pins:(List.map (fun (p, _, _) -> p) wins))
           && never_dominant_wins m wins)
      in
      nets.(Graph.cell_output g c) <-
        Some
          {
            ns_rise = out_rise;
            ns_fall = out_fall;
            ns_init = init_out;
            ns_final = final_out;
          };
      fwds.(c) <-
        Some
          {
            f_cell = cell;
            f_model = m;
            f_pairs = pairs;
            f_verdict = verdict;
            f_out_rise = out_rise;
            f_out_fall = out_fall;
            f_glitch = glitch;
            f_wins = wins;
            f_quiet = quiet;
          }
    end
  in
  let topo = Graph.topological g in
  Trace.with_span ~cat:"hazard" "hazard.propagate" (fun () ->
    Array.iter process topo);
  (* backward pass: latest time an event on a net can still reach a
     primary output by the required time, through lower-bound
     single-input delays along window-bearing paths *)
  let required_time =
    match required with
    | Some r -> r
    | None ->
      Array.fold_left
        (fun acc -> function
          | None -> acc
          | Some ns ->
            let top acc = function
              | None -> acc
              | Some w -> Float.max acc (Interval.hi w.w_time)
            in
            top (top acc ns.ns_rise) ns.ns_fall)
        0. nets
  in
  let r_net = Array.make (Graph.net_count g) neg_infinity in
  Trace.with_span ~cat:"hazard" "hazard.required" (fun () ->
    Array.iter (fun po -> r_net.(po) <- required_time) (Graph.primary_outputs g);
    for i = Array.length topo - 1 downto 0 do
      let c = topo.(i) in
      match fwds.(c) with
      | None -> ()
      | Some f ->
        let o = Graph.cell_output g c in
        if r_net.(o) > neg_infinity
           && (f.f_out_rise <> None || f.f_out_fall <> None)
        then begin
          let ins = Graph.cell_inputs g c in
          List.iter
            (fun (p, edge, w) ->
              let d_lo, _ =
                Models.delay1_bounds f.f_model ~pin:p ~edge
                  ~tau:(Interval.pair w.w_slew)
              in
              let net = ins.(p) in
              r_net.(net) <- Float.max r_net.(net) (r_net.(o) -. d_lo))
            f.f_wins
        end
    done);
  (* assemble reports: endpoint reachability and slacks for the
     may-glitch cells *)
  let reports : cell_report option array =
    Array.map
      (Option.map (fun f ->
         let c =
           match Graph.cell_id g f.f_cell.Design.name with
           | Some c -> c
           | None -> assert false
         in
         let o = Graph.cell_output g c in
         let reaches, slack, observable =
           if f.f_verdict <> May_glitch then ([], None, false)
           else begin
             let cone = Graph.fanout_cone g ~nets:[ o ] ~cells:[ c ] in
             let reaches =
               Array.to_list (Graph.primary_outputs g)
               |> List.filter (fun po ->
                    po = o
                    || (match Graph.driver g ~net:po with
                       | Some d -> cone.(d)
                       | None -> false))
               |> List.map (Graph.net_name g)
             in
             let slack =
               match f.f_glitch with
               | Some gw when r_net.(o) > neg_infinity ->
                 Some (Interval.sub (Interval.exact r_net.(o)) gw)
               | _ -> None
             in
             let observable =
               match slack with Some s -> Interval.hi s >= 0. | None -> false
             in
             (reaches, slack, observable)
           end
         in
         {
           hc_name = f.f_cell.Design.name;
           hc_gate = f.f_cell.Design.gate.Gate.name;
           hc_verdict = f.f_verdict;
           hc_pairs = f.f_pairs;
           hc_out_rise = f.f_out_rise;
           hc_out_fall = f.f_out_fall;
           hc_glitch = f.f_glitch;
           hc_reaches = reaches;
           hc_slack = slack;
           hc_observable = observable;
           hc_quiet = f.f_quiet;
         }))
      fwds
  in
  (* quiet primary inputs feeding a cone where an event could create an
     opposing pair the analysis has not seen (the PX304 pattern) *)
  let unconstrained =
    Trace.with_span ~cat:"hazard" "hazard.unconstrained" @@ fun () ->
    let sensitive =
      Graph.reaches g ~cell:(fun c ->
          fwds.(c) <> None && (Graph.payload g c).Design.gate.Gate.fan_in >= 2)
    in
    Array.to_list (Graph.primary_inputs g)
    |> List.filter_map (fun net ->
         if nets.(net) = None && sensitive.(net) then
           Some (Graph.net_name g net)
         else None)
  in
  let classified = Array.fold_left (fun n f -> if f <> None then n + 1 else n) 0 fwds in
  let may =
    Array.fold_left
      (fun n -> function
        | Some f when f.f_verdict = May_glitch -> n + 1
        | _ -> n)
      0 fwds
  in
  Metrics.Counter.add c_classified classified;
  Metrics.Counter.add c_may may;
  {
    h_design = design;
    h_nets = nets;
    h_cells = reports;
    h_unconstrained = unconstrained;
    h_required = required_time;
    h_filter_margin = filter_margin;
  }

(* --- accessors ---------------------------------------------------------- *)

let design t = t.h_design

let cell_report t ~cell =
  Option.bind (Graph.cell_id (Design.graph t.h_design) cell) (fun id ->
    t.h_cells.(id))

let cells t =
  Array.to_list (Graph.topological (Design.graph t.h_design))
  |> List.filter_map (fun c -> t.h_cells.(c))

let net_state t ~net =
  Option.bind (Graph.net_id (Design.graph t.h_design) net) (fun id ->
    t.h_nets.(id))

let unconstrained_pis t = t.h_unconstrained
let required t = t.h_required

type summary = {
  total_cells : int;
  classified : int;
  never : int;
  filtered : int;
  may_glitch : int;
  observable : int;
}

let summary t =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some r ->
        let acc = { acc with classified = acc.classified + 1 } in
        let acc =
          if r.hc_observable then { acc with observable = acc.observable + 1 }
          else acc
        in
        (match r.hc_verdict with
         | Never -> { acc with never = acc.never + 1 }
         | Filtered -> { acc with filtered = acc.filtered + 1 }
         | May_glitch -> { acc with may_glitch = acc.may_glitch + 1 }))
    {
      total_cells = Array.length t.h_cells;
      classified = 0;
      never = 0;
      filtered = 0;
      may_glitch = 0;
      observable = 0;
    }
    t.h_cells

let quiet_mask t =
  Array.map
    (function
      | Some r -> r.hc_quiet
      (* a cell none of whose inputs carry a window never switches in an
         admissible run, so the fast path is never consulted *)
      | None -> true)
    t.h_cells

(* --- logic refinement --------------------------------------------------- *)

type refinement = { refined_pairs : int; refined_cells : int }

let refine t ~impossible =
  let n_pairs = ref 0 and n_cells = ref 0 in
  let refined =
    Array.map
      (function
        | None -> None
        | Some r ->
          let keep, dropped =
            List.partition
              (fun p ->
                (* a same-pin pulse pair has no two-pin sensitization
                   question to ask — always kept *)
                p.hp_fall_pin = p.hp_rise_pin
                || not
                     (impossible ~cell:r.hc_name ~a:p.hp_fall_pin
                        ~b:p.hp_rise_pin))
              r.hc_pairs
          in
          if dropped = [] then Some r
          else begin
            n_pairs := !n_pairs + List.length dropped;
            let verdict =
              if keep = [] then Never
              else if List.for_all (fun p -> p.hp_filtered) keep then Filtered
              else May_glitch
            in
            if r.hc_verdict = May_glitch && verdict <> May_glitch then
              incr n_cells;
            let demoted = verdict <> May_glitch in
            Some
              {
                r with
                hc_pairs = keep;
                hc_verdict = verdict;
                hc_glitch = (if demoted then None else r.hc_glitch);
                hc_slack = (if demoted then None else r.hc_slack);
                hc_observable = (if demoted then false else r.hc_observable);
              }
          end)
      t.h_cells
  in
  ( { t with h_cells = refined },
    { refined_pairs = !n_pairs; refined_cells = !n_cells } )

(* --- diagnostics -------------------------------------------------------- *)

let ps i = Interval.scale 1e12 i

let governing_pair r =
  match r.hc_pairs with
  | [] -> None
  | p0 :: tl ->
    Some
      (List.fold_left
         (fun acc p -> if p.hp_margin < acc.hp_margin then p else acc)
         p0 tl)

let check ?file t =
  Trace.with_span ~cat:"hazard" "hazard.check" @@ fun () ->
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iter
    (function
      | None -> ()
      | Some r ->
        (match (r.hc_verdict, governing_pair r) with
         | May_glitch, Some p ->
           add
             (Diagnostic.make ?file ~context:r.hc_name Diagnostic.PX401
                "static hazard possible: pins %d (fall) and %d (rise) reach \
                 oriented separation %s ps vs minimum %s ps — the §6 filter \
                 may not absorb the glitch"
                p.hp_fall_pin p.hp_rise_pin
                (Interval.to_string (ps p.hp_sep))
                (Interval.to_string (ps p.hp_min_sep)))
         | _ -> ());
        (if r.hc_observable then
           match r.hc_slack with
           | Some s ->
             add
               (Diagnostic.make ?file ~context:r.hc_name Diagnostic.PX402
                  "possible glitch can reach primary output%s %s within its \
                   observability window (endpoint slack %s ps)"
                  (if List.length r.hc_reaches = 1 then "" else "s")
                  (String.concat ", " r.hc_reaches)
                  (Interval.to_string (ps s)))
           | None -> ());
        if r.hc_verdict = Filtered then
          List.iter
            (fun p ->
              if p.hp_filtered && p.hp_margin <= t.h_filter_margin then
                add
                  (Diagnostic.make ?file ~context:r.hc_name Diagnostic.PX403
                     "filtered hazard within the widening band: pins %d \
                      (fall) and %d (rise) clear the §6 threshold by only \
                      %.1f ps (separation %s ps vs minimum %s ps)"
                     p.hp_fall_pin p.hp_rise_pin (p.hp_margin *. 1e12)
                     (Interval.to_string (ps p.hp_sep))
                     (Interval.to_string (ps p.hp_min_sep))))
            r.hc_pairs)
    t.h_cells;
  List.iter
    (fun pi_net ->
      add
        (Diagnostic.make ?file ~context:pi_net Diagnostic.PX404
           "primary input %s carries no event but feeds a glitch-capable \
            cone — an event on it could form an opposing-edge pair"
           pi_net))
    t.h_unconstrained;
  Diagnostic.sort !diags

let report_text t =
  let s = summary t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "hazard analysis: %d of %d cells classified; never %d, filtered %d, \
        may-glitch %d (%d observable at endpoints); required %.1f ps\n"
       s.classified s.total_cells s.never s.filtered s.may_glitch s.observable
       (t.h_required *. 1e12));
  let mays =
    cells t
    |> List.filter (fun r -> r.hc_verdict = May_glitch)
    |> List.sort (fun a b ->
         let key r =
           match r.hc_slack with
           | Some s -> -.Interval.hi s
           | None -> infinity
         in
         compare (key a) (key b))
  in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %-6s glitch %s ps  slack %s ps  -> %s\n"
           r.hc_name r.hc_gate
           (match r.hc_glitch with
            | Some gw -> Interval.to_string (ps gw)
            | None -> "-")
           (match r.hc_slack with
            | Some s -> Interval.to_string (ps s)
            | None -> "-")
           (match r.hc_reaches with
            | [] -> "(no endpoint)"
            | l -> String.concat "," l)))
    mays;
  Buffer.contents buf

module Measure = Proxim_measure.Measure
module Models = Proxim_macromodel.Models
module Gate = Proxim_gates.Gate
module Ternary = Proxim_gates.Ternary
module Inertial = Proxim_core.Inertial
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Diagnostic = Proxim_lint.Diagnostic
module Trace = Proxim_obs.Trace
module Metrics = Proxim_obs.Metrics
module Interval = Proxim_verify.Interval
module Verify = Proxim_verify.Verify

let c_classified = Metrics.Counter.v "hazard.cells_classified"
let c_may = Metrics.Counter.v "hazard.may_glitch"

(* --- windows and values: the forward pass's, re-exported ------------- *)

type awin = Verify.awin = { w_time : Interval.t; w_slew : Interval.t }

type logic = Ternary.logic = L0 | L1 | LX

type net_state = Verify.net_state = {
  ns_rise : awin option;
  ns_fall : awin option;
  ns_init : logic;
  ns_final : logic;
}

type verdict = Verify.verdict = Never | Filtered | May_glitch

let verdict_name = function
  | Never -> "never"
  | Filtered -> "filtered"
  | May_glitch -> "may-glitch"

type pair = Verify.pair = {
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

type rule = Verify.rule

let model_rule = Verify.model_rule

let inertial_rule ?load ~thresholds () : rule =
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
                Inertial.minimum_valid_separation ?load gate thresholds
                  ~fall_pin ~rise_pin ~tau_fall ~tau_rise
              with
              | root -> sigma_of_sep root
              | exception Failure _ ->
                (* no bracket: the glitch either never or always
                   completes in the search window; one probe at the
                   completion-favorable end decides which *)
                let probe = if rests_high then -3e-9 else 3e-9 in
                let g =
                  Inertial.glitch ?load gate thresholds ~fall_pin
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
        (* the box's corners exactly: [lo + (hi - lo)] need not be [hi] *)
        let corners (lo, hi) = if hi > lo then [ lo; hi ] else [ lo ] in
        Models.bounds_over
          (List.concat_map
             (fun tau_fall ->
               List.map (fun tau_rise -> (tau_fall, tau_rise))
                 (corners tau_rise_box))
             (corners tau_fall_box))
          (fun (tau_fall, tau_rise) -> sigma_min ~tau_fall ~tau_rise)
      end
    end

(* --- the mixed-edge view ------------------------------------------------ *)

let analyze ?mode ?(filter_margin = 25e-12) ?required ?rule ~models
    ~thresholds design ~pi =
  let fl = Verify.flow ?mode ?rule ~models ~thresholds design ~pi in
  let g = Design.graph fl.Verify.fl_design in
  let nets = fl.Verify.fl_nets and fwds = fl.Verify.fl_cells in
  (* a cell's output windows, after the §6 refinement *)
  let out_windows c =
    match nets.(Graph.cell_output g c) with
    | Some ns -> (ns.ns_rise, ns.ns_fall)
    | None -> (None, None)
  in
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
  let topo = Graph.topological g in
  let r_net = Array.make (Graph.net_count g) neg_infinity in
  Trace.with_span ~cat:"hazard" "hazard.required" (fun () ->
    Array.iter (fun po -> r_net.(po) <- required_time) (Graph.primary_outputs g);
    for k = Array.length topo - 1 downto 0 do
      let c = topo.(k) in
      match fwds.(c) with
      | None -> ()
      | Some f ->
        let o = Graph.cell_output g c in
        if r_net.(o) > neg_infinity && out_windows c <> (None, None) then begin
          let ins = Graph.cell_inputs g c in
          List.iter
            (fun (pin, d1) ->
              let net = ins.(pin) in
              r_net.(net) <- Float.max r_net.(net) (r_net.(o) -. Interval.lo d1))
            f.Verify.f_delays
        end
    done);
  (* the primary outputs a cell's fanout cone drives, in primary-output
     order: one visited stamp per cell, shared by every cone walk *)
  let pos = Graph.primary_outputs g in
  let po_ranks = Array.make (Graph.net_count g) [] in
  Array.iteri (fun k po -> po_ranks.(po) <- k :: po_ranks.(po)) pos;
  let stamp = Array.make (Graph.cell_count g) (-1) in
  let reaches c =
    let found = ref [] in
    let rec visit d =
      if stamp.(d) <> c then begin
        stamp.(d) <- c;
        let o = Graph.cell_output g d in
        found := List.rev_append po_ranks.(o) !found;
        Graph.iter_readers g ~net:o (fun r _ -> visit r)
      end
    in
    visit c;
    List.map (fun k -> Graph.net_name g pos.(k)) (List.sort Int.compare !found)
  in
  (* endpoint reachability and slacks for the may-glitch cells *)
  let reports : cell_report option array =
    Trace.with_span ~cat:"hazard" "hazard.reports" @@ fun () ->
    Array.mapi
      (fun c -> function
        | None -> None
        | Some (f : Verify.fwd) ->
          let o = Graph.cell_output g c in
          let reaches, slack, observable =
            if f.Verify.f_verdict <> May_glitch then ([], None, false)
            else begin
              let slack =
                match f.Verify.f_glitch with
                | Some gw when r_net.(o) > neg_infinity ->
                  Some (Interval.sub (Interval.exact r_net.(o)) gw)
                | _ -> None
              in
              let observable =
                match slack with Some s -> Interval.hi s >= 0. | None -> false
              in
              (reaches c, slack, observable)
            end
          in
          let cell = f.Verify.f_cell in
          Some
            {
              hc_name = cell.Design.name;
              hc_gate = cell.Design.gate.Gate.name;
              hc_verdict = f.Verify.f_verdict;
              hc_pairs = f.Verify.f_pairs;
              hc_glitch = f.Verify.f_glitch;
              hc_reaches = reaches;
              hc_slack = slack;
              hc_observable = observable;
              hc_quiet = f.Verify.f_quiet;
            })
      fwds
  in
  let classified = Array.fold_left (fun n f -> if f <> None then n + 1 else n) 0 fwds in
  let may =
    Array.fold_left
      (fun n -> function
        | Some (f : Verify.fwd) when f.Verify.f_verdict = May_glitch -> n + 1
        | _ -> n)
      0 fwds
  in
  Metrics.Counter.add c_classified classified;
  Metrics.Counter.add c_may may;
  {
    h_design = fl.Verify.fl_design;
    h_nets = nets;
    h_cells = reports;
    h_unconstrained = fl.Verify.fl_unconstrained;
    h_required = required_time;
    h_filter_margin = filter_margin;
  }

(* --- accessors ---------------------------------------------------------- *)

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
                (Interval.to_ps_string p.hp_sep)
                (Interval.to_ps_string p.hp_min_sep))
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
                  (Interval.to_ps_string s))
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
                     (Interval.to_ps_string p.hp_sep)
                     (Interval.to_ps_string p.hp_min_sep)))
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
            | Some gw -> Interval.to_ps_string gw
            | None -> "-")
           (match r.hc_slack with
            | Some s -> Interval.to_ps_string s
            | None -> "-")
           (match r.hc_reaches with
            | [] -> "(no endpoint)"
            | l -> String.concat "," l)))
    mays;
  Buffer.contents buf

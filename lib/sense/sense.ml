(* Static sensitization analysis: a ternary (0/1/X) constant-propagation
   and activity pass over the timing-graph IR, plus a bounded implication
   engine deciding per-pair static sensitization by exhaustive
   enumeration of the quiet-input support of the pair's fanin cone.
   Pure logic — no macromodels, no simulator.  See the .mli for the
   semantic contract and the soundness notes. *)

module Measure = Proxim_measure.Measure
module Gate = Proxim_gates.Gate
module Ternary = Proxim_gates.Ternary
module Graph = Proxim_timing.Graph
module Design = Proxim_sta.Design
module Diagnostic = Proxim_lint.Diagnostic
module Trace = Proxim_obs.Trace
module Metrics = Proxim_obs.Metrics

let c_pairs = Metrics.Counter.v "sense.pairs_classified"
let c_unsens = Metrics.Counter.v "sense.pairs_unsensitizable"
let c_exhausted = Metrics.Counter.v "sense.pairs_exhausted"
let c_constants = Metrics.Counter.v "sense.constant_nets"

(* --- logic ------------------------------------------------------------- *)

type logic = Ternary.logic = L0 | L1 | LX

(* --- inputs ------------------------------------------------------------- *)

type stimulus = Switch of Measure.edge | Pulse | Const of bool

let stimuli_of_events ?(consts = []) events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Proxim_verify.Verify.pi_event) ->
      let net = ev.Proxim_verify.Verify.ev_net in
      let edge = ev.Proxim_verify.Verify.ev_edge in
      match Hashtbl.find_opt tbl net with
      | None -> Hashtbl.replace tbl net (Switch edge)
      | Some (Switch e) when e <> edge -> Hashtbl.replace tbl net Pulse
      | Some _ -> ())
    events;
  let eventful =
    Hashtbl.fold (fun net st acc -> (net, st) :: acc) tbl []
    (* hash order is unspecified; report orders must not depend on it *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (net, _) ->
      if Hashtbl.mem tbl net then
        invalid_arg
          (Printf.sprintf
             "Sense.stimuli_of_events: net %s is both pinned constant and \
              switching"
             net))
    consts;
  eventful @ List.map (fun (net, b) -> (net, Const b)) consts

(* --- results ------------------------------------------------------------ *)

type activity = {
  act_init : logic;
  act_final : logic;
  act_steady : bool;
  act_active : bool;
  act_may_rise : bool;
  act_may_fall : bool;
  act_may_pulse : bool;
}

type decision =
  | Sensitizable of (string * bool) list
  | Unsensitizable of string
  | Exhausted of string

type pair_info = {
  sp_a : int;
  sp_b : int;
  sp_support : string list;
  sp_cone_cells : int;
  sp_decision : decision;
}

type cell_info = {
  sc_name : string;
  sc_gate : string;
  sc_active : int list;
  sc_pairs : pair_info list;
  sc_false_path : bool;
}

type t = {
  s_design : Design.t;
  s_acts : activity array;  (* per net id *)
  s_cells : cell_info option array Lazy.t;
      (* per cell id; >= 2 active inputs.  The pair implications are the
         analysis' cost and the prune mask never reads them, so they run
         on first use *)
  s_constants : (string * bool) list;
  s_prunable : bool array;  (* per cell id: <= 1 event-bearing input *)
}

(* --- the activity pass -------------------------------------------------- *)

let quiet_activity =
  {
    act_init = LX;
    act_final = LX;
    act_steady = true;
    act_active = false;
    act_may_rise = false;
    act_may_fall = false;
    act_may_pulse = false;
  }

let pi_activity = function
  | None -> quiet_activity
  | Some (Switch Measure.Rise) ->
    {
      act_init = L0;
      act_final = L1;
      act_steady = false;
      act_active = true;
      act_may_rise = true;
      act_may_fall = false;
      act_may_pulse = false;
    }
  | Some (Switch Measure.Fall) ->
    {
      act_init = L1;
      act_final = L0;
      act_steady = false;
      act_active = true;
      act_may_rise = false;
      act_may_fall = true;
      act_may_pulse = false;
    }
  | Some Pulse ->
    {
      act_init = LX;
      act_final = LX;
      act_steady = false;
      act_active = true;
      act_may_rise = false;
      act_may_fall = false;
      act_may_pulse = true;
    }
  | Some (Const b) ->
    {
      quiet_activity with
      act_init = (if b then L1 else L0);
      act_final = (if b then L1 else L0);
    }

let cell_activity g c acts =
  let cell : Design.cell = Graph.payload g c in
  let inputs = Graph.cell_inputs g c in
  let input_act pin = acts.(inputs.(pin)) in
  let init = Ternary.eval_gate cell.Design.gate (fun p -> (input_act p).act_init) in
  let final = Ternary.eval_gate cell.Design.gate (fun p -> (input_act p).act_final) in
  let n = Array.length inputs in
  let exists f =
    let rec go i = i < n && (f (input_act i) || go (i + 1)) in
    go 0
  in
  let for_all f = not (exists (fun a -> not (f a))) in
  let active = exists (fun a -> a.act_active) in
  let definite_equal = init = final && init <> LX in
  let steady = for_all (fun a -> a.act_steady) || definite_equal in
  (* inverting gates: output completes a rise from falling inputs, a fall
     from rising ones; a steady output completes neither *)
  let may_rise = (not steady) && exists (fun a -> a.act_may_fall) in
  let may_fall = (not steady) && exists (fun a -> a.act_may_rise) in
  (* a pulse reaches the output through any pulsing input, or from
     opposing completed transitions reconverging on two distinct pins *)
  let opposing =
    let up = ref false and down = ref false and both = ref 0 in
    Array.iter
      (fun net ->
        let a = acts.(net) in
        if a.act_may_rise && a.act_may_fall then incr both
        else if a.act_may_rise then up := true
        else if a.act_may_fall then down := true)
      inputs;
    (!up && !down) || (!both >= 2)
    || (!both >= 1 && (!up || !down))
  in
  let may_pulse = exists (fun a -> a.act_may_pulse) || opposing in
  {
    act_init = init;
    act_final = final;
    act_steady = steady;
    act_active = active;
    act_may_rise = may_rise;
    act_may_fall = may_fall;
    act_may_pulse = may_pulse;
  }

(* --- the implication engine --------------------------------------------- *)

let default_budget = 128
let default_max_support = 10

exception Cone_too_big

(* the pair's fanin cone in topological order (drivers first), or None
   past the budget — DFS with a local seen table so a big design does
   not pay an O(cells) allocation per pair *)
let bounded_cone g ~budget roots =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit c =
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      if Hashtbl.length seen > budget then raise Cone_too_big;
      Array.iter
        (fun net ->
          let d = Graph.driver_id g ~net in
          if d >= 0 then visit d)
        (Graph.cell_inputs g c);
      order := c :: !order
    end
  in
  match List.iter visit roots with
  | () -> Some (List.rev !order)
  | exception Cone_too_big -> None

let cube_string support bits =
  if support = [] then "(empty cube)"
  else
    String.concat " "
      (List.mapi
         (fun i net ->
           Printf.sprintf "%s=%d" net (if bits land (1 lsl i) <> 0 then 1 else 0))
         support)

(* Decide one net pair: does any assignment of the free (quiet or pulse)
   primary inputs in the cone make both nets change value between the
   frames?  Exhaustive over the support, exact boolean two-frame
   evaluation per cube. *)
let decide_nets g ~stim ~acts ~budget ~max_support ~init_val ~final_val na nb =
  let taint net =
    if acts.(net).act_may_pulse then
      Some
        (Printf.sprintf
           "a pulse can reach net %s — the two-frame argument proves nothing"
           (Graph.net_name g net))
    else None
  in
  match (taint na, taint nb) with
  | Some r, _ | _, Some r -> ([], 0, Exhausted r)
  | None, None -> (
    let roots =
      List.filter (fun d -> d >= 0)
        [ Graph.driver_id g ~net:na; Graph.driver_id g ~net:nb ]
    in
    match bounded_cone g ~budget roots with
    | None ->
      ( [],
        budget,
        Exhausted
          (Printf.sprintf "fanin cone exceeds the %d-cell budget" budget) )
    | Some cone ->
      let n_cone = List.length cone in
      (* primary-input nets the cone (or the pins themselves) read; free
         ones form the enumeration support *)
      let pi_nets = Hashtbl.create 16 in
      let note net =
        if Graph.driver_id g ~net < 0 then Hashtbl.replace pi_nets net ()
      in
      note na;
      note nb;
      List.iter
        (fun c -> Array.iter note (Graph.cell_inputs g c))
        cone;
      let free net =
        match Hashtbl.find_opt stim net with
        | None | Some Pulse -> true
        | Some (Switch _) | Some (Const _) -> false
      in
      let support =
        Hashtbl.fold (fun net () acc -> if free net then net :: acc else acc)
          pi_nets []
        |> List.sort compare
      in
      let support_names = List.map (Graph.net_name g) support in
      let k = List.length support in
      if k > max_support then
        ( support_names,
          n_cone,
          Exhausted
            (Printf.sprintf "support of %d free inputs exceeds the %d limit"
               k max_support) )
      else begin
        let eval bits =
          Hashtbl.iter
            (fun net () ->
              let iv, fv =
                match Hashtbl.find_opt stim net with
                | Some (Switch Measure.Rise) -> (false, true)
                | Some (Switch Measure.Fall) -> (true, false)
                | Some (Const b) -> (b, b)
                | Some Pulse | None ->
                  (* free: the cube bit, identical in both frames *)
                  let rec index i = function
                    | [] -> assert false
                    | n :: _ when n = net -> i
                    | _ :: tl -> index (i + 1) tl
                  in
                  let b = bits land (1 lsl index 0 support) <> 0 in
                  (b, b)
              in
              init_val.(net) <- iv;
              final_val.(net) <- fv)
            pi_nets;
          List.iter
            (fun c ->
              let cell : Design.cell = Graph.payload g c in
              let inputs = Graph.cell_inputs g c in
              let out = Graph.cell_output g c in
              init_val.(out) <-
                Gate.eval_bool cell.Design.gate (fun p ->
                  init_val.(inputs.(p)));
              final_val.(out) <-
                Gate.eval_bool cell.Design.gate (fun p ->
                  final_val.(inputs.(p))))
            cone;
          ( init_val.(na) <> final_val.(na),
            init_val.(nb) <> final_val.(nb) )
        in
        let cubes = 1 lsl k in
        let first_a = ref (-1) and first_b = ref (-1) in
        let joint = ref (-1) in
        let bits = ref 0 in
        while !joint < 0 && !bits < cubes do
          let sa, sb = eval !bits in
          if sa && !first_a < 0 then first_a := !bits;
          if sb && !first_b < 0 then first_b := !bits;
          if sa && sb then joint := !bits;
          incr bits
        done;
        let name n = Graph.net_name g n in
        let decision =
          if !joint >= 0 then
            Sensitizable
              (List.mapi
                 (fun i net ->
                   (Graph.net_name g net, !joint land (1 lsl i) <> 0))
                 support)
          else if !first_a < 0 then
            Unsensitizable
              (Printf.sprintf "net %s changes under none of the %d support \
                               cubes" (name na) cubes)
          else if !first_b < 0 then
            Unsensitizable
              (Printf.sprintf "net %s changes under none of the %d support \
                               cubes" (name nb) cubes)
          else begin
            (* each pin can switch alone, never jointly: exhibit a cube
               switching [na] while [nb] holds *)
            let _, _ = eval !first_a in
            let held = if final_val.(nb) then "1" else "0" in
            Unsensitizable
              (Printf.sprintf
                 "nets %s and %s never change together over %d cubes: %s \
                  switches %s but holds %s at %s"
                 (name na) (name nb) cubes
                 (cube_string support_names !first_a)
                 (name na) (name nb) held)
          end
        in
        (support_names, n_cone, decision)
      end)

(* --- analysis ----------------------------------------------------------- *)

(* a cell's event-bearing input pins, pin order *)
let active_pins g acts c =
  let inputs = Graph.cell_inputs g c in
  List.filter
    (fun pin -> acts.(inputs.(pin)).act_active)
    (List.init (Array.length inputs) Fun.id)

(* implication pass over cells with >= 2 event-bearing inputs *)
let pair_pass g ~stim ~acts ~budget ~max_support =
  Trace.with_span ~cat:"sense" "sense.pairs" @@ fun () ->
  let init_val = Array.make (Graph.net_count g) false in
  let final_val = Array.make (Graph.net_count g) false in
  let memo = Hashtbl.create 64 in
  let decide na nb =
    let key = (min na nb, max na nb) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        decide_nets g ~stim ~acts ~budget ~max_support ~init_val ~final_val
          na nb
      in
      Hashtbl.replace memo key r;
      r
  in
  let infos = Array.make (Graph.cell_count g) None in
  Array.iter
    (fun c ->
      let cell : Design.cell = Graph.payload g c in
      let inputs = Graph.cell_inputs g c in
      let active = active_pins g acts c in
      if List.length active >= 2 then begin
        let pairs = ref [] in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if j > i then begin
                  let support, cone, decision =
                    decide inputs.(a) inputs.(b)
                  in
                  Metrics.Counter.incr c_pairs;
                  (match decision with
                   | Unsensitizable _ -> Metrics.Counter.incr c_unsens
                   | Exhausted _ -> Metrics.Counter.incr c_exhausted
                   | Sensitizable _ -> ());
                  pairs :=
                    {
                      sp_a = a;
                      sp_b = b;
                      sp_support = support;
                      sp_cone_cells = cone;
                      sp_decision = decision;
                    }
                    :: !pairs
                end)
              active)
          active;
        let pairs = List.rev !pairs in
        let false_path =
          pairs <> []
          && List.for_all
               (fun p ->
                 match p.sp_decision with
                 | Unsensitizable _ -> true
                 | _ -> false)
               pairs
        in
        infos.(c) <-
          Some
            {
              sc_name = cell.Design.name;
              sc_gate = cell.Design.gate.Gate.name;
              sc_active = active;
              sc_pairs = pairs;
              sc_false_path = false_path;
            }
      end)
    (Graph.topological g);
  infos

let analyze ?(budget = default_budget) ?(max_support = default_max_support)
    design ~pi =
  Trace.with_span ~cat:"sense" "sense.analyze" @@ fun () ->
  if budget <= 0 then invalid_arg "Sense.analyze: budget must be positive";
  if max_support < 0 then
    invalid_arg "Sense.analyze: max_support must be nonnegative";
  let g = Design.graph design in
  let n_nets = Graph.net_count g in
  let n_cells = Graph.cell_count g in
  (* stimuli, keyed by net id; unknown nets are inert like Sta.analyze *)
  let stim = Hashtbl.create 16 in
  List.iter
    (fun (net, st) ->
      match Graph.net_id g net with
      | None -> ()
      | Some id ->
        if Graph.driver_id g ~net:id >= 0 then
          invalid_arg
            (Printf.sprintf "Sense.analyze: stimulus on cell-driven net %s"
               net);
        Hashtbl.replace stim id st)
    pi;
  (* forward ternary/activity pass *)
  let acts = Array.make n_nets quiet_activity in
  Array.iter
    (fun net -> acts.(net) <- pi_activity (Hashtbl.find_opt stim net))
    (Graph.primary_inputs g);
  Array.iter
    (fun c -> acts.(Graph.cell_output g c) <- cell_activity g c acts)
    (Graph.topological g);
  (* derived constants: cell-driven, event-bearing, pinned definite *)
  let constants =
    Array.to_list (Graph.topological g)
    |> List.filter_map (fun c ->
         let o = Graph.cell_output g c in
         let a = acts.(o) in
         if a.act_active && a.act_init = a.act_final && a.act_init <> LX
         then Some (Graph.net_name g o, a.act_init = L1)
         else None)
  in
  Metrics.Counter.add c_constants (List.length constants);
  let prunable =
    Array.init n_cells (fun c -> List.length (active_pins g acts c) <= 1)
  in
  let infos = lazy (pair_pass g ~stim ~acts ~budget ~max_support) in
  {
    s_design = design;
    s_acts = acts;
    s_cells = infos;
    s_constants = constants;
    s_prunable = prunable;
  }

(* --- accessors ---------------------------------------------------------- *)

let activity t ~net =
  Option.map
    (fun id -> t.s_acts.(id))
    (Graph.net_id (Design.graph t.s_design) net)

let constants t = t.s_constants

let cell_info t ~cell =
  Option.bind (Graph.cell_id (Design.graph t.s_design) cell) (fun id ->
    (Lazy.force t.s_cells).(id))

let cells t =
  let infos = Lazy.force t.s_cells in
  Array.to_list (Graph.topological (Design.graph t.s_design))
  |> List.filter_map (fun c -> infos.(c))

type summary = {
  total_cells : int;
  classified_cells : int;
  pairs : int;
  sensitizable : int;
  unsensitizable : int;
  exhausted : int;
  constant_nets : int;
  false_path_cells : int;
  prunable_cells : int;
}

let summary t =
  let acc =
    ref
      {
        total_cells = Array.length t.s_prunable;
        classified_cells = 0;
        pairs = 0;
        sensitizable = 0;
        unsensitizable = 0;
        exhausted = 0;
        constant_nets = List.length t.s_constants;
        false_path_cells = 0;
        prunable_cells = 0;
      }
  in
  Array.iter
    (fun b -> if b then acc := { !acc with prunable_cells = !acc.prunable_cells + 1 })
    t.s_prunable;
  Array.iter
    (function
      | None -> ()
      | Some ci ->
        let a = !acc in
        let a =
          {
            a with
            classified_cells = a.classified_cells + 1;
            false_path_cells =
              (a.false_path_cells + if ci.sc_false_path then 1 else 0);
          }
        in
        acc :=
          List.fold_left
            (fun a p ->
              let a = { a with pairs = a.pairs + 1 } in
              match p.sp_decision with
              | Sensitizable _ -> { a with sensitizable = a.sensitizable + 1 }
              | Unsensitizable _ ->
                { a with unsensitizable = a.unsensitizable + 1 }
              | Exhausted _ -> { a with exhausted = a.exhausted + 1 })
            a ci.sc_pairs)
    (Lazy.force t.s_cells);
  !acc

(* --- consumers ---------------------------------------------------------- *)

let prune_mask t = Array.copy t.s_prunable

let pair_unsensitizable t ~cell ~a ~b =
  let g = Design.graph t.s_design in
  match Graph.cell_id g cell with
  | None -> false
  | Some id ->
    let inputs = Graph.cell_inputs g id in
    let n = Array.length inputs in
    if a < 0 || b < 0 || a >= n || b >= n then false
    else begin
      (* a pin whose net is provably inert (no event, no pulse) can
         never pair with anything *)
      let inert pin =
        let act = t.s_acts.(inputs.(pin)) in
        (not act.act_active) && not act.act_may_pulse
      in
      if inert a || inert b then true
      else
        match (Lazy.force t.s_cells).(id) with
        | None -> false
        | Some ci ->
          let lo = min a b and hi = max a b in
          List.exists
            (fun p ->
              p.sp_a = lo && p.sp_b = hi
              &&
              match p.sp_decision with
              | Unsensitizable _ -> true
              | _ -> false)
            ci.sc_pairs
    end

let check ?file t =
  Trace.with_span ~cat:"sense" "sense.check" @@ fun () ->
  let g = Design.graph t.s_design in
  let infos = Lazy.force t.s_cells in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (net, v) ->
      let consumers =
        match Graph.net_id g net with
        | None -> []
        | Some id ->
          let found = ref [] in
          Graph.iter_readers g ~net:id (fun c _ ->
            if infos.(c) <> None then found := Graph.cell_name g c :: !found);
          List.sort_uniq compare !found
      in
      if consumers <> [] then
        add
          (Diagnostic.make ?file ~context:net Diagnostic.PX501
             "net %s is statically constant %d (ternary constant \
              propagation) yet structurally carries an event — proximity \
              pairs involving it at %s are false"
             net
             (if v then 1 else 0)
             (String.concat ", " consumers)))
    t.s_constants;
  Array.iter
    (function
      | None -> ()
      | Some ci ->
        if ci.sc_false_path then
          add
            (Diagnostic.make ?file ~context:ci.sc_name Diagnostic.PX502
               "all %d event-bearing input pairs are statically \
                unsensitizable — the multi-input proximity arc through \
                this cell is a false path"
               (List.length ci.sc_pairs));
        List.iter
          (fun p ->
            match p.sp_decision with
            | Unsensitizable why ->
              add
                (Diagnostic.make ?file ~context:ci.sc_name Diagnostic.PX503
                   "pins %d and %d pruned by implication: %s" p.sp_a p.sp_b
                   why)
            | Exhausted why ->
              add
                (Diagnostic.make ?file ~context:ci.sc_name Diagnostic.PX504
                   "pins %d and %d: implication budget exhausted (%s) — \
                    the pair conservatively stays sensitizable"
                   p.sp_a p.sp_b why)
            | Sensitizable _ -> ())
          ci.sc_pairs)
    infos;
  Diagnostic.sort !diags

let report_text t =
  let s = summary t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "sensitization: %d of %d cells classified; %d pairs — %d \
        sensitizable, %d unsensitizable, %d exhausted; %d derived \
        constants, %d false-path cells, %d prunable cells\n"
       s.classified_cells s.total_cells s.pairs s.sensitizable
       s.unsensitizable s.exhausted s.constant_nets s.false_path_cells
       s.prunable_cells);
  List.iter
    (fun (net, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  const %-12s = %d\n" net (if v then 1 else 0)))
    t.s_constants;
  List.iter
    (fun ci ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %-6s active pins [%s]%s\n" ci.sc_name
           ci.sc_gate
           (String.concat " " (List.map string_of_int ci.sc_active))
           (if ci.sc_false_path then "  FALSE PATH" else ""));
      List.iter
        (fun p ->
          let verdict, detail =
            match p.sp_decision with
            | Sensitizable cube ->
              ( "sensitizable",
                if cube = [] then "(no free inputs)"
                else
                  String.concat " "
                    (List.map
                       (fun (n, b) ->
                         Printf.sprintf "%s=%d" n (if b then 1 else 0))
                       cube) )
            | Unsensitizable why -> ("unsensitizable", why)
            | Exhausted why -> ("exhausted", why)
          in
          Buffer.add_string buf
            (Printf.sprintf "    (%d,%d) %-14s %s\n" p.sp_a p.sp_b verdict
               detail))
        ci.sc_pairs)
    (cells t);
  Buffer.contents buf

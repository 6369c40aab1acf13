module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Interp = Proxim_util.Interp
module Floatx = Proxim_util.Floatx

let oracle ?load gate th ~dom ~other ~edge ~tau_dom ~tau_other ~sep =
  (* place the dominant crossing late enough that both ramps start at
     positive times, whatever the separation sign *)
  let margin = 0.2e-9 in
  let t_dom =
    margin +. tau_dom +. Float.max 0. (tau_other -. sep)
  in
  let stimuli =
    [
      (dom, { Measure.edge; tau = tau_dom; cross_time = t_dom });
      (other, { Measure.edge; tau = tau_other; cross_time = t_dom +. sep });
    ]
  in
  Measure.multi_input ?load gate th ~stimuli ~ref_pin:dom

type t = {
  dom : int;
  other : int;
  edge : Measure.edge;
  assist : bool;
      (** do the two switching transistors assist each other in the
          driving network (parallel) or gate each other (series)? *)
  delay_grid : Interp.grid3;  (** axes: ln x1, ln x2, x3 (delay-normalized) *)
  trans_grid : Interp.grid3;  (** axes: ln x1, ln x2, x3 (transition-normalized) *)
}

let dom t = t.dom
let other t = t.other
let edge t = t.edge
let assist t = t.assist
let delay_grid t = t.delay_grid
let trans_grid t = t.trans_grid

let find tables ~dom:d ~other:o ~edge:e =
  List.find (fun t -> t.dom = d && t.other = o && t.edge = e) tables

let default_x_tau = Floatx.logspace 0.25 16. 8

(* Non-uniform separation axis: the ratio surface is steep around
   simultaneity and near the window edge (x3 -> 1), and must reach far
   enough on the negative side to saturate even when the other input is
   much slower than the dominant one (overlap persists down to roughly
   -(tau_other + Delta_other), i.e. -x2-ish in normalized units). *)
let default_x_sep =
  [| -8.; -5.5; -3.5; -2.25; -1.5; -1.0; -0.6; -0.3; 0.; 0.3; 0.6; 0.85;
     1.05; 1.25 |]

(* The dual model is only meaningful while [dom] really is the dominant
   input: for assisting (parallel) transitions
   [sep >= Delta1_dom - Delta1_other], for gating (series) ones the
   reverse.  Beyond that boundary the other input has already driven the
   output and the measured "delay from dom" cliff-dives (it can go
   negative); clamping both tabulation and queries to the boundary keeps
   the stored surface smooth exactly where the ProximityDelay algorithm
   (which re-picks dominance first) queries it. *)
let clamp_to_dominance ~assist ~single_other ~tau_other sep =
  let d_other = Single.delay single_other ~tau:tau_other in
  fun d1 ->
    let boundary = d1 -. d_other in
    if assist then Float.max sep boundary else Float.min sep boundary

let build ?(x_tau = default_x_tau) ?(x_sep = default_x_sep) ?pool gate th
    ~single_dom ~single_other ~other =
  Proxim_obs.Trace.with_span ~cat:"characterize" "dual.build"
    ~args:
      [
        ("gate", gate.Gate.name);
        ("dom", string_of_int (Single.pin single_dom));
        ("other", string_of_int other);
      ]
  @@ fun () ->
  let pool =
    match pool with Some p -> p | None -> Proxim_util.Pool.default ()
  in
  let dom = Single.pin single_dom in
  let edge = Single.edge single_dom in
  if dom = other then invalid_arg "Dual.build: dom = other";
  if Single.pin single_other <> other || Single.edge single_other <> edge then
    invalid_arg "Dual.build: single_other must model the other pin, same edge";
  let assist =
    Gate.switching_assist gate ~pins:[ dom; other ]
      ~output_rising:(edge = Measure.Fall)
  in
  let ln_tau = Array.map log x_tau in
  (* Delay-normalized grid: x1 = tau_dom/Delta1 requires inverting the
     single-input model (Delta1 depends on tau_dom). *)
  let delay_f lx1 lx2 x3 =
    let x1 = exp lx1 and x2 = exp lx2 in
    (* solve tau_dom such that tau_dom / Delta1(tau_dom) = x1; i.e.
       Delta1(tau) = tau / x1, a fixed point found by iteration *)
    let rec fixpoint tau n =
      let d1 = Single.delay single_dom ~tau in
      let tau' = x1 *. d1 in
      if n = 0 || Float.abs (tau' -. tau) < 1e-16 then Floatx.clamp ~lo:1e-13 ~hi:1e-7 tau'
      else fixpoint (Floatx.clamp ~lo:1e-13 ~hi:1e-7 tau') (n - 1)
    in
    let tau_dom = fixpoint 200e-12 30 in
    let d1 = Single.delay single_dom ~tau:tau_dom in
    let tau_other = x2 *. d1 in
    let sep =
      clamp_to_dominance ~assist ~single_other ~tau_other (x3 *. d1) d1
    in
    let obs = oracle gate th ~dom ~other ~edge ~tau_dom ~tau_other ~sep in
    obs.Measure.delay /. d1
  in
  let trans_f lx1 lx2 x3 =
    let x1 = exp lx1 and x2 = exp lx2 in
    let rec fixpoint tau n =
      let t1 = Single.out_transition single_dom ~tau in
      let tau' = x1 *. t1 in
      if n = 0 || Float.abs (tau' -. tau) < 1e-16 then Floatx.clamp ~lo:1e-13 ~hi:1e-7 tau'
      else fixpoint (Floatx.clamp ~lo:1e-13 ~hi:1e-7 tau') (n - 1)
    in
    let tau_dom = fixpoint 200e-12 30 in
    let t1 = Single.out_transition single_dom ~tau:tau_dom in
    let d1 = Single.delay single_dom ~tau:tau_dom in
    let tau_other = x2 *. t1 in
    let sep =
      clamp_to_dominance ~assist ~single_other ~tau_other (x3 *. t1) d1
    in
    let obs = oracle gate th ~dom ~other ~edge ~tau_dom ~tau_other ~sep in
    obs.Measure.out_transition /. t1
  in
  (* both grids share one batched pool job, so every domain stays fed
     across the full 2 * |ln_tau|^2 * |x_sep| transient sweep *)
  let grids =
    Interp.grid3_make_many ~pool ~xs:ln_tau ~ys:ln_tau ~zs:x_sep
      ~fs:[| delay_f; trans_f |] ()
  in
  { dom; other; edge; assist; delay_grid = grids.(0); trans_grid = grids.(1) }

(* --- serialization ------------------------------------------------- *)

let save_axis buf name axis =
  Buffer.add_string buf (Printf.sprintf "%s %d" name (Array.length axis));
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %.17g" v)) axis;
  Buffer.add_char buf '\n'

let save_grid buf name (g : Interp.grid3) =
  Buffer.add_string buf (Printf.sprintf "grid %s\n" name);
  save_axis buf "xs" g.Interp.xs;
  save_axis buf "ys" g.Interp.ys;
  save_axis buf "zs" g.Interp.zs;
  Array.iter
    (fun plane ->
      Array.iter
        (fun row ->
          Array.iteri
            (fun k v ->
              if k > 0 then Buffer.add_char buf ' ';
              Buffer.add_string buf (Printf.sprintf "%.17g" v))
            row;
          Buffer.add_char buf '\n')
        plane)
    g.Interp.values

let save t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "dual-v1\n";
  Buffer.add_string buf (Printf.sprintf "dom %d\n" t.dom);
  Buffer.add_string buf (Printf.sprintf "other %d\n" t.other);
  Buffer.add_string buf
    (Printf.sprintf "edge %s\n" (Measure.edge_name t.edge));
  Buffer.add_string buf
    (Printf.sprintf "assist %b\n" t.assist);
  save_grid buf "delay" t.delay_grid;
  save_grid buf "trans" t.trans_grid;
  Buffer.contents buf

let load text =
  let fail fmt = Printf.ksprintf failwith ("Dual.load: " ^^ fmt) in
  let lines = ref (String.split_on_char '\n' text
                   |> List.filter (fun l -> String.trim l <> "")) in
  let next () =
    match !lines with
    | [] -> fail "unexpected end of input"
    | l :: tl ->
      lines := tl;
      l
  in
  let field name conv =
    let line = next () in
    match String.index_opt line ' ' with
    | Some i when String.sub line 0 i = name ->
      conv (String.sub line (i + 1) (String.length line - i - 1))
    | Some _ | None -> fail "expected field %s, got %S" name line
  in
  let axis name =
    let parts = String.split_on_char ' ' (field name Fun.id) in
    match parts with
    | count :: values ->
      let n = int_of_string count in
      let arr = Array.of_list (List.map float_of_string values) in
      if Array.length arr <> n then fail "axis %s length mismatch" name;
      arr
    | [] -> fail "empty axis %s" name
  in
  let grid name =
    let header = next () in
    if header <> "grid " ^ name then fail "expected grid %s, got %S" name header;
    let xs = axis "xs" in
    let ys = axis "ys" in
    let zs = axis "zs" in
    let values =
      Array.init (Array.length xs) (fun _ ->
        Array.init (Array.length ys) (fun _ ->
          let row = next () in
          let vals =
            String.split_on_char ' ' row |> List.map float_of_string
          in
          let arr = Array.of_list vals in
          if Array.length arr <> Array.length zs then
            fail "grid %s row length mismatch" name;
          arr))
    in
    { Interp.xs; ys; zs; values }
  in
  let header = next () in
  if header <> "dual-v1" then fail "bad header %S" header;
  let dom = field "dom" int_of_string in
  let other = field "other" int_of_string in
  let edge =
    field "edge" (fun s ->
        match Measure.edge_of_name s with
        | Some e -> e
        | None -> fail "bad edge %s" s)
  in
  let assist = field "assist" bool_of_string in
  let delay_grid = grid "delay" in
  let trans_grid = grid "trans" in
  { dom; other; edge; assist; delay_grid; trans_grid }

let delay_ratio t ~x1 ~x2 ~x3 =
  Interp.bilinear_pchip_z t.delay_grid (log x1) (log x2) x3

let trans_ratio t ~x1 ~x2 ~x3 =
  Interp.bilinear_pchip_z t.trans_grid (log x1) (log x2) x3

(* Proximity windows (§3): for assisting transitions the other input
   stops influencing the delay beyond [sep >= Delta1] and the transition
   beyond [sep >= Delta1 + tau_out1]; for gating ones the influence dies
   out on the early side, below the tabulated separation range (where the
   other transistor has long finished conducting). *)
let delay t ~single_dom ~single_other ~tau_dom ~tau_other ~sep =
  let d1 = Single.delay single_dom ~tau:tau_dom in
  let sep = clamp_to_dominance ~assist:t.assist ~single_other ~tau_other sep d1 in
  let outside =
    if t.assist then sep >= d1
    else sep <= (t.delay_grid.Interp.zs.(0) *. d1) -. tau_other
  in
  if outside then d1
  else begin
    let ratio =
      delay_ratio t ~x1:(tau_dom /. d1) ~x2:(tau_other /. d1) ~x3:(sep /. d1)
    in
    d1 *. ratio
  end

let out_transition t ~single_dom ~single_other ~tau_dom ~tau_other ~sep =
  let t1 = Single.out_transition single_dom ~tau:tau_dom in
  let d1 = Single.delay single_dom ~tau:tau_dom in
  let sep = clamp_to_dominance ~assist:t.assist ~single_other ~tau_other sep d1 in
  let outside =
    if t.assist then sep >= d1 +. t1
    else sep <= (t.trans_grid.Interp.zs.(0) *. t1) -. tau_other
  in
  if outside then t1
  else begin
    let ratio =
      trans_ratio t ~x1:(tau_dom /. t1) ~x2:(tau_other /. t1) ~x3:(sep /. t1)
    in
    t1 *. ratio
  end

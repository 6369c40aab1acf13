module Gate = Proxim_gates.Gate
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Interp = Proxim_util.Interp
module Floatx = Proxim_util.Floatx
module Rootfind = Proxim_util.Rootfind

type t = {
  pin : int;
  edge : Measure.edge;
  k : float;  (** transistor strength entering the dimensionless argument *)
  vdd : float;
  c_build : float;  (** external load the table was built at *)
  c_parasitic : float;  (** output-node diffusion parasitic of the gate *)
  delay_tbl : Interp.pchip;  (** Delta/tau against ln(argument) *)
  trans_tbl : Interp.pchip;  (** tau_out/tau against ln(argument) *)
}

let pin t = t.pin
let edge t = t.edge

let samples t =
  let xs, d = Interp.pchip_knots t.delay_tbl in
  let _, tr = Interp.pchip_knots t.trans_tbl in
  (xs, d, tr)

let strength gate ~edge =
  match edge with
  | Measure.Rise -> Tech.k_n gate.Gate.tech ~w:gate.Gate.wn
  | Measure.Fall -> Tech.k_p gate.Gate.tech ~w:gate.Gate.wp

let default_taus = Floatx.logspace 20e-12 5e-9 16

(* All (table, tau) transients of a batch go through one pool job, so
   the domains stay fed across the whole sweep instead of draining
   between per-table jobs.  Per-table assembly (sort + pchip fit) is
   unchanged, so the batch is bit-identical to one [build] per spec. *)
let build_batch ~taus ~pool gate th specs =
  let vdd = gate.Gate.tech.Tech.vdd in
  let c_build = gate.Gate.load in
  let c_parasitic = Gate.output_parasitic gate in
  let ks = Array.map (fun (_, edge) -> strength gate ~edge) specs in
  let nt = Array.length taus in
  let sample idx =
    let s = idx / nt in
    let pin, edge = specs.(s) in
    let tau = taus.(idx mod nt) in
    let obs = Measure.single_input gate th ~pin ~edge ~tau in
    let u = (c_build +. c_parasitic) /. (ks.(s) *. vdd *. tau) in
    (log u, obs.Measure.delay /. tau, obs.Measure.out_transition /. tau)
  in
  let flat =
    Proxim_util.Pool.map pool sample
      (Array.init (Array.length specs * nt) Fun.id)
  in
  Array.mapi
    (fun s (pin, edge) ->
      let samples = Array.sub flat (s * nt) nt in
      (* sort by the dimensionless argument (tau descending -> u
         ascending) *)
      Array.sort (fun (a, _, _) (b, _, _) -> compare a b) samples;
      let xs = Array.map (fun (x, _, _) -> x) samples in
      let d = Array.map (fun (_, d, _) -> d) samples in
      let tr = Array.map (fun (_, _, t) -> t) samples in
      {
        pin;
        edge;
        k = ks.(s);
        vdd;
        c_build;
        c_parasitic;
        delay_tbl = Interp.pchip_make xs d;
        trans_tbl = Interp.pchip_make xs tr;
      })
    specs

let build_many ?(taus = default_taus) ?pool gate th specs =
  Proxim_obs.Trace.with_span ~cat:"characterize" "single.build_many"
    ~args:
      [
        ("gate", gate.Gate.name);
        ("tables", string_of_int (Array.length specs));
      ]
  @@ fun () ->
  let pool =
    match pool with Some p -> p | None -> Proxim_util.Pool.default ()
  in
  build_batch ~taus ~pool gate th specs

let build ?(taus = default_taus) ?pool gate th ~pin ~edge =
  Proxim_obs.Trace.with_span ~cat:"characterize" "single.build"
    ~args:
      [
        ("gate", gate.Gate.name);
        ("pin", string_of_int pin);
        ("edge", Measure.edge_name edge);
      ]
  @@ fun () ->
  let pool =
    match pool with Some p -> p | None -> Proxim_util.Pool.default ()
  in
  (build_batch ~taus ~pool gate th [| (pin, edge) |]).(0)

let argument ?c_load t ~tau =
  let c = Option.value ~default:t.c_build c_load in
  (c +. t.c_parasitic) /. (t.k *. t.vdd *. tau)

let delay ?c_load t ~tau =
  tau *. Interp.pchip_eval t.delay_tbl (log (argument ?c_load t ~tau))

let out_transition ?c_load t ~tau =
  tau *. Interp.pchip_eval t.trans_tbl (log (argument ?c_load t ~tau))

(* --- serialization ------------------------------------------------- *)

let save t =
  let buf = Buffer.create 1024 in
  let xs, d = Interp.pchip_knots t.delay_tbl in
  let _, tr = Interp.pchip_knots t.trans_tbl in
  Buffer.add_string buf "single-v1\n";
  Buffer.add_string buf (Printf.sprintf "pin %d\n" t.pin);
  Buffer.add_string buf
    (Printf.sprintf "edge %s\n" (Measure.edge_name t.edge));
  Buffer.add_string buf (Printf.sprintf "k %.17g\n" t.k);
  Buffer.add_string buf (Printf.sprintf "vdd %.17g\n" t.vdd);
  Buffer.add_string buf (Printf.sprintf "c_build %.17g\n" t.c_build);
  Buffer.add_string buf (Printf.sprintf "c_parasitic %.17g\n" t.c_parasitic);
  Buffer.add_string buf (Printf.sprintf "points %d\n" (Array.length xs));
  Array.iteri
    (fun i x ->
      Buffer.add_string buf (Printf.sprintf "%.17g %.17g %.17g\n" x d.(i) tr.(i)))
    xs;
  Buffer.contents buf

let load text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let fail fmt = Printf.ksprintf failwith ("Single.load: " ^^ fmt) in
  let field name conv = function
    | line :: rest -> (
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name ->
        (conv (String.sub line (i + 1) (String.length line - i - 1)), rest)
      | Some _ | None -> fail "expected field %s, got %S" name line)
    | [] -> fail "missing field %s" name
  in
  match lines with
  | "single-v1" :: rest ->
    let pin, rest = field "pin" int_of_string rest in
    let edge, rest =
      field "edge"
        (fun s ->
          match Measure.edge_of_name s with
          | Some e -> e
          | None -> fail "bad edge %s" s)
        rest
    in
    let k, rest = field "k" float_of_string rest in
    let vdd, rest = field "vdd" float_of_string rest in
    let c_build, rest = field "c_build" float_of_string rest in
    let c_parasitic, rest = field "c_parasitic" float_of_string rest in
    let n, rest = field "points" int_of_string rest in
    if List.length rest < n then fail "expected %d sample lines" n;
    let xs = Array.make n 0. and d = Array.make n 0. and tr = Array.make n 0. in
    List.iteri
      (fun i line ->
        if i < n then
          Scanf.sscanf line " %g %g %g" (fun a b c ->
            xs.(i) <- a;
            d.(i) <- b;
            tr.(i) <- c))
      rest;
    {
      pin;
      edge;
      k;
      vdd;
      c_build;
      c_parasitic;
      delay_tbl = Interp.pchip_make xs d;
      trans_tbl = Interp.pchip_make xs tr;
    }
  | header :: _ -> fail "bad header %S" header
  | [] -> fail "empty input"

let tau_of_delay ?c_load t ~delay:d =
  assert (d > 0.);
  let f tau = delay ?c_load t ~tau -. d in
  let lo = 1e-15 and hi = 1e-6 in
  if f lo >= 0. then lo
  else if f hi <= 0. then hi
  else Rootfind.brent ~f lo hi

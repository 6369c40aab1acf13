module Gate = Proxim_gates.Gate
module Dc = Proxim_spice.Dc
module Pwl = Proxim_waveform.Pwl
module Floatx = Proxim_util.Floatx

type curve = {
  subset : int list;
  vin : float array;
  vout : float array;
  vil : float;
  vih : float;
  vm : float;
}

type thresholds = { vil : float; vih : float; vdd : float }

(* Central-difference slope of the VTC at each interior sample. *)
let slopes ~vin ~vout =
  let n = Array.length vin in
  Array.init n (fun i ->
    if i = 0 then (vout.(1) -. vout.(0)) /. (vin.(1) -. vin.(0))
    else if i = n - 1 then
      (vout.(n - 1) -. vout.(n - 2)) /. (vin.(n - 1) -. vin.(n - 2))
    else (vout.(i + 1) -. vout.(i - 1)) /. (vin.(i + 1) -. vin.(i - 1)))

(* Unity-gain points: where slope + 1 changes sign.  The first crossing
   (slope passing below -1) is Vil; the last (slope coming back above -1)
   is Vih.  Linear interpolation between samples. *)
let unity_gain_points ~vin ~vout =
  let s = slopes ~vin ~vout in
  let n = Array.length s in
  let crossings = ref [] in
  for i = 0 to n - 2 do
    let f0 = s.(i) +. 1. and f1 = s.(i + 1) +. 1. in
    if (f0 >= 0. && f1 < 0.) || (f0 < 0. && f1 >= 0.) then begin
      let t = if f1 = f0 then 0.5 else f0 /. (f0 -. f1) in
      crossings := Floatx.lerp vin.(i) vin.(i + 1) t :: !crossings
    end
  done;
  match List.rev !crossings with
  | [] -> None
  | [ only ] -> Some (only, only)
  | first :: rest ->
    let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> first in
    Some (first, last rest)

let switching_threshold ~vin ~vout =
  let n = Array.length vin in
  let f i = vout.(i) -. vin.(i) in
  let rec find i =
    if i >= n - 1 then vin.(n - 1)
    else begin
      let f0 = f i and f1 = f (i + 1) in
      if (f0 >= 0. && f1 < 0.) || (f0 < 0. && f1 >= 0.) then
        let t = if f1 = f0 then 0.5 else f0 /. (f0 -. f1) in
        Floatx.lerp vin.(i) vin.(i + 1) t
      else find (i + 1)
    end
  in
  find 0

let curve ?(points = 401) gate ~subset =
  let fan_in = gate.Gate.fan_in in
  let subset = List.sort_uniq compare subset in
  if subset = [] then invalid_arg "Vtc.curve: empty subset";
  List.iter
    (fun p ->
      if p < 0 || p >= fan_in then invalid_arg "Vtc.curve: pin out of range")
    subset;
  let vdd = gate.Gate.tech.Proxim_gates.Tech.vdd in
  (* static levels for the non-switching pins: sensitize the first
     switching pin *)
  let base_levels =
    match subset with
    | pin :: _ -> Gate.noncontrolling_sensitization gate ~pin
    | [] -> assert false
  in
  let inputs =
    Array.init fan_in (fun i -> Pwl.constant base_levels.(i))
  in
  let inst = Gate.instantiate gate ~inputs in
  let sources =
    List.map (fun p -> inst.Gate.input_sources.(p)) subset
  in
  let overrides =
    List.filter_map
      (fun p ->
        if List.mem p subset then None
        else Some (inst.Gate.input_sources.(p), base_levels.(p)))
      (List.init fan_in (fun i -> i))
  in
  let vin = Floatx.linspace 0. vdd points in
  let sols = Dc.sweep_many ~overrides inst.Gate.net ~sources ~values:vin in
  let vout =
    Array.map (fun s -> s.Dc.voltages.(inst.Gate.out)) sols
  in
  let vil, vih =
    match unity_gain_points ~vin ~vout with
    | Some (lo, hi) -> (lo, hi)
    | None ->
      (* pathological (gain never reaches -1); fall back to Vdd/2 *)
      (vdd /. 2., vdd /. 2.)
  in
  let vm = switching_threshold ~vin ~vout in
  { subset; vin; vout; vil; vih; vm }

let subsets fan_in =
  (* binary counting, 1 .. 2^n - 1, ordered by popcount then value so that
     singletons come first *)
  let all = List.init ((1 lsl fan_in) - 1) (fun i -> i + 1) in
  let pins mask =
    List.filter (fun p -> mask land (1 lsl p) <> 0)
      (List.init fan_in (fun i -> i))
  in
  let popcount m = List.length (pins m) in
  let sorted =
    List.sort
      (fun a b ->
        match compare (popcount a) (popcount b) with
        | 0 -> compare a b
        | c -> c)
      all
  in
  List.map pins sorted

(* The 2^n - 1 curves are independent DC sweeps: fan them out. *)
let family ?points ?pool gate =
  let pool =
    match pool with Some p -> p | None -> Proxim_util.Pool.default ()
  in
  let build subset = curve ?points gate ~subset in
  Proxim_util.Pool.map_list pool build (subsets gate.Gate.fan_in)

let choose curves =
  match curves with
  | [] -> invalid_arg "Vtc.choose: empty family"
  | (first : curve) :: _ ->
    let vil =
      List.fold_left
        (fun acc (c : curve) -> Float.min acc c.vil)
        Float.infinity curves
    in
    let vih =
      List.fold_left
        (fun acc (c : curve) -> Float.max acc c.vih)
        Float.neg_infinity curves
    in
    let vdd = first.vin.(Array.length first.vin - 1) in
    { vil; vih; vdd }

let thresholds ?points ?pool gate =
  choose (family ?points ?pool gate)

let slew_scale th = th.vdd /. (th.vih -. th.vil)

let pp_thresholds ppf th =
  Format.fprintf ppf "Vil=%.3f Vih=%.3f Vdd=%.3f" th.vil th.vih th.vdd

let pp_curve ppf c =
  let subset_name =
    String.concat "" (List.map Gate.pin_name c.subset)
  in
  Format.fprintf ppf "{%s}: Vil=%.3f Vm=%.3f Vih=%.3f" subset_name c.vil c.vm
    c.vih

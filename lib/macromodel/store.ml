module Gate = Proxim_gates.Gate
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure

type set = {
  gate_name : string;
  vil : float;
  vih : float;
  vdd : float;
  singles : Single.t list;
  duals : Dual.t list;
}

let characterize ?taus ?x_tau ?x_sep ?(edges = [ Measure.Rise; Measure.Fall ])
    ?(with_duals = true) ?pool gate th =
  Proxim_obs.Trace.Span.with_ ~cat:"characterize" ~name:"store.characterize"
    ~args:[ ("gate", gate.Gate.name) ]
  @@ fun () ->
  let fan_in = gate.Gate.fan_in in
  let pins = List.init fan_in Fun.id in
  let pool =
    match pool with Some p -> p | None -> Proxim_util.Pool.default ()
  in
  (* every (table, tau) transient of the single sweep is one batched
     pool job, so the domains stay fed across the whole set instead of
     draining between per-table builds *)
  let singles =
    Array.to_list
      (Single.build_many ?taus ~pool gate th
         (Array.of_list
            (List.concat_map
               (fun edge -> List.map (fun pin -> (pin, edge)) pins)
               edges)))
  in
  let find_single pin edge =
    List.find (fun s -> Single.pin s = pin && Single.edge s = edge) singles
  in
  let duals =
    if not with_duals then []
    else
      (* dual tables run one after another, each fanning its own
         2-grid batched job across the pool: the per-table row count
         (2 * |x_tau|^2 * |x_sep|) is already much wider than any pool,
         and keeping the table the unit of work preserves the build
         order of the archive *)
      List.map
        (fun (dom, other, edge) ->
          Dual.build ?x_tau ?x_sep ~pool gate th
            ~single_dom:(find_single dom edge)
            ~single_other:(find_single other edge) ~other)
        (List.concat_map
           (fun edge ->
             List.concat_map
               (fun dom ->
                 List.filter_map
                   (fun other ->
                     if other = dom then None else Some (dom, other, edge))
                   pins)
               pins)
           edges)
  in
  {
    gate_name = gate.Gate.name;
    vil = th.Vtc.vil;
    vih = th.Vtc.vih;
    vdd = th.Vtc.vdd;
    singles;
    duals;
  }

let to_models gate set =
  let find_single ~pin ~edge =
    List.find
      (fun s -> Single.pin s = pin && Single.edge s = edge)
      set.singles
  in
  let fan_in =
    1 + List.fold_left (fun acc s -> max acc (Single.pin s)) 0 set.singles
  in
  {
    Models.fan_in;
    name = "store:" ^ set.gate_name;
    (* the archive records normalized-argument knots, not the tau sweep
       that produced them, so the characterized tau span is unknown *)
    tau_range = None;
    cache_stats = (fun () -> Proxim_util.Memo_cache.zero_stats);
    assist = Models.assist_of gate;
    delay1 =
      (fun ~pin ~edge ~tau -> Single.delay (find_single ~pin ~edge) ~tau);
    trans1 =
      (fun ~pin ~edge ~tau ->
        Single.out_transition (find_single ~pin ~edge) ~tau);
    delay2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        let d = Dual.find set.duals ~dom ~other ~edge in
        Dual.delay d
          ~single_dom:(find_single ~pin:dom ~edge)
          ~single_other:(find_single ~pin:other ~edge)
          ~tau_dom ~tau_other ~sep);
    trans2 =
      (fun ~dom ~other ~edge ~tau_dom ~tau_other ~sep ->
        let d = Dual.find set.duals ~dom ~other ~edge in
        Dual.out_transition d
          ~single_dom:(find_single ~pin:dom ~edge)
          ~single_other:(find_single ~pin:other ~edge)
          ~tau_dom ~tau_other ~sep);
  }

(* --- archive format ------------------------------------------------- *)

let separator = "%%"

let save set =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf "proxim-store-v1 %s\n" set.gate_name);
  Buffer.add_string buf
    (Printf.sprintf "thresholds %.17g %.17g %.17g\n" set.vil set.vih set.vdd);
  List.iter
    (fun s ->
      Buffer.add_string buf (separator ^ "\n");
      Buffer.add_string buf (Single.save s))
    set.singles;
  List.iter
    (fun d ->
      Buffer.add_string buf (separator ^ "\n");
      Buffer.add_string buf (Dual.save d))
    set.duals;
  Buffer.contents buf

let load text =
  let fail fmt = Printf.ksprintf failwith ("Store.load: " ^^ fmt) in
  let sections =
    (* split on separator lines *)
    let lines = String.split_on_char '\n' text in
    let rec go current acc = function
      | [] -> List.rev (List.rev current :: acc)
      | line :: tl ->
        if String.trim line = separator then
          go [] (List.rev current :: acc) tl
        else go (line :: current) acc tl
    in
    go [] [] lines
    |> List.map (String.concat "\n")
    |> List.filter (fun s -> String.trim s <> "")
  in
  match sections with
  | [] -> fail "empty archive"
  | header :: models ->
    let header_lines =
      String.split_on_char '\n' header
      |> List.filter (fun l -> String.trim l <> "")
    in
    let gate_name, vil, vih, vdd =
      match header_lines with
      | first :: second :: _ ->
        let gate_name =
          match String.split_on_char ' ' first with
          | [ "proxim-store-v1"; name ] -> name
          | _ -> fail "bad archive header %S" first
        in
        let vil, vih, vdd =
          try
            Scanf.sscanf second "thresholds %g %g %g" (fun a b c -> (a, b, c))
          with Scanf.Scan_failure _ | Failure _ ->
            fail "bad thresholds line %S" second
        in
        (gate_name, vil, vih, vdd)
      | _ -> fail "truncated archive header"
    in
    let singles, duals =
      List.fold_left
        (fun (ss, ds) section ->
          let trimmed = String.trim section in
          if String.length trimmed >= 9 && String.sub trimmed 0 9 = "single-v1"
          then (Single.load trimmed :: ss, ds)
          else if String.length trimmed >= 7 && String.sub trimmed 0 7 = "dual-v1"
          then (ss, Dual.load trimmed :: ds)
          else fail "unrecognized section starting %S"
                 (String.sub trimmed 0 (min 20 (String.length trimmed))))
        ([], []) models
    in
    {
      gate_name;
      vil;
      vih;
      vdd;
      singles = List.rev singles;
      duals = List.rev duals;
    }

let save_file path set =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save set))

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      load (really_input_string ic n))

(* Deliberately the pre-SoA idiom: a [verdict option array], inputs
   gathered through [Option]-returning reads, evaluation by topological
   order.  Nothing here may share propagation code with Timing's sweep —
   the whole point is an independent derivation of the same bits. *)

let analyze t =
  let g = Timing.graph t in
  let engine = Timing.engine t in
  let verdicts = Array.make (Graph.cell_count g) None in
  let arrival net =
    match Graph.driver g ~net with
    | None -> Timing.arrival t ~net (* undriven: the committed source event *)
    | Some c ->
      Option.map (fun (v : Timing.verdict) -> v.Timing.out) verdicts.(c)
  in
  Array.iter
    (fun c ->
      let nets = Graph.cell_inputs g c in
      let inputs = ref [] in
      for pin = Array.length nets - 1 downto 0 do
        match arrival nets.(pin) with
        | Some a ->
          inputs :=
            { Timing.in_pin = pin; in_net = nets.(pin); in_arrival = a }
            :: !inputs
        | None -> ()
      done;
      verdicts.(c) <- engine c (Graph.payload g c) !inputs)
    (Graph.topological g);
  verdicts

let agrees t =
  let reference = analyze t in
  let n = Array.length reference in
  let rec ok c =
    c >= n
    || (Timing.verdict_eq reference.(c) (Timing.verdict t ~cell:c)
        && ok (c + 1))
  in
  ok 0

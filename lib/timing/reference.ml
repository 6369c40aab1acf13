(* Deliberately the pre-SoA idiom: a [verdict option array], inputs
   gathered through [Option]-returning reads, evaluation by topological
   order.  Nothing here may share propagation code with Timing's sweep —
   the whole point is an independent derivation of the same bits — so
   the cursor is filled here from the records, and its answer decoded
   here into one. *)

let analyze t =
  let g = Timing.graph t in
  let cur = Timing.new_cursor g in
  let engine = Timing.engine t cur in
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
        | Some a -> inputs := (pin, nets.(pin), a) :: !inputs
        | None -> ()
      done;
      cur.Timing.count <- List.length !inputs;
      cur.Timing.mixed <- false;
      List.iteri
        (fun k (pin, net, (a : Timing.arrival)) ->
          cur.Timing.pins.(k) <- pin;
          cur.Timing.nets.(k) <- net;
          cur.Timing.times.(k) <- a.Timing.time;
          cur.Timing.slews.(k) <- a.Timing.slew;
          if k = 0 then cur.Timing.edge <- a.Timing.edge
          else if a.Timing.edge <> cur.Timing.edge then
            cur.Timing.mixed <- true)
        !inputs;
      verdicts.(c) <-
        (if cur.Timing.count = 0 then None
         else begin
           engine c (Graph.payload g c);
           Some
             {
               Timing.out =
                 {
                   Timing.time = cur.Timing.result.(0);
                   slew = cur.Timing.result.(1);
                   edge = cur.Timing.out_edge;
                 };
               winner = cur.Timing.winner;
               candidates =
                 Array.init cur.Timing.count (fun k ->
                     {
                       Timing.pin = cur.Timing.pins.(k);
                       from_net = cur.Timing.nets.(k);
                       would_be = cur.Timing.would.(k);
                     });
             }
         end))
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

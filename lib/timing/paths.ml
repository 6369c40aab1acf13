(* K-worst path enumeration over an analyzed timing state.

   Per-net top-K lists are merged in topological order: the paths to a
   driven net extend the paths to each candidate input net by that arc's
   delay contribution [would_be - arrival(input)].

   Rank 1 is forced to the winner chain: engines store the actual output
   arrival as the winning pin's [would_be], so extending the winner
   input's rank-1 path by that arc telescopes to exactly the reported
   arrival.  The forcing matters because "latest estimate" and "timing
   setting" disagree under proximity: for assisting inputs the composed
   response tracks the EARLIEST would-be crossing, so the critical
   (timing-setting) path can carry a smaller number than a losing pin's
   single-input estimate.  Ranks 2..K are the alternatives, latest
   estimate first.

   Only cells in the fan-in cone of the PO's driver are merged: a cell
   outside it cannot lie on a path that ends at the PO, and every
   candidate input of a cone cell is a source or driven from inside the
   cone, so the restriction leaves the PO's list bit-identical. *)

type step = { net : int; via_pin : int }

type path = { p_arrival : float; p_steps : step list }

(* worst (latest) first; bit-equal scores fall back to the step lists so
   ties are deterministic whatever order the merge produced them in *)
let compare_paths a b =
  match compare b.p_arrival a.p_arrival with
  | 0 -> compare a.p_steps b.p_steps
  | c -> c

let take k l =
  let rec go k acc = function
    | [] -> List.rev acc
    | _ when k = 0 -> List.rev acc
    | x :: tl -> go (k - 1) (x :: acc) tl
  in
  go k [] l

let k_worst timing ~po ~k =
  if k < 1 then invalid_arg "Paths.k_worst: k must be >= 1";
  let g = Timing.graph timing in
  let memo = Array.make (Graph.net_count g) [] in
  let source net =
    match Timing.arrival timing ~net with
    | Some a ->
      memo.(net) <- [ { p_arrival = a.Timing.time; p_steps = [ { net; via_pin = -1 } ] } ]
    | None -> ()
  in
  for net = 0 to Graph.net_count g - 1 do
    if Graph.driver_id g ~net < 0 then source net
  done;
  let cone =
    Graph.fanin_cone g ~cells:(Option.to_list (Graph.driver g ~net:po))
  in
  Array.iter
    (fun cell ->
      match if cone.(cell) then Timing.verdict timing ~cell else None with
      | None -> ()
      | Some v ->
        let out = Graph.cell_output g cell in
        let extend (c : Timing.candidate) ps =
          match Timing.arrival timing ~net:c.Timing.from_net with
          | None -> []
          | Some a_in ->
            let d = c.Timing.would_be -. a_in.Timing.time in
            List.map
              (fun p ->
                {
                  p_arrival = p.p_arrival +. d;
                  p_steps =
                    { net = out; via_pin = c.Timing.pin } :: p.p_steps;
                })
              ps
        in
        let head, alternatives =
          Array.fold_left
            (fun (head, alts) (c : Timing.candidate) ->
              match memo.(c.Timing.from_net) with
              | [] -> (head, alts)
              | best :: others when c.Timing.pin = v.Timing.winner ->
                (* the winner's extension of the winner input's own
                   rank-1 path carries the exact arrival: force it to
                   rank 1, demote that input's lower ranks *)
                (extend c [ best ], extend c others @ alts)
              | ps -> (head, extend c ps @ alts))
            ([], []) v.Timing.candidates
        in
        let ranked =
          match head with
          | [] -> take k (List.sort compare_paths alternatives)
          | h :: _ -> h :: take (k - 1) (List.sort compare_paths alternatives)
        in
        memo.(out) <- ranked)
    (Graph.topological g);
  memo.(po)

let nets_of_path g p = List.map (fun s -> Graph.net_name g s.net) p.p_steps

module Measure = Proxim_measure.Measure
module Pool = Proxim_util.Pool
module Trace = Proxim_obs.Trace
module Metrics = Proxim_obs.Metrics

(* registered once at link time; counting costs one domain-local add *)
let c_evaluated = Metrics.Counter.v "timing.cells_evaluated"
let c_changed = Metrics.Counter.v "timing.cells_changed"

type arrival = { time : float; slew : float; edge : Measure.edge }

type candidate = { pin : int; from_net : int; would_be : float }

type verdict = {
  out : arrival;
  winner : int;
  candidates : candidate array;
}

type cursor = {
  mutable count : int;
  pins : int array;
  nets : int array;
  times : float array;
  slews : float array;
  mutable edge : Measure.edge;
  mutable mixed : bool;
  result : float array;
  mutable out_edge : Measure.edge;
  mutable winner : int;
  would : float array;
}

type 'cell engine = cursor -> int -> 'cell -> unit

let max_fan_in g =
  let cap = ref 0 in
  for c = 0 to Graph.cell_count g - 1 do
    cap := max !cap (Array.length (Graph.cell_inputs g c))
  done;
  !cap

let cursor cap =
  {
    count = 0;
    pins = Array.make cap 0;
    nets = Array.make cap 0;
    times = Array.make cap 0.;
    slews = Array.make cap 0.;
    edge = Measure.Rise;
    mixed = false;
    result = [| 0.; 0. |];
    out_edge = Measure.Rise;
    winner = 0;
    would = Array.make cap 0.;
  }

let new_cursor g = cursor (max_fan_in g)

(* The committed annotation state is the flat SoA arena: arrival times,
   slews and would-be responses in float64 bigarrays, winner pins and
   candidate ids in unboxed int arrays, edges as one-byte tags.  The
   record types above survive only as a view decoded on demand
   ([arrival], [verdict]).  Engines read a cell's inputs from a cursor
   filled straight off the planes and write their answer into it, which
   [settle] compares and commits in place: a sweep allocates nothing per
   cell here, the GC never walks the per-cell state, and a million-cell
   design is a dozen contiguous arrays instead of millions of boxed
   options. *)
type 'cell t = {
  graph : 'cell Graph.t;
  engine : 'cell engine;
  soa : Soa.t;
  fan_in : int;  (* the largest, every cursor's capacity *)
  (* one cursor per pool chunk that may run at once, each with the
     engine bound to it; grown on the caller before a fan-out *)
  mutable slots : (cursor * (int -> 'cell -> unit)) array;
  (* scratch reused across [update] calls so the ECO hot path does not
     allocate per call; all are restored to all-false / all-[] / all-0
     before [update] returns (each level resets its own entries as it
     drains) *)
  queued : bool array;
  buckets : int list array;
  committed : Bytes.t;  (* byte i <> 0: the i-th cell of the level in
                           flight committed a new verdict on a worker *)
}

type stats = { evaluated : int; changed : int; total_cells : int }

let bind engine cursor = (cursor, engine cursor)

let create graph ~engine =
  let widest = ref 0 in
  for l = 0 to Graph.level_count graph - 1 do
    widest := max !widest (Array.length (Graph.level graph l))
  done;
  let fan_in = max_fan_in graph in
  {
    graph;
    engine;
    soa =
      Soa.create ~nets:(Graph.net_count graph) ~cells:(Graph.cell_count graph)
        ~fanin:(fun c -> Array.length (Graph.cell_inputs graph c));
    fan_in;
    slots = [| bind engine (cursor fan_in) |];
    queued = Array.make (Graph.cell_count graph) false;
    buckets = Array.make (max (Graph.level_count graph) 1) [];
    committed = Bytes.make (max !widest 1) '\000';
  }

let graph t = t.graph
let engine t = t.engine

let set_source t ~net a =
  match Graph.driver t.graph ~net with
  | Some _ ->
    invalid_arg
      ("Timing.set_source: net " ^ Graph.net_name t.graph net
     ^ " is driven by a cell")
  | None -> (
    let s = t.soa in
    match a with
    | None -> Bytes.set s.Soa.src_tag net Soa.tag_none
    | Some a ->
      s.Soa.src_time.{net} <- a.time;
      s.Soa.src_slew.{net} <- a.slew;
      Bytes.set s.Soa.src_tag net (Soa.tag_of_edge a.edge))

let arrival t ~net =
  let s = t.soa in
  let d = Graph.driver_id t.graph ~net in
  if d < 0 then
    let tag = Bytes.get s.Soa.src_tag net in
    if tag = Soa.tag_none then None
    else
      Some
        {
          time = s.Soa.src_time.{net};
          slew = s.Soa.src_slew.{net};
          edge = Soa.edge_of_tag tag;
        }
  else
    let tag = Bytes.get s.Soa.out_tag d in
    if tag = Soa.tag_none then None
    else
      Some
        {
          time = s.Soa.out_time.{d};
          slew = s.Soa.out_slew.{d};
          edge = Soa.edge_of_tag tag;
        }

let verdict t ~cell =
  let s = t.soa in
  let tag = Bytes.get s.Soa.out_tag cell in
  if tag = Soa.tag_none then None
  else begin
    let base = s.Soa.cand_start.(cell) in
    let candidates =
      Array.init s.Soa.cand_count.(cell) (fun i ->
          {
            pin = s.Soa.cand_pin.(base + i);
            from_net = s.Soa.cand_net.(base + i);
            would_be = s.Soa.cand_would.{base + i};
          })
    in
    Some
      {
        out =
          {
            time = s.Soa.out_time.{cell};
            slew = s.Soa.out_slew.{cell};
            edge = Soa.edge_of_tag tag;
          };
        winner = s.Soa.winner.(cell);
        candidates;
      }
  end

(* bit-exact equality: the incremental engine's early cutoff must never
   declare "unchanged" for values a from-scratch analysis would print
   differently (0. vs -0. compare equal under (=) but not bitwise) *)
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let arrival_eq a b =
  float_eq a.time b.time && float_eq a.slew b.slew && a.edge == b.edge

let candidate_eq a b =
  a.pin = b.pin && a.from_net = b.from_net && float_eq a.would_be b.would_be

let verdict_eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    arrival_eq a.out b.out && a.winner = b.winner
    && Array.length a.candidates = Array.length b.candidates
    && Array.for_all2 candidate_eq a.candidates b.candidates
  | None, Some _ | Some _, None -> false

(* Fill [cur] with cell [c]'s switching inputs, pin order, read straight
   off the arena planes: no records, no options, no list. *)
let fill t cur c =
  let g = t.graph and s = t.soa in
  let nets = Graph.cell_inputs g c in
  let n = ref 0 and first = ref Soa.tag_none and mixed = ref false in
  for pin = 0 to Array.length nets - 1 do
    let net = Array.unsafe_get nets pin in
    let d = Graph.driver_id g ~net in
    let tag =
      if d < 0 then Bytes.unsafe_get s.Soa.src_tag net
      else Bytes.unsafe_get s.Soa.out_tag d
    in
    if tag <> Soa.tag_none then begin
      let k = !n in
      cur.pins.(k) <- pin;
      cur.nets.(k) <- net;
      if d < 0 then begin
        cur.times.(k) <- s.Soa.src_time.{net};
        cur.slews.(k) <- s.Soa.src_slew.{net}
      end
      else begin
        cur.times.(k) <- s.Soa.out_time.{d};
        cur.slews.(k) <- s.Soa.out_slew.{d}
      end;
      if k = 0 then first := tag else if tag <> !first then mixed := true;
      n := k + 1
    end
  done;
  cur.count <- !n;
  cur.mixed <- !mixed;
  if !n > 0 then cur.edge <- Soa.edge_of_tag !first

(* Does the answer in [cur] (no switching input: quiet) differ bitwise
   from cell [c]'s committed verdict?  Monomorphic int/float/byte loads
   against the planes, no allocation: the incremental engine's early
   cutoff, run once per evaluated cell. *)
let differs s c cur =
  let n = cur.count in
  if n = 0 then Bytes.get s.Soa.out_tag c <> Soa.tag_none
  else
    Bytes.get s.Soa.out_tag c <> Soa.tag_of_edge cur.out_edge
    || (not (float_eq cur.result.(0) s.Soa.out_time.{c}))
    || (not (float_eq cur.result.(1) s.Soa.out_slew.{c}))
    || s.Soa.winner.(c) <> cur.winner
    || s.Soa.cand_count.(c) <> n
    ||
    let base = s.Soa.cand_start.(c) in
    let rec eq k =
      k >= n
      || cur.pins.(k) = s.Soa.cand_pin.(base + k)
         && cur.nets.(k) = s.Soa.cand_net.(base + k)
         && float_eq cur.would.(k) s.Soa.cand_would.{base + k}
         && eq (k + 1)
    in
    not (eq 0)

let commit s c cur =
  let n = cur.count in
  if n = 0 then Bytes.set s.Soa.out_tag c Soa.tag_none
  else begin
    s.Soa.out_time.{c} <- cur.result.(0);
    s.Soa.out_slew.{c} <- cur.result.(1);
    Bytes.set s.Soa.out_tag c (Soa.tag_of_edge cur.out_edge);
    s.Soa.winner.(c) <- cur.winner;
    s.Soa.cand_count.(c) <- n;
    let base = s.Soa.cand_start.(c) in
    for k = 0 to n - 1 do
      s.Soa.cand_pin.(base + k) <- cur.pins.(k);
      s.Soa.cand_net.(base + k) <- cur.nets.(k);
      s.Soa.cand_would.{base + k} <- cur.would.(k)
    done
  end

(* Time cell [c] on [cur] and commit the answer in place if it changed;
   [true] when it did.  Only [c]'s own slots are written: cells of one
   level read strictly lower levels, so workers may settle a level's
   cells concurrently. *)
let settle t (cur, run) c =
  fill t cur c;
  if cur.count > 0 then run c (Graph.payload t.graph c);
  differs t.soa c cur && (commit t.soa c cur; true)

(* Levels narrower than this are timed serially: fanning out costs a
   submit/park handshake with the workers, which only pays for itself
   once a level carries a few dozen engine evaluations. *)
let parallel_threshold = 32

(* Evaluate one level's cells — a dense-id index range swept in order —
   and hand each cell whose verdict changed to [changed] in index order,
   so the outcome is bit-identical whichever path (serial or chunked
   fan-out) computed it.  Shared by the from-scratch sweep and the
   worklist walk. *)
let eval_cells t pool ~level ~cells ~changed =
  let width = Array.length cells in
  let body () =
    let d = Pool.domains pool in
    if width < parallel_threshold || d = 1 then begin
      (* settling cell i before timing i+1 is safe: cells of one level
         only read strictly lower levels, and changes only propagate to
         higher buckets *)
      let slot = t.slots.(0) in
      for i = 0 to width - 1 do
        let c = cells.(i) in
        if settle t slot c then changed c
      done
    end
    else begin
      (* chunked fan-out: ~2 contiguous slices per domain over the
         dense-id array — coarse enough that a claim is noise, with one
         spare slice per domain so the pool's shared cursor can
         rebalance uneven engine costs.  Each slice is one pool index
         with an engine cursor of its own. *)
      let chunk = max 1 ((width + (2 * d) - 1) / (2 * d)) in
      let chunks = (width + chunk - 1) / chunk in
      let have = Array.length t.slots in
      if have < chunks then
        t.slots <-
          Array.init chunks (fun k ->
              if k < have then t.slots.(k)
              else bind t.engine (cursor t.fan_in));
      let flags = t.committed in
      Pool.parallel_for pool ~n:chunks (fun k ->
          let slot = t.slots.(k) in
          for i = k * chunk to min width ((k + 1) * chunk) - 1 do
            if settle t slot cells.(i) then Bytes.unsafe_set flags i '\001'
          done);
      for i = 0 to width - 1 do
        if Bytes.unsafe_get flags i <> '\000' then begin
          Bytes.unsafe_set flags i '\000';
          changed cells.(i)
        end
      done
    end
  in
  (* the argument strings are only worth allocating when a trace is
     being recorded; with tracing off this is one atomic load *)
  if Trace.enabled () then
    Trace.with_span ~cat:"sta" "timing.level"
      ~args:
        [ ("level", string_of_int level); ("cells", string_of_int width) ]
      body
  else body ()

let update ?pool t ~dirty_nets ~dirty_cells =
  let g = t.graph in
  let n_levels = Graph.level_count g in
  let buckets = t.buckets and queued = t.queued in
  let enqueue c =
    if not queued.(c) then begin
      queued.(c) <- true;
      let l = Graph.cell_level g c in
      buckets.(l) <- c :: buckets.(l)
    end
  in
  let enqueue_reader c _pin = enqueue c in
  List.iter enqueue dirty_cells;
  List.iter (fun net -> Graph.iter_readers g ~net enqueue_reader) dirty_nets;
  let evaluated = ref 0 in
  let changed = ref 0 in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let on_change c =
    incr changed;
    Graph.iter_readers g ~net:(Graph.cell_output g c) enqueue_reader
  in
  let run () =
    for l = 0 to n_levels - 1 do
      match buckets.(l) with
      | [] -> ()
      | dirty ->
        (* drain this level's scratch entries before evaluating: fanout
           of a level-l cell sits at strictly higher levels, so nothing
           re-enqueues below, and the scratch comes out empty *)
        buckets.(l) <- [];
        List.iter (fun c -> queued.(c) <- false) dirty;
        let cells = Array.of_list (List.sort Int.compare dirty) in
        evaluated := !evaluated + Array.length cells;
        eval_cells t pool ~level:l ~cells ~changed:on_change
    done
  in
  (try run ()
   with e ->
     (* an engine failure mid-walk must not leave stale scratch behind
        for the next update on this IR *)
     let bt = Printexc.get_raw_backtrace () in
     Array.fill queued 0 (Array.length queued) false;
     Array.fill buckets 0 (Array.length buckets) [];
     Bytes.fill t.committed 0 (Bytes.length t.committed) '\000';
     Printexc.raise_with_backtrace e bt);
  Metrics.Counter.add c_evaluated !evaluated;
  Metrics.Counter.add c_changed !changed;
  { evaluated = !evaluated; changed = !changed; total_cells = Graph.cell_count g }

(* A full pass needs no worklist at all: every cell runs exactly once,
   so sweep the precomputed level index ranges directly instead of
   threading a million-entry dirty list through the queue machinery. *)
let analyze ?pool t =
  Soa.clear_verdicts t.soa;
  let g = t.graph in
  let evaluated = ref 0 in
  let changed = ref 0 in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  (* the arena was just cleared, so "changed" means the engine produced a
     verdict — same count the worklist walk reports *)
  let on_change _ = incr changed in
  (try
     for l = 0 to Graph.level_count g - 1 do
       let cells = Graph.level g l in
       evaluated := !evaluated + Array.length cells;
       eval_cells t pool ~level:l ~cells ~changed:on_change
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Bytes.fill t.committed 0 (Bytes.length t.committed) '\000';
     Printexc.raise_with_backtrace e bt);
  Metrics.Counter.add c_evaluated !evaluated;
  Metrics.Counter.add c_changed !changed;
  { evaluated = !evaluated; changed = !changed; total_cells = Graph.cell_count g }

let predecessor t ~net =
  let d = Graph.driver_id t.graph ~net in
  if d < 0 || Bytes.get t.soa.Soa.out_tag d = Soa.tag_none then None
  else
    Some
      ( (Graph.cell_inputs t.graph d).(t.soa.Soa.winner.(d)),
        t.soa.Soa.winner.(d) )

let arena_bytes t = Soa.bytes_used t.soa

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

type input = { in_pin : int; in_net : int; in_arrival : arrival }

type 'cell engine = int -> 'cell -> input list -> verdict option

(* The committed annotation state is the flat SoA arena: arrival times,
   slews and would-be responses in float64 bigarrays, winner pins and
   candidate ids in unboxed int arrays, edges as one-byte tags.  The
   record types above survive as a view decoded on demand ([arrival],
   [verdict]) and as the engine interchange format — engines still
   return a short-lived [verdict] record, which [commit] scatters into
   the arena and the next minor collection reclaims.  The GC never
   walks the per-cell state, and a million-cell design is a dozen
   contiguous arrays instead of millions of boxed options. *)
type 'cell t = {
  graph : 'cell Graph.t;
  engine : 'cell engine;
  soa : Soa.t;
  (* scratch reused across [update] calls so the ECO hot path does not
     allocate per call; all are restored to all-false / all-[] / all-None
     before [update] returns (each level resets its own entries as it
     drains) *)
  queued : bool array;
  buckets : int list array;
  eval_scratch : verdict option array;  (* slot i = result for the i-th
                                           cell of the level in flight *)
}

type stats = { evaluated : int; changed : int; total_cells : int }

let create graph ~engine =
  {
    graph;
    engine;
    soa =
      Soa.create ~nets:(Graph.net_count graph) ~cells:(Graph.cell_count graph)
        ~fanin:(fun c -> Array.length (Graph.cell_inputs graph c));
    queued = Array.make (Graph.cell_count graph) false;
    buckets = Array.make (max (Graph.level_count graph) 1) [];
    eval_scratch = Array.make (Graph.cell_count graph) None;
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

(* Does a freshly computed verdict differ (bitwise) from the committed
   one?  Compares the record fields straight against the arena planes —
   all loads are monomorphic int/float/byte reads, no decoded records,
   no polymorphic compare, no allocation.  This is the incremental
   engine's early-cutoff test, run once per evaluated cell. *)
let differs s c v =
  match v with
  | None -> Bytes.get s.Soa.out_tag c <> Soa.tag_none
  | Some v ->
    Bytes.get s.Soa.out_tag c <> Soa.tag_of_edge v.out.edge
    || (not (float_eq v.out.time s.Soa.out_time.{c}))
    || (not (float_eq v.out.slew s.Soa.out_slew.{c}))
    || s.Soa.winner.(c) <> v.winner
    ||
    let n = Array.length v.candidates in
    s.Soa.cand_count.(c) <> n
    ||
    let base = s.Soa.cand_start.(c) in
    let rec eq i =
      i >= n
      ||
      let cd = Array.unsafe_get v.candidates i in
      cd.pin = s.Soa.cand_pin.(base + i)
      && cd.from_net = s.Soa.cand_net.(base + i)
      && float_eq cd.would_be s.Soa.cand_would.{base + i}
      && eq (i + 1)
    in
    not (eq 0)

let commit s c v =
  match v with
  | None -> Bytes.set s.Soa.out_tag c Soa.tag_none
  | Some v ->
    s.Soa.out_time.{c} <- v.out.time;
    s.Soa.out_slew.{c} <- v.out.slew;
    Bytes.set s.Soa.out_tag c (Soa.tag_of_edge v.out.edge);
    s.Soa.winner.(c) <- v.winner;
    let n = Array.length v.candidates in
    s.Soa.cand_count.(c) <- n;
    let base = s.Soa.cand_start.(c) in
    for i = 0 to n - 1 do
      let cd = Array.unsafe_get v.candidates i in
      s.Soa.cand_pin.(base + i) <- cd.pin;
      s.Soa.cand_net.(base + i) <- cd.from_net;
      s.Soa.cand_would.{base + i} <- cd.would_be
    done

let compute t cell_id =
  let g = t.graph in
  let s = t.soa in
  let nets = Graph.cell_inputs g cell_id in
  (* built back-to-front so the list comes out in pin order; each input
     annotation is read straight off the arena planes — no [arrival]
     option round-trip per pin like the records-of-options engine paid *)
  let inputs = ref [] in
  for pin = Array.length nets - 1 downto 0 do
    let net = Array.unsafe_get nets pin in
    let d = Graph.driver_id g ~net in
    if d < 0 then begin
      let tag = Bytes.unsafe_get s.Soa.src_tag net in
      if tag <> Soa.tag_none then
        inputs :=
          {
            in_pin = pin;
            in_net = net;
            in_arrival =
              {
                time = s.Soa.src_time.{net};
                slew = s.Soa.src_slew.{net};
                edge = Soa.edge_of_tag tag;
              };
          }
          :: !inputs
    end
    else begin
      let tag = Bytes.unsafe_get s.Soa.out_tag d in
      if tag <> Soa.tag_none then
        inputs :=
          {
            in_pin = pin;
            in_net = net;
            in_arrival =
              {
                time = s.Soa.out_time.{d};
                slew = s.Soa.out_slew.{d};
                edge = Soa.edge_of_tag tag;
              };
          }
          :: !inputs
    end
  done;
  t.engine cell_id (Graph.payload g cell_id) !inputs

(* Levels narrower than this are timed serially: fanning out costs a
   submit/park handshake with the workers, which only pays for itself
   once a level carries a few dozen engine evaluations. *)
let parallel_threshold = 32

(* Evaluate one level's cells — a dense-id index range swept in order —
   and hand each result to [apply] in index order, so the outcome is
   bit-identical whichever path (serial or chunked fan-out) computed
   it.  Shared by the from-scratch sweep and the worklist walk. *)
let eval_cells t pool ~level ~cells ~apply =
  let width = Array.length cells in
  let body () =
    let d = Pool.domains pool in
    if width < parallel_threshold || d = 1 then
      (* applying verdict i before computing i+1 is safe: cells of one
         level only read strictly lower levels, and changes only
         propagate to higher buckets *)
      for i = 0 to width - 1 do
        apply i (compute t cells.(i))
      done
    else begin
      (* chunked fan-out: ~2 contiguous slices per domain over the
         dense-id array — coarse enough that a chunk claim is noise,
         with one spare slice per domain for the steal loop to
         rebalance uneven engine costs *)
      let scratch = t.eval_scratch in
      let chunk = max 1 ((width + (2 * d) - 1) / (2 * d)) in
      Pool.parallel_for ~chunk pool ~n:width (fun i ->
          scratch.(i) <- compute t cells.(i));
      for i = 0 to width - 1 do
        apply i scratch.(i);
        scratch.(i) <- None
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
  List.iter enqueue dirty_cells;
  List.iter
    (fun net -> Array.iter (fun (c, _) -> enqueue c) (Graph.readers g ~net))
    dirty_nets;
  let evaluated = ref 0 in
  let changed = ref 0 in
  let pool = match pool with Some p -> p | None -> Pool.default () in
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
        let apply i v =
          let c = cells.(i) in
          if differs t.soa c v then begin
            commit t.soa c v;
            incr changed;
            Array.iter
              (fun (r, _) -> enqueue r)
              (Graph.readers g ~net:(Graph.cell_output g c))
          end
        in
        eval_cells t pool ~level:l ~cells ~apply
    done
  in
  (try run ()
   with e ->
     (* an engine failure mid-walk must not leave stale scratch behind
        for the next update on this IR *)
     let bt = Printexc.get_raw_backtrace () in
     Array.fill queued 0 (Array.length queued) false;
     Array.fill buckets 0 (Array.length buckets) [];
     Array.fill t.eval_scratch 0 (Array.length t.eval_scratch) None;
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
  (try
     for l = 0 to Graph.level_count g - 1 do
       let cells = Graph.level g l in
       evaluated := !evaluated + Array.length cells;
       let apply i v =
         (* the arena was just cleared, so "differs" means the engine
            produced a verdict — same count the worklist walk reports *)
         if differs t.soa cells.(i) v then begin
           commit t.soa cells.(i) v;
           incr changed
         end
       in
       eval_cells t pool ~level:l ~cells ~apply
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Array.fill t.eval_scratch 0 (Array.length t.eval_scratch) None;
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

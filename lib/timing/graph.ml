(* The shared timing-graph IR: an arena of interned nets and cells with
   fanin/fanout adjacency, topological order and levels, plus the generic
   digraph algorithms (cycle enumeration, reachability) that the lint and
   design layers previously each reimplemented. *)

(* ------------------------------------------------------------------ *)
(* Generic digraph algorithms over nodes 0..n-1                        *)

let cycles ~n ~succ ~roots =
  let state = Array.make n `White in
  let found = ref [] in
  let rec visit u path =
    match state.(u) with
    | `Black -> ()
    | `Gray ->
      (* [u] is on the DFS stack: the edge we just followed closes a
         cycle.  [path] is newest-first from the immediate predecessor of
         this re-entry back to the root; the cycle body is the prefix up
         to (excluding) [u], reversed into edge order. *)
      let rec upto acc = function
        | [] -> acc
        | v :: tl -> if v = u then acc else upto (v :: acc) tl
      in
      found := (u, u :: upto [] path) :: !found
    | `White ->
      state.(u) <- `Gray;
      List.iter (fun v -> visit v (u :: path)) (succ u);
      state.(u) <- `Black
  in
  List.iter (fun r -> visit r []) roots;
  List.rev !found

let reachable ~n ~succ ~roots =
  let seen = Array.make n false in
  let rec go = function
    | [] -> ()
    | u :: tl ->
      let frontier =
        List.fold_left
          (fun acc v ->
            if seen.(v) then acc
            else begin
              seen.(v) <- true;
              v :: acc
            end)
          tl (succ u)
      in
      go frontier
  in
  let roots =
    List.filter
      (fun r ->
        if seen.(r) then false
        else begin
          seen.(r) <- true;
          true
        end)
      roots
  in
  go roots;
  seen

(* the first [n] elements of [a], copied only if [a] is longer *)
let exact a n = if Array.length a = n then a else Array.sub a 0 n

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)

(* Names interned as dense ids in first-sighting order, in an
   open-addressing table with linear probing.  A lookup hashes the name
   once, straight from a slice of a larger buffer, so the binary reader
   allocates a string only for a name it has not seen before. *)
module Names = struct
  type t = {
    mutable slots : int array;  (* -1 empty, else an id; a power of two long *)
    mutable names : string array;  (* id -> name; [count] used *)
    mutable count : int;
  }

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    { slots = Array.make !cap (-1); names = Array.make (max n 1) ""; count = 0 }

  (* FNV-1a, with the high bits folded into the low ones the mask keeps *)
  let hash s pos len =
    let h = ref 0x811c9dc5 in
    for i = pos to pos + len - 1 do
      h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
    done;
    !h lxor (!h lsr 29)

  (* top-level loops, not closures: a lookup allocates nothing *)
  let rec equal_from name s pos len i =
    i = len
    || (String.unsafe_get name i = String.unsafe_get s (pos + i)
        && equal_from name s pos len (i + 1))

  let rec probe t s pos len mask i =
    let id = t.slots.(i) in
    if
      id < 0
      || (let name = t.names.(id) in
          String.length name = len && equal_from name s pos len 0)
    then i
    else probe t s pos len mask ((i + 1) land mask)

  (* the slot holding [s.[pos..pos+len-1]], or the empty slot it would
     take; the slice is within [s] *)
  let slot t s pos len =
    let mask = Array.length t.slots - 1 in
    probe t s pos len mask (hash s pos len land mask)

  let grow t =
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) (-1);
    Array.iter
      (fun id ->
        if id >= 0 then
          let name = t.names.(id) in
          t.slots.(slot t name 0 (String.length name)) <- id)
      old

  (* the id of [s.[pos..pos+len-1]], interned if new: a whole [s] is
     kept as it is, a slice copied *)
  let intern_sub t s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Graph.Names.intern_sub";
    let i = slot t s pos len in
    let id = t.slots.(i) in
    if id >= 0 then id
    else begin
      let id = t.count in
      if id = Array.length t.names then begin
        let names = Array.make (2 * id) "" in
        Array.blit t.names 0 names 0 id;
        t.names <- names
      end;
      t.names.(id) <-
        (if pos = 0 && len = String.length s then s else String.sub s pos len);
      t.slots.(i) <- id;
      t.count <- id + 1;
      if 2 * t.count > Array.length t.slots then grow t;
      id
    end

  let intern t s = intern_sub t s 0 (String.length s)

  let find t s =
    let id = t.slots.(slot t s 0 (String.length s)) in
    if id < 0 then None else Some id

  let trim t = t.names <- exact t.names t.count

  (* renumber id [i] as [perm.(i)] in place, and trim [names] to [count] *)
  let renumber t perm =
    Array.iteri (fun i id -> if id >= 0 then t.slots.(i) <- perm.(id)) t.slots;
    let names = Array.make t.count "" in
    for id = 0 to t.count - 1 do
      names.(perm.(id)) <- t.names.(id)
    done;
    t.names <- names
end

(* ------------------------------------------------------------------ *)
(* The arena                                                           *)

type 'cell t = {
  nets : Names.t;
  cells : Names.t;
  payloads : 'cell array;
  cell_inputs : int array array;  (* cell -> input net ids, pin order *)
  cell_outputs : int array;  (* cell -> output net id *)
  net_driver : int array;  (* net -> driving cell id, or -1 for sources *)
  (* the pins reading net [n], in declaration order, are entries
     [reader_start.(n) .. reader_start.(n + 1) - 1] of the two planes *)
  reader_start : int array;  (* one entry per net, plus one *)
  reader_cell : int array;
  reader_pin : int array;
  pis : int array;
  pos : int array;
  topo : int array;  (* cells, drivers before readers *)
  cell_levels : int array;
  levels : int array array;  (* level -> cells, topo order within a level *)
}

type defect =
  | Duplicate_cell of string
  | Driven_twice of string
  | Input_driven of string
  | Undriven_input of string
  | Undriven_output of string
  | Cycle_through of string

let defect_message = function
  | Duplicate_cell c -> "duplicate cell " ^ c
  | Driven_twice n -> "net driven twice: " ^ n
  | Input_driven n -> "primary input driven: " ^ n
  | Undriven_input n -> "undriven net " ^ n
  | Undriven_output n -> "undriven primary output " ^ n
  | Cycle_through c -> "combinational cycle through " ^ c

(* Growable per-cell columns start empty: a payload array needs a first
   payload to fill itself with. *)
type 'cell builder = {
  b_nets : Names.t;  (* net keys, first-sighting order *)
  b_cells : Names.t;
  mutable b_payloads : 'cell array;
  mutable b_inputs : int array array;  (* net keys *)
  mutable b_outputs : int array;
  mutable b_count : int;
  mutable b_pis : int list;  (* reversed *)
  mutable b_pos : int list;  (* reversed *)
  mutable b_duplicate : string option;  (* the first repeated cell name *)
  b_cells_hint : int;
}

let builder ~cells ~nets =
  {
    b_nets = Names.create nets;
    b_cells = Names.create cells;
    b_payloads = [||];
    b_inputs = [||];
    b_outputs = [||];
    b_count = 0;
    b_pis = [];
    b_pos = [];
    b_duplicate = None;
    b_cells_hint = max cells 1;
  }

let intern b name = Names.intern b.b_nets name
let intern_sub b s ~pos ~len = Names.intern_sub b.b_nets s pos len
let interned b key = b.b_nets.Names.names.(key)
let add_primary_input b key = b.b_pis <- key :: b.b_pis
let add_primary_output b key = b.b_pos <- key :: b.b_pos

let add_cell b name payload ~inputs ~output =
  let i = b.b_count in
  if i = Array.length b.b_payloads then begin
    let cap = if i = 0 then b.b_cells_hint else 2 * i in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 i;
      a'
    in
    b.b_payloads <- extend b.b_payloads payload;
    b.b_inputs <- extend b.b_inputs [||];
    b.b_outputs <- extend b.b_outputs (-1)
  end;
  b.b_payloads.(i) <- payload;
  b.b_inputs.(i) <- inputs;
  b.b_outputs.(i) <- output;
  b.b_count <- i + 1;
  let known = b.b_cells.Names.count in
  ignore (Names.intern b.b_cells name : int);
  let fresh = b.b_cells.Names.count > known in
  if (not fresh) && b.b_duplicate = None then b.b_duplicate <- Some name;
  fresh

exception Invalid of defect

(* Every net key in numbering order: the primary inputs, then every
   cell's inputs in declaration and pin order, then the cell outputs,
   then the primary outputs. *)
let iter_number_order b ~pis ~pos visit =
  Array.iter visit pis;
  for i = 0 to b.b_count - 1 do
    Array.iter visit b.b_inputs.(i)
  done;
  for i = 0 to b.b_count - 1 do
    visit b.b_outputs.(i)
  done;
  Array.iter visit pos

(* Net ids: each net numbered where it is first met in that order.  Keys
   interned in that order already (a binary netlist's net table) are
   their own ids — each key is met first exactly when it is the next id
   — and are kept without an id array or a renumbering pass. *)
let number b =
  let pis = Array.of_list (List.rev b.b_pis)
  and pos = Array.of_list (List.rev b.b_pos) in
  let inputs = exact b.b_inputs b.b_count
  and outputs = exact b.b_outputs b.b_count in
  let next = ref 0 in
  let in_order =
    match
      iter_number_order b ~pis ~pos (fun k ->
        if k = !next then incr next else if k > !next then raise_notrace Exit)
    with
    | () -> true
    | exception Exit -> false
  in
  if in_order then Names.trim b.b_nets
  else begin
    let id = Array.make b.b_nets.Names.count (-1) in
    next := 0;
    let visit k =
      if id.(k) < 0 then begin
        id.(k) <- !next;
        incr next
      end
    in
    iter_number_order b ~pis ~pos visit;
    (* a key interned but never added still gets an id, after the rest *)
    for k = 0 to b.b_nets.Names.count - 1 do
      visit k
    done;
    let renum a =
      for j = 0 to Array.length a - 1 do
        a.(j) <- id.(a.(j))
      done
    in
    renum pis;
    renum pos;
    Array.iter renum inputs;
    renum outputs;
    Names.renumber b.b_nets id
  end;
  (pis, pos, inputs, outputs)

let finish b =
  match b.b_duplicate with
  | Some name -> Error (Duplicate_cell name)
  | None -> (
    let n_cells = b.b_count in
    let pis, pos, cell_inputs, cell_outputs = number b in
    let net_names = b.b_nets.Names.names in
    let n_nets = Array.length net_names in
    let payloads = exact b.b_payloads n_cells in
    let cell_names = b.b_cells in
    Names.trim cell_names;
    let is_pi = Array.make n_nets false in
    Array.iter (fun n -> is_pi.(n) <- true) pis;
    let net_driver = Array.make n_nets (-1) in
    try
      Array.iteri
        (fun i out ->
          if net_driver.(out) >= 0 then
            raise (Invalid (Driven_twice net_names.(out)));
          if is_pi.(out) then raise (Invalid (Input_driven net_names.(out)));
          net_driver.(out) <- i)
        cell_outputs;
      let undriven n = net_driver.(n) < 0 && not is_pi.(n) in
      Array.iter
        (Array.iter (fun n ->
             if undriven n then raise (Invalid (Undriven_input net_names.(n)))))
        cell_inputs;
      Array.iter
        (fun n ->
          if undriven n then raise (Invalid (Undriven_output net_names.(n))))
        pos;
      (* reader planes by counting: [reader_start.(n + 1)] first counts
         the pins reading [n], then a prefix sum makes the counts
         offsets, and a pass in declaration order fills each net's
         range, advancing [reader_start.(n)] to the range's end; the
         offsets shift back down by one net *)
      let reader_start = Array.make (n_nets + 1) 0 in
      let n_pins = ref 0 in
      for i = 0 to n_cells - 1 do
        let inputs = cell_inputs.(i) in
        n_pins := !n_pins + Array.length inputs;
        for pin = 0 to Array.length inputs - 1 do
          let n = inputs.(pin) + 1 in
          reader_start.(n) <- reader_start.(n) + 1
        done
      done;
      for n = 1 to n_nets do
        reader_start.(n) <- reader_start.(n) + reader_start.(n - 1)
      done;
      let reader_cell = Array.make !n_pins 0
      and reader_pin = Array.make !n_pins 0 in
      for i = 0 to n_cells - 1 do
        let inputs = cell_inputs.(i) in
        for pin = 0 to Array.length inputs - 1 do
          let n = inputs.(pin) in
          let k = reader_start.(n) in
          reader_cell.(k) <- i;
          reader_pin.(k) <- pin;
          reader_start.(n) <- k + 1
        done
      done;
      for n = n_nets downto 1 do
        reader_start.(n) <- reader_start.(n - 1)
      done;
      reader_start.(0) <- 0;
      (* topological order: DFS postorder over the cells in declaration
         order, fanin first — the traversal {!Design.create} historically
         used, so downstream report orders are unchanged *)
      let topo = Array.make n_cells 0 and n_topo = ref 0 in
      let state = Array.make n_cells `White in
      let rec visit i =
        match state.(i) with
        | `Black -> ()
        | `Gray -> raise (Invalid (Cycle_through cell_names.Names.names.(i)))
        | `White ->
          state.(i) <- `Gray;
          let inputs = cell_inputs.(i) in
          for pin = 0 to Array.length inputs - 1 do
            let d = net_driver.(inputs.(pin)) in
            if d >= 0 then visit d
          done;
          state.(i) <- `Black;
          topo.(!n_topo) <- i;
          incr n_topo
      in
      for i = 0 to n_cells - 1 do
        visit i
      done;
      (* levels: a cell sits one level above its deepest driven input *)
      let cell_levels = Array.make n_cells 0 and n_levels = ref 0 in
      for k = 0 to n_cells - 1 do
        let i = topo.(k) and l = ref 0 in
        let inputs = cell_inputs.(i) in
        for pin = 0 to Array.length inputs - 1 do
          let d = net_driver.(inputs.(pin)) in
          if d >= 0 then l := Int.max !l (cell_levels.(d) + 1)
        done;
        cell_levels.(i) <- !l;
        n_levels := Int.max !n_levels (!l + 1)
      done;
      (* each level's cells counted, then placed in topo order *)
      let fill = Array.make !n_levels 0 in
      Array.iter (fun l -> fill.(l) <- fill.(l) + 1) cell_levels;
      let levels = Array.map (fun k -> Array.make k 0) fill in
      Array.fill fill 0 !n_levels 0;
      Array.iter
        (fun i ->
          let l = cell_levels.(i) in
          levels.(l).(fill.(l)) <- i;
          fill.(l) <- fill.(l) + 1)
        topo;
      Ok
        {
          nets = b.b_nets;
          cells = cell_names;
          payloads;
          cell_inputs;
          cell_outputs;
          net_driver;
          reader_start;
          reader_cell;
          reader_pin;
          pis;
          pos;
          topo;
          cell_levels;
          levels;
        }
    with Invalid d -> Error d)

type 'cell spec = {
  spec_name : string;
  spec_payload : 'cell;
  spec_inputs : string array;
  spec_output : string;
}

exception Cycle of { through : string }

let build ~cells ~primary_inputs ~primary_outputs =
  let b =
    builder ~cells:(List.length cells)
      ~nets:(List.length cells + List.length primary_inputs)
  in
  List.iter (fun n -> add_primary_input b (intern b n)) primary_inputs;
  List.iter (fun n -> add_primary_output b (intern b n)) primary_outputs;
  List.iter
    (fun c ->
      ignore
        (add_cell b c.spec_name c.spec_payload
           ~inputs:(Array.map (intern b) c.spec_inputs)
           ~output:(intern b c.spec_output)
          : bool))
    cells;
  match finish b with
  | Ok g -> g
  | Error (Cycle_through through) -> raise (Cycle { through })
  | Error d -> invalid_arg ("Graph.build: " ^ defect_message d)

let net_count t = Array.length t.nets.Names.names
let cell_count t = Array.length t.payloads
let net_name t id = t.nets.Names.names.(id)
let net_id t name = Names.find t.nets name
let cell_name t id = t.cells.Names.names.(id)
let cell_id t name = Names.find t.cells name
let payload t id = t.payloads.(id)
let cell_inputs t id = t.cell_inputs.(id)
let cell_output t id = t.cell_outputs.(id)

let driver t ~net = if t.net_driver.(net) >= 0 then Some t.net_driver.(net) else None
let driver_id t ~net = t.net_driver.(net)

let iter_readers t ~net f =
  for k = t.reader_start.(net) to t.reader_start.(net + 1) - 1 do
    f t.reader_cell.(k) t.reader_pin.(k)
  done

let primary_inputs t = t.pis
let primary_outputs t = t.pos
let topological t = t.topo
let cell_level t id = t.cell_levels.(id)
let level_count t = Array.length t.levels
let level t i = t.levels.(i)

let fanin_cone t ~cells =
  let seen = Array.make (cell_count t) false in
  let rec mark_cell i =
    if not seen.(i) then begin
      seen.(i) <- true;
      Array.iter
        (fun net ->
          let d = t.net_driver.(net) in
          if d >= 0 then mark_cell d)
        t.cell_inputs.(i)
    end
  in
  List.iter mark_cell cells;
  seen

let fanout_cone t ~nets ~cells =
  let dirty = Array.make (cell_count t) false in
  let rec mark_cell i =
    if not dirty.(i) then begin
      dirty.(i) <- true;
      mark_net t.cell_outputs.(i)
    end
  and mark_net net =
    for k = t.reader_start.(net) to t.reader_start.(net + 1) - 1 do
      mark_cell t.reader_cell.(k)
    done
  in
  List.iter mark_net nets;
  List.iter mark_cell cells;
  dirty

(* one reverse-topological pass: every reader of a cell's output comes
   after it in [topo], so its output's verdict is final when it is
   visited *)
let reaches t ~cell =
  let r = Array.make (net_count t) false in
  for k = Array.length t.topo - 1 downto 0 do
    let c = t.topo.(k) in
    if cell c || r.(t.cell_outputs.(c)) then
      Array.iter (fun net -> r.(net) <- true) t.cell_inputs.(c)
  done;
  r

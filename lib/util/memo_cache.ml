type 'v entry = Done of 'v | Pending

type ('k, 'v) shard = {
  mutex : Mutex.t;
  cond : Condition.t;  (** signalled when a [Pending] entry resolves *)
  tbl : ('k, 'v entry) Hashtbl.t;
  (* counters live in the shard and are only touched under [mutex], so a
     [stats] sample is consistent with the table contents it observes *)
  mutable hits : int;
  mutable misses : int;
  mutable waits : int;
  mutable evictions : int;
}

type ('k, 'v) t = ('k, 'v) shard array

(* Process-wide mirrors across every cache, for the observability
   registry (individual caches are not enumerable from outside). *)
module Global = struct
  let g_hits = Dcounter.make ()
  let g_misses = Dcounter.make ()
  let g_waits = Dcounter.make ()
  let g_evictions = Dcounter.make ()
  let hits () = Dcounter.value g_hits
  let misses () = Dcounter.value g_misses
  let waits () = Dcounter.value g_waits
  let evictions () = Dcounter.value g_evictions

  let reset () =
    Dcounter.reset g_hits;
    Dcounter.reset g_misses;
    Dcounter.reset g_waits;
    Dcounter.reset g_evictions
end

let create () =
  Array.init 16 (fun _ ->
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      tbl = Hashtbl.create 32;
      hits = 0;
      misses = 0;
      waits = 0;
      evictions = 0;
    })

let shard_of t key = t.(Hashtbl.hash key mod Array.length t)

let find_or_compute t key f =
  let shard = shard_of t key in
  Mutex.lock shard.mutex;
  let rec acquire ~waited =
    match Hashtbl.find_opt shard.tbl key with
    | Some (Done v) ->
      if waited then begin
        shard.waits <- shard.waits + 1;
        Dcounter.incr Global.g_waits
      end
      else begin
        shard.hits <- shard.hits + 1;
        Dcounter.incr Global.g_hits
      end;
      Mutex.unlock shard.mutex;
      v
    | Some Pending ->
      Condition.wait shard.cond shard.mutex;
      acquire ~waited:true
    | None ->
      (* a waiter woken to find the entry gone (the computer failed)
         becomes a computer itself, and is counted as the miss it is *)
      Hashtbl.replace shard.tbl key Pending;
      shard.misses <- shard.misses + 1;
      Dcounter.incr Global.g_misses;
      Mutex.unlock shard.mutex;
      let result =
        try Ok (f ())
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock shard.mutex;
      (match result with
       | Ok v -> Hashtbl.replace shard.tbl key (Done v)
       | Error _ ->
         Hashtbl.remove shard.tbl key;
         shard.evictions <- shard.evictions + 1;
         Dcounter.incr Global.g_evictions);
      Condition.broadcast shard.cond;
      Mutex.unlock shard.mutex;
      (match result with
       | Ok v -> v
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
  in
  acquire ~waited:false

let mem t key =
  let shard = shard_of t key in
  Mutex.lock shard.mutex;
  let found =
    match Hashtbl.find_opt shard.tbl key with
    | Some (Done _) -> true
    | Some Pending | None -> false
  in
  Mutex.unlock shard.mutex;
  found

type stats = {
  hits : int;
  misses : int;
  waits : int;
  evictions : int;
  entries : int;
}

let zero_stats = { hits = 0; misses = 0; waits = 0; evictions = 0; entries = 0 }

let stats (t : _ t) =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.mutex;
      let entries =
        Hashtbl.fold
          (fun _ entry acc ->
            match entry with Done _ -> acc + 1 | Pending -> acc)
          shard.tbl 0
      in
      let acc =
        {
          hits = acc.hits + shard.hits;
          misses = acc.misses + shard.misses;
          waits = acc.waits + shard.waits;
          evictions = acc.evictions + shard.evictions;
          entries = acc.entries + entries;
        }
      in
      Mutex.unlock shard.mutex;
      acc)
    zero_stats t

let length t = (stats t).entries

let reset_stats (t : _ t) =
  Array.iter
    (fun shard ->
      Mutex.lock shard.mutex;
      shard.hits <- 0;
      shard.misses <- 0;
      shard.waits <- 0;
      shard.evictions <- 0;
      Mutex.unlock shard.mutex)
    t

(* A persistent domain pool with one shared cursor per job.

   Worker domains are spawned once at [create] and live until [shutdown];
   submitting a job never spawns a domain.  A job is its index range and
   one [Atomic] cursor: every participant claims the next index with one
   [Atomic.fetch_and_add] until the range is exhausted, so a domain that
   drew an expensive index never holds up the cheap ones behind it.

   One job runs at a time ([submit_m]); the submitting domain claims
   indices alongside the workers, then parks on [done_cv] until the last
   index completes.  Idle workers park on [work_cv] waiting for
   [generation] to advance — a parked domain sits in a blocking section,
   so an idle pool costs nothing and does not stall the GC. *)

type job = {
  fn : int -> unit;
  n : int;  (** index count *)
  next : int Atomic.t;  (** the shared cursor: next unclaimed index *)
  completed : int Atomic.t;  (** indices fully executed (or drained) *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (** first failure; protected by the pool mutex *)
}

type t = {
  width : int;
  mutex : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  submit_m : Mutex.t;
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

exception Shut_down

let () =
  Printexc.register_printer (function
    | Shut_down -> Some "Proxim_util.Pool.Shut_down"
    | _ -> None)

(* Set while a domain is executing job indices: inner parallel calls from
   such a domain run serially instead of re-entering a pool. *)
let busy_key = Domain.DLS.new_key (fun () -> ref false)

let busy () = !(Domain.DLS.get busy_key)

let domains t = t.width

(* --- observability ------------------------------------------------- *)

(* Process-wide job counters and a span hook.  The hook defaults to a
   pass-through closure so the uninstrumented pool stays dependency-free;
   the observability layer installs a tracing wrapper at enable time. *)
let c_parallel_jobs = Dcounter.make ()
let c_serial_jobs = Dcounter.make ()
let c_tasks = Dcounter.make ()
let c_active = Atomic.make 0
let parallel_jobs () = Dcounter.value c_parallel_jobs
let serial_jobs () = Dcounter.value c_serial_jobs
let tasks_dispatched () = Dcounter.value c_tasks
let active_domains () = Atomic.get c_active

type instrument = name:string -> total:int -> (unit -> unit) -> unit

let instrument : instrument ref = ref (fun ~name:_ ~total:_ f -> f ())
let set_instrument i = instrument := i

(* --- job execution -------------------------------------------------- *)

let run_index pool job i =
  (match job.failed with
   | Some _ -> ()  (* drain without working once something failed *)
   | None -> (
     try job.fn i
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock pool.mutex;
       if job.failed = None then job.failed <- Some (e, bt);
       Mutex.unlock pool.mutex));
  if Atomic.fetch_and_add job.completed 1 + 1 = job.n then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.done_cv;
    Mutex.unlock pool.mutex
  end

(* Claim and run indices until the cursor passes the end of the range
   (indices still in flight belong to other participants). *)
let execute pool job =
  let flag = Domain.DLS.get busy_key in
  let saved = !flag in
  flag := true;
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      run_index pool job i;
      claim ()
    end
  in
  Atomic.incr c_active;
  Fun.protect
    ~finally:(fun () -> Atomic.decr c_active)
    (fun () -> !instrument ~name:"pool.run" ~total:job.n claim);
  flag := saved

let worker_loop pool =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while pool.generation = !seen && not pool.stop do
      Condition.wait pool.work_cv pool.mutex
    done;
    if pool.stop then Mutex.unlock pool.mutex
    else begin
      seen := pool.generation;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (match job with Some j -> execute pool j | None -> ());
      loop ()
    end
  in
  loop ()

let create ~domains:width =
  if width < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      width;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      submit_m = Mutex.create ();
      job = None;
      generation = 0;
      stop = false;
      workers = [];
    }
  in
  (* the submitting domain is the [width]-th participant *)
  pool.workers <-
    List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [];
  pool.stop <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let serial_for ~n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for pool ~n f =
  (* [stop] only ever flips false -> true, so this unlocked read is a
     best-effort gate: a submission racing shutdown may still slip
     through, in which case the submitting domain claims every index
     itself (the cursor needs no workers) — never a hang.  Anything
     arriving after is the typed error a long-lived server maps to a
     per-session failure instead of dying. *)
  if pool.stop then raise Shut_down;
  if n <= 0 then ()
  else if pool.width = 1 || n = 1 || busy () then begin
    Dcounter.incr c_serial_jobs;
    Dcounter.add c_tasks n;
    serial_for ~n f
  end
  else begin
    Dcounter.incr c_parallel_jobs;
    Dcounter.add c_tasks n;
    !instrument ~name:"pool.job" ~total:n (fun () ->
    Mutex.lock pool.submit_m;
    let job =
      {
        fn = f;
        n;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        failed = None;
      }
    in
    Mutex.lock pool.mutex;
    pool.job <- Some job;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.mutex;
    execute pool job;
    Mutex.lock pool.mutex;
    while Atomic.get job.completed < n do
      Condition.wait pool.done_cv pool.mutex
    done;
    pool.job <- None;
    Mutex.unlock pool.mutex;
    Mutex.unlock pool.submit_m;
    match job.failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ())
  end

let map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for pool ~n (fun i -> out.(i) <- Some (f arr.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* every slot filled *))
      out
  end

(* --- default pool -------------------------------------------------- *)

let recommended_domains () = Domain.recommended_domain_count ()

let default_m = Mutex.create ()
let default_pool = ref None
let default_width = ref None
let at_exit_installed = ref false

let default () =
  Mutex.lock default_m;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
      let width =
        match !default_width with
        | Some w -> w
        | None -> recommended_domains ()
      in
      let p = create ~domains:width in
      default_pool := Some p;
      if not !at_exit_installed then begin
        at_exit_installed := true;
        at_exit (fun () ->
          Mutex.lock default_m;
          let p = !default_pool in
          default_pool := None;
          Mutex.unlock default_m;
          Option.iter shutdown p)
      end;
      p
  in
  Mutex.unlock default_m;
  pool

let set_default_domains width =
  if width < 1 then invalid_arg "Pool.set_default_domains: domains must be >= 1";
  Mutex.lock default_m;
  let previous =
    match !default_pool with
    | Some p when p.width <> width ->
      default_pool := None;
      Some p
    | _ -> None
  in
  default_width := Some width;
  Mutex.unlock default_m;
  Option.iter shutdown previous

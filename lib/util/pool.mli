(** A persistent work-stealing domain pool for data-parallel sweeps.

    Built on stdlib [Domain] + [Mutex]/[Condition] only (no external
    dependencies).  The pool owns [domains - 1] worker domains, spawned
    once at {!create} and reused for every subsequent job — submitting
    work never spawns a domain.  The submitting domain participates in
    every job, so [create ~domains:n] gives [n]-way parallelism.

    Scheduling is chunked work-stealing: a job's index range is cut into
    contiguous chunks, block-dealt across one queue per participating
    domain.  Each domain drains its own queue first (contiguous indices,
    cache-friendly sweeps over dense-id arrays) and then steals leftover
    chunks from the other queues, which load-balances wildly varying
    per-index costs (individual transient analyses) as well as skewed
    chunk sizes.  A chunk claim is one [Atomic.fetch_and_add], so for
    coarse chunks the scheduling cost per index is a fraction of an
    atomic operation.

    Determinism: every index [i] writes only its own result slot, so
    {!map} and {!parallel_for} produce results that are bit-identical to
    a serial loop regardless of the number of domains, the chunk size or
    the stealing order.  [create ~domains:1] never spawns a domain and
    degrades to a plain loop.

    Nesting is safe: a task that itself calls {!map} or {!parallel_for}
    (on any pool) runs the inner job serially on its own domain instead
    of deadlocking on the pool it is already occupying.  This lets
    coarse-grained parallelism (one task per table) compose with
    fine-grained parallelism (one task per grid point) without
    oversubscription. *)

type t

val create : domains:int -> t
(** [create ~domains:n] spawns [n - 1] worker domains.  Raises
    [Invalid_argument] if [n < 1].  [n = 1] is the serial pool: no
    domains are spawned and every job runs inline.  Idle workers park on
    a condition variable (a blocking section), so a pool between jobs
    costs nothing and never stalls the GC of the running domain. *)

val domains : t -> int
(** The parallelism width the pool was created with. *)

exception Shut_down
(** Raised by {!parallel_for}/{!map}/{!map_list} when the pool has been
    {!shutdown}.  A typed, catchable error — never a hang on vanished
    workers — so long-lived callers holding a stale pool reference
    (e.g. a [serve] session that outlives a {!set_default_domains}
    reconfiguration) can surface the failure per request and re-fetch
    {!default}.  A printer is registered. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Jobs submitted after
    shutdown raise {!Shut_down}; a submission racing the shutdown may
    instead complete normally on the submitting domain (the check is
    best-effort, the job's completion is not). *)

val parallel_for : ?chunk:int -> t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f 0 .. f (n-1)], distributing
    contiguous chunks of indices across the pool's domains and stealing
    to rebalance.  Blocks until every index has completed.  [chunk] is
    the number of indices per claim (default
    [max 1 (ceil (n / (4 * domains)))], ~4 chunks per domain: coarse
    enough to amortize chunk claims, with slack for the steal loop to
    rebalance skewed costs); pass
    [~chunk:1] for fully dynamic per-index balancing of expensive,
    uneven tasks.  Raises [Invalid_argument] if [chunk < 1].  Jobs with
    [n <= chunk] run serially on the caller.  If any [f i] raises, the
    first exception (by completion order) is re-raised in the caller
    after the job drains; remaining chunks are abandoned. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr] with the elements evaluated
    across the pool's domains.  Result order matches input order.
    [chunk] defaults to [1]: map workloads here (transient analyses,
    VTC curves) are expensive and uneven, so per-element claims
    load-balance best.  Exceptions propagate as in {!parallel_for}. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

val run_serially : (unit -> 'a) -> 'a
(** [run_serially f] runs [f] with pool parallelism disabled on the
    current domain: any {!map}/{!parallel_for} reached from inside [f]
    degrades to a plain loop.  Used by the [--domains 1] fallbacks and
    by determinism tests. *)

(** {1 Observability}

    Process-wide counters over every pool in the process, plus a span
    hook.  The counters are contention-free ({!Dcounter}); the
    observability layer registers them as [pool.*] registry metrics. *)

val parallel_jobs : unit -> int
(** Jobs that actually fanned out across domains. *)

val serial_jobs : unit -> int
(** Jobs that degraded to a plain loop (width 1, job no larger than one
    chunk, or nested call). *)

val tasks_dispatched : unit -> int
(** Total indices dispatched across all jobs, serial or parallel. *)

val chunks_dispatched : unit -> int
(** Chunks dealt out across parallel jobs.  [tasks / chunks] is the
    average scheduling granularity actually achieved. *)

val steals : unit -> int
(** Chunks executed by a domain other than the queue's owner.  A steady
    non-zero rate means the steal loop is rebalancing skewed work; zero
    on a wide pool with uneven levels suggests chunks are too coarse. *)

val active_domains : unit -> int
(** Domains currently executing job chunks — the instantaneous pool
    utilization, sampled by the [pool.active_domains] gauge. *)

type instrument = name:string -> total:int -> (unit -> unit) -> unit

val set_instrument : instrument -> unit
(** Install a wrapper around pool work.  Each parallel job submission is
    wrapped once as ["pool.job"], and each domain's participation in a
    job as ["pool.run"] ([total] is the job's index count), so a tracing
    hook sees one queue/run span pair per job per domain — the per-domain
    occupancy of a job is the width of its ["pool.run"] spans.  The
    default hook is a pass-through; the wrapper must call the thunk
    exactly once. *)

(** {1 The process-wide default pool}

    Library entry points take [?pool] arguments defaulting to this pool,
    so a single [--domains N] flag at the CLI/bench level configures the
    whole characterization and STA stack.  The default pool is created
    once and reused by every [Store.characterize], [Sta.analyze] and
    [Timing.update] call in the process. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val set_default_domains : int -> unit
(** Configure the width of the default pool.  If the default pool
    already exists with a different width it is shut down and replaced.
    Raises [Invalid_argument] on [n < 1]. *)

val default : unit -> t
(** The process-wide pool, created on first use with
    {!recommended_domains} width (or the width set by
    {!set_default_domains}).  Shut down automatically at exit. *)

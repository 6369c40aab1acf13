(** A persistent domain pool for data-parallel sweeps.

    Built on stdlib [Domain] + [Mutex]/[Condition] only (no external
    dependencies).  The pool owns [domains - 1] worker domains, spawned
    once at {!create} and reused for every subsequent job — submitting
    work never spawns a domain.  The submitting domain participates in
    every job, so [create ~domains:n] gives [n]-way parallelism.

    Scheduling is one shared cursor per job: every participating domain
    claims the next index with one [Atomic.fetch_and_add] until the range
    is exhausted.  A domain that draws an expensive index (one transient
    analysis, one slice of a wide STA level) simply claims fewer, so
    wildly varying per-index costs balance themselves.  Callers with
    cheap indices cut their own coarse slices and hand the pool one index
    per slice, as [Timing] does for level evaluation.

    Determinism: every index [i] writes only its own result slot, so
    {!map} and {!parallel_for} produce results that are bit-identical to
    a serial loop regardless of the number of domains or the order in
    which they claim indices.  [create ~domains:1] never spawns a domain
    and degrades to a plain loop.

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
(** Raised by {!parallel_for}/{!map} when the pool has been
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

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f 0 .. f (n-1)], each index claimed
    from the job's shared cursor by whichever domain is free next.
    Blocks until every index has completed.  Jobs with [n <= 1] run
    serially on the caller.  If any [f i] raises, the first exception
    (by completion order) is re-raised in the caller after the job
    drains; remaining indices are abandoned. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr] with the elements evaluated
    across the pool's domains.  Result order matches input order.
    Exceptions propagate as in {!parallel_for}. *)

(** {1 Observability}

    Process-wide counters over every pool in the process, plus a span
    hook.  The counters are contention-free ({!Dcounter}); the
    observability layer registers them as [pool.*] registry metrics. *)

val parallel_jobs : unit -> int
(** Jobs that actually fanned out across domains. *)

val serial_jobs : unit -> int
(** Jobs that degraded to a plain loop (width 1, a single index, or a
    nested call). *)

val tasks_dispatched : unit -> int
(** Total indices dispatched across all jobs, serial or parallel. *)

val active_domains : unit -> int
(** Domains currently executing job indices — the instantaneous pool
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

(** A domain-safe sharded memoization cache.

    Keys are spread over 16 independent {!Hashtbl} shards, each guarded
    by its own mutex, so concurrent lookups from a {!Pool} job mostly
    touch different locks.  A computation in flight is visible to other
    domains as a [Pending] entry: a second request for the same key
    blocks on the shard's condition variable instead of duplicating the
    work — exactly one transient analysis ever runs per distinct query.

    Every lookup, warm or cold, takes its shard's mutex, and the cache
    holds nothing per domain: its memory is freed with it.  A hot loop
    that asks for the same few keys on every iteration from several
    domains queues on those keys' shards; resolve such values once
    before the loop instead ([Sta.build_ir] resolves each cell's models
    once per analysis).

    If the computing domain raises, the pending entry is removed (counted
    as an eviction), all waiters retry (and typically re-raise from their
    own attempt), and the exception propagates to every caller.

    The computation must not re-enter the cache with the same key from
    the same domain — that would self-deadlock on the pending entry. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t
(** [create ()] makes an empty cache with 16 shards.  Keys use
    polymorphic [Hashtbl.hash] and structural equality, like the plain
    [Hashtbl] memoization this replaces. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute cache key f] returns the cached value for [key],
    waiting out another domain's in-flight computation if there is one,
    or runs [f ()] and caches its result. *)

val mem : ('k, 'v) t -> 'k -> bool
(** [mem cache key] is true iff a completed value for [key] is cached.
    Does not block on pending computations and does not touch the
    hit/miss counters. *)

val length : ('k, 'v) t -> int
(** Number of completed entries across all shards. *)

type stats = {
  hits : int;  (** queries answered from a completed entry without
                   blocking *)
  misses : int;  (** computations actually started *)
  waits : int;  (** queries answered only after blocking on another
                    domain's in-flight computation *)
  evictions : int;  (** entries removed because their computation
                        raised *)
  entries : int;  (** completed entries currently stored *)
}
(** The shard counters are updated under the owning shard's lock, so a
    sample is internally consistent: [hits + misses + waits] is exactly
    the number of completed {!find_or_compute} calls at the sampling
    instant. *)

val stats : ('k, 'v) t -> stats

val zero_stats : stats
(** Every counter zero: the stats of a fresh cache, and of a model that
    keeps no cache at all. *)

val reset_stats : ('k, 'v) t -> unit
(** Zero the counters ([entries] is unaffected). *)

(** Process-wide totals across every cache in the process, mirrored on
    contention-free per-domain counters ({!Dcounter}).  The observability
    layer registers these as the [cache.*] registry counters. *)
module Global : sig
  val hits : unit -> int
  val misses : unit -> int
  val waits : unit -> int
  val evictions : unit -> int
  val reset : unit -> unit
end

(** A domain-safe sharded memoization cache.

    Keys are spread over [N] independent {!Hashtbl} shards, each guarded
    by its own mutex, so concurrent lookups from a {!Pool} job mostly
    touch different locks.  A computation in flight is visible to other
    domains as a [Pending] entry: a second request for the same key
    blocks on the shard's condition variable instead of duplicating the
    work — exactly one transient analysis ever runs per distinct query.

    If the computing domain raises, the pending entry is removed (counted
    as an eviction), all waiters retry (and typically re-raise from their
    own attempt), and the exception propagates to every caller.

    The computation must not re-enter the cache with the same key from
    the same domain — that would self-deadlock on the pending entry. *)

type ('k, 'v) t

val create : ?shards:int -> ?local:bool -> unit -> ('k, 'v) t
(** [create ()] makes an empty cache with [shards] shards (default 16;
    clamped to at least 1).  Keys use polymorphic [Hashtbl.hash] and
    structural equality, like the plain [Hashtbl] memoization this
    replaces.

    [~local:true] adds a warm path: each domain keeps an unsynchronized
    read-through replica of the completed entries it has seen, so
    repeated queries from a hot parallel loop are answered without
    touching a mutex or a shared cache line.  The replica only ever
    holds values that the shared tier completed — failed computations
    are cached in neither tier — so it cannot diverge.  Use it for
    caches whose values are immutable and re-queried many times per
    domain (model factories during characterization); skip it for
    caches queried about once per key. *)

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
  local_hits : int;  (** queries answered from the caller's domain-local
                         replica ([~local:true] caches only); counted on
                         a contention-free {!Dcounter}, so this field is
                         approximate while domains are actively querying *)
}
(** The shard counters are updated under the owning shard's lock, so a
    sample is internally consistent: [hits + misses + waits] is exactly
    the number of completed shared-tier {!find_or_compute} calls at the
    sampling instant.  [local_hits] come on top: a warm-path answer
    touches no shard and appears in no other counter. *)

val stats : ('k, 'v) t -> stats

val zero_stats : stats
(** Every counter zero: the stats of a fresh cache, and of a model that
    keeps no cache at all. *)

val reset_stats : ('k, 'v) t -> unit
(** Zero the counters, including [local_hits] ([entries] is
    unaffected). *)

(** Process-wide totals across every cache in the process, mirrored on
    contention-free per-domain counters ({!Dcounter}).  The observability
    layer registers these as the [cache.*] registry counters. *)
module Global : sig
  val hits : unit -> int
  val misses : unit -> int
  val waits : unit -> int
  val evictions : unit -> int
  val local_hits : unit -> int
  val reset : unit -> unit
end

(** A process-wide metrics registry: named counters, gauges and latency
    histograms, with text and JSON reporters.

    Hot-path updates are contention-free: counters are per-domain cells
    merged on read ({!Proxim_util.Dcounter}), and histogram observations
    land in per-domain bin arrays.  Reading ({!snapshot}) merges across
    domains, so a snapshot is a best-effort instantaneous view while
    domains are running and exact once they have quiesced.

    Besides owned metrics, the registry accepts {e sources} — callbacks
    sampled at snapshot time — which is how the instrumentation counters
    living inside [Proxim_util] ({!Proxim_util.Pool},
    {!Proxim_util.Memo_cache}, {!Proxim_util.Interp}) are surfaced
    without inverting the dependency order: see
    {!install_util_sources}. *)

type t
(** A registry. *)

type registry = t
(** Alias so the metric submodules can name the registry type alongside
    their own [t]. *)

val create : unit -> t

val default : t
(** The process-wide registry used when [?registry] is omitted. *)

(** Monotone event counts, e.g. cells evaluated or clamp events. *)
module Counter : sig
  type t

  val v : ?registry:registry -> string -> t
  (** [v name] registers (or retrieves — registration is idempotent by
      name) the counter [name]. *)

  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Merged total across domains. *)

  val name : t -> string
end

(** Last-writer-wins instantaneous values, e.g. utilization. *)
module Gauge : sig
  type t

  val v : ?registry:registry -> string -> t
  val set : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

(** Latency distributions in seconds, on logarithmic bins. *)
module Histogram : sig
  type t

  val v :
    ?registry:registry ->
    ?lo:float ->
    ?hi:float ->
    ?bins:int ->
    string ->
    t
  (** [v name] registers (or retrieves) a histogram with [bins]
      log-spaced bins over [\[lo, hi)] seconds (defaults: 28 bins over
      [1µs, 10s) — four per decade).  Raises [Invalid_argument] unless
      [0 < lo < hi] and [bins >= 1]. *)

  val observe : t -> float -> unit
  (** Record one duration (seconds). *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk and {!observe} its wall-clock duration, also on
      exceptional exit. *)

  val name : t -> string
end

val register_gauge_source :
  ?registry:registry -> string -> (unit -> float) -> unit

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** 0 when [count = 0] *)
  max : float;  (** 0 when [count = 0] *)
  hist : Proxim_util.Histogram.t;
      (** merged bin counts; the axis is [log10] of the duration in
          seconds, reusing the repo's histogram renderer *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : ?registry:registry -> unit -> snapshot

val reset : ?registry:registry -> unit -> unit
(** Zero every owned metric.  Sources are left alone — reset them at
    their origin ([Memo_cache.Global.reset],
    [Interp.reset_grid_clamp_events], …). *)

val to_text : snapshot -> string
(** Human-readable report: one line per counter/gauge, a summary line
    plus a [#]-bar chart per non-empty histogram. *)

val to_json : snapshot -> string
(** The snapshot as a JSON object
    [{"counters":{..},"gauges":{..},"histograms":{..}}] — parseable by
    [Proxim_util.Json] and embeddable into the bench [BENCH_*.json]
    reports. *)

val peak_rss_bytes : unit -> int
(** Peak resident set size of this process, in bytes: [VmHWM] from
    [/proc/self/status] where available (Linux), otherwise the GC
    major-heap high-water mark ([top_heap_words]) as a portable
    under-approximation. *)

val reset_peak_rss : unit -> unit
(** Reset the kernel's RSS high-water mark to the current RSS (writes
    ["5"] to [/proc/self/clear_refs]), so the next {!peak_rss_bytes}
    reading is attributable to work done since the reset.  A no-op where
    the interface does not exist. *)

val install_util_sources : ?registry:registry -> unit -> unit
(** Register the util-layer instrumentation as sources: [cache.hits],
    [cache.misses], [cache.waits], [cache.evictions] (process-wide
    {!Proxim_util.Memo_cache} totals), [pool.parallel_jobs],
    [pool.serial_jobs], [pool.tasks], the [pool.active_domains]
    utilization gauge, [interp.grid_clamps] (out-of-range grid queries
    under the clamping policy), and the
    [process.peak_rss_bytes] gauge ({!peak_rss_bytes}), which therefore
    lands in every snapshot — including the [metrics] object embedded in
    each bench [BENCH_*.json].  Idempotent. *)

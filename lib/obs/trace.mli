(** Structured tracing: nested spans, Chrome trace-event JSON output.

    Spans are recorded per domain (no cross-domain contention on the hot
    path) and merged on read.  With tracing disabled — the default —
    {!with_span} costs a single [Atomic] load and a closure call, so
    instrumentation can stay on permanently in library code.

    The emitted JSON is the Chrome trace-event format: load it in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing].  Each span
    becomes a complete ("ph":"X") event carrying the recording domain's
    id as [tid], its duration in µs, and the bytes it allocated as
    [args.alloc_bytes]. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Start recording.  Sets the trace epoch (timestamps are µs since this
    call) and installs the {!Proxim_util.Pool} instrumentation hook so
    pool jobs appear as ["pool.job"]/["pool.run"] spans. *)

val disable : unit -> unit
(** Stop recording.  Already-collected events are kept. *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span (default category
    ["app"]).  The span is recorded on normal and exceptional exit;
    when tracing is disabled this is just [f ()]. *)

type event = {
  name : string;
  cat : string;
  ts : float;  (** µs since {!enable} *)
  dur : float;  (** µs *)
  tid : int;  (** recording domain id *)
  alloc : float;  (** bytes allocated on the recording domain *)
  args : (string * string) list;
}

val events : unit -> event list
(** All recorded spans, merged across domains, sorted by start time. *)

val clear : unit -> unit
(** Drop every recorded span (the enabled flag is unchanged). *)

val to_chrome_json : unit -> string
(** The recorded spans as a Chrome trace-event JSON document. *)

val write_file : string -> unit
(** {!to_chrome_json} to a file. *)

type agg = {
  agg_name : string;
  count : int;
  total_us : float;
  alloc_bytes : float;
}

val aggregate : ?cat:string -> unit -> agg list
(** Group recorded spans by name (optionally restricted to one
    category), sorted by total duration, largest first — the view behind
    [proxim profile]. *)

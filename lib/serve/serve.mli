(** [proxim serve] — a long-lived, multi-session incremental timing
    daemon over the ECO engine.

    The server holds many designs warm in a shared store and accepts
    concurrent client sessions over a Unix-domain or TCP socket.  Each
    session speaks the length-prefixed JSON protocol of {!Frame}: one
    request object per frame, one response object back.  A session may
    load or generate designs, attach an incremental analysis
    ({!Proxim_sta.Sta.build_ir}), stream ECOs through
    {!Proxim_sta.Sta.update}, and query reports, K-worst paths and
    slacks — every answer is produced by the very same engine entry
    points the offline [proxim sta] command uses, so responses are
    bit-identical to offline analysis by construction.

    {2 Protocol}

    Requests are objects with an ["op"] field; responses carry
    ["ok": true] plus the payload, or ["ok": false] with a typed
    [{"error": {"code", "message"}}] envelope.  Ops:

    - [hello] — server identification and protocol version.
    - [load {"path"}] / [load_text {"text"}] — parse a netlist (binary
      PXNB or text by sniffing / text only) into the shared store.
    - [gen {"cells", "depth", "seed"}] — deterministic synthetic design.
    - [designs] — list the store.
    - [attach {"design", "mode", "models", "seed", "pi", "pi_all"}] —
      build + analyze an IR for this session.  [pi] is a list of
      [[net, arrival]] pairs; [pi_all] applies one arrival to every
      remaining primary input.  Arrivals are
      [{"time", "slew", "edge"}] with times in seconds ([%.17g]
      round-trips them losslessly, preserving bit-identity over JSON).
    - [eco {"ecos"}] — [{"kind": "set_pi", "net", "arrival"|null}] or
      [{"kind": "touch_cell", "cell"}], applied in order through
      {!Proxim_sta.Sta.update}.
    - [swap_models {"seed"}] — {!Proxim_sta.Sta.swap_models} to the
      shared synthetic factory of that seed.
    - [report], [paths {"po", "k"}], [slacks {"required"}] — queries.
    - [metrics {"format": "text"|"json"}] — the {!Proxim_obs.Metrics}
      registry snapshot, Prometheus-style text or JSON.
    - [ping], [bye], [shutdown].

    {2 Robustness}

    Malformed frames, oversized payloads, bad JSON, unknown ops,
    analysis errors ({!Proxim_sta.Sta.Unknown_eco_target},
    {!Proxim_sta.Sta.Mixed_input_edges}), and
    {!Proxim_util.Pool.Shut_down} all degrade to typed per-session
    error responses; a client disconnect ends its session thread.  No
    client behavior terminates the process.

    Sessions share the characterized model store (the factories'
    memo caches are domain-safe) and one work-stealing pool; engine
    calls are serialized on a process-wide mutex so the pool's
    domain-local re-entrancy flag is never interleaved by sibling
    systhreads.

    {2 Replies}

    Each session writes every reply into one {!Frame.out} buffer of its
    own, reused across frames and touched only by the session's thread.
    {!Frame.send} refuses a payload over {!Frame.max_frame}, so the
    buffer never holds more than one frame; a reply that large ends the
    session, as before.  Replies are built as {!Json.t} trees, except
    [report]'s: {!add_report_reply} writes its frame straight from the
    {!Proxim_sta.Sta.report} record, byte for byte what the tree would
    print.  [slacks] reads the primary-output arrivals from the
    session's analysis state ({!Proxim_sta.Sta.slacks}) instead of
    building a full report.

    Each session also owns a {!Json.Memo.t} holding the text of its
    last report's numbers.  An ECO moves only the arrivals in its fanout
    cone, so the next report copies most of its numbers from the memo
    instead of formatting them again; the bytes are the same either
    way.

    {2 Metrics}

    Counters [serve.sessions], [serve.requests], [serve.errors], the
    gauge [serve.active_sessions], and histograms in seconds:
    - [serve.request_seconds], [serve.eco_seconds] and
      [serve.query_seconds] time [handle] alone (the op's work, from the
      decoded request to the reply value);
    - [serve.decode_seconds] times parsing the request frame;
    - [serve.lock_wait_seconds] times the wait for the engine mutex, once
      per engine call (attach, eco, swap_models);
    - [serve.encode_seconds] times writing the reply into the session
      buffer, and [serve.write_seconds] sending it.

    Counters [serve.report_numbers_reused] and
    [serve.report_numbers_formatted] count the report numbers copied
    from a session's memo and those formatted afresh, added to once
    per report frame. *)

module Json = Proxim_util.Json
(** The codec, under the name clients of this library have always used. *)

type listen =
  [ `Unix of string  (** Unix-domain socket at this path *)
  | `Tcp of string * int  (** bind address, port (0 picks a free port) *)
  ]

type t
(** A running server. *)

val start : listen -> t
(** Bind, listen (with a backlog of 16 pending connections) and spawn
    the accept thread.  Raises [Unix_error] if the address cannot be
    bound.  Installs a [SIGPIPE] ignore handler (a daemon must survive
    writes to vanished clients). *)

val port : t -> int option
(** The bound TCP port ([None] for Unix-domain sockets) — the way
    tests bind port 0 and discover the real port. *)

val stop : t -> unit
(** Begin shutdown: stop accepting, wake every blocked session read
    (the sockets are [shutdown(2)], so readers see a clean EOF).
    Idempotent, non-blocking; pair with {!wait}. *)

val wait : t -> unit
(** Block until the server has fully stopped — the accept thread and
    every session thread joined, the listening socket closed (and a
    Unix-domain socket file unlinked).  Returns after {!stop} was
    called from any thread, including a session handling the protocol
    [shutdown] op. *)

(** {1 Client side}

    Enough of a client for the CLI smoke mode, the tests and the
    bench: connect, exchange one frame per call. *)

val connect : listen -> Unix.file_descr
(** Connect to a server ([`Tcp] resolves the host with
    [gethostbyname]).  Raises [Unix_error] on refusal. *)

val request : Unix.file_descr -> Json.t -> (Json.t, string) result
(** Send one request frame and read one response frame. *)

val ok : Json.t -> bool
(** The response's ["ok"] field (false when absent). *)

val error_code : Json.t -> string option
(** The response's ["error"]["code"] field, when present. *)

val call : Unix.file_descr -> Json.t -> (Json.t, string) result
(** {!request} with the error envelope folded in: [Ok] carries a
    response whose ["ok"] is true; a typed error comes back as
    [Error "CODE: MESSAGE"], a transport failure as its message. *)

(** {1 JSON codecs}

    Shared by the server, the CLI client mode and the tests, so both
    directions of the wire format live in one place. *)

val arrival_to_json : Proxim_sta.Sta.arrival -> Json.t
val arrival_of_json : Json.t -> Proxim_sta.Sta.arrival option

val report_to_json : Proxim_sta.Sta.report -> Json.t
(** The report as a tree: what a client decodes a [report] reply into,
    and the reference {!add_report_reply} is tested against. *)

val add_report_reply :
  Json.Memo.t -> Buffer.t -> Proxim_sta.Sta.report -> unit
(** Append the whole [report] reply, the bytes of
    [Json.to_string (Obj [("ok", Bool true); ("report", report_to_json r)])],
    straight from the record: the same {!Json.number_text} and
    {!Json.add_string} the tree emitter uses, and no tree.

    Every number goes through the memo.  Slot [2i] holds the text of the
    report's [i]-th arrival time and slot [2i + 1] that of its slew; the
    critical output's two numbers take the two slots after the last
    arrival's.  A number whose slot holds its bits is copied, any other
    is formatted and stored, so a memo left by another report (a
    cleared input shifts every later arrival; a re-attach or another
    mode changes most of them) costs formats, never a wrong byte, and a
    fresh {!Json.Memo.create} writes every number afresh.  The memo is
    sized by the first report through it (~66 bytes an arrival) and
    grows only for a larger one.  The daemon gives each session one
    memo, used by the session's thread alone for as long as the session
    lasts. *)

val report_of_json : Json.t -> (Proxim_sta.Sta.report, string) result
(** Exact inverse of {!report_to_json}: every float round-trips
    bit-identically (the emitter prints [%.17g]). *)

val paths_to_json : Proxim_sta.Sta.path list -> Json.t
(** [[{"arrival", "nets"}, ...]], the payload of the [paths] op. *)

val paths_of_json : Json.t -> (Proxim_sta.Sta.path list, string) result
(** Exact inverse of {!paths_to_json}. *)

val eco_to_json : Proxim_sta.Sta.eco -> Json.t
(** One entry of the [eco] op's ["ecos"] list, as the server decodes
    it. *)

module Json = Proxim_util.Json
module Metrics = Proxim_obs.Metrics
module Pool = Proxim_util.Pool
module Tech = Proxim_gates.Tech
module Vtc = Proxim_vtc.Vtc
module Measure = Proxim_measure.Measure
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Netlist_text = Proxim_sta.Netlist_text
module Netlist_bin = Proxim_sta.Netlist_bin
module Synthgen = Proxim_sta.Synthgen
module Graph = Proxim_timing.Graph
module Timing = Proxim_timing.Timing

type listen = [ `Unix of string | `Tcp of string * int ]

let tech = Tech.generic_5v

(* --- observability --------------------------------------------------- *)

(* Lazily registered so merely linking the library does not add serve
   metrics to every `proxim sta --obs` snapshot. *)
let active_sessions = Atomic.make 0

type mx = {
  m_sessions : Metrics.Counter.t;
  m_requests : Metrics.Counter.t;
  m_errors : Metrics.Counter.t;
  h_request : Metrics.Histogram.t;
  h_eco : Metrics.Histogram.t;
  h_query : Metrics.Histogram.t;
  h_decode : Metrics.Histogram.t;
  h_lock_wait : Metrics.Histogram.t;
  h_encode : Metrics.Histogram.t;
  h_write : Metrics.Histogram.t;
  m_numbers_reused : Metrics.Counter.t;
  m_numbers_formatted : Metrics.Counter.t;
}

let mx =
  lazy
    (Metrics.register_gauge_source "serve.active_sessions" (fun () ->
         float_of_int (Atomic.get active_sessions));
     Metrics.install_util_sources ();
     let hist name = Metrics.Histogram.v ~lo:1e-7 ~hi:10. ~bins:32 name in
     {
       m_sessions = Metrics.Counter.v "serve.sessions";
       m_requests = Metrics.Counter.v "serve.requests";
       m_errors = Metrics.Counter.v "serve.errors";
       h_request = hist "serve.request_seconds";
       h_eco = hist "serve.eco_seconds";
       h_query = hist "serve.query_seconds";
       h_decode = hist "serve.decode_seconds";
       h_lock_wait = hist "serve.lock_wait_seconds";
       h_encode = hist "serve.encode_seconds";
       h_write = hist "serve.write_seconds";
       m_numbers_reused = Metrics.Counter.v "serve.report_numbers_reused";
       m_numbers_formatted =
         Metrics.Counter.v "serve.report_numbers_formatted";
     })

(* --- typed per-session errors ---------------------------------------- *)

type err =
  | Bad_frame of string
  | Bad_json of string
  | Bad_request of string
  | Unknown_op of string
  | Unknown_design of string
  | Not_attached
  | Load_error of string
  | Unknown_target of string * string
  | Mixed_edges of string
  | Pool_shutdown
  | Internal of string

let err_code = function
  | Bad_frame _ -> "bad_frame"
  | Bad_json _ -> "bad_json"
  | Bad_request _ -> "bad_request"
  | Unknown_op _ -> "unknown_op"
  | Unknown_design _ -> "unknown_design"
  | Not_attached -> "not_attached"
  | Load_error _ -> "load_error"
  | Unknown_target _ -> "unknown_target"
  | Mixed_edges _ -> "mixed_edges"
  | Pool_shutdown -> "pool_shutdown"
  | Internal _ -> "internal"

let err_message = function
  | Bad_frame m -> m
  | Bad_json m -> "request is not valid JSON: " ^ m
  | Bad_request m -> m
  | Unknown_op op -> Printf.sprintf "unknown op %S" op
  | Unknown_design d -> Printf.sprintf "no design %S in the store" d
  | Not_attached -> "no analysis attached (send an \"attach\" first)"
  | Load_error m -> m
  | Unknown_target (kind, name) ->
    Printf.sprintf "eco names an unknown %s %S" kind name
  | Mixed_edges cell ->
    Printf.sprintf
      "mixed input edges at cell %s (a single-vector analysis cannot order \
       a glitch)"
      cell
  | Pool_shutdown ->
    "the worker pool was shut down mid-session; re-submit after the server \
     reconfigures"
  | Internal m -> m

let error_json e =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("code", Json.String (err_code e));
            ("message", Json.String (err_message e));
          ] );
    ]

(* --- JSON codecs ------------------------------------------------------ *)

let field name j = Json.member name j
let str_field name j = Option.bind (field name j) Json.to_string_value
let num_field name j = Option.bind (field name j) Json.to_number

let int_field name j =
  Option.bind (num_field name j) (fun f ->
      if Float.is_integer f then Some (int_of_float f) else None)

let arrival_to_json (a : Sta.arrival) =
  Json.Obj
    [
      ("time", Json.Number a.Sta.time);
      ("slew", Json.Number a.Sta.slew);
      ("edge", Json.String (Measure.edge_name a.Sta.edge));
    ]

let arrival_of_json j =
  match
    ( num_field "time" j,
      num_field "slew" j,
      Option.bind (str_field "edge" j) Measure.edge_of_name )
  with
  | Some time, Some slew, Some edge ->
    let a = { Sta.time; slew; edge } in
    if Sta.valid_event a then Some a else None
  | _ -> None

let named_arrival_to_json (net, a) =
  Json.List [ Json.String net; arrival_to_json a ]

let named_arrival_of_json j =
  match Json.to_list j with
  | Some [ net; aj ] -> (
    match (Json.to_string_value net, arrival_of_json aj) with
    | Some n, Some a -> Some (n, a)
    | _ -> None)
  | _ -> None

let report_to_json (r : Sta.report) =
  Json.Obj
    [
      ("arrivals", Json.List (List.map named_arrival_to_json r.Sta.arrivals));
      ( "critical_po",
        match r.Sta.critical_po with
        | None -> Json.Null
        | Some na -> named_arrival_to_json na );
      ( "predecessors",
        Json.List
          (List.map
             (fun (a, b) -> Json.List [ Json.String a; Json.String b ])
             r.Sta.predecessors) );
    ]

(* The bytes of [Json.to_string (ok_json [("report", report_to_json r)])],
   written from the record with no tree in between.  Arrival [i]'s time
   and slew take memo slots [2i] and [2i + 1], the critical output's the
   two after the last arrival's. *)
let add_report_reply memo buf (r : Sta.report) =
  let n = List.length r.Sta.arrivals in
  Json.Memo.reserve memo (2 * (n + 1));
  let reused = ref 0 and formatted = ref 0 in
  let number i v =
    if Json.Memo.add_number memo buf i v then incr reused else incr formatted
  in
  let arrival i (a : Sta.arrival) =
    Buffer.add_string buf "{\"time\":";
    number (2 * i) a.Sta.time;
    Buffer.add_string buf ",\"slew\":";
    number ((2 * i) + 1) a.Sta.slew;
    Buffer.add_string buf ",\"edge\":";
    Json.add_string buf (Measure.edge_name a.Sta.edge);
    Buffer.add_char buf '}'
  in
  let pair name add x =
    Buffer.add_char buf '[';
    Json.add_string buf name;
    Buffer.add_char buf ',';
    add x;
    Buffer.add_char buf ']'
  in
  let list add l =
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add i x)
      l;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"ok\":true,\"report\":{\"arrivals\":";
  list (fun i (net, a) -> pair net (arrival i) a) r.Sta.arrivals;
  Buffer.add_string buf ",\"critical_po\":";
  (match r.Sta.critical_po with
   | None -> Buffer.add_string buf "null"
   | Some (net, a) -> pair net (arrival n) a);
  Buffer.add_string buf ",\"predecessors\":";
  list (fun _ (a, b) -> pair a (Json.add_string buf) b) r.Sta.predecessors;
  Buffer.add_string buf "}}";
  let m = Lazy.force mx in
  Metrics.Counter.add m.m_numbers_reused !reused;
  Metrics.Counter.add m.m_numbers_formatted !formatted

(* [f] over every element, or [Error] at the first it rejects *)
let all_or_error what f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl -> (
      match f x with
      | Some v -> go (v :: acc) tl
      | None -> Error ("bad " ^ what))
  in
  go [] l

let report_of_json j =
  let ( let* ) = Result.bind in
  let* arrivals =
    match Option.bind (field "arrivals" j) Json.to_list with
    | None -> Error "report has no arrivals list"
    | Some l -> all_or_error "arrival entry" named_arrival_of_json l
  in
  let* critical_po =
    match field "critical_po" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match named_arrival_of_json v with
      | Some na -> Ok (Some na)
      | None -> Error "bad critical_po")
  in
  let* predecessors =
    match Option.bind (field "predecessors" j) Json.to_list with
    | None -> Error "report has no predecessors list"
    | Some l ->
      all_or_error "predecessor entry"
        (fun p ->
          match Json.to_list p with
          | Some [ a; b ] -> (
            match (Json.to_string_value a, Json.to_string_value b) with
            | Some a, Some b -> Some (a, b)
            | _ -> None)
          | _ -> None)
        l
  in
  Ok { Sta.arrivals; critical_po; predecessors }

let paths_to_json paths =
  Json.List
    (List.map
       (fun (p : Sta.path) ->
         Json.Obj
           [
             ("arrival", Json.Number p.Sta.path_arrival);
             ( "nets",
               Json.List (List.map (fun n -> Json.String n) p.Sta.path_nets) );
           ])
       paths)

let paths_of_json j =
  let path p =
    let nets = Option.bind (field "nets" p) Json.to_list in
    match
      (num_field "arrival" p, Option.map (List.map Json.to_string_value) nets)
    with
    | Some path_arrival, Some nets when not (List.mem None nets) ->
      Some { Sta.path_arrival; path_nets = List.filter_map Fun.id nets }
    | _ -> None
  in
  match Json.to_list j with
  | None -> Error "paths is not a list"
  | Some l -> all_or_error "path entry" path l

let eco_to_json = function
  | Sta.Set_pi (net, a) ->
    Json.Obj
      [
        ("kind", Json.String "set_pi");
        ("net", Json.String net);
        ("arrival", Option.fold ~none:Json.Null ~some:arrival_to_json a);
      ]
  | Sta.Touch_cell c ->
    Json.Obj [ ("kind", Json.String "touch_cell"); ("cell", Json.String c) ]

let stats_to_json (s : Timing.stats) =
  Json.Obj
    [
      ("evaluated", Json.Number (float_of_int s.Timing.evaluated));
      ("changed", Json.Number (float_of_int s.Timing.changed));
      ("total_cells", Json.Number (float_of_int s.Timing.total_cells));
    ]

(* --- the shared store ------------------------------------------------- *)

type store = {
  store_m : Mutex.t;
  designs : (string, Design.t * Vtc.thresholds option) Hashtbl.t;
  synth_factories : (int, Sta.factory) Hashtbl.t;
      (** one shared synthetic factory per seed: its per-gate model
          cache is domain-safe, so sessions share the built models *)
  oracle_factories : (string, Design.t * Sta.factory) Hashtbl.t;
      (** per design name, with the design whose fanout loads it was
          built at; dropped whenever the name is bound to a new design *)
}

let store_create () =
  {
    store_m = Mutex.create ();
    designs = Hashtbl.create 16;
    synth_factories = Hashtbl.create 4;
    oracle_factories = Hashtbl.create 4;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let store_put store name design th =
  with_lock store.store_m (fun () ->
      Hashtbl.replace store.designs name (design, th);
      Hashtbl.remove store.oracle_factories name)

let store_get store name =
  with_lock store.store_m (fun () -> Hashtbl.find_opt store.designs name)

let store_names store =
  with_lock store.store_m (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) store.designs []))

let synth_factory store seed =
  with_lock store.store_m (fun () ->
      match Hashtbl.find_opt store.synth_factories seed with
      | Some f -> f
      | None ->
        let f = Sta.synthetic_factory ~seed () in
        Hashtbl.add store.synth_factories seed f;
        f)

(* an attach may race a reload of its design's name: a factory is reused
   only for the very design it was built for *)
let oracle_factory store name design th =
  with_lock store.store_m (fun () ->
      match Hashtbl.find_opt store.oracle_factories name with
      | Some (d, f) when d == design -> f
      | Some _ | None ->
        let f = Sta.oracle_factory design th in
        Hashtbl.replace store.oracle_factories name (design, f);
        f)

(* --- engine serialization --------------------------------------------- *)

(* The pool's nested-call detection lives in a domain-local flag that
   systhreads on the same domain would interleave (save/restore races
   could wedge it permanently "busy").  One process-wide mutex around
   every pool-entering engine call keeps at most one systhread inside
   the pool at a time — concurrency comes from the pool's domains, not
   from overlapping analyses.  Queries (report/paths/slacks) read only
   the session's own annotations and need no lock. *)
let engine_m = Mutex.create ()

let with_engine f =
  let t0 = Unix.gettimeofday () in
  Mutex.lock engine_m;
  Metrics.Histogram.observe (Lazy.force mx).h_lock_wait
    (Unix.gettimeofday () -. t0);
  Fun.protect ~finally:(fun () -> Mutex.unlock engine_m) f

(* --- sessions --------------------------------------------------------- *)

type attached = {
  ir : Sta.ir;
  design_name : string;
  thresholds : Vtc.thresholds;
}

type session = {
  sid : int;
  fd : Unix.file_descr;
  out : Frame.out;  (** every reply of the session is written here *)
  memo : Json.Memo.t;  (** the texts of the session's last report numbers *)
  mutable att : attached option;
}

(* A reply is a tree, or the report, whose frame is written straight
   from the record: the largest reply skips the tree altogether. *)
type reply = Tree of Json.t | Report of Sta.report

let encode memo buf = function
  | Tree j -> Json.add_to buf j
  | Report r -> add_report_reply memo buf r

type t = {
  listen_fd : Unix.file_descr;
  listen_addr : listen;
  bound_port : int option;
  stop_flag : bool Atomic.t;
  conns_m : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;
  mutable session_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  store : store;
}

exception Err of err

let failf e = raise (Err e)

let require what = function Some v -> v | None -> failf (Bad_request what)

let design_summary_json name design =
  let g = Design.graph design in
  [
    ("design", Json.String name);
    ("cells", Json.Number (float_of_int (Graph.cell_count g)));
    ("nets", Json.Number (float_of_int (Graph.net_count g)));
    ("levels", Json.Number (float_of_int (Graph.level_count g)));
  ]

let ok_json fields = Tree (Json.Obj (("ok", Json.Bool true) :: fields))

let pi_of_json j =
  match Json.to_list j with
  | None -> failf (Bad_request "pi must be a list of [net, arrival] pairs")
  | Some items ->
    List.map
      (fun item ->
        match named_arrival_of_json item with
        | Some na -> na
        | None ->
          failf
            (Bad_request
               "bad pi entry (expected [net, {\"time\",\"slew\",\"edge\"}])"))
      items

let eco_of_json j =
  match str_field "kind" j with
  | Some "set_pi" ->
    let net = require "set_pi eco needs a \"net\"" (str_field "net" j) in
    let arrival =
      match field "arrival" j with
      | None | Some Json.Null -> None
      | Some aj -> (
        match arrival_of_json aj with
        | Some a -> Some a
        | None -> failf (Bad_request "bad arrival in set_pi eco"))
    in
    Sta.Set_pi (net, arrival)
  | Some "touch_cell" ->
    Sta.Touch_cell
      (require "touch_cell eco needs a \"cell\"" (str_field "cell" j))
  | Some k -> failf (Bad_request (Printf.sprintf "unknown eco kind %S" k))
  | None -> failf (Bad_request "eco needs a \"kind\"")

let get_attached sess =
  match sess.att with Some a -> a | None -> failf Not_attached

(* one request -> one response; every analysis-layer failure becomes a
   typed error envelope here, nothing escapes into the session loop *)
let handle srv sess req =
  let op = require "request needs an \"op\"" (str_field "op" req) in
  let reply =
    match op with
    | "hello" ->
      ok_json
        [
          ("server", Json.String "proxim serve");
          ("protocol", Json.Number 1.);
        ]
    | "ping" -> ok_json [ ("pong", Json.Bool true) ]
    | "load" | "load_text" ->
      let loaded =
        match op with
        | "load" ->
          Netlist_bin.load_file tech
            (require "load needs a \"path\"" (str_field "path" req))
        | _ ->
          Netlist_text.parse_with_thresholds tech
            (require "load_text needs a \"text\"" (str_field "text" req))
      in
      (match loaded with
       | Error m -> failf (Load_error m)
       | Ok (name, design, th) ->
         let name = Option.value (str_field "name" req) ~default:name in
         store_put srv.store name design th;
         ok_json (design_summary_json name design))
    | "gen" ->
      let cells = require "gen needs integer \"cells\"" (int_field "cells" req) in
      let depth = Option.value (int_field "depth" req) ~default:4 in
      let seed = Option.value (int_field "seed" req) ~default:0 in
      let name, design =
        try Synthgen.generate ~seed ~depth ~tech ~cells ()
        with Invalid_argument m -> failf (Bad_request m)
      in
      let name = Option.value (str_field "name" req) ~default:name in
      store_put srv.store name design None;
      ok_json (design_summary_json name design)
    | "designs" ->
      ok_json
        [
          ( "designs",
            Json.List
              (List.map (fun n -> Json.String n) (store_names srv.store)) );
        ]
    | "attach" ->
      let dname =
        require "attach needs a \"design\"" (str_field "design" req)
      in
      let design, file_th =
        match store_get srv.store dname with
        | Some d -> d
        | None -> failf (Unknown_design dname)
      in
      let mode =
        match Option.value (str_field "mode" req) ~default:"proximity" with
        | "proximity" -> Sta.Proximity
        | "classic" -> Sta.Classic
        | m -> failf (Bad_request (Printf.sprintf "unknown mode %S" m))
      in
      let seed = Option.value (int_field "seed" req) ~default:0 in
      let factory =
        match Option.value (str_field "models" req) ~default:"synthetic" with
        | "synthetic" -> synth_factory srv.store seed
        | "oracle" ->
          oracle_factory srv.store dname design
            (Sta.default_thresholds design file_th)
        | m -> failf (Bad_request (Printf.sprintf "unknown models %S" m))
      in
      let named_pi =
        match field "pi" req with None -> [] | Some j -> pi_of_json j
      in
      let pi =
        Sta.with_pi_all design named_pi
          (match field "pi_all" req with
           | None | Some Json.Null -> None
           | Some aj -> Some (require "bad pi_all arrival" (arrival_of_json aj)))
      in
      if pi = [] then
        failf (Bad_request "attach needs at least one pi event (or pi_all)");
      let thresholds = Sta.default_thresholds design file_th in
      let ir, stats =
        with_engine (fun () ->
            let ir =
              Sta.build_ir ~mode ~models:factory.Sta.models ~thresholds design
                ~pi
            in
            let stats = Sta.reanalyze ir in
            (ir, stats))
      in
      sess.att <- Some { ir; design_name = dname; thresholds };
      ok_json
        (design_summary_json dname design @ [ ("stats", stats_to_json stats) ])
    | "eco" ->
      let att = get_attached sess in
      let ecos =
        match Option.bind (field "ecos" req) Json.to_list with
        | None -> failf (Bad_request "eco needs an \"ecos\" list")
        | Some l -> List.map eco_of_json l
      in
      let stats = with_engine (fun () -> Sta.update att.ir ecos) in
      ok_json [ ("stats", stats_to_json stats) ]
    | "swap_models" ->
      let att = get_attached sess in
      let seed =
        require "swap_models needs integer \"seed\"" (int_field "seed" req)
      in
      let factory = synth_factory srv.store seed in
      let stats =
        with_engine (fun () -> Sta.swap_models att.ir factory.Sta.models)
      in
      ok_json [ ("stats", stats_to_json stats) ]
    | "report" -> Report (Sta.report (get_attached sess).ir)
    | "paths" ->
      let att = get_attached sess in
      let po = require "paths needs a \"po\"" (str_field "po" req) in
      let k = Option.value (int_field "k" req) ~default:1 in
      let paths =
        try Sta.worst_paths att.ir ~po ~k
        with Invalid_argument m -> failf (Bad_request m)
      in
      ok_json [ ("paths", paths_to_json paths) ]
    | "slacks" ->
      let att = get_attached sess in
      let required =
        require "slacks needs a \"required\" time (seconds)"
          (num_field "required" req)
      in
      let slacks = Sta.slacks att.ir ~required in
      ok_json
        [
          ( "slacks",
            Json.List
              (List.map
                 (fun (net, s) ->
                   Json.List [ Json.String net; Json.Number s ])
                 slacks) );
        ]
    | "metrics" -> (
      let snap = Metrics.snapshot () in
      match Option.value (str_field "format" req) ~default:"json" with
      | "text" ->
        ok_json
          [
            ("format", Json.String "text");
            ("metrics", Json.String (Metrics.to_text snap));
          ]
      | "json" -> (
        match Json.of_string (Metrics.to_json snap) with
        | Ok j -> ok_json [ ("format", Json.String "json"); ("metrics", j) ]
        | Error m -> failf (Internal ("metrics reporter: " ^ m)))
      | f -> failf (Bad_request (Printf.sprintf "unknown metrics format %S" f)))
    | "bye" -> ok_json [ ("bye", Json.Bool true) ]
    | "shutdown" -> ok_json [ ("shutdown", Json.Bool true) ]
    | op -> failf (Unknown_op op)
  in
  (op, reply)

let handle_safely srv sess req =
  let error e = ("", Tree (error_json e)) in
  try handle srv sess req with
  | Err e -> error e
  | Sta.Unknown_eco_target { kind; name } -> error (Unknown_target (kind, name))
  | Sta.Mixed_input_edges { cell } -> error (Mixed_edges cell)
  | Pool.Shut_down -> error Pool_shutdown
  | Measure.Unsimulatable m | Invalid_argument m | Failure m ->
    error (Bad_request m)
  | Stack_overflow -> error (Internal "stack overflow")
  | e -> error (Internal (Printexc.to_string e))

(* --- server loops ----------------------------------------------------- *)

let stop srv =
  if not (Atomic.exchange srv.stop_flag true) then begin
    (try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (* wake every session blocked in Frame.read with a clean EOF *)
    with_lock srv.conns_m (fun () ->
        List.iter
          (fun (_, fd) ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          srv.conns)
  end

let session_loop srv sess =
  let m = Lazy.force mx in
  let send reply =
    let buf = Frame.out_buffer sess.out in
    Metrics.Histogram.time m.h_encode (fun () -> encode sess.memo buf reply);
    Metrics.Histogram.time m.h_write (fun () -> Frame.send sess.out)
  in
  let rec loop () =
    match Frame.read sess.fd with
    | Error Frame.Closed -> ()
    | Error (Frame.Truncated _ as e) | Error (Frame.Oversized _ as e) ->
      (* the byte stream can no longer be trusted to hold frame
         boundaries: answer with a typed error, then drop the session *)
      Metrics.Counter.incr m.m_errors;
      (try send (Tree (error_json (Bad_frame (Frame.read_error_to_string e))))
       with Unix.Unix_error _ | Invalid_argument _ -> ())
    | Ok payload -> (
      Metrics.Counter.incr m.m_requests;
      let op, reply =
        match
          Metrics.Histogram.time m.h_decode (fun () -> Json.of_string payload)
        with
        | Error msg ->
          Metrics.Counter.incr m.m_errors;
          ("", Tree (error_json (Bad_json msg)))
        | Ok req ->
          let t0 = Unix.gettimeofday () in
          let op, reply = handle_safely srv sess req in
          let dt = Unix.gettimeofday () -. t0 in
          Metrics.Histogram.observe m.h_request dt;
          (match op with
           | "eco" | "swap_models" -> Metrics.Histogram.observe m.h_eco dt
           | "report" | "paths" | "slacks" ->
             Metrics.Histogram.observe m.h_query dt
           | _ -> ());
          if op = "" then Metrics.Counter.incr m.m_errors;
          (op, reply)
      in
      match send reply with
      | exception Unix.Unix_error _ -> ()  (* client vanished mid-reply *)
      | () -> (
        match op with
        | "bye" -> ()
        | "shutdown" -> stop srv
        | _ -> loop ()))
  in
  loop ()

let sid_counter = Atomic.make 0

let serve_conn srv fd =
  let m = Lazy.force mx in
  Metrics.Counter.incr m.m_sessions;
  Atomic.incr active_sessions;
  let sid = Atomic.fetch_and_add sid_counter 1 in
  with_lock srv.conns_m (fun () -> srv.conns <- (sid, fd) :: srv.conns);
  let sess =
    { sid; fd; out = Frame.out fd; memo = Json.Memo.create (); att = None }
  in
  Fun.protect
    ~finally:(fun () ->
      with_lock srv.conns_m (fun () ->
          srv.conns <- List.filter (fun (s, _) -> s <> sid) srv.conns);
      Atomic.decr active_sessions;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try session_loop srv sess
      with e ->
        (* a session thread must never take the process down *)
        Metrics.Counter.incr m.m_errors;
        ignore (Printexc.to_string e))

let accept_loop srv =
  let rec go () =
    if Atomic.get srv.stop_flag then ()
    else
      match Unix.accept srv.listen_fd with
      | fd, _ ->
        if Atomic.get srv.stop_flag then (
          (try Unix.close fd with Unix.Unix_error _ -> ()))
        else begin
          let th = Thread.create (fun () -> serve_conn srv fd) () in
          with_lock srv.conns_m (fun () ->
              srv.session_threads <- th :: srv.session_threads);
          go ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EAGAIN), _, _) ->
        go ()
      | exception Unix.Unix_error _ ->
        (* the listening socket was shut down (or is gone): stop *)
        Atomic.set srv.stop_flag true
  in
  go ()

(* a TCP endpoint: [host] as a dotted address, else by name lookup *)
let inet_addr host port =
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  Unix.ADDR_INET (inet, port)

let start (addr : listen) =
  ignore (Lazy.force mx);
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | _ -> ()
   | exception (Sys_error _ | Invalid_argument _) -> ());
  let listen_fd, bound_port =
    match addr with
    | `Unix path ->
      (* a stale socket file from a dead server would make bind fail *)
      (match Unix.lstat path with
       | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
       | _ -> ()
       | exception Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      (fd, None)
    | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (inet_addr host port)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Some p
        | _ -> None
      in
      (fd, actual)
  in
  Unix.listen listen_fd 16;
  let srv =
    {
      listen_fd;
      listen_addr = addr;
      bound_port;
      stop_flag = Atomic.make false;
      conns_m = Mutex.create ();
      conns = [];
      session_threads = [];
      accept_thread = None;
      store = store_create ();
    }
  in
  srv.accept_thread <- Some (Thread.create (fun () -> accept_loop srv) ());
  srv

let port srv = srv.bound_port

let wait srv =
  Option.iter Thread.join srv.accept_thread;
  (* the accept thread has exited, so the thread list is final; any
     session still blocked was woken by [stop]'s shutdown(2) *)
  stop srv;
  let threads = with_lock srv.conns_m (fun () -> srv.session_threads) in
  List.iter Thread.join threads;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  match srv.listen_addr with
  | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()

(* --- client ----------------------------------------------------------- *)

let connect (addr : listen) =
  match addr with
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (inet_addr host port)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd

let request fd req =
  Frame.write fd (Json.to_string req);
  match Frame.read fd with
  | Error e -> Error (Frame.read_error_to_string e)
  | Ok s ->
    Result.map_error (fun m -> "bad response JSON: " ^ m) (Json.of_string s)

let ok j = match field "ok" j with Some (Json.Bool b) -> b | _ -> false

let error_code j =
  Option.bind (field "error" j) (fun e -> str_field "code" e)

let call fd req =
  match request fd req with
  | Error m -> Error m
  | Ok resp when ok resp -> Ok resp
  | Ok resp ->
    Error
      (match field "error" resp with
       | None -> "request failed"
       | Some e ->
         Printf.sprintf "%s: %s"
           (Option.value (str_field "code" e) ~default:"error")
           (Option.value (str_field "message" e) ~default:""))

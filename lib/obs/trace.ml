(* A span is recorded as a Chrome "complete" event ("ph":"X"): begin
   timestamp + duration, one per [with_span] exit, appended to the
   recording domain's own buffer so the hot path never contends.  The
   enabled check is a single Atomic load, which is also what the
   pass-through costs when a Pool instrument hook is left installed. *)

type event = {
  name : string;
  cat : string;
  ts : float;  (** µs since {!enable} *)
  dur : float;  (** µs *)
  tid : int;
  alloc : float;  (** bytes allocated on the recording domain *)
  args : (string * string) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let mutex = Mutex.create ()
let buffers : event list ref list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
    let buf = ref [] in
    Mutex.lock mutex;
    buffers := buf :: !buffers;
    Mutex.unlock mutex;
    buf)

(* Trace epoch: written once by [enable] before any span is recorded. *)
let epoch = Atomic.make 0.
let now_us () = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6

let clear () =
  Mutex.lock mutex;
  List.iter (fun buf -> buf := []) !buffers;
  Mutex.unlock mutex

let events () =
  Mutex.lock mutex;
  let all = List.concat_map (fun buf -> !buf) !buffers in
  Mutex.unlock mutex;
  List.sort (fun a b -> Float.compare a.ts b.ts) all

let with_span ?(cat = "app") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    let a0 = Gc.allocated_bytes () in
    let record () =
      let dur = now_us () -. t0 in
      let alloc = Gc.allocated_bytes () -. a0 in
      let buf = Domain.DLS.get buf_key in
      buf :=
        {
          name;
          cat;
          ts = t0;
          dur;
          tid = (Domain.self () :> int);
          alloc;
          args;
        }
        :: !buf
    in
    match f () with
    | v ->
      record ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record ();
      Printexc.raise_with_backtrace e bt
  end

(* The Pool hook stays installed once set: with tracing disabled it
   costs the same single Atomic load as a bare [with_span]. *)
let pool_hook_installed = Atomic.make false

let install_pool_hook () =
  if not (Atomic.exchange pool_hook_installed true) then
    Proxim_util.Pool.set_instrument (fun ~name ~total f ->
      with_span ~cat:"pool" ~args:[ ("tasks", string_of_int total) ] name f)

let enable () =
  Atomic.set epoch (Unix.gettimeofday ());
  install_pool_hook ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* --- Chrome trace-event JSON ---------------------------------------- *)

module Json = Proxim_util.Json

let to_chrome_json () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      pf "\n{\"name\":";
      Json.add_string buf e.name;
      pf ",\"cat\":";
      Json.add_string buf e.cat;
      pf ",\"ph\":\"X\",\"pid\":1,\"tid\":%d" e.tid;
      pf ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"alloc_bytes\":%.0f" e.ts e.dur
        e.alloc;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          Json.add_string buf k;
          Buffer.add_char buf ':';
          Json.add_string buf v)
        e.args;
      pf "}}")
    evs;
  pf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))

(* --- aggregation (the [proxim profile] view) ------------------------ *)

type agg = {
  agg_name : string;
  count : int;
  total_us : float;
  alloc_bytes : float;
}

let aggregate ?cat () =
  let keep e = match cat with None -> true | Some c -> e.cat = c in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if keep e then
        let prev =
          match Hashtbl.find_opt tbl e.name with
          | Some a -> a
          | None ->
            { agg_name = e.name; count = 0; total_us = 0.; alloc_bytes = 0. }
        in
        Hashtbl.replace tbl e.name
          {
            prev with
            count = prev.count + 1;
            total_us = prev.total_us +. e.dur;
            alloc_bytes = prev.alloc_bytes +. e.alloc;
          })
    (events ());
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b -> Float.compare b.total_us a.total_us)

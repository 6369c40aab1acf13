module Uhist = Proxim_util.Histogram
module Dcounter = Proxim_util.Dcounter
module Json = Proxim_util.Json

(* --- registry entries ---------------------------------------------- *)

type counter_backing =
  | C_owned of Dcounter.t
  | C_source of (unit -> int)

type counter_entry = { c_name : string; c_backing : counter_backing }

type gauge_backing =
  | G_owned of float Atomic.t
  | G_source of (unit -> float)

type gauge_entry = { g_name : string; g_backing : gauge_backing }

(* Per-domain latency cells, registered lazily like Dcounter's. *)
type hist_cell = {
  hc_counts : int array;
  mutable hc_under : int;
  mutable hc_over : int;
  mutable hc_n : int;
  mutable hc_sum : float;
  mutable hc_min : float;
  mutable hc_max : float;
}

type hist_entry = {
  h_name : string;
  h_lo : float;
  h_hi : float;
  h_bins : int;
  h_mutex : Mutex.t;
  h_cells : hist_cell list ref;
  h_key : hist_cell Domain.DLS.key;
}

type t = {
  mutex : Mutex.t;
  mutable counters : counter_entry list;
  mutable gauges : gauge_entry list;
  mutable histograms : hist_entry list;
}

type registry = t

let create () =
  {
    mutex = Mutex.create ();
    counters = [];
    gauges = [];
    histograms = [];
  }

let default = create ()

(* Registration is idempotent by name: re-registering replaces. *)
let put_counter r e =
  Mutex.protect r.mutex (fun () ->
    r.counters <- e :: List.filter (fun e' -> e'.c_name <> e.c_name) r.counters)

let put_gauge r e =
  Mutex.protect r.mutex (fun () ->
    r.gauges <- e :: List.filter (fun e' -> e'.g_name <> e.g_name) r.gauges)

(* --- user-facing metric handles ------------------------------------ *)

module Counter = struct
  type t = { name : string; d : Dcounter.t }

  let v ?(registry = default) name =
    let existing =
      Mutex.protect registry.mutex (fun () ->
        List.find_map
          (fun e ->
            match e.c_backing with
            | C_owned d when e.c_name = name -> Some d
            | _ -> None)
          registry.counters)
    in
    match existing with
    | Some d -> { name; d }
    | None ->
      let d = Dcounter.make () in
      put_counter registry { c_name = name; c_backing = C_owned d };
      { name; d }

  let incr t = Dcounter.incr t.d
  let add t n = Dcounter.add t.d n
  let value t = Dcounter.value t.d
  let name t = t.name
end

module Gauge = struct
  type t = { name : string; cell : float Atomic.t }

  let v ?(registry = default) name =
    let existing =
      Mutex.protect registry.mutex (fun () ->
        List.find_map
          (fun e ->
            match e.g_backing with
            | G_owned cell when e.g_name = name -> Some cell
            | _ -> None)
          registry.gauges)
    in
    match existing with
    | Some cell -> { name; cell }
    | None ->
      let cell = Atomic.make 0. in
      put_gauge registry { g_name = name; g_backing = G_owned cell };
      { name; cell }

  let set t v = Atomic.set t.cell v
  let value t = Atomic.get t.cell
  let name t = t.name
end

module Histogram = struct
  type nonrec t = hist_entry

  let make_entry name ~lo ~hi ~bins =
    if not (lo > 0. && hi > lo && bins >= 1) then
      invalid_arg "Metrics.Histogram.v: need 0 < lo < hi and bins >= 1";
    let mutex = Mutex.create () in
    let cells = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
        let cell =
          {
            hc_counts = Array.make bins 0;
            hc_under = 0;
            hc_over = 0;
            hc_n = 0;
            hc_sum = 0.;
            hc_min = infinity;
            hc_max = neg_infinity;
          }
        in
        Mutex.lock mutex;
        cells := cell :: !cells;
        Mutex.unlock mutex;
        cell)
    in
    {
      h_name = name;
      h_lo = lo;
      h_hi = hi;
      h_bins = bins;
      h_mutex = mutex;
      h_cells = cells;
      h_key = key;
    }

  let v ?(registry = default) ?(lo = 1e-6) ?(hi = 10.) ?(bins = 28) name =
    let existing =
      Mutex.protect registry.mutex (fun () ->
        List.find_opt (fun e -> e.h_name = name) registry.histograms)
    in
    match existing with
    | Some e -> e
    | None ->
      let e = make_entry name ~lo ~hi ~bins in
      Mutex.protect registry.mutex (fun () ->
        registry.histograms <-
          e
          :: List.filter (fun e' -> e'.h_name <> name) registry.histograms);
      e

  let observe t v =
    let cell = Domain.DLS.get t.h_key in
    cell.hc_n <- cell.hc_n + 1;
    cell.hc_sum <- cell.hc_sum +. v;
    if v < cell.hc_min then cell.hc_min <- v;
    if v > cell.hc_max then cell.hc_max <- v;
    if v < t.h_lo then cell.hc_under <- cell.hc_under + 1
    else if v >= t.h_hi then cell.hc_over <- cell.hc_over + 1
    else begin
      let llo = log10 t.h_lo and lhi = log10 t.h_hi in
      let idx =
        int_of_float
          (floor ((log10 v -. llo) /. (lhi -. llo) *. float_of_int t.h_bins))
      in
      let idx = max 0 (min (t.h_bins - 1) idx) in
      cell.hc_counts.(idx) <- cell.hc_counts.(idx) + 1
    end

  let time t f =
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> observe t (Unix.gettimeofday () -. t0)) f

  let name t = t.h_name
end

(* --- sources -------------------------------------------------------- *)

let register_counter_source ?(registry = default) name read =
  put_counter registry { c_name = name; c_backing = C_source read }

let register_gauge_source ?(registry = default) name read =
  put_gauge registry { g_name = name; g_backing = G_source read }

(* --- snapshots ------------------------------------------------------ *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  hist : Uhist.t;  (** merged bin counts, over [log10] seconds *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let read_counter e =
  match e.c_backing with
  | C_owned d -> Dcounter.value d
  | C_source read -> read ()

let read_gauge e =
  match e.g_backing with
  | G_owned cell -> Atomic.get cell
  | G_source read -> read ()

let read_hist (e : hist_entry) =
  let counts = Array.make e.h_bins 0 in
  let under = ref 0 and over = ref 0 in
  let n = ref 0 and sum = ref 0. in
  let mn = ref infinity and mx = ref neg_infinity in
  Mutex.protect e.h_mutex (fun () ->
    List.iter
      (fun c ->
        Array.iteri (fun i k -> counts.(i) <- counts.(i) + k) c.hc_counts;
        under := !under + c.hc_under;
        over := !over + c.hc_over;
        n := !n + c.hc_n;
        sum := !sum +. c.hc_sum;
        if c.hc_min < !mn then mn := c.hc_min;
        if c.hc_max > !mx then mx := c.hc_max)
      !(e.h_cells));
  {
    count = !n;
    sum = !sum;
    min = (if !n = 0 then 0. else !mn);
    max = (if !n = 0 then 0. else !mx);
    hist =
      {
        Uhist.lo = log10 e.h_lo;
        hi = log10 e.h_hi;
        counts;
        underflow = !under;
        overflow = !over;
      };
  }

let snapshot ?(registry = default) () =
  let counters, gauges, hists =
    Mutex.protect registry.mutex (fun () ->
      (registry.counters, registry.gauges, registry.histograms))
  in
  let by_name f = List.sort (fun a b -> String.compare (f a) (f b)) in
  {
    counters =
      by_name fst (List.map (fun e -> (e.c_name, read_counter e)) counters);
    gauges = by_name fst (List.map (fun e -> (e.g_name, read_gauge e)) gauges);
    histograms =
      by_name fst (List.map (fun e -> (e.h_name, read_hist e)) hists);
  }

let reset ?(registry = default) () =
  let counters, gauges, hists =
    Mutex.protect registry.mutex (fun () ->
      (registry.counters, registry.gauges, registry.histograms))
  in
  List.iter
    (fun e -> match e.c_backing with C_owned d -> Dcounter.reset d | _ -> ())
    counters;
  List.iter
    (fun e ->
      match e.g_backing with G_owned cell -> Atomic.set cell 0. | _ -> ())
    gauges;
  List.iter
    (fun e ->
      Mutex.protect e.h_mutex (fun () ->
        List.iter
          (fun c ->
            Array.fill c.hc_counts 0 (Array.length c.hc_counts) 0;
            c.hc_under <- 0;
            c.hc_over <- 0;
            c.hc_n <- 0;
            c.hc_sum <- 0.;
            c.hc_min <- infinity;
            c.hc_max <- neg_infinity)
          !(e.h_cells)))
    hists

(* --- reporters ------------------------------------------------------ *)

let to_text s =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if s.counters <> [] then begin
    pf "counters:\n";
    List.iter (fun (name, v) -> pf "  %-36s %d\n" name v) s.counters
  end;
  if s.gauges <> [] then begin
    pf "gauges:\n";
    List.iter (fun (name, v) -> pf "  %-36s %g\n" name v) s.gauges
  end;
  if s.histograms <> [] then begin
    pf "histograms (seconds):\n";
    List.iter
      (fun (name, h) ->
        pf "  %-36s count %d  sum %.6gs  min %.3gs  max %.3gs  mean %.3gs\n"
          name h.count h.sum h.min h.max
          (if h.count = 0 then 0. else h.sum /. float_of_int h.count);
        if h.count > 0 then
          (* the bar chart is over log10(seconds) bins *)
          pf "%s" (Format.asprintf "    @[<v 4>%a@]\n" Uhist.pp h.hist))
      s.histograms
  end;
  Buffer.contents buf

let json_float f = if Float.is_finite f then Printf.sprintf "%.9g" f else "0"

let to_json s =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let obj pp_item items =
    Buffer.add_char buf '{';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        pp_item item)
      items;
    Buffer.add_char buf '}'
  in
  Buffer.add_char buf '{';
  pf "\"counters\":";
  obj
    (fun (name, v) ->
      Json.add_string buf name;
      pf ":%d" v)
    s.counters;
  pf ",\"gauges\":";
  obj
    (fun (name, v) ->
      Json.add_string buf name;
      pf ":%s" (json_float v))
    s.gauges;
  pf ",\"histograms\":";
  obj
    (fun (name, h) ->
      Json.add_string buf name;
      pf ":{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s" h.count
        (json_float h.sum) (json_float h.min) (json_float h.max);
      pf ",\"log10_lo\":%s,\"log10_hi\":%s" (json_float h.hist.Uhist.lo)
        (json_float h.hist.Uhist.hi);
      pf ",\"underflow\":%d,\"overflow\":%d,\"counts\":[" h.hist.Uhist.underflow
        h.hist.Uhist.overflow;
      Array.iteri
        (fun i k ->
          if i > 0 then Buffer.add_char buf ',';
          pf "%d" k)
        h.hist.Uhist.counts;
      pf "]}")
    s.histograms;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* --- process memory -------------------------------------------------- *)

(* VmHWM from /proc/self/status: the kernel's high-water-mark of resident
   set size, in kB.  Parsed by hand so the hot path stays Scanf-free. *)
let proc_vm_hwm_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        let prefix = "VmHWM:" in
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then begin
          let kb = ref 0 and seen = ref false in
          String.iter
            (fun c ->
              if c >= '0' && c <= '9' then begin
                kb := (!kb * 10) + (Char.code c - Char.code '0');
                seen := true
              end)
            line;
          if !seen then Some (!kb * 1024) else None
        end
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let peak_rss_bytes () =
  match proc_vm_hwm_bytes () with
  | Some b -> b
  | None ->
    (* portable approximation: the GC's major-heap high-water mark.
       Undercounts (no stacks, code, malloc'd C blocks) but keeps the
       gauge meaningful off Linux. *)
    let words = (Gc.quick_stat ()).Gc.top_heap_words in
    words * (Sys.word_size / 8)

let reset_peak_rss () =
  (* writing "5" to clear_refs resets VmHWM to the current RSS, which is
     what lets the bench attribute a high-water mark to one workload row;
     silently a no-op where the file is absent or read-only *)
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc ->
    (try output_string oc "5" with Sys_error _ -> ());
    close_out_noerr oc

(* --- bridging the util-layer instrumentation ------------------------ *)

let install_util_sources ?(registry = default) () =
  let module P = Proxim_util.Pool in
  let module M = Proxim_util.Memo_cache in
  let module I = Proxim_util.Interp in
  register_counter_source ~registry "cache.hits" M.Global.hits;
  register_counter_source ~registry "cache.misses" M.Global.misses;
  register_counter_source ~registry "cache.waits" M.Global.waits;
  register_counter_source ~registry "cache.evictions" M.Global.evictions;
  register_counter_source ~registry "pool.parallel_jobs" P.parallel_jobs;
  register_counter_source ~registry "pool.serial_jobs" P.serial_jobs;
  register_counter_source ~registry "pool.tasks" P.tasks_dispatched;
  register_counter_source ~registry "pool.chunks" P.chunks_dispatched;
  register_counter_source ~registry "pool.steals" P.steals;
  register_gauge_source ~registry "pool.active_domains" (fun () ->
    float_of_int (P.active_domains ()));
  register_counter_source ~registry "interp.grid_clamps" I.grid_clamp_events;
  register_gauge_source ~registry "process.peak_rss_bytes" (fun () ->
    float_of_int (peak_rss_bytes ()))

(* Spans recorded by the benchmark around the program's public calls.

   They are [Proxim_obs.Trace] spans in the "bench" category, recorded
   beside the program's own spans as `proxim profile` records them.
   After each op, [collect] files that op's bench spans under a bucket
   name ("op", "setup", "round", ...) as per-name totals and clears the
   trace, so a run can take medians over its ops.  Self figures subtract
   the bench spans nested directly inside a span, so a layer is charged
   only for its own work.  Spans of concurrent threads would not nest, so
   eco_serve's session threads time their round trips directly instead. *)

module Trace = Proxim_obs.Trace

let enabled = Trace.enabled
let set_enabled on = if on then Trace.enable () else Trace.disable ()
let span name f = Trace.with_span ~cat:"bench" name f

(* A span whose allocation is reported starts and ends on an empty minor
   heap.  Read with young objects in the minor heap, OCaml 5.1's
   [Gc.allocated_bytes] can be off by up to most of a minor heap.  The
   error depends on the GC's history, which differs from process to
   process, and it cancels over adjacent spans.  Read on an empty minor
   heap, the delta repeats exactly.  The closing collection is a nested
   span of its own, so it is not charged to the span's self time. *)
let alloc_span name f =
  if not (enabled ()) then f ()
  else begin
    Gc.minor ();
    span name (fun () ->
        let v = f () in
        span "gc.minor" Gc.minor;
        v)
  end

type total = {
  mutable self_us : float;
  mutable self_alloc : float;  (** bytes *)
}

let buckets : (string, (string, total) Hashtbl.t list) Hashtbl.t =
  Hashtbl.create 8

(* Whether span [p] contains span [e].  Times are whole microseconds, so
   half of one is slack for rounding. *)
let contains (p : Trace.event) (e : Trace.event) =
  p.ts <= e.ts +. 0.5 && e.ts +. e.dur <= p.ts +. p.dur +. 0.5

(* File the bench spans recorded since the last [collect] as one sample
   of [bucket], and clear the trace.  Sorted by start time, longest first,
   an enclosing span comes before the spans it contains, so a span's
   parent is the innermost span on the stack that still contains it. *)
let collect bucket =
  let sample = Hashtbl.create 16 in
  let total name =
    match Hashtbl.find_opt sample name with
    | Some t -> t
    | None ->
      let t = { self_us = 0.; self_alloc = 0. } in
      Hashtbl.add sample name t;
      t
  in
  let rec open_at e = function
    | p :: tl when not (contains p e) -> open_at e tl
    | stack -> stack
  in
  let add (e : Trace.event) sign name =
    let t = total name in
    t.self_us <- t.self_us +. (sign *. e.dur);
    t.self_alloc <- t.self_alloc +. (sign *. e.alloc)
  in
  ignore
    (List.fold_left
       (fun stack (e : Trace.event) ->
         let stack = open_at e stack in
         add e 1. e.name;
         (match stack with p :: _ -> add e (-1.) p.Trace.name | [] -> ());
         e :: stack)
       []
       (List.stable_sort
          (fun (a : Trace.event) (b : Trace.event) ->
            compare (a.ts, -.a.dur) (b.ts, -.b.dur))
          (List.filter (fun (e : Trace.event) -> e.cat = "bench") (Trace.events ())))
      : Trace.event list);
  Trace.clear ();
  let prev = Option.value (Hashtbl.find_opt buckets bucket) ~default:[] in
  Hashtbl.replace buckets bucket (sample :: prev)

let samples bucket =
  List.rev (Option.value (Hashtbl.find_opt buckets bucket) ~default:[])

(* median over a bucket's samples of one field of one span name; a sample
   in which the span never ran contributes 0 *)
let median bucket name field =
  match samples bucket with
  | [] -> 0.
  | l ->
    let xs =
      Array.of_list
        (List.map
           (fun tbl ->
             match Hashtbl.find_opt tbl name with
             | Some t -> field t
             | None -> 0.)
           l)
    in
    Proxim_util.Stats.percentile xs 50.

let self_ms t = t.self_us /. 1e3
let alloc_mb t = t.self_alloc /. 1048576.

(* --- readings from /proc, reported beside the wall-clock figures --- *)

(* VmRSS from /proc/self/status, kB; 0 where the file does not exist *)
let vm_rss_kb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  with
  | exception Sys_error _ -> 0
  | lines ->
    Option.value ~default:0
      (List.find_map
         (fun l ->
           if String.starts_with ~prefix:"VmRSS:" l then
             Scanf.sscanf_opt l "VmRSS: %d" Fun.id
           else None)
         lines)

(* (steal, total) jiffies summed over all CPUs, from /proc/stat's first
   line; (0, 0) where the file does not exist *)
let proc_stat () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | exception (Sys_error _ | End_of_file) -> (0, 0)
  | line -> (
    match
      List.filter_map int_of_string_opt
        (List.filter (( <> ) "") (String.split_on_char ' ' line))
    with
    | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _
      ->
      (steal, user + nice + system + idle + iowait + irq + softirq + steal)
    | _ -> (0, 0))

(* CPU seconds of this process, all its threads *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of process [pid], all its threads: utime + stime of
   /proc/PID/stat, in clock ticks of 1/100 s *)
let proc_cpu_s pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) input_line
  in
  (* the fields after the parenthesized command name, from state on *)
  let from = String.rindex line ')' + 2 in
  match String.split_on_char ' ' (String.sub line from (String.length line - from)) with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
    (float_of_string utime +. float_of_string stime) /. 100.
  | _ -> failwith (Printf.sprintf "unexpected /proc/%d/stat" pid)

(* CPU seconds of this process and of every child it has waited for *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

(* The serve daemon: wire codecs round-trip floats bit-identically,
   every session answer matches the offline engine byte-for-byte,
   concurrent sessions agree, and adversarial clients (garbage frames,
   oversized claims, mid-session disconnects) get typed errors without
   ever taking the server down. *)

module Tech = Proxim_gates.Tech
module Measure = Proxim_measure.Measure
module Design = Proxim_sta.Design
module Sta = Proxim_sta.Sta
module Netlist_text = Proxim_sta.Netlist_text
module Serve = Proxim_serve.Serve
module Frame = Proxim_serve.Frame
module Json = Proxim_util.Json
module Prng = Proxim_util.Prng
module Synthgen = Proxim_sta.Synthgen
module Harness = Proxim_harness.Harness
module Graph = Proxim_timing.Graph
module Timing = Proxim_timing.Timing

let tech = Tech.generic_5v

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits msg a b =
  if not (same_float a b) then
    Alcotest.failf "%s: %.17g and %.17g differ in bits" msg a b

let netlist_text =
  String.concat "\n"
    [
      "design serve_demo";
      "input a";
      "input b";
      "input c";
      "input d";
      "output y";
      "cell u1 nand2 a b -> n1";
      "cell u2 nand2 c d -> n2";
      "cell u3 nand2 n1 n2 -> y";
      "thresholds 1.263 3.737 5.0";
      "";
    ]

(* the same stimulus both offline and over the wire; deliberately
   non-round floats so bit-identity is actually exercised *)
let pi_events =
  [
    ("a", { Sta.time = 0.; slew = 4.001e-10; edge = Measure.Fall });
    ("b", { Sta.time = 5.3e-11; slew = 3.07e-10; edge = Measure.Fall });
    ("c", { Sta.time = 5.3e-11; slew = 3.07e-10; edge = Measure.Fall });
    ("d", { Sta.time = 5.3e-11; slew = 3.07e-10; edge = Measure.Fall });
  ]

let eco_arrival = { Sta.time = 2.1e-11; slew = 3.51e-10; edge = Measure.Fall }
let ecos = [ Sta.Set_pi ("a", Some eco_arrival) ]

(* a netlist text as the server reads it: the design and the thresholds
   from its [thresholds] line *)
let parse_offline text =
  let design =
    match Netlist_text.parse tech text with
    | Ok (_, d) -> d
    | Error m -> Alcotest.failf "offline parse: %s" m
  in
  match (Netlist_text.parse_raw tech text).Netlist_text.raw_thresholds with
  | Some (th, _) -> (design, th)
  | None -> Alcotest.fail "netlist has no thresholds line"

(* what the daemon must reproduce, computed through the very same
   engine entry points the server calls *)
let offline_ir pi =
  let design, thresholds = parse_offline netlist_text in
  let factory = Sta.synthetic_factory ~seed:0 () in
  let ir =
    Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds
      design ~pi
  in
  ignore (Sta.reanalyze ir);
  ir

let offline_report =
  lazy
    (let ir = offline_ir pi_events in
     ignore (Sta.update ir ecos);
     Sta.report ir)

(* bit-identical reports, or the harness's explanation of the first
   difference *)
let check_report_identical msg (got : Sta.report) (want : Sta.report) =
  Option.iter
    (Alcotest.failf "%s:\n%s" msg)
    (Harness.report_diff ("want", want) ("got", got))

(* --- helpers over a live server --------------------------------------- *)

let with_server f =
  let srv = Serve.start (`Tcp ("127.0.0.1", 0)) in
  let port =
    match Serve.port srv with
    | Some p -> p
    | None -> Alcotest.fail "tcp server reports no port"
  in
  let addr = `Tcp ("127.0.0.1", port) in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Serve.wait srv)
    (fun () -> f addr)

let with_conn addr f =
  let fd = Serve.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let rpc fd req =
  match Serve.request fd req with
  | Ok j -> j
  | Error m -> Alcotest.failf "request failed: %s" m

let rpc_ok fd req =
  let j = rpc fd req in
  if not (Serve.ok j) then
    Alcotest.failf "request rejected: %s" (Json.to_string j);
  j

let expect_code fd req code =
  let j = rpc fd req in
  if Serve.ok j then
    Alcotest.failf "expected %s error, got ok: %s" code (Json.to_string j);
  Alcotest.(check (option string)) ("error code " ^ code) (Some code)
    (Serve.error_code j)

(* arrivals that break Sta.valid_event (a zero, negative or infinite
   slew, an infinite time) as wire text: the JSON writer never prints
   1e999, which reads back as infinity *)
let invalid_arrivals =
  List.map
    (fun (t, s) -> Printf.sprintf {|{"time":%s,"slew":%s,"edge":"fall"}|} t s)
    [ ("0", "0"); ("0", "-5e-10"); ("0", "1e999"); ("1e999", "4e-10") ]

(* a payload sent as one raw frame *)
let expect_raw_code fd payload code =
  Frame.write fd payload;
  match Frame.read fd with
  | Ok s ->
    Alcotest.(check (option string)) ("error code " ^ code) (Some code)
      (Serve.error_code (Result.get_ok (Json.of_string s)))
  | Error e -> Alcotest.failf "no reply: %s" (Frame.read_error_to_string e)

let str s = Json.String s
let num f = Json.Number f

let attach_req =
  Json.Obj
    [
      ("op", str "attach");
      ("design", str "serve_demo");
      ("mode", str "proximity");
      ("models", str "synthetic");
      ( "pi",
        Json.List
          (List.map
             (fun (net, a) ->
               Json.List [ str net; Serve.arrival_to_json a ])
             pi_events) );
    ]

let set_pi_json net a =
  Json.Obj
    [
      ("kind", str "set_pi");
      ("net", str net);
      ("arrival", Serve.arrival_to_json a);
    ]

let eco_json ecos = Json.Obj [ ("op", str "eco"); ("ecos", Json.List ecos) ]
let eco_req = eco_json [ set_pi_json "a" eco_arrival ]

let load_design fd =
  ignore
    (rpc_ok fd
       (Json.Obj [ ("op", str "load_text"); ("text", str netlist_text) ]))

let served_report fd =
  let resp = rpc_ok fd (Json.Obj [ ("op", str "report") ]) in
  match
    match Json.member "report" resp with
    | None -> Error "no report field"
    | Some rj -> Serve.report_of_json rj
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "report decode: %s" m

let session_report fd =
  ignore (rpc_ok fd attach_req);
  ignore (rpc_ok fd eco_req);
  served_report fd

(* --- tests ------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let nasty =
    [
      { Sta.time = 3.14159265358979312e-10; slew = 1e-300; edge = Measure.Rise };
      { Sta.time = -0.; slew = Float.min_float; edge = Measure.Fall };
      { Sta.time = 0x1.fffffffffffffp-100; slew = 1.0000000000000002;
        edge = Measure.Rise };
    ]
  in
  List.iter
    (fun a ->
      (* through the value codec AND through the printed wire bytes *)
      let via_wire =
        match Json.of_string (Json.to_string (Serve.arrival_to_json a)) with
        | Ok j -> j
        | Error m -> Alcotest.failf "wire json: %s" m
      in
      match Serve.arrival_of_json via_wire with
      | None -> Alcotest.fail "arrival did not decode"
      | Some b ->
        check_bits "time" b.Sta.time a.Sta.time;
        check_bits "slew" b.Sta.slew a.Sta.slew;
        if a.Sta.edge <> b.Sta.edge then Alcotest.fail "edge flip")
    nasty;
  let report =
    {
      Sta.arrivals = [ ("n1", List.hd nasty); ("y", List.nth nasty 2) ];
      critical_po = Some ("y", List.nth nasty 1);
      predecessors = [ ("y", "n1"); ("n1", "a") ];
    }
  in
  let round =
    match
      Result.bind
        (Json.of_string (Json.to_string (Serve.report_to_json report)))
        Serve.report_of_json
    with
    | Ok r -> r
    | Error m -> Alcotest.failf "report roundtrip: %s" m
  in
  check_report_identical "report roundtrip" round report;
  (* the paths payload the smoke client decodes *)
  let paths =
    List.map
      (fun (a : Sta.arrival) ->
        { Sta.path_arrival = a.Sta.time; path_nets = [ "y"; "n1"; "a" ] })
      nasty
  in
  match
    Result.bind
      (Json.of_string (Json.to_string (Serve.paths_to_json paths)))
      Serve.paths_of_json
  with
  | Error m -> Alcotest.failf "paths roundtrip: %s" m
  | Ok back ->
    List.iter2
      (fun (p : Sta.path) (q : Sta.path) ->
        check_bits "path arrival" q.Sta.path_arrival p.Sta.path_arrival;
        Alcotest.(check (list string))
          "path nets" p.Sta.path_nets q.Sta.path_nets)
      paths back

let test_e2e_bit_identity () =
  with_server (fun addr ->
      with_conn addr (fun fd ->
          load_design fd;
          let got = session_report fd in
          check_report_identical "serve vs offline" got
            (Lazy.force offline_report);
          ignore (rpc_ok fd (Json.Obj [ ("op", str "bye") ]))))

let test_concurrent_sessions () =
  with_server (fun addr ->
      with_conn addr load_design;
      let n = 4 in
      let results = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                with_conn addr (fun fd ->
                    results.(i) <- Some (session_report fd)))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "session %d produced no report" i
          | Some r ->
            check_report_identical
              (Printf.sprintf "session %d vs offline" i)
              r
              (Lazy.force offline_report))
        results)

(* regression: oracle factories were cached by design name alone, so an
   oracle attach after a same-name reload timed the new design with the
   old design's fanout loads.  And a reload drops everything the old
   attach simulated: a daemon that re-attaches must not keep the model
   caches of every earlier attach alive *)
let test_oracle_reload () =
  let one_inv =
    "design d\ninput a\noutput y\ncell u1 inv a -> y\n\
     thresholds 1.263 3.737 5.0\n"
  in
  let two_inv =
    "design d\ninput a\noutput y\ncell u1 inv a -> n1\n\
     cell u2 inv n1 -> y\nthresholds 1.263 3.737 5.0\n"
  in
  let pi = [ List.hd pi_events ] (* the event on "a" *) in
  let attach =
    Json.Obj
      [
        ("op", str "attach");
        ("design", str "d");
        ("models", str "oracle");
        ( "pi",
          Json.List
            (List.map
               (fun (net, a) -> Json.List [ str net; Serve.arrival_to_json a ])
               pi) );
      ]
  in
  let load text =
    Json.Obj [ ("op", str "load_text"); ("text", str text); ("name", str "d") ]
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let got =
    with_server (fun addr ->
        with_conn addr (fun fd ->
            ignore (rpc_ok fd (load one_inv));
            ignore (rpc_ok fd attach);
            ignore (rpc_ok fd (load two_inv));
            ignore (rpc_ok fd attach);
            let report () = rpc_ok fd (Json.Obj [ ("op", str "report") ]) in
            let resp = report () in
            let before = live_words () in
            for _ = 1 to 8 do
              ignore (rpc_ok fd (load two_inv));
              ignore (rpc_ok fd attach);
              ignore (report ())
            done;
            let grown = live_words () - before in
            if grown >= 2000 then
              Alcotest.failf "8 reload/attach cycles kept %d live words" grown;
            match
              Option.map Serve.report_of_json (Json.member "report" resp)
            with
            | Some (Ok r) -> r
            | Some (Error m) -> Alcotest.failf "report decode: %s" m
            | None -> Alcotest.fail "no report field"))
  in
  let design, thresholds = parse_offline two_inv in
  let factory = Sta.oracle_factory design thresholds in
  let ir =
    Sta.build_ir ~mode:Sta.Proximity ~models:factory.Sta.models ~thresholds
      design ~pi
  in
  ignore (Sta.reanalyze ir);
  check_report_identical "reloaded oracle vs offline" got (Sta.report ir)

let test_typed_errors () =
  with_server (fun addr ->
      with_conn addr (fun fd ->
          (* bad JSON keeps the session alive: framing is still intact *)
          expect_raw_code fd "this is not json" "bad_json";
          ignore (rpc_ok fd (Json.Obj [ ("op", str "ping") ]));
          expect_code fd (Json.Obj [ ("x", num 1.) ]) "bad_request";
          expect_code fd (Json.Obj [ ("op", str "frobnicate") ]) "unknown_op";
          expect_code fd
            (Json.Obj [ ("op", str "attach"); ("design", str "nope") ])
            "unknown_design";
          expect_code fd (Json.Obj [ ("op", str "report") ]) "not_attached";
          expect_code fd eco_req "not_attached";
          expect_code fd
            (Json.Obj
               [ ("op", str "load"); ("path", str "/nonexistent/file.ntl") ])
            "load_error";
          load_design fd;
          (* an arrival that describes no transition is a bad request in
             pi (either kind of models), in pi_all and in a set_pi eco *)
          List.iter
            (fun a ->
              List.iter
                (fun fields ->
                  expect_raw_code fd
                    ({|{"op":"attach","design":"serve_demo",|} ^ fields ^ "}")
                    "bad_request")
                [
                  {|"pi":[["a",|} ^ a ^ "]]";
                  {|"models":"oracle","pi":[["a",|} ^ a ^ "]]";
                  {|"pi_all":|} ^ a;
                ])
            invalid_arrivals;
          (* stimuli the golden simulator refuses (a 1e-32 s slew, rising
             events 1 ms apart) are answered before any transient runs,
             so the engine lock is free for the next session *)
          List.iter
            (fun pi ->
              expect_raw_code fd
                ({|{"op":"attach","design":"serve_demo","models":"oracle",|}
                ^ {|"pi":|} ^ pi ^ "}")
                "bad_request";
              with_conn addr (fun other -> ignore (rpc_ok other attach_req)))
            [
              {|[["a",{"time":0,"slew":1e-32,"edge":"fall"}]]|};
              {|[["a",{"time":0,"slew":3e-10,"edge":"rise"}],|}
              ^ {|["b",{"time":1e-3,"slew":3e-10,"edge":"rise"}]]|};
            ];
          ignore (rpc_ok fd attach_req);
          List.iter
            (fun a ->
              expect_raw_code fd
                ({|{"op":"eco","ecos":[{"kind":"set_pi","net":"a","arrival":|}
                ^ a ^ "}]}")
                "bad_request")
            invalid_arrivals;
          (* analysis-layer exceptions surface as typed codes *)
          expect_code fd
            (eco_json [ set_pi_json "no_such_net" eco_arrival ])
            "unknown_target";
          (* an unknown po is an empty answer, not an error... *)
          let j =
            rpc_ok fd (Json.Obj [ ("op", str "paths"); ("po", str "not_a_po") ])
          in
          (match Option.bind (Json.member "paths" j) Json.to_list with
           | Some [] -> ()
           | _ -> Alcotest.fail "unknown po should yield zero paths");
          (* ...but a shapeless request is typed bad_request *)
          expect_code fd (Json.Obj [ ("op", str "paths") ]) "bad_request";
          expect_code fd
            (Json.Obj [ ("op", str "slacks"); ("required", str "soon") ])
            "bad_request"))

(* an eco batch with one bad target, or one that gives a cell mixed
   input edges, is answered with a typed error and leaves the session as
   it was.  In the mixed batch [u1] commits [a]'s move before [u2] meets
   a rising [c] beside a falling [d].  A later batch on [c], whose cone
   misses [a]'s reader, must land on the pre-batch state. *)
let test_rejected_eco () =
  let c_arrival = { eco_arrival with Sta.time = 9.7e-11 } in
  with_server (fun addr ->
      with_conn addr (fun fd ->
          load_design fd;
          ignore (rpc_ok fd attach_req);
          let before = served_report fd in
          List.iter
            (fun (bad, code) ->
              expect_code fd
                (eco_json [ set_pi_json "a" eco_arrival; bad ])
                code;
              check_report_identical "after a rejected eco" (served_report fd)
                before)
            [
              (set_pi_json "zz" eco_arrival, "unknown_target");
              (set_pi_json "n1" eco_arrival, "unknown_target");
              ( set_pi_json "c" { c_arrival with Sta.edge = Measure.Rise },
                "mixed_edges" );
            ];
          ignore (rpc_ok fd (eco_json [ set_pi_json "c" c_arrival ]));
          let pi =
            Sta.apply_ecos pi_events [ Sta.Set_pi ("c", Some c_arrival) ]
          in
          check_report_identical "a later eco vs offline" (served_report fd)
            (Sta.report (offline_ir pi))))

let test_adversarial_frames () =
  with_server (fun addr ->
      (* oversized length claim: typed bad_frame answer, then the
         stream is dropped (it cannot resynchronize) *)
      with_conn addr (fun fd ->
          let header = Bytes.of_string "\x7f\xff\xff\xff" in
          ignore (Unix.write fd header 0 4 : int);
          (match Frame.read fd with
           | Ok s ->
             let j = Result.get_ok (Json.of_string s) in
             Alcotest.(check (option string)) "bad_frame" (Some "bad_frame")
               (Serve.error_code j)
           | Error e ->
             Alcotest.failf "no bad_frame reply: %s"
               (Frame.read_error_to_string e));
          match Frame.read fd with
          | Error Frame.Closed -> ()
          | Ok _ -> Alcotest.fail "stream survived an oversized claim"
          | Error _ -> () (* reset also acceptable: the server hung up *));
      (* a maximal frame of bare '[': typed bad_json without the parser
         recursing once per byte, and the session survives *)
      with_conn addr (fun fd ->
          let bomb = String.make Frame.max_frame '[' in
          let before = Gc.quick_stat () in
          Frame.write fd bomb;
          (match Frame.read fd with
           | Ok s ->
             let j = Result.get_ok (Json.of_string s) in
             Alcotest.(check (option string)) "nesting bomb" (Some "bad_json")
               (Serve.error_code j)
           | Error e ->
             Alcotest.failf "no bad_json reply: %s"
               (Frame.read_error_to_string e));
          let after = Gc.quick_stat () in
          let words =
            after.Gc.minor_words -. before.Gc.minor_words
            +. (after.Gc.major_words -. before.Gc.major_words)
          in
          (* the frame buffers themselves are ~2M words a copy *)
          if words > 1e7 then
            Alcotest.failf "a nesting bomb cost %.0f words" words;
          ignore (rpc_ok fd (Json.Obj [ ("op", str "ping") ])));
      (* truncated header: client vanishes two bytes into a frame *)
      with_conn addr (fun fd -> ignore (Unix.write fd (Bytes.of_string "\x00\x01") 0 2 : int));
      (* disconnect mid-session, with state attached *)
      with_conn addr (fun fd ->
          load_design fd;
          ignore (rpc_ok fd attach_req));
      (* after all that abuse the server still answers *)
      with_conn addr (fun fd ->
          ignore (rpc_ok fd (Json.Obj [ ("op", str "ping") ]))))

let test_metrics_endpoint () =
  with_server (fun addr ->
      with_conn addr (fun fd ->
          ignore (rpc_ok fd (Json.Obj [ ("op", str "ping") ]));
          let j =
            rpc_ok fd
              (Json.Obj [ ("op", str "metrics"); ("format", str "json") ])
          in
          (match Json.member "metrics" j with
           | Some (Json.Obj _) -> ()
           | _ -> Alcotest.fail "metrics payload is not an object");
          let t =
            rpc_ok fd
              (Json.Obj [ ("op", str "metrics"); ("format", str "text") ])
          in
          let text =
            Option.value
              (Option.bind (Json.member "metrics" t) Json.to_string_value)
              ~default:""
          in
          if not (String.length text > 0) then
            Alcotest.fail "empty text metrics";
          expect_code fd
            (Json.Obj [ ("op", str "metrics"); ("format", str "xml") ])
            "bad_request"))

let test_protocol_shutdown () =
  let srv = Serve.start (`Tcp ("127.0.0.1", 0)) in
  let port = Option.get (Serve.port srv) in
  let addr = `Tcp ("127.0.0.1", port) in
  with_conn addr (fun fd ->
      let j = rpc_ok fd (Json.Obj [ ("op", str "shutdown") ]) in
      ignore (j : Json.t));
  Serve.wait srv;
  (* fully stopped: new connections are refused *)
  match Serve.connect addr with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (* a race can let connect through before the OS reaps the socket;
       any use must then fail *)
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- golden served frames -------------------------------------------- *)

(* A fixed script against an in-process daemon, sent verbatim: its raw
   response frames are committed in golden/serve_frames.txt, one
   "> request" / "< response" line pair per frame, and must come back
   byte for byte.  With PROXIM_GOLDEN_UPDATE set to an absolute directory
   the transcript is written there instead, as test_cli does. *)
let golden_script =
  let fall t s = Printf.sprintf {|{"time":%s,"slew":%s,"edge":"fall"}|} t s in
  let attach mode =
    Printf.sprintf
      ({|{"op":"attach","design":"g","mode":"%s","models":"synthetic",|}
    ^^ {|"pi":[["pi0",%s]],"pi_all":%s}|})
      mode (fall "1.7e-11" "2.9e-10") (fall "5.3e-11" "3.07e-10")
  in
  [
    {|{"op":"gen","cells":300,"seed":1,"name":"g"}|};
    attach "proximity";
    Printf.sprintf
      {|{"op":"eco","ecos":[{"kind":"set_pi","net":"pi3","arrival":%s}]}|}
      (fall "2.1e-11" "3.51e-10");
    {|{"op":"paths","po":"n3_0","k":3}|};
    {|{"op":"slacks","required":1.5e-9}|};
    {|{"op":"report"}|};
    attach "classic";
    {|{"op":"slacks","required":1.5e-9}|};
    {|{"op":"report"}|};
    {|{"op":"eco","ecos":[{"kind":"touch_cell","cell":"no_such_cell"}]}|};
  ]

let test_golden_frames () =
  let transcript =
    with_server (fun addr ->
        with_conn addr (fun fd ->
            let buf = Buffer.create 65536 in
            List.iter
              (fun req ->
                Frame.write fd req;
                match Frame.read fd with
                | Ok resp -> Printf.bprintf buf "> %s\n< %s\n" req resp
                | Error e ->
                  Alcotest.failf "no reply to %s: %s" req
                    (Frame.read_error_to_string e))
              golden_script;
            Buffer.contents buf))
  in
  let file = "serve_frames.txt" in
  match Sys.getenv_opt "PROXIM_GOLDEN_UPDATE" with
  | Some dir ->
    Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
        Out_channel.output_string oc transcript)
  | None ->
    let expected =
      In_channel.with_open_bin (Filename.concat "golden" file)
        In_channel.input_all
    in
    Alcotest.(check string) "served frames" expected transcript

(* --- the tree-free report writer and the IR slacks ------------------- *)

let synth_ir ?(mode = Sta.Proximity) ~seed ~cells ~depth () =
  let _, design = Synthgen.generate ~seed ~depth ~tech ~cells () in
  let r = Prng.create (Int64.of_int seed) in
  let pi =
    List.map
      (fun net ->
        ( net,
          {
            Sta.time = Prng.float r ~lo:0. ~hi:200e-12;
            slew = Prng.float r ~lo:100e-12 ~hi:600e-12;
            edge = Measure.Fall;
          } ))
      (Design.primary_inputs design)
  in
  let factory = Sta.synthetic_factory ~seed:0 () in
  let ir =
    Sta.build_ir ~mode ~models:factory.Sta.models
      ~thresholds:(Sta.default_thresholds design None) design ~pi
  in
  ignore (Sta.reanalyze ir);
  ir

(* the tree emitter's bytes for a report reply: what every frame the
   report writer prints must equal *)
let tree_frame r =
  Json.to_string
    (Json.Obj [ ("ok", Json.Bool true); ("report", Serve.report_to_json r) ])

let check_report_writer ?(memo = Json.Memo.create ()) msg (r : Sta.report) =
  let buf = Buffer.create 16 in
  Serve.add_report_reply memo buf r;
  Alcotest.(check string) msg (tree_frame r) (Buffer.contents buf)

(* net names the writer must escape exactly as the tree emitter does: a
   quote, a backslash, a control character and multi-byte UTF-8 *)
let test_report_writer_escapes () =
  let gate name = Result.get_ok (Proxim_gates.Gate.of_name tech name) in
  let a = "a\"q" and b = "b\\s" and n1 = "n\001c\n" in
  let y = "y\xc3\xa9\xe2\x82\xac" in
  let design =
    Design.create
      ~cells:
        [
          { Design.name = "u1"; gate = gate "nand2"; input_nets = [| a; b |];
            output_net = n1 };
          { Design.name = "u2"; gate = gate "inv"; input_nets = [| n1 |];
            output_net = y };
        ]
      ~primary_inputs:[ a; b ] ~primary_outputs:[ y ]
  in
  let fall t = { Sta.time = t; slew = 3.07e-10; edge = Measure.Fall } in
  let factory = Sta.synthetic_factory ~seed:0 () in
  let report =
    Sta.analyze ~models:factory.Sta.models
      ~thresholds:(Sta.default_thresholds design None)
      design ~pi:[ (a, fall 0.); (b, fall 5.3e-11) ]
  in
  check_report_writer "escaped names" report;
  let buf = Buffer.create 16 in
  Serve.add_report_reply (Json.Memo.create ()) buf report;
  let reply = Result.get_ok (Json.of_string (Buffer.contents buf)) in
  match Option.map Serve.report_of_json (Json.member "report" reply) with
  | Some (Ok back) -> check_report_identical "escaped names reparse" back report
  | Some (Error m) -> Alcotest.failf "escaped report: %s" m
  | None -> Alcotest.fail "no report field"

(* each report through one memo cold, warm, and after an ECO moved one
   input *)
let test_report_writer_synthgen () =
  check_report_writer "empty report"
    { Sta.arrivals = []; critical_po = None; predecessors = [] };
  List.iter
    (fun (seed, cells, depth) ->
      List.iter
        (fun mode ->
          let ir = synth_ir ~mode ~seed ~cells ~depth () in
          let memo = Json.Memo.create () in
          let check what =
            check_report_writer ~memo
              (Printf.sprintf "seed %d, %d cells, %s" seed cells what)
              (Sta.report ir)
          in
          check "cold";
          check "warm";
          let g = Design.graph (Sta.design ir) in
          let pi = (Graph.primary_inputs g).(0) in
          let a = Option.get (Timing.arrival (Sta.timing ir) ~net:pi) in
          ignore
            (Sta.update ir
               [
                 Sta.Set_pi
                   ( Graph.net_name g pi,
                     Some { a with Sta.time = a.Sta.time +. 13e-12 } );
               ]);
          check "after an eco")
        [ Sta.Proximity; Sta.Classic ])
    [ (1, 12, 3); (2, 300, 4); (3, 300, 4); (4, 1000, 8); (5, 3000, 4) ]

(* A session's raw report frames, each written through the session's
   memo, against the tree emitter's frame of an offline replay: 20
   seeded one-input ECO rounds on a 1k-cell design, a cleared input
   (every later arrival shifts one slot), and a classic re-attach. *)
let test_served_report_frames () =
  let seed = 7 and cells = 1000 and depth = 6 in
  let _, design = Synthgen.generate ~seed ~depth ~tech ~cells () in
  let pis = Array.of_list (Design.primary_inputs design) in
  let r = Prng.create 0x4d454d4fL in
  let arrival () =
    {
      Sta.time = Prng.float r ~lo:0. ~hi:200e-12;
      slew = Prng.float r ~lo:100e-12 ~hi:600e-12;
      edge = Measure.Fall;
    }
  in
  let common = arrival () in
  let offline mode =
    let factory = Sta.synthetic_factory ~seed:0 () in
    let ir =
      Sta.build_ir ~mode ~models:factory.Sta.models
        ~thresholds:(Sta.default_thresholds design None)
        design
        ~pi:(Sta.with_pi_all design [] (Some common))
    in
    ignore (Sta.reanalyze ir);
    ir
  in
  with_server (fun addr ->
      with_conn addr (fun fd ->
          let attach mode =
            ignore
              (rpc_ok fd
                 (Json.Obj
                    [
                      ("op", str "attach");
                      ("design", str "m");
                      ("mode", str mode);
                      ("pi_all", Serve.arrival_to_json common);
                    ]))
          in
          let check what ir =
            Frame.write fd {|{"op":"report"}|};
            match Frame.read fd with
            | Ok frame ->
              Alcotest.(check string) what (tree_frame (Sta.report ir)) frame
            | Error e ->
              Alcotest.failf "%s: no report: %s" what
                (Frame.read_error_to_string e)
          in
          let eco ir e =
            ignore (rpc_ok fd (eco_json [ Serve.eco_to_json e ]));
            ignore (Sta.update ir [ e ])
          in
          ignore
            (rpc_ok fd
               (Json.Obj
                  [
                    ("op", str "gen");
                    ("cells", num (float_of_int cells));
                    ("depth", num (float_of_int depth));
                    ("seed", num (float_of_int seed));
                    ("name", str "m");
                  ]));
          attach "proximity";
          let ir = offline Sta.Proximity in
          check "attach" ir;
          for round = 1 to 20 do
            let net = pis.(Prng.int r ~lo:0 ~hi:(Array.length pis - 1)) in
            eco ir (Sta.Set_pi (net, Some (arrival ())));
            check (Printf.sprintf "round %d" round) ir
          done;
          eco ir (Sta.Set_pi (pis.(0), None));
          check "a cleared input" ir;
          attach "classic";
          check "a classic re-attach" (offline Sta.Classic)))

(* the served slacks, read from the IR, against the offline ranking over
   a full report, along seeded ECO sequences; identical pi arrivals in
   classic mode make equal slacks, so the stable order is exercised *)
let test_ir_slacks () =
  let ties = ref 0 in
  List.iter
    (fun (seed, mode) ->
      let _, design = Synthgen.generate ~seed ~depth:4 ~tech ~cells:300 () in
      let pis = Array.of_list (Design.primary_inputs design) in
      let r = Prng.create (Int64.of_int (1000 + seed)) in
      let arrival () =
        {
          Sta.time = Prng.float r ~lo:0. ~hi:200e-12;
          slew = Prng.float r ~lo:100e-12 ~hi:600e-12;
          edge = Measure.Fall;
        }
      in
      let common = arrival () in
      let factory = Sta.synthetic_factory ~seed:0 () in
      let ir =
        Sta.build_ir ~mode ~models:factory.Sta.models
          ~thresholds:(Sta.default_thresholds design None)
          design
          ~pi:(Sta.with_pi_all design [] (Some common))
      in
      ignore (Sta.reanalyze ir);
      for step = 0 to 40 do
        if step > 0 then begin
          let net = pis.(Prng.int r ~lo:0 ~hi:(Array.length pis - 1)) in
          let a =
            match Prng.int r ~lo:0 ~hi:3 with
            | 0 -> None
            | 1 -> Some common
            | _ -> Some (arrival ())
          in
          ignore (Sta.update ir [ Sta.Set_pi (net, a) ])
        end;
        let required = Prng.float r ~lo:0. ~hi:2e-9 in
        let got = Sta.slacks ir ~required in
        let want = Sta.po_slacks (Sta.design ir) (Sta.report ir) ~required in
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d step %d: outputs" seed step)
          (List.map fst want) (List.map fst got);
        List.iter2
          (fun (n, s) (_, t) -> check_bits ("slack of " ^ n) s t)
          want got;
        let rec count = function
          | (_, s) :: ((_, t) :: _ as tl) ->
            (if same_float s t then incr ties);
            count tl
          | _ -> ()
        in
        count got
      done)
    [ (1, Sta.Classic); (2, Sta.Classic); (3, Sta.Proximity) ];
  if !ties = 0 then
    Alcotest.fail "no equal slacks: the stable order went untested"

(* --- the decoder and the framing under seeded mutation --------------- *)

let golden_lines () =
  In_channel.with_open_bin (Filename.concat "golden" "serve_frames.txt")
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length l > 2)
  |> List.map (fun l -> String.sub l 2 (String.length l - 2))

(* the report frame of a 3k-cell design, parsed under an allocation bound
   per input byte: the bytes are read in place, so the tree is the cost *)
let test_report_frame_alloc () =
  let buf = Buffer.create 65536 in
  Serve.add_report_reply (Json.Memo.create ()) buf
    (Sta.report (synth_ir ~seed:1 ~cells:3000 ~depth:4 ()));
  let frame = Buffer.contents buf in
  let before = Gc.minor_words () in
  let parsed = Json.of_string frame in
  let words = Gc.minor_words () -. before in
  if Result.is_error parsed then Alcotest.fail "report frame does not parse";
  let per_byte = words /. float_of_int (String.length frame) in
  if per_byte > 3. then
    Alcotest.failf "parsing a %d-byte report frame allocated %.2f words/byte"
      (String.length frame) per_byte

let json_alphabet = "{}[]\",:\\/0123456789.eE+-truefalsn \t\n\001\x80\xff"

let runs =
  [| "\\u00e9"; "\\\""; "\\\\"; "\\u12"; "\\"; "\\ud800"; "1234567890";
     "-0.5e+3"; "1e400"; "[[[["; "]]"; "\"\"" |]

let mutate r frames s =
  let n = String.length s in
  let at () = Prng.int r ~lo:0 ~hi:n in
  let b = Bytes.of_string s in
  match Prng.int r ~lo:0 ~hi:4 with
  | 0 when n > 0 ->
    for _ = 0 to Prng.int r ~lo:0 ~hi:3 do
      let i = Prng.int r ~lo:0 ~hi:(n - 1) in
      let bit = 1 lsl Prng.int r ~lo:0 ~hi:7 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit))
    done;
    Bytes.to_string b
  | 1 when n > 0 ->
    for _ = 0 to Prng.int r ~lo:0 ~hi:7 do
      let c = Prng.int r ~lo:0 ~hi:(String.length json_alphabet - 1) in
      Bytes.set b (Prng.int r ~lo:0 ~hi:(n - 1)) json_alphabet.[c]
    done;
    Bytes.to_string b
  | 2 -> String.sub s 0 (at ())
  | 3 ->
    let o = frames.(Prng.int r ~lo:0 ~hi:(Array.length frames - 1)) in
    let j = Prng.int r ~lo:0 ~hi:(String.length o) in
    String.sub s 0 (at ()) ^ String.sub o j (String.length o - j)
  | _ ->
    let i = at () in
    let run =
      String.concat ""
        (List.init (Prng.int r ~lo:1 ~hi:12) (fun _ ->
             runs.(Prng.int r ~lo:0 ~hi:(Array.length runs - 1))))
    in
    String.sub s 0 i ^ run ^ String.sub s i (n - i)

let test_json_fuzz () =
  let frames = Array.of_list (golden_lines ()) in
  let r = Prng.create 0x46555a5aL in
  let parsed = ref 0 in
  for _ = 1 to 4000 do
    let doc =
      mutate r frames frames.(Prng.int r ~lo:0 ~hi:(Array.length frames - 1))
    in
    let before = Gc.minor_words () in
    (match Json.of_string doc with
     | Ok _ -> incr parsed
     | Error m ->
       if not (String.starts_with ~prefix:"at offset " m) then
         Alcotest.failf "untyped error %S" m);
    let words = Gc.minor_words () -. before in
    if words > (16. *. float_of_int (String.length doc)) +. 256. then
      Alcotest.failf "a %d-byte mutant cost %.0f words" (String.length doc)
        words
  done;
  (* the mutants must reach both outcomes to mean anything *)
  if !parsed = 0 || !parsed = 4000 then
    Alcotest.failf "%d of 4000 mutants parsed" !parsed

(* cut headers, cut payloads and over-limit lengths over a real socket:
   typed errors, never an exception *)
let test_frame_read_errors () =
  let r = Prng.create 0x4652414dL in
  let with_pair f =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () -> f a b)
  in
  let header n =
    Bytes.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))
  in
  let send fd bytes k = ignore (Unix.write fd bytes 0 k : int) in
  let describe = function
    | Ok s -> Printf.sprintf "Ok %d bytes" (String.length s)
    | Error e -> Frame.read_error_to_string e
  in
  for _ = 1 to 60 do
    let n = Prng.int r ~lo:1 ~hi:2000 in
    let case = Prng.int r ~lo:0 ~hi:4 in
    let got =
      with_pair (fun a b ->
          (match case with
           | 0 -> ()
           | 1 -> send a (header n) (Prng.int r ~lo:1 ~hi:3)
           | 2 ->
             send a (header n) 4;
             send a (Bytes.make n 'x') (Prng.int r ~lo:0 ~hi:(n - 1))
           | 3 ->
             send a (header (Frame.max_frame + n)) 4
           | _ ->
             send a (header n) 4;
             send a (Bytes.make n 'x') n);
          Unix.shutdown a Unix.SHUTDOWN_SEND;
          Frame.read b)
    in
    let ok =
      match (case, got) with
      | 0, Error Frame.Closed -> true
      | 1, Error (Frame.Truncated "header") -> true
      | 2, Error (Frame.Truncated "payload") -> true
      | 3, Error (Frame.Oversized m) -> m = Frame.max_frame + n
      | 4, Ok s -> String.length s = n
      | _ -> false
    in
    if not ok then Alcotest.failf "case %d, n = %d: %s" case n (describe got)
  done

(* --- daemon stage histograms ----------------------------------------- *)

let test_stage_histograms () =
  with_server (fun addr ->
      with_conn addr (fun fd ->
          load_design fd;
          ignore (rpc_ok fd attach_req);
          (* the snapshot is taken inside [handle], after the request's
             own decode and before its encode and write; a value is -1
             when the snapshot lacks it *)
          let snapshot () =
            let j =
              rpc_ok fd
                (Json.Obj [ ("op", str "metrics"); ("format", str "json") ])
            in
            fun path ->
              List.fold_left
                (fun acc k -> Option.bind acc (Json.member k))
                (Some j) ("metrics" :: path)
              |> Fun.flip Option.bind Json.to_number
              |> Option.fold ~none:(-1) ~some:int_of_float
          in
          let counts () =
            let get = snapshot () in
            List.map
              (fun stage ->
                get [ "histograms"; "serve." ^ stage ^ "_seconds"; "count" ])
              [ "decode"; "lock_wait"; "encode"; "write" ]
          in
          let numbers () =
            let get = snapshot () in
            List.map
              (fun what -> get [ "counters"; "serve.report_numbers_" ^ what ])
              [ "reused"; "formatted" ]
          in
          let c0 = counts () in
          let c1 = counts () in
          ignore (rpc_ok fd (Json.Obj [ ("op", str "report") ]));
          let c2 = counts () in
          List.iter (fun c -> if c < 1 then Alcotest.fail "stage missing") c0;
          (* metrics -> metrics moves each stage but lock_wait by one; a
             report in between adds one more to decode, encode and write *)
          let d1 = List.map2 ( - ) c1 c0 and d2 = List.map2 ( - ) c2 c1 in
          Alcotest.(check (list int)) "report's own samples" [ 1; 0; 1; 1 ]
            (List.map2 ( - ) d2 d1);
          (* the report after an eco copies the numbers the eco left and
             formats those it moved *)
          let n0 = numbers () in
          ignore (rpc_ok fd eco_req);
          ignore (rpc_ok fd (Json.Obj [ ("op", str "report") ]));
          let n1 = numbers () in
          List.iter
            (fun n -> if n < 0 then Alcotest.fail "report counter missing")
            n0;
          List.iter2
            (fun what (a, b) ->
              if b <= a then
                Alcotest.failf "the report after an eco %s no number" what)
            [ "reused"; "formatted" ]
            (List.combine n0 n1)))

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "codec roundtrip is bit-identical" `Quick
            test_codec_roundtrip;
          Alcotest.test_case "e2e report matches offline engine" `Quick
            test_e2e_bit_identity;
          Alcotest.test_case "concurrent sessions agree" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "oracle attach after a same-name reload"
            `Quick test_oracle_reload;
          Alcotest.test_case "rejected eco changes nothing" `Quick
            test_rejected_eco;
          Alcotest.test_case "typed per-session errors" `Quick
            test_typed_errors;
          Alcotest.test_case "adversarial frames never kill the server"
            `Quick test_adversarial_frames;
          Alcotest.test_case "metrics endpoint" `Quick test_metrics_endpoint;
          Alcotest.test_case "protocol shutdown" `Quick
            test_protocol_shutdown;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "stage histograms" `Quick test_stage_histograms;
          Alcotest.test_case "report frames across eco rounds" `Quick
            test_served_report_frames;
        ] );
      ( "codec",
        [
          Alcotest.test_case "report writer on synthgen designs" `Quick
            test_report_writer_synthgen;
          Alcotest.test_case "report writer escapes names" `Quick
            test_report_writer_escapes;
          Alcotest.test_case "ir slacks match po_slacks" `Quick test_ir_slacks;
          Alcotest.test_case "report frame parse allocation" `Quick
            test_report_frame_alloc;
          Alcotest.test_case "seeded json fuzzer" `Quick test_json_fuzz;
          Alcotest.test_case "frame read errors" `Quick test_frame_read_errors;
        ] );
    ]

(* Helpers shared by the test suites: the CLI binary, two ways to run a
   command line through it, and substring search. *)

(* dune runtest runs with the stanza directory as cwd, so the CLI binary
   sits one level up in the build tree; a plain `dune exec` from the
   workspace root needs the full _build path instead *)
let cli =
  match
    List.find_opt Sys.file_exists
      [ "../bin/proxim_cli.exe"; "_build/default/bin/proxim_cli.exe" ]
  with
  | Some p -> p
  | None -> "proxim"

(* the exit code of a command line, its output discarded *)
let run fmt =
  Printf.ksprintf
    (fun args -> Sys.command (Printf.sprintf "%s >/dev/null 2>&1" args))
    fmt

(* the standard output of a command line *)
let capture cmd =
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  out

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The unified STA prune mask: up to three per-cell-id bitmaps (one per
   producing analysis) fused into one table of claiming sources.  See
   the .mli for the contract. *)

type source = Unsensitizable | Quiet | Never_proximate

let source_name = function
  | Unsensitizable -> "unsensitizable"
  | Quiet -> "quiet"
  | Never_proximate -> "never_proximate"

(* [t.(id)]: the first source, in priority order, whose bitmap covers
   cell [id].  Only [make] writes it. *)
type t = source option array

let none = [||]

let rec first id = function
  | [] -> None
  | (src, mask) :: rest -> if mask.(id) then src else first id rest

let make ?unsensitizable ?quiet ?never_proximate () =
  (* the list order is the attribution priority: the cheapest analysis
     claims a cell that several sources cover.  Each source rides as a
     constant [Some src], so the table shares three options instead of
     allocating one per covered cell. *)
  let given =
    List.filter_map
      (function src, Some m -> Some (src, m) | _, None -> None)
      [
        (Some Unsensitizable, unsensitizable);
        (Some Quiet, quiet);
        (Some Never_proximate, never_proximate);
      ]
  in
  match given with
  | [] -> none
  | (_, m) :: _ ->
    let n = Array.length m in
    if List.exists (fun (_, m) -> Array.length m <> n) given then
      invalid_arg "Prune.make: source masks differ in length";
    Array.init n (fun id -> first id given)

let is_empty t = Array.length t = 0
let length = Array.length
let source t id = if id < Array.length t then t.(id) else None
let member t id = Option.is_some (source t id)

type counts = {
  unsensitizable : int;
  quiet : int;
  never_proximate : int;
}

let total c = c.unsensitizable + c.quiet + c.never_proximate

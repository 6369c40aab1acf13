type logic = L0 | L1 | LX

let name = function L0 -> "0" | L1 -> "1" | LX -> "x"
let not3 = function L0 -> L1 | L1 -> L0 | LX -> LX

let and3 a b =
  match (a, b) with L0, _ | _, L0 -> L0 | L1, L1 -> L1 | _ -> LX

let or3 a b =
  match (a, b) with L1, _ | _, L1 -> L1 | L0, L0 -> L0 | _ -> LX

(* Does the pull-down network conduct?  Series stacks need every leg
   (AND), parallel branches any (OR); an NMOS gate conducts on 1.  The
   short-circuit on a definite controlling value IS the §3 skip branch
   decided statically: one definite 0 in a series stack absorbs the
   rest. *)
let rec conducts nw ~value =
  match nw with
  | Gate.Pin p -> value p
  | Gate.Series l ->
    List.fold_left
      (fun acc c -> if acc = L0 then L0 else and3 acc (conducts c ~value))
      L1 l
  | Gate.Parallel l ->
    List.fold_left
      (fun acc c -> if acc = L1 then L1 else or3 acc (conducts c ~value))
      L0 l

let eval_gate (g : Gate.t) value = not3 (conducts g.Gate.pulldown ~value)

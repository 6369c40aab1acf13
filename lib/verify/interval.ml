type t = { lo : float; hi : float }

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: [%g, %g]" lo hi)
  else { lo; hi }

let exact v = make v v
let of_pair (lo, hi) = make lo hi
let pair i = (i.lo, i.hi)
let lo i = i.lo
let hi i = i.hi
let width i = i.hi -. i.lo
let degenerate i = i.lo = i.hi
let contains i x = i.lo <= x && x <= i.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi
let intersects a b = a.lo <= b.hi && b.lo <= a.hi
let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let hull0 a = { lo = min a.lo 0.; hi = max a.hi 0. }
let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
let neg a = { lo = -.a.hi; hi = -.a.lo }

let scale k a =
  if k >= 0. then { lo = k *. a.lo; hi = k *. a.hi }
  else { lo = k *. a.hi; hi = k *. a.lo }

let max2 a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }
let clamp_lo floor a = { lo = max a.lo floor; hi = max a.hi floor }

let inv a =
  if a.lo <= 0. then
    invalid_arg (Printf.sprintf "Interval.inv: [%g, %g] not positive" a.lo a.hi)
  else { lo = 1. /. a.hi; hi = 1. /. a.lo }

let to_string i =
  if degenerate i then Printf.sprintf "{%g}" i.lo
  else Printf.sprintf "[%g, %g]" i.lo i.hi

let to_ps_string i = to_string (scale 1e12 i)

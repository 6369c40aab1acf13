type summary = { n : int; mean : float; std : float; min : float; max : float }

let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let std xs =
  let n = Array.length xs in
  assert (n > 0);
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let summarize xs =
  let n = Array.length xs in
  assert (n > 0);
  let mn = Array.fold_left Float.min xs.(0) xs in
  let mx = Array.fold_left Float.max xs.(0) xs in
  { n; mean = mean xs; std = std xs; min = mn; max = mx }

let percentile xs p =
  assert (Array.length xs > 0);
  assert (p >= 0. && p <= 100.);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    Floatx.lerp sorted.(lo) sorted.(hi) (rank -. float_of_int lo)
  end

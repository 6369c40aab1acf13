type mat = float array array
type vec = float array

exception Singular

let pivot_floor = 1e-300

let make_mat n = Array.make_matrix n n 0.

let copy_mat a = Array.map Array.copy a

let mat_vec a x =
  let n = Array.length a in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let row = a.(i) in
    let acc = ref 0. in
    for j = 0 to Array.length row - 1 do
      acc := !acc +. (row.(j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

(* a loop, not [Array.fold_left]: the polymorphic fold boxes every
   element it reads *)
let norm_inf (v : vec) =
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    m := Float.max !m (Float.abs v.(i))
  done;
  !m

let residual_norm a x b =
  let ax = mat_vec a x in
  let n = Array.length b in
  let m = ref 0. in
  for i = 0 to n - 1 do
    m := Float.max !m (Float.abs (ax.(i) -. b.(i)))
  done;
  !m

(* Classic LU with partial pivoting, factorizing [a] in place (its rows
   are exchanged as the pivots require); [perm] records the row order. *)
let lu_factor a ~perm =
  let n = Array.length a in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* pivot search *)
    let pivot_row = ref k in
    let pivot_val = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs a.(i).(k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    if !pivot_val < pivot_floor then raise Singular;
    if !pivot_row <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!pivot_row);
      a.(!pivot_row) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tp
    end;
    let rk = a.(k) in
    let akk = rk.(k) in
    for i = k + 1 to n - 1 do
      let ri = a.(i) in
      let factor = ri.(k) /. akk in
      ri.(k) <- factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          ri.(j) <- ri.(j) -. (factor *. rk.(j))
        done
    done
  done

let lu_back_substitute a ~perm (b : vec) ~(x : vec) =
  let n = Array.length a in
  (* forward: Ly = Pb *)
  for i = 0 to n - 1 do
    let ri = a.(i) in
    let acc = ref b.(perm.(i)) in
    for j = 0 to i - 1 do
      acc := !acc -. (ri.(j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* backward: Ux = y *)
  for i = n - 1 downto 0 do
    let ri = a.(i) in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (ri.(j) *. x.(j))
    done;
    x.(i) <- !acc /. ri.(i)
  done

let lu_solve a b =
  let a = copy_mat a in
  let n = Array.length a in
  let perm = Array.make n 0 and x = Array.make n 0. in
  lu_factor a ~perm;
  lu_back_substitute a ~perm b ~x;
  x

exception No_bracket

let default_tol a b = Float.max 1e-18 (1e-13 *. Float.abs (b -. a))

let bisect ?tol ~f a b =
  let fa = f a and fb = f b in
  if fa = 0. then a
  else if fb = 0. then b
  else if fa *. fb > 0. then raise No_bracket
  else begin
    let tol = match tol with Some t -> t | None -> default_tol a b in
    let rec loop a fa b i =
      let m = 0.5 *. (a +. b) in
      if Float.abs (b -. a) <= tol || i >= 200 then m
      else
        let fm = f m in
        if fm = 0. then m
        else if fa *. fm < 0. then loop a fa m (i + 1)
        else loop m fm b (i + 1)
    in
    loop a fa b 0
  end

(* Brent's method, following the classic Numerical Recipes formulation. *)
let brent ?tol ~f a b =
  let fa = f a and fb = f b in
  if fa = 0. then a
  else if fb = 0. then b
  else if fa *. fb > 0. then raise No_bracket
  else begin
    let tol = match tol with Some t -> t | None -> default_tol a b in
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and e = ref (!b -. !a) in
    let result = ref nan in
    (try
       for _ = 1 to 100 do
         if (!fb > 0. && !fc > 0.) || (!fb < 0. && !fc < 0.) then begin
           c := !a;
           fc := !fa;
           d := !b -. !a;
           e := !d
         end;
         if Float.abs !fc < Float.abs !fb then begin
           a := !b;
           b := !c;
           c := !a;
           fa := !fb;
           fb := !fc;
           fc := !fa
         end;
         let tol1 = (2. *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
         let xm = 0.5 *. (!c -. !b) in
         if Float.abs xm <= tol1 || !fb = 0. then begin
           result := !b;
           raise Exit
         end;
         if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
           let s = !fb /. !fa in
           let p, q =
             if !a = !c then
               let p = 2. *. xm *. s in
               let q = 1. -. s in
               (p, q)
             else begin
               let q = !fa /. !fc and r = !fb /. !fc in
               let p =
                 s *. ((2. *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.)))
               in
               let q = (q -. 1.) *. (r -. 1.) *. (s -. 1.) in
               (p, q)
             end
           in
           let p, q = if p > 0. then (p, -.q) else (-.p, q) in
           let min1 = (3. *. xm *. q) -. Float.abs (tol1 *. q) in
           let min2 = Float.abs (!e *. q) in
           if 2. *. p < Float.min min1 min2 then begin
             e := !d;
             d := p /. q
           end
           else begin
             d := xm;
             e := !d
           end
         end
         else begin
           d := xm;
           e := !d
         end;
         a := !b;
         fa := !fb;
         if Float.abs !d > tol1 then b := !b +. !d
         else b := !b +. (if xm >= 0. then tol1 else -.tol1);
         fb := f !b
       done;
       result := !b
     with Exit -> ());
    !result
  end

let find_bracket ~f ~lo ~hi ~n =
  assert (n >= 1);
  let step = (hi -. lo) /. float_of_int n in
  let rec scan i x fx =
    if i >= n then None
    else
      let x' = if i = n - 1 then hi else x +. step in
      let fx' = f x' in
      if fx = 0. then Some (x, x)
      else if fx *. fx' <= 0. then Some (x, x')
      else scan (i + 1) x' fx'
  in
  scan 0 lo (f lo)

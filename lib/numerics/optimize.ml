type result1d = { x : float; fx : float; iterations : int; evaluations : int }

let invphi = (sqrt 5. -. 1.) /. 2. (* 1/phi *)

let check_interval name lo hi =
  if lo > hi then invalid_arg (Printf.sprintf "Optimize.%s: lo=%g > hi=%g" name lo hi)

let golden_section ?(tol = 1e-10) ?(max_iter = 200) f ~lo ~hi =
  check_interval "golden_section" lo hi;
  if hi -. lo <= tol then
    let x = 0.5 *. (lo +. hi) in
    { x; fx = f x; iterations = 0; evaluations = 1 }
  else begin
    let a = ref lo and b = ref hi in
    let c = ref (!b -. (invphi *. (!b -. !a))) in
    let d = ref (!a +. (invphi *. (!b -. !a))) in
    let fc = ref (f !c) and fd = ref (f !d) in
    let evals = ref 2 in
    let iter = ref 0 in
    while !b -. !a > tol && !iter < max_iter do
      incr iter;
      if !fc >= !fd then begin
        b := !d;
        d := !c;
        fd := !fc;
        c := !b -. (invphi *. (!b -. !a));
        fc := f !c
      end
      else begin
        a := !c;
        c := !d;
        fc := !fd;
        d := !a +. (invphi *. (!b -. !a));
        fd := f !d
      end;
      incr evals
    done;
    let x = if !fc >= !fd then !c else !d in
    { x; fx = Float.max !fc !fd; iterations = !iter; evaluations = !evals }
  end

(* Brent's parabolic maximization: minimize (-f). *)
let brent_max ?(tol = 1e-10) ?(max_iter = 200) f ~lo ~hi =
  check_interval "brent_max" lo hi;
  let g x = -.f x in
  let cgold = 0.381966 in
  let a = ref lo and b = ref hi in
  let x = ref (lo +. (cgold *. (hi -. lo))) in
  let w = ref !x and v = ref !x in
  let fx = ref (g !x) in
  let fw = ref !fx and fv = ref !fx in
  let d = ref 0. and e = ref 0. in
  let evals = ref 1 in
  let iter = ref 0 in
  let finished = ref false in
  while (not !finished) && !iter < max_iter do
    incr iter;
    let xm = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. 1e-12 in
    let tol2 = 2. *. tol1 in
    if Float.abs (!x -. xm) <= tol2 -. (0.5 *. (!b -. !a)) then finished := true
    else begin
      let use_golden = ref true in
      if Float.abs !e > tol1 then begin
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q = 2. *. (q -. r) in
        let p = if q > 0. then -.p else p in
        let q = Float.abs q in
        let etemp = !e in
        e := !d;
        if
          Float.abs p < Float.abs (0.5 *. q *. etemp)
          && p > q *. (!a -. !x)
          && p < q *. (!b -. !x)
        then begin
          d := p /. q;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := if xm >= !x then tol1 else -.tol1;
          use_golden := false
        end
      end;
      if !use_golden then begin
        e := (if !x >= xm then !a -. !x else !b -. !x);
        d := cgold *. !e
      end;
      let u = if Float.abs !d >= tol1 then !x +. !d else !x +. (if !d >= 0. then tol1 else -.tol1) in
      let fu = g u in
      incr evals;
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w; w := !x; x := u;
        fv := !fw; fw := !fx; fx := fu
      end
      else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w; fv := !fw;
          w := u; fw := fu
        end
        else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  { x = !x; fx = -. !fx; iterations = !iter; evaluations = !evals }

let argmax_on_grid f xs =
  if Array.length xs = 0 then invalid_arg "Optimize.argmax_on_grid: empty grid";
  let best = ref 0 in
  let values = Array.map f xs in
  for i = 1 to Array.length xs - 1 do
    if values.(i) > values.(!best) then best := i
  done;
  { x = xs.(!best); fx = values.(!best); iterations = 1; evaluations = Array.length xs }

let grid_then_brent ?(points = 33) ?(tol = 1e-10) f ~lo ~hi =
  check_interval "grid_then_brent" lo hi;
  if points < 3 then invalid_arg "Optimize.grid_then_brent: need at least 3 points";
  if hi -. lo <= tol then
    let x = 0.5 *. (lo +. hi) in
    { x; fx = f x; iterations = 0; evaluations = 1 }
  else begin
    let xs =
      Array.init points (fun i ->
          lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1)))
    in
    let coarse = argmax_on_grid f xs in
    let k = ref 0 in
    Array.iteri (fun i x -> if x = coarse.x then k := i) xs;
    let a = xs.(Stdlib.max 0 (!k - 1)) and b = xs.(Stdlib.min (points - 1) (!k + 1)) in
    (* brent_max stops once its bracket is at most 4 (rtol |x| + 1e-12)
       wide, |x| <= max |a| |b|: this rtol keeps it within [tol] *)
    let rtol =
      Float.max 0. ((tol /. 4.) -. 1e-12) /. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
    in
    let refined = brent_max ~tol:rtol f ~lo:a ~hi:b in
    let best = if refined.fx >= coarse.fx then refined else coarse in
    { best with evaluations = coarse.evaluations + refined.evaluations }
  end

let coordinate_ascent ?(tol = 1e-9) ?(max_sweeps = 200) ?points f ~lo ~hi ~x0 =
  let n = Vec.dim x0 in
  if Vec.dim lo <> n || Vec.dim hi <> n then
    invalid_arg "Optimize.coordinate_ascent: box dimension mismatch";
  let x = ref (Vec.clamp ~lo:neg_infinity ~hi:infinity (Vec.copy x0)) in
  for i = 0 to n - 1 do
    !x.(i) <- Float.min hi.(i) (Float.max lo.(i) !x.(i))
  done;
  let sweep () =
    let moved = ref 0. in
    for i = 0 to n - 1 do
      let eval xi =
        let x' = Vec.copy !x in
        x'.(i) <- xi;
        f x'
      in
      let r = grid_then_brent ?points eval ~lo:lo.(i) ~hi:hi.(i) in
      moved := Float.max !moved (Float.abs (r.x -. !x.(i)));
      !x.(i) <- r.x
    done;
    !moved
  in
  let rec loop k =
    let moved = sweep () in
    if moved <= tol || k >= max_sweeps then (!x, f !x) else loop (k + 1)
  in
  loop 1

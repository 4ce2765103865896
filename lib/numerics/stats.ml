let nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty input")

let mean xs =
  nonempty "mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  nonempty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let quantile xs p =
  nonempty "quantile" xs;
  if p < 0. || p > 1. then invalid_arg "Stats.quantile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
  end

let median xs = quantile xs 0.5

let minimum xs =
  nonempty "minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  nonempty "maximum" xs;
  Array.fold_left Float.max xs.(0) xs

let geometric_mean xs =
  nonempty "geometric_mean" xs;
  Array.iter
    (fun x -> if x <= 0. then invalid_arg "Stats.geometric_mean: non-positive entry")
    xs;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (Array.length xs))

let correlation xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.correlation: length mismatch";
  if Array.length xs < 2 then invalid_arg "Stats.correlation: need at least 2 points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0. || !syy = 0. then invalid_arg "Stats.correlation: degenerate input";
  !sxy /. sqrt (!sxx *. !syy)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

let summarize xs =
  nonempty "summarize" xs;
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    p25 = quantile xs 0.25;
    median = median xs;
    p75 = quantile xs 0.75;
    max = maximum xs;
  }

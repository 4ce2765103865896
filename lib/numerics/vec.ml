type t = float array

let make n x = Array.make n x
let init n f = Array.init n f
let zeros n = make n 0.
let ones n = make n 1.
let of_list = Array.of_list
let to_list = Array.to_list
let copy = Array.copy
let dim = Array.length

let basis n i =
  if i < 0 || i >= n then invalid_arg "Vec.basis: index out of range";
  let v = zeros n in
  v.(i) <- 1.;
  v

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let map = Array.map

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = check_dims "add" x y; map2 ( +. ) x y
let sub x y = check_dims "sub" x y; map2 ( -. ) x y
let mul x y = check_dims "mul" x y; map2 ( *. ) x y
let scale a x = map (fun xi -> a *. xi) x

let axpy a x y =
  check_dims "axpy" x y;
  Array.init (Array.length x) (fun i -> (a *. x.(i)) +. y.(i))

let neg x = map (fun xi -> -.xi) x

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let sum x = Array.fold_left ( +. ) 0. x
let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc xi -> Float.max acc (Float.abs xi)) 0. x

let dist_inf x y =
  check_dims "dist_inf" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs (x.(i) -. y.(i)))
  done;
  !acc

let nonempty name x =
  if Array.length x = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector")

let max_elt x =
  nonempty "max_elt" x;
  Array.fold_left Float.max x.(0) x

let min_elt x =
  nonempty "min_elt" x;
  Array.fold_left Float.min x.(0) x

let argmax x =
  nonempty "argmax" x;
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let argmin x =
  nonempty "argmin" x;
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) < x.(!best) then best := i
  done;
  !best

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Vec.clamp: lo > hi";
  map (fun xi -> Float.min hi (Float.max lo xi)) x

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y && dist_inf x y <= tol

type t = { rows : int; cols : int; data : float array }

let check_dims rows cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg (Printf.sprintf "Mat: dimensions must be positive (%dx%d)" rows cols)

let create ~rows ~cols x =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) x }

let init ~rows ~cols f =
  check_dims rows cols;
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let zeros ~rows ~cols = create ~rows ~cols 0.

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)

let diag v =
  let n = Vec.dim v in
  init ~rows:n ~cols:n (fun i j -> if i = j then v.(i) else 0.)

let of_rows rs =
  let rows = Array.length rs in
  if rows = 0 then invalid_arg "Mat.of_rows: no rows";
  let cols = Array.length rs.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
    rs;
  init ~rows ~cols (fun i j -> rs.(i).(j))

let rows m = m.rows
let cols m = m.cols

let check_bounds m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Mat: index (%d,%d) out of bounds for %dx%d" i j m.rows m.cols)

let get m i j =
  check_bounds m i j;
  m.data.((i * m.cols) + j)

let set m i j x =
  check_bounds m i j;
  m.data.((i * m.cols) + j) <- x

let to_rows m = Array.init m.rows (fun i -> Array.init m.cols (fun j -> get m i j))
let copy m = { m with data = Array.copy m.data }
let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)
let row m i = Array.init m.cols (fun j -> get m i j)
let col m j = Array.init m.rows (fun i -> get m i j)
let map f m = { m with data = Array.map f m.data }

let same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols
         b.rows b.cols)

let add a b =
  same_shape "add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  same_shape "sub" a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale c m = map (fun x -> c *. x) m

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul: %dx%d times %dx%d" a.rows a.cols b.rows b.cols);
  let c = zeros ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let matvec m x =
  if m.cols <> Vec.dim x then
    invalid_arg
      (Printf.sprintf "Mat.matvec: %dx%d times %d-vector" m.rows m.cols (Vec.dim x));
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. x.(j))
      done;
      !acc)

let vecmat x m = matvec (transpose m) x

let norm_inf m =
  let best = ref 0. in
  for i = 0 to m.rows - 1 do
    let acc = ref 0. in
    for j = 0 to m.cols - 1 do
      acc := !acc +. Float.abs m.data.((i * m.cols) + j)
    done;
    best := Float.max !best !acc
  done;
  !best

let norm_frobenius m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let submatrix m ~row_idx ~col_idx =
  if Array.length row_idx = 0 || Array.length col_idx = 0 then
    invalid_arg "Mat.submatrix: empty index set";
  init ~rows:(Array.length row_idx) ~cols:(Array.length col_idx) (fun i j ->
      get m row_idx.(i) col_idx.(j))

let is_square m = m.rows = m.cols

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data

type trajectory = { times : float array; states : Vec.t array }

let rk4_step ~f ~t ~dt x =
  let k1 = f t x in
  let k2 = f (t +. (dt /. 2.)) (Vec.axpy (dt /. 2.) k1 x) in
  let k3 = f (t +. (dt /. 2.)) (Vec.axpy (dt /. 2.) k2 x) in
  let k4 = f (t +. dt) (Vec.axpy dt k3 x) in
  let increment =
    Vec.add (Vec.add k1 (Vec.scale 2. k2)) (Vec.add (Vec.scale 2. k3) k4)
  in
  Vec.axpy (dt /. 6.) increment x

let integrate ?(post = fun x -> x) ~f ~t0 ~t1 ~dt x0 =
  if dt <= 0. then invalid_arg "Ode.integrate: dt must be positive";
  if t1 < t0 then invalid_arg "Ode.integrate: t1 < t0";
  let times = ref [ t0 ] in
  let states = ref [ Vec.copy x0 ] in
  let t = ref t0 in
  let x = ref (Vec.copy x0) in
  while !t < t1 -. 1e-15 do
    let h = Float.min dt (t1 -. !t) in
    x := post (rk4_step ~f ~t:!t ~dt:h !x);
    t := !t +. h;
    times := !t :: !times;
    states := Vec.copy !x :: !states
  done;
  {
    times = Array.of_list (List.rev !times);
    states = Array.of_list (List.rev !states);
  }

let final traj = traj.states.(Array.length traj.states - 1)

let converged_at ?(tol = 1e-9) traj =
  let n = Array.length traj.states in
  if n < 2 then None
  else begin
    (* find the last index where the state still moved more than tol *)
    let last_move = ref (-1) in
    for k = 0 to n - 2 do
      if Vec.dist_inf traj.states.(k + 1) traj.states.(k) > tol then last_move := k
    done;
    if !last_move = n - 2 then None
    else Some traj.times.(!last_move + 1)
  end

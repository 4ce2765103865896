open Numerics

let check_price p =
  if p < 0. || not (Float.is_finite p) then
    invalid_arg (Printf.sprintf "One_sided: price must be non-negative, got %g" p)

let state ?phi_guess sys ~price =
  check_price price;
  let solve () = System.solve ?phi_guess sys ~charges:(Vec.make (System.n_cps sys) price) in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "price.point"
      ~attrs:[ ("price", Printf.sprintf "%g" price) ]
      solve
  else solve ()

let revenue ?phi_guess sys ~price =
  let st = state ?phi_guess sys ~price in
  price *. st.System.aggregate

let population_slope sys (st : System.state) i =
  Econ.Demand.derivative sys.System.cps.(i).Econ.Cp.demand st.System.charges.(i)

let rate_slope sys (st : System.state) i =
  Econ.Throughput.derivative sys.System.cps.(i).Econ.Cp.throughput st.System.phi

let dphi_dprice sys st =
  let n = System.n_cps sys in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (population_slope sys st i *. st.System.rates.(i))
  done;
  !acc /. st.System.gap_slope

let dthroughput_dprice sys st i =
  (population_slope sys st i *. st.System.rates.(i))
  +. (st.System.populations.(i) *. rate_slope sys st i *. dphi_dprice sys st)

let daggregate_dprice sys st =
  let n = System.n_cps sys in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. dthroughput_dprice sys st i
  done;
  !acc

let condition7_margin sys st i =
  let p = st.System.charges.(i) in
  if p <= 0. then invalid_arg "One_sided.condition7_margin: requires p > 0";
  if st.System.phi <= 0. then invalid_arg "One_sided.condition7_margin: requires phi > 0";
  let eps_m_p = population_slope sys st i *. p /. st.System.populations.(i) in
  let eps_lambda_phi = rate_slope sys st i *. st.System.phi /. st.System.rates.(i) in
  let eps_phi_p = dphi_dprice sys st *. p /. st.System.phi in
  -.eps_phi_p -. (eps_m_p /. eps_lambda_phi)

(* one grid cell: solve at [price] warm-started from [guess], emit the
   revenue point and the utilization to warm-start the next cell *)
let revenue_step sys guess price =
  let st = state ~phi_guess:guess sys ~price in
  ((price, price *. st.System.aggregate), Float.max st.System.phi 1e-6)

let revenue_curve ?phi_guess ?pool ?(chunk = 8) sys ~prices =
  let guess0 = match phi_guess with Some g -> g | None -> 1. in
  match pool with
  | None -> Parallel.Pool.fold_map ~init:guess0 ~step:(revenue_step sys) prices
  | Some pool ->
    Parallel.Pool.map_chunked pool ~chunk
      ~init:(fun _ -> guess0)
      ~step:(revenue_step sys) prices

let peak_revenue ?(p_max = 5.) sys =
  if p_max <= 0. then invalid_arg "One_sided.peak_revenue: p_max must be positive";
  let r = Optimize.grid_then_brent ~points:65 (fun p -> revenue sys ~price:p) ~lo:0. ~hi:p_max in
  (r.Optimize.x, r.Optimize.fx)

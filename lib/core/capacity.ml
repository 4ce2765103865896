type pricing = Fixed_price of float | Optimal_price of { p_max : float }

type plan = {
  capacity : float;
  price : float;
  revenue : float;
  cost : float;
  profit : float;
  utilization : float;
  welfare : float;
}

let evaluate ?track sys ~pricing ~cap ~unit_cost ~capacity =
  if unit_cost < 0. then invalid_arg "Capacity.evaluate: unit_cost must be non-negative";
  let sys = System.with_capacity sys capacity in
  let point =
    match pricing with
    | Fixed_price price -> Policy.point_at sys ~price ~cap
    | Optimal_price { p_max } -> Policy.optimal_price ~p_max ~points:21 ?track sys ~cap
  in
  let cost = unit_cost *. capacity in
  {
    capacity;
    price = point.Policy.price;
    revenue = point.Policy.revenue;
    cost;
    profit = point.Policy.revenue -. cost;
    utilization = point.Policy.utilization;
    welfare = point.Policy.welfare;
  }

let optimal ?(mu_lo = 0.05) ?(mu_hi = 10.) ?(points = 13) sys ~pricing ~cap ~unit_cost =
  if mu_lo <= 0. || mu_hi <= mu_lo then
    invalid_arg "Capacity.optimal: need 0 < mu_lo < mu_hi";
  (* one continuation track for the whole capacity search: the inner
     price scans at nearby mu visit nearby equilibria *)
  let track = Numerics.Continuation.track () in
  let profit_at mu = (evaluate ~track sys ~pricing ~cap ~unit_cost ~capacity:mu).profit in
  let r = Numerics.Optimize.grid_then_brent ~points ~tol:1e-3 profit_at ~lo:mu_lo ~hi:mu_hi in
  evaluate ~track sys ~pricing ~cap ~unit_cost ~capacity:r.Numerics.Optimize.x

let investment_incentive ?mu_lo ?mu_hi ?pool sys ~pricing ~unit_cost ~caps =
  let solve cap = optimal ?mu_lo ?mu_hi sys ~pricing ~cap ~unit_cost in
  match pool with
  | None -> Array.map solve caps
  | Some pool ->
    (* each cap is an independent capacity optimization (the dominant
       cost of the capacity experiment): one task per cap *)
    Parallel.Pool.map pool ~chunk:1 solve caps

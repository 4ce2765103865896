open Numerics

type t = {
  system : System.t;
  price : float;
  cap : float;
  mutable phi_cache : float; (* warm start for the equilibrium solver *)
}

let make system ~price ~cap =
  if price < 0. || not (Float.is_finite price) then
    invalid_arg (Printf.sprintf "Subsidy_game.make: price must be non-negative, got %g" price);
  if cap < 0. || not (Float.is_finite cap) then
    invalid_arg (Printf.sprintf "Subsidy_game.make: cap must be non-negative, got %g" cap);
  { system; price; cap; phi_cache = 1. }

let system g = g.system
let price g = g.price
let cap g = g.cap

let with_price g price =
  let g' = make g.system ~price ~cap:g.cap in
  (* a price sweep walks nearby equilibria: carry the utilization warm
     start along the axis *)
  g'.phi_cache <- g.phi_cache;
  g'
let with_cap g cap = make g.system ~price:g.price ~cap
let dim g = System.n_cps g.system
let box g = Gametheory.Box.uniform ~dim:(dim g) ~lo:0. ~hi:g.cap

let check_subsidies g s =
  if Vec.dim s <> dim g then
    invalid_arg
      (Printf.sprintf "Subsidy_game: %d subsidies for %d CPs" (Vec.dim s) (dim g))

let charges g ~subsidies =
  check_subsidies g subsidies;
  Vec.map (fun si -> g.price -. si) subsidies

let state g ~subsidies =
  let charges = charges g ~subsidies in
  let st = System.solve ~phi_guess:g.phi_cache g.system ~charges in
  g.phi_cache <- Float.max st.System.phi 1e-6;
  st

let cp g i = g.system.System.cps.(i)

let utility_at g (st : System.state) i =
  let subsidy = g.price -. st.System.charges.(i) in
  Econ.Cp.utility (cp g i) ~subsidy ~throughput:st.System.throughputs.(i)

let utility g ~subsidies i =
  check_subsidies g subsidies;
  if i < 0 || i >= dim g then invalid_arg "Subsidy_game.utility: CP index out of range";
  utility_at g (state g ~subsidies) i

let resolve_state ?state:known g ~subsidies =
  match known with
  | Some st ->
    check_subsidies g subsidies;
    st
  | None -> state g ~subsidies

let utilities ?state g ~subsidies =
  let st = resolve_state ?state g ~subsidies in
  Vec.init (dim g) (fun i -> utility_at g st i)

let revenue g ~subsidies =
  let st = state g ~subsidies in
  g.price *. st.System.aggregate

let population_slope g (st : System.state) i =
  Econ.Demand.derivative (cp g i).Econ.Cp.demand st.System.charges.(i)

let rate_slope g (st : System.state) i =
  Econ.Throughput.derivative (cp g i).Econ.Cp.throughput st.System.phi

let dphi_dsubsidy g st i = -.population_slope g st i *. st.System.rates.(i) /. st.System.gap_slope

let marginal_utility_at g (st : System.state) i =
  let margin = (cp g i).Econ.Cp.value -. (g.price -. st.System.charges.(i)) in
  let direct = -.st.System.throughputs.(i) in
  let demand_gain = -.population_slope g st i *. st.System.rates.(i) in
  let congestion_loss =
    st.System.populations.(i) *. rate_slope g st i *. dphi_dsubsidy g st i
  in
  direct +. (margin *. (demand_gain +. congestion_loss))

let marginal_utility g ~subsidies i =
  check_subsidies g subsidies;
  if i < 0 || i >= dim g then
    invalid_arg "Subsidy_game.marginal_utility: CP index out of range";
  marginal_utility_at g (state g ~subsidies) i

let marginal_utilities ?state g ~subsidies =
  let st = resolve_state ?state g ~subsidies in
  Vec.init (dim g) (fun i -> marginal_utility_at g st i)

let threshold_tau g ~subsidies i =
  check_subsidies g subsidies;
  if i < 0 || i >= dim g then
    invalid_arg "Subsidy_game.threshold_tau: CP index out of range";
  let st = state g ~subsidies in
  let si = subsidies.(i) in
  let margin = (cp g i).Econ.Cp.value -. si in
  let m = st.System.populations.(i) in
  let eps_m_s = -.population_slope g st i *. si /. m in
  if
    (st.System.phi = 0.
    [@sublint.allow "NO-FLOAT-EQ"
        "exact sentinel: the zero-utilization branch of System.state assigns \
         phi = 0. literally, and rates.(i) may be 0 there"])
  then margin *. eps_m_s
  else begin
    let eps_lambda_phi =
      rate_slope g st i *. st.System.phi /. st.System.rates.(i)
    in
    let eps_phi_m = st.System.rates.(i) *. m /. (st.System.gap_slope *. st.System.phi) in
    margin *. eps_m_s *. (1. +. (eps_lambda_phi *. eps_phi_m))
  end

(* ------------------------------------------------------------------ *)
(* exact derivatives: dual passes through the analytic formulas above *)

module D2 = Dual.Order2

(* the fused best-response objective: (dU_i/ds_i, d2U_i/ds_i2) at
   (s with s_i := si), from ONE warm primal solve plus one
   second-order kernel pass — no stencils, no extra root calls *)
let fused_marginal g i s si =
  let n = dim g in
  let charges = Vec.init n (fun j -> g.price -. (if j = i then si else s.(j))) in
  let st = System.solve ~phi_guess:g.phi_cache g.system ~charges in
  g.phi_cache <- Float.max st.System.phi 1e-6;
  (* only CP i's population moves with s_i *)
  let t_i = D2.make ~v:(g.price -. si) ~d:(-1.) ~dd:0. in
  let pops =
    Array.init n (fun j ->
        if j = i then Econ.Cp.population_d2 (cp g j) t_i
        else D2.const st.System.populations.(j))
  in
  let phi =
    System.phi_d2 g.system ~populations:pops ~phi:st.System.phi
      ~gap_slope:st.System.gap_slope
  in
  let theta = D2.(pops.(i) * Econ.Cp.rate_d2 (cp g i) phi) in
  let u = D2.((const (cp g i).Econ.Cp.value - make ~v:si ~d:1. ~dd:0.) * theta) in
  (D2.d u, D2.dd u)

(* all n analytic marginals as duals seeded on the ISP price p (every
   charge moves together): the exact [du/dp] column of the Theorem-6
   sensitivity forcing term *)
let marginal_utilities_dp ?state g ~subsidies =
  let st = resolve_state ?state g ~subsidies in
  Ad.record_pass ();
  let n = dim g in
  let t = Array.init n (fun k -> Dual.make ~v:st.System.charges.(k) ~d:1.) in
  let pops = Array.init n (fun k -> Econ.Cp.population_d (cp g k) t.(k)) in
  let phi =
    System.phi_d g.system ~populations:pops ~phi:st.System.phi
      ~gap_slope:st.System.gap_slope
  in
  let slope = System.gap_slope_d g.system pops phi in
  Array.init n (fun k ->
      let cpk = cp g k in
      let m_k = pops.(k) in
      let rate_k = Econ.Cp.rate_d cpk phi in
      let pop_slope_k = Econ.Demand.slope_d cpk.Econ.Cp.demand t.(k) in
      let rate_slope_k = Econ.Throughput.slope_d cpk.Econ.Cp.throughput phi in
      let dphi_dsub_k = Dual.(neg pop_slope_k * rate_k / slope) in
      let margin = Dual.const (cpk.Econ.Cp.value -. subsidies.(k)) in
      let direct = Dual.neg Dual.(m_k * rate_k) in
      let demand_gain = Dual.(neg pop_slope_k * rate_k) in
      let congestion_loss = Dual.(m_k * rate_slope_k * dphi_dsub_k) in
      Dual.(direct + (margin * (demand_gain + congestion_loss))))

(* The marginal-utility Jacobian du_k/ds_j in its rank-two form.
   With t_k = p - s_k, M_k = v_k - s_k, G = g'(phi), demand derivatives
   m, m', m'' in t and rate derivatives lambda, lambda', lambda'' in phi,
     u_k = -m_k lambda_k - M_k m_k' lambda_k - M_k m_k m_k' lambda_k lambda_k' / G
   depends on s_j (j <> k) only through phi and G, which move by
     dphi/ds_j = w_j = -m_j' lambda_j / G
     dG/ds_j = H w_j + z_j,  z_j = lambda_j' m_j',  H = Theta'' - sum m_i lambda_i''
   so du_k/ds_j = a_k w_j + b_k z_j with b_k = du_k/dG and
   a_k = du_k/dphi + b_k H; the diagonal adds e_k, the derivative
   through t_k and M_k at fixed phi and G. One second-order kernel pass
   per CP (demand in t, rate in phi) gives every factor. *)
let marginal_jacobian_exact ?state g ~subsidies =
  let st = resolve_state ?state g ~subsidies in
  Ad.record_pass ();
  let n = dim g in
  let gs = st.System.gap_slope in
  let phi = D2.make ~v:st.System.phi ~d:1. ~dd:0. in
  let supply =
    Econ.Utilization.theta_of_d2 g.system.System.utilization ~phi
      ~mu:g.system.System.capacity
  in
  let pops =
    Array.init n (fun k ->
        Econ.Cp.population_d2 (cp g k) (D2.make ~v:st.System.charges.(k) ~d:1. ~dd:0.))
  in
  let rates = Array.init n (fun k -> Econ.Cp.rate_d2 (cp g k) phi) in
  let h = ref (D2.dd supply) in
  Array.iteri (fun k m -> h := !h -. (D2.v m *. D2.dd rates.(k))) pops;
  let h = !h in
  let diag = Array.create_float n and a = Array.create_float n and w = Array.create_float n in
  let b = Array.create_float n and z = Array.create_float n in
  for k = 0 to n - 1 do
    let m = D2.v pops.(k) and m1 = D2.d pops.(k) and m2 = D2.dd pops.(k) in
    let l = D2.v rates.(k) and l1 = D2.d rates.(k) and l2 = D2.dd rates.(k) in
    let margin = (cp g k).Econ.Cp.value -. subsidies.(k) in
    w.(k) <- -.m1 *. l /. gs;
    z.(k) <- l1 *. m1;
    b.(k) <- margin *. m *. m1 *. l *. l1 /. (gs *. gs);
    a.(k) <-
      -.(m *. l1)
      -. (margin *. m1 *. l1)
      -. (margin *. m *. m1 *. ((l1 *. l1) +. (l *. l2)) /. gs)
      +. (b.(k) *. h);
    diag.(k) <-
      (2. *. m1 *. l)
      +. (margin *. m2 *. l)
      +. (((m *. m1) +. (margin *. m1 *. m1) +. (margin *. m *. m2)) *. l *. l1 /. gs)
  done;
  { Rank2.diag; a; w; b; z }

let to_game ?respond_points ?(fused = true) g =
  Gametheory.Best_response.make
    ~marginal:(fun i s -> marginal_utility g ~subsidies:s i)
    ?fused:(if fused then Some (fun i s si -> fused_marginal g i s si) else None)
    ?respond_points
    ~box:(box g)
    ~payoff:(fun i s -> utility g ~subsidies:s i)
    ()

open Numerics

type t = {
  cps : Econ.Cp.t array;
  sys_a : System.t; (* ISP A's and ISP B's Lemma-1 systems *)
  sys_b : System.t;
  eta : float;
  cap : float;
  mutable subsidy_cache : Vec.t option; (* warm start for the CP game *)
  mutable phi_cache_a : float; (* warm starts for the two utilization solves *)
  mutable phi_cache_b : float;
}

type market = {
  prices : float * float;
  subsidies : Vec.t;
  utilizations : float * float;
  populations : Vec.t * Vec.t;
  throughputs : Vec.t;
  revenues : float * float;
  welfare : float;
}

let make ?(utilization = Econ.Utilization.linear) ?(eta = 4.) ~cps ~capacity_a
    ~capacity_b ~cap () =
  if Array.length cps = 0 then invalid_arg "Duopoly.make: no content providers";
  if capacity_a <= 0. || capacity_b <= 0. then
    invalid_arg "Duopoly.make: capacities must be positive";
  if eta <= 0. then invalid_arg "Duopoly.make: eta must be positive";
  if cap < 0. then invalid_arg "Duopoly.make: cap must be non-negative";
  let cps = Array.copy cps in
  {
    cps;
    sys_a = System.make ~utilization ~cps ~capacity:capacity_a ();
    sys_b = System.make ~utilization ~cps ~capacity:capacity_b ();
    eta;
    cap;
    subsidy_cache = None;
    phi_cache_a = 1.;
    phi_cache_b = 1.;
  }

let split_populations d ~prices ~subsidies =
  let pa, pb = prices in
  let n = Array.length d.cps in
  if Vec.dim subsidies <> n then invalid_arg "Duopoly: subsidy dimension mismatch";
  let ma = Vec.zeros n and mb = Vec.zeros n in
  Array.iteri
    (fun i cp ->
      let ta = pa -. subsidies.(i) and tb = pb -. subsidies.(i) in
      let total = Econ.Cp.population cp (Float.min ta tb) in
      (* logit with the common subsidy cancelling out of the difference *)
      let wa = exp (-.d.eta *. ta) and wb = exp (-.d.eta *. tb) in
      let share_a = wa /. (wa +. wb) in
      ma.(i) <- total *. share_a;
      mb.(i) <- total *. (1. -. share_a))
    d.cps;
  (ma, mb)

let states d ~prices ~subsidies =
  let ma, mb = split_populations d ~prices ~subsidies in
  (* carry each ISP's utilization across the many nearby solves a
     best-response sweep makes *)
  let st_a =
    System.solve_fixed_populations ~phi_guess:d.phi_cache_a d.sys_a ~populations:ma
  in
  let st_b =
    System.solve_fixed_populations ~phi_guess:d.phi_cache_b d.sys_b ~populations:mb
  in
  d.phi_cache_a <- Float.max st_a.System.phi 1e-6;
  d.phi_cache_b <- Float.max st_b.System.phi 1e-6;
  (st_a, st_b)

let total_throughputs (st_a : System.state) (st_b : System.state) =
  Vec.add st_a.System.throughputs st_b.System.throughputs

module D2 = Dual.Order2

(* fused duopoly marginal: (dU_i/ds_i, d2U_i/ds_i2) at (s with
   s_i := si) from one warm primal solve per ISP plus a second-order
   dual pass through both utilization equilibria. The logit shares are
   constant in the own subsidy (it cancels from the charge difference),
   so only CP i's total population and the two [phi] move. *)
let fused_marginal d ~prices i s si =
  let pa, pb = prices in
  let n = Array.length d.cps in
  let subsidies = Vec.init n (fun j -> if j = i then si else s.(j)) in
  let st_a, st_b = states d ~prices ~subsidies in
  let cp = d.cps.(i) in
  (* the min branch is fixed by the price difference, not by s_i *)
  let t_i = D2.make ~v:(Float.min (pa -. si) (pb -. si)) ~d:(-1.) ~dd:0. in
  let total_i = Econ.Cp.population_d2 cp t_i in
  let share_a =
    let wa = exp (-.d.eta *. (pa -. si)) and wb = exp (-.d.eta *. (pb -. si)) in
    wa /. (wa +. wb)
  in
  let seeded (st : System.state) share =
    Array.init n (fun j ->
        if j = i then D2.(const share * total_i)
        else D2.const st.System.populations.(j))
  in
  let pops_a = seeded st_a share_a and pops_b = seeded st_b (1. -. share_a) in
  let phi_a =
    System.phi_d2 d.sys_a ~populations:pops_a ~phi:st_a.System.phi
      ~gap_slope:st_a.System.gap_slope
  in
  let phi_b =
    System.phi_d2 d.sys_b ~populations:pops_b ~phi:st_b.System.phi
      ~gap_slope:st_b.System.gap_slope
  in
  let theta =
    D2.(
      (pops_a.(i) * Econ.Cp.rate_d2 cp phi_a)
      + (pops_b.(i) * Econ.Cp.rate_d2 cp phi_b))
  in
  let u = D2.((const cp.Econ.Cp.value - make ~v:si ~d:1. ~dd:0.) * theta) in
  (D2.d u, D2.dd u)

let cp_game d ~prices =
  let n = Array.length d.cps in
  let box = Gametheory.Box.uniform ~dim:n ~lo:0. ~hi:d.cap in
  let payoff i s =
    let st_a, st_b = states d ~prices ~subsidies:s in
    let theta = total_throughputs st_a st_b in
    (d.cps.(i).Econ.Cp.value -. s.(i)) *. theta.(i)
  in
  Gametheory.Best_response.make ~respond_points:17
    ~fused:(fun i s si -> fused_marginal d ~prices i s si)
    ~box ~payoff ()

let solve_subsidies d ~prices =
  let n = Array.length d.cps in
  if d.cap <= 0. then Vec.zeros n
  else begin
    let game = cp_game d ~prices in
    let x0 =
      match d.subsidy_cache with
      | Some s when Vec.dim s = n -> Vec.clamp ~lo:0. ~hi:d.cap s
      | Some _ | None -> Vec.zeros n
    in
    let out = Gametheory.Best_response.solve ~tol:1e-7 ~max_sweeps:100 game ~x0 in
    d.subsidy_cache <- Some out.Gametheory.Best_response.profile;
    out.Gametheory.Best_response.profile
  end

let market_with_subsidies d ~prices ~subsidies =
  let pa, pb = prices in
  let st_a, st_b = states d ~prices ~subsidies in
  let throughputs = total_throughputs st_a st_b in
  let welfare = ref 0. in
  Array.iteri (fun i cp -> welfare := !welfare +. (cp.Econ.Cp.value *. throughputs.(i))) d.cps;
  {
    prices;
    subsidies;
    utilizations = (st_a.System.phi, st_b.System.phi);
    populations = (st_a.System.populations, st_b.System.populations);
    throughputs;
    revenues = (pa *. st_a.System.aggregate, pb *. st_b.System.aggregate);
    welfare = !welfare;
  }

let market_at d ~prices =
  let subsidies = solve_subsidies d ~prices in
  market_with_subsidies d ~prices ~subsidies

let revenue_of d ~prices which =
  let m = market_at d ~prices in
  match which with `A -> fst m.revenues | `B -> snd m.revenues

let price_equilibrium ?(p_max = 2.5) ?(points = 13) ?(tol = 1e-4) ?(max_sweeps = 30) d =
  let box = Gametheory.Box.uniform ~dim:2 ~lo:0. ~hi:p_max in
  let payoff i (p : Vec.t) =
    revenue_of d ~prices:(p.(0), p.(1)) (if i = 0 then `A else `B)
  in
  (* no analytic price derivative: line-search responses *)
  let game = Gametheory.Best_response.make ~respond_points:points ~box ~payoff () in
  let out =
    Gametheory.Best_response.solve ~tol ~max_sweeps game
      ~x0:(Vec.make 2 (p_max /. 2.))
  in
  let p = out.Gametheory.Best_response.profile in
  market_at d ~prices:(p.(0), p.(1))

let monopoly_benchmark ?(p_max = 2.5) ?(points = 25) d =
  let revenue p =
    let m = market_at d ~prices:(p, p) in
    fst m.revenues +. snd m.revenues
  in
  let r = Optimize.grid_then_brent ~points ~tol:1e-4 revenue ~lo:0. ~hi:p_max in
  market_at d ~prices:(r.Optimize.x, r.Optimize.x)

open Numerics

type partition = { lower : int array; interior : int array; upper : int array }

let partition ?tol game ~subsidies =
  let classes = Nash.classify ?tol game ~subsidies in
  let collect want =
    let idx = ref [] in
    Array.iteri (fun i c -> if c = want then idx := i :: !idx) classes;
    Array.of_list (List.rev !idx)
  in
  {
    lower = collect Nash.Lower;
    interior = collect Nash.Interior;
    upper = collect Nash.Upper;
  }

(* solve (grad_s~ u~) x = -forcing for the interior coordinates, with
   the rank-two Jacobian [j] already in hand: Woodbury on its interior
   block *)
let interior_solve j (part : partition) ~forcing =
  Rank2.solve j ~idx:part.interior (Vec.map (fun b -> -.b) forcing)

let ds_dq ?state game ~subsidies =
  let part = partition game ~subsidies in
  let n = Subsidy_game.dim game in
  let result = Vec.zeros n in
  Array.iter (fun i -> result.(i) <- 1.) part.upper;
  if Array.length part.interior > 0 then begin
    let j = Subsidy_game.marginal_jacobian_exact ?state game ~subsidies in
    (* the capped CPs move with q one for one: the forcing on an
       interior CP is its row of J summed over them, the rank-two
       coupling of the upper indicator [result] *)
    let coupling = Rank2.couple j result in
    let forcing = Array.map (fun k -> coupling.(k)) part.interior in
    let x = interior_solve j part ~forcing in
    Array.iteri (fun idx i -> result.(i) <- x.(idx)) part.interior
  end;
  result

let ds_dp ?state game ~subsidies =
  let part = partition game ~subsidies in
  let n = Subsidy_game.dim game in
  let result = Vec.zeros n in
  if Array.length part.interior > 0 then begin
    let state = Subsidy_game.resolve_state ?state game ~subsidies in
    (* the exact du/dp forcing term: one price-seeded dual pass *)
    let dup = Subsidy_game.marginal_utilities_dp ~state game ~subsidies in
    let forcing = Array.map (fun k -> Dual.d dup.(k)) part.interior in
    let j = Subsidy_game.marginal_jacobian_exact ~state game ~subsidies in
    let x = interior_solve j part ~forcing in
    Array.iteri (fun idx i -> result.(i) <- x.(idx)) part.interior
  end;
  result

type policy_effect = {
  dp_dq : float;
  ds_dq_total : Vec.t;
  dcharge_dq : Vec.t;
  dpopulation_dq : Vec.t;
  dphi_dq : float;
  drate_dq : Vec.t;
  dthroughput_dq : Vec.t;
  dwelfare_dq : float;
}

let policy_effect ?(dp_dq = 0.) game ~subsidies =
  let n = Subsidy_game.dim game in
  let st = Subsidy_game.state game ~subsidies in
  let partial_q = ds_dq ~state:st game ~subsidies in
  let partial_p =
    if
      (dp_dq = 0.
      [@sublint.allow "NO-FLOAT-EQ"
          "exact sentinel: 0. is the ?dp_dq default meaning no price \
           passthrough; any caller-supplied derivative is used verbatim"])
    then Vec.zeros n
    else ds_dp ~state:st game ~subsidies
  in
  let ds_dq_total = Vec.axpy dp_dq partial_p partial_q in
  let dcharge_dq = Vec.init n (fun i -> dp_dq -. ds_dq_total.(i)) in
  let sys = Subsidy_game.system game in
  let dpopulation_dq =
    Vec.init n (fun i ->
        Econ.Demand.derivative sys.System.cps.(i).Econ.Cp.demand st.System.charges.(i)
        *. dcharge_dq.(i))
  in
  let dphi_dq =
    Vec.dot dpopulation_dq st.System.rates /. st.System.gap_slope
  in
  let drate_dq =
    Vec.init n (fun i ->
        Econ.Throughput.derivative sys.System.cps.(i).Econ.Cp.throughput st.System.phi
        *. dphi_dq)
  in
  let dthroughput_dq =
    Vec.init n (fun i ->
        (dpopulation_dq.(i) *. st.System.rates.(i))
        +. (st.System.populations.(i) *. drate_dq.(i)))
  in
  let dwelfare_dq =
    let acc = ref 0. in
    Array.iteri
      (fun i cp -> acc := !acc +. (cp.Econ.Cp.value *. dthroughput_dq.(i)))
      sys.System.cps;
    !acc
  in
  {
    dp_dq;
    ds_dq_total;
    dcharge_dq;
    dpopulation_dq;
    dphi_dq;
    drate_dq;
    dthroughput_dq;
    dwelfare_dq;
  }

let condition17_margin game effect ~state i =
  let q = Subsidy_game.cap game in
  let st = state in
  let t_i = st.System.charges.(i) in
  let sys = Subsidy_game.system game in
  if
    q <= 0.
    || (t_i = 0.
       [@sublint.allow "NO-FLOAT-EQ"
           "exact division guard for q /. t_i below; a tolerance would \
            misclassify small genuine charges as zero"])
    || st.System.phi <= 0.
  then effect.dthroughput_dq.(i)
  else begin
    let cp = sys.System.cps.(i) in
    let eps_t_q = effect.dcharge_dq.(i) *. q /. t_i in
    let eps_m_t =
      Econ.Demand.derivative cp.Econ.Cp.demand t_i *. t_i /. st.System.populations.(i)
    in
    let eps_lambda_phi =
      Econ.Throughput.derivative cp.Econ.Cp.throughput st.System.phi
      *. st.System.phi /. st.System.rates.(i)
    in
    let eps_phi_q = effect.dphi_dq *. q /. st.System.phi in
    -.eps_phi_q -. (eps_m_t *. eps_t_q /. eps_lambda_phi)
  end

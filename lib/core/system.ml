open Numerics

type t = {
  cps : Econ.Cp.t array;
  utilization : Econ.Utilization.t;
  capacity : float;
  rates_at_zero : Vec.t;
}

(* One kernel pass of the gap function at fixed populations: g(phi),
   g'(phi) and every CP's rate, from one rate+slope evaluation per CP.
   The pass remembers the utilization it last ran at, so the Newton
   slope at an iterate, and the solved state at the root, read the pass
   the gap evaluation there already made instead of running their own. *)
type pass = {
  populations : Vec.t;
  mutable at : float;  (** nan while no complete pass is stored *)
  mutable gap : float;
  mutable slope : float;
  rates : Vec.t;
  slopes : Vec.t;
}

type state = {
  phi : float;
  charges : Vec.t;
  populations : Vec.t;
  rates : Vec.t;
  throughputs : Vec.t;
  aggregate : float;
  gap_slope : float;
}

let make ?(utilization = Econ.Utilization.linear) ~cps ~capacity () =
  Precondition.require ~fn:"System.make" (Array.length cps > 0) "no content providers";
  if capacity <= 0. || not (Float.is_finite capacity) then
    Precondition.fail ~fn:"System.make"
      (Printf.sprintf "capacity must be positive, got %g" capacity);
  let cps = Array.copy cps in
  let rates_at_zero = Vec.init (Array.length cps) (fun i -> Econ.Cp.rate cps.(i) 0.) in
  { cps; utilization; capacity; rates_at_zero }

let n_cps sys = Array.length sys.cps

let with_capacity sys capacity = make ~utilization:sys.utilization ~cps:sys.cps ~capacity ()

let check_charges sys charges =
  if Vec.dim charges <> n_cps sys then
    Precondition.fail ~fn:"System"
      (Printf.sprintf "%d charges for %d CPs" (Vec.dim charges) (n_cps sys))

let populations_of sys charges =
  Vec.init (n_cps sys) (fun i -> Econ.Cp.population sys.cps.(i) charges.(i))

let pass_for sys populations : pass =
  let n = n_cps sys in
  {
    populations;
    at = Float.nan;
    gap = Float.nan;
    slope = Float.nan;
    rates = Array.create_float n;
    slopes = Array.create_float n;
  }

(* the stored pass is at exactly [phi]; a non-finite [phi] never
   matches, so the domain checks of a fresh pass see it *)
let holds (p : pass) phi =
  Float.is_finite phi && Int64.equal (Int64.bits_of_float phi) (Int64.bits_of_float p.at)

let run_pass sys (p : pass) phi =
  if not (holds p phi) then begin
    p.at <- Float.nan;
    let supply = Econ.Utilization.theta_of sys.utilization ~phi ~mu:sys.capacity in
    let supply_slope = Econ.Utilization.dtheta_dphi sys.utilization ~phi ~mu:sys.capacity in
    let demand = ref 0. and demand_slope = ref 0. in
    for i = 0 to Array.length sys.cps - 1 do
      Econ.Throughput.rate_slope_into sys.cps.(i).Econ.Cp.throughput phi ~rates:p.rates
        ~slopes:p.slopes i;
      demand := !demand +. (p.populations.(i) *. p.rates.(i));
      demand_slope := !demand_slope +. (p.populations.(i) *. p.slopes.(i))
    done;
    p.gap <- supply -. !demand;
    p.slope <- supply_slope -. !demand_slope;
    p.at <- phi
  end

let gap sys ~charges phi =
  check_charges sys charges;
  let p = pass_for sys (populations_of sys charges) in
  run_pass sys p phi;
  p.gap

(* g(0) from the rates cached at [make], summed in the pass's order *)
let gap_at_zero sys populations =
  let demand = ref 0. in
  Array.iteri (fun i m -> demand := !demand +. (m *. sys.rates_at_zero.(i))) populations;
  Econ.Utilization.theta_of sys.utilization ~phi:0. ~mu:sys.capacity -. !demand

let equilibrium_phi_result ?(phi_guess = 1.) sys (p : pass) =
  Obs.Trace.with_span "system.equilibrium_phi" @@ fun () ->
  let g phi =
    run_pass sys p phi;
    p.gap
  in
  let dg phi =
    run_pass sys p phi;
    p.slope
  in
  let guess = Float.max phi_guess 1e-6 in
  (* g(0) <= 0 always (zero supply, positive demand); equality means the
     market clears at zero utilization. The only exception the probe
     can raise is Invalid_argument, from the econ domain checks when the
     system state is poisoned (e.g. a non-finite capacity injected past
     System.make); that case must fall through to the robust chain,
     whose guard turns the same Invalid_argument into a typed failure
     with the full attempt history. Anything else is a genuine bug and
     propagates. A non-finite probe value falls through likewise and is
     diagnosed as Non_finite. *)
  let probe = match gap_at_zero sys p.populations with
    | g0 -> Float.is_finite g0 && g0 >= 0.
    | exception Invalid_argument _ -> false
  in
  if probe then Ok 0.
  else
    match
      Robust.root ~tol:1e-13 ~df:dg ~x0:guess ~domain:(0., Float.infinity)
        ~ctx:"utilization" g ~lo:0. ~hi:(2. *. guess)
    with
    | Ok s ->
      if Obs.Trace.enabled () then
        Obs.Trace.add_attr "phi" (Printf.sprintf "%g" s.Robust.result.Rootfind.root);
      Ok s.Robust.result.Rootfind.root
    | Error e -> Error e

(* the state at the root, from the pass made there (a root the chain
   did not evaluate last gets one more pass); the state takes over the
   pass's rates *)
let state_of sys charges (p : pass) phi =
  run_pass sys p phi;
  let throughputs = Vec.mul p.populations p.rates in
  {
    phi;
    charges;
    populations = p.populations;
    rates = p.rates;
    throughputs;
    aggregate = Vec.sum throughputs;
    gap_slope = p.slope;
  }

let solve_populations ?phi_guess sys ~charges populations =
  let p = pass_for sys populations in
  Result.map (state_of sys charges p) (equilibrium_phi_result ?phi_guess sys p)

let ok_or_raise = function Ok x -> x | Error e -> raise (Robust.Solver_error e)

let equilibrium_phi ?phi_guess sys ~charges =
  check_charges sys charges;
  ok_or_raise (equilibrium_phi_result ?phi_guess sys (pass_for sys (populations_of sys charges)))

let solve_result ?phi_guess sys ~charges =
  check_charges sys charges;
  solve_populations ?phi_guess sys ~charges:(Vec.copy charges) (populations_of sys charges)

let solve ?phi_guess sys ~charges = ok_or_raise (solve_result ?phi_guess sys ~charges)

let solve_fixed_populations ?phi_guess sys ~populations =
  Precondition.require ~fn:"System.solve_fixed_populations"
    (Vec.dim populations = n_cps sys)
    "dimension mismatch";
  Array.iter
    (fun m ->
      Precondition.require ~fn:"System.solve_fixed_populations"
        (m >= 0. && Float.is_finite m)
        "populations must be non-negative")
    populations;
  ok_or_raise
    (solve_populations ?phi_guess sys
       ~charges:(Vec.make (n_cps sys) Float.nan)
       (Vec.copy populations))

(* ------------------------------------------------------------------ *)
(* dual-field equilibria: the gap function in dual arithmetic plus
   implicit-function correction steps.

   For the root phi*(s) of g(phi, s) = 0, one correction step
   [phi <- const phi* - g(phi, s_dual) / const g_phi] evaluated in dual
   arithmetic yields the exact first-order dual part
   (phi' = -g_s / g_phi); a second step in second-order arithmetic
   replaces the second-order part with the exact
   -(g_pp phi'^2 + 2 g_ps phi' + g_ss) / g_phi. The implicit function
   theorem without hand-derived formulas: the primal solve stays the
   single Robust root call, the corrections are pure kernel passes. *)

let demand_at_d sys (populations : Dual.t array) (phi : Dual.t) =
  let acc = ref (Dual.const 0.) in
  Array.iteri
    (fun i cp -> acc := Dual.(!acc + (populations.(i) * Econ.Cp.rate_d cp phi)))
    sys.cps;
  !acc

let gap_d sys populations phi =
  Dual.(
    Econ.Utilization.theta_of_d sys.utilization ~phi ~mu:sys.capacity
    - demand_at_d sys populations phi)

let demand_at_d2 sys (populations : Dual.Order2.t array) (phi : Dual.Order2.t) =
  let acc = ref (Dual.Order2.const 0.) in
  Array.iteri
    (fun i cp ->
      acc := Dual.Order2.(!acc + (populations.(i) * Econ.Cp.rate_d2 cp phi)))
    sys.cps;
  !acc

let gap_d2 sys populations phi =
  Dual.Order2.(
    Econ.Utilization.theta_of_d2 sys.utilization ~phi ~mu:sys.capacity
    - demand_at_d2 sys populations phi)

let gap_slope_d sys (populations : Dual.t array) (phi : Dual.t) =
  let supply =
    Econ.Utilization.dtheta_dphi_d sys.utilization ~phi ~mu:sys.capacity
  in
  let demand_slope = ref (Dual.const 0.) in
  Array.iteri
    (fun i cp ->
      demand_slope :=
        Dual.(
          !demand_slope
          + (populations.(i) * Econ.Throughput.slope_d cp.Econ.Cp.throughput phi)))
    sys.cps;
  Dual.(supply - !demand_slope)

let phi_d sys ~populations ~phi ~gap_slope =
  Ad.record_pass ();
  let phi0 = Dual.const phi in
  Dual.(phi0 - (gap_d sys populations phi0 / const gap_slope))

let phi_d2 sys ~populations ~phi ~gap_slope =
  Ad.record_pass ();
  Ad.record_pass ();
  let step p = Dual.Order2.(p - (gap_d2 sys populations p / const gap_slope)) in
  step (step (Dual.Order2.const phi))

let dphi_dcapacity sys st =
  let dtheta_dmu =
    Econ.Utilization.dtheta_dmu sys.utilization ~phi:st.phi ~mu:sys.capacity
  in
  -.dtheta_dmu /. st.gap_slope

let dphi_dpopulation _sys st i = st.rates.(i) /. st.gap_slope

let rate_slope sys st i = Econ.Throughput.derivative sys.cps.(i).Econ.Cp.throughput st.phi

let dthroughput_dcapacity sys st i =
  st.populations.(i) *. rate_slope sys st i *. dphi_dcapacity sys st

let dthroughput_dpopulation sys st ~cp ~wrt =
  let dphi = dphi_dpopulation sys st wrt in
  let congestion = st.populations.(cp) *. rate_slope sys st cp *. dphi in
  if cp = wrt then st.rates.(cp) +. congestion else congestion

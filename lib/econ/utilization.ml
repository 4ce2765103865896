type spec = Linear | Power of float | Log

type t = { spec : spec }

let make spec =
  (match spec with
  | Linear | Log -> ()
  | Power k ->
    if k <= 0. || not (Float.is_finite k) then
      invalid_arg (Printf.sprintf "Utilization: power exponent must be positive, got %g" k));
  { spec }

let linear = make Linear
let power k = make (Power k)
let log_family = make Log

let check ~theta ~mu =
  if theta < 0. || not (Float.is_finite theta) then
    invalid_arg (Printf.sprintf "Utilization: throughput %g out of range" theta);
  if mu <= 0. || not (Float.is_finite mu) then
    invalid_arg (Printf.sprintf "Utilization: capacity %g out of range" mu)

let check_phi ~phi ~mu =
  if phi < 0. || not (Float.is_finite phi) then
    invalid_arg (Printf.sprintf "Utilization: utilization %g out of range" phi);
  if mu <= 0. || not (Float.is_finite mu) then
    invalid_arg (Printf.sprintf "Utilization: capacity %g out of range" mu)

let phi u ~theta ~mu =
  check ~theta ~mu;
  match u.spec with
  | Linear -> theta /. mu
  | Power k -> Float.pow (theta /. mu) k
  | Log -> log1p (theta /. mu)

(* supply-side kernel over the scalar field: [phi] is the field value,
   [mu] a parameter. [Kernel (Field.Float_s)] matches the float
   branches below operation for operation. *)
module Kernel (F : Numerics.Field.S) = struct
  open F

  let theta_of spec ~phi ~mu =
    match spec with
    | Linear -> phi * const mu
    | Power k -> const mu * pow_f phi (1. /. k)
    | Log -> const mu * expm1 phi

  let dtheta_dphi spec ~phi ~mu =
    match spec with
    | Linear -> const mu
    | Power k -> const (mu /. k) * pow_f phi ((1. /. k) -. 1.)
    | Log -> const mu * exp phi
end

module K_dual = Kernel (Numerics.Dual)
module K_dual2 = Kernel (Numerics.Dual.Order2)

let theta_of u ~phi ~mu =
  check_phi ~phi ~mu;
  match u.spec with
  | Linear -> phi *. mu
  | Power k -> mu *. Float.pow phi (1. /. k)
  | Log -> mu *. expm1 phi

let theta_of_d u ~phi ~mu =
  check_phi ~phi:(Numerics.Dual.v phi) ~mu;
  K_dual.theta_of u.spec ~phi ~mu

let theta_of_d2 u ~phi ~mu =
  check_phi ~phi:(Numerics.Dual.Order2.v phi) ~mu;
  K_dual2.theta_of u.spec ~phi ~mu

let dtheta_dphi_d u ~phi ~mu =
  check_phi ~phi:(Numerics.Dual.v phi) ~mu;
  K_dual.dtheta_dphi u.spec ~phi ~mu

let dphi_dtheta u ~theta ~mu =
  check ~theta ~mu;
  match u.spec with
  | Linear -> 1. /. mu
  | Power k -> k /. mu *. Float.pow (theta /. mu) (k -. 1.)
  | Log -> 1. /. (mu +. theta)

let dphi_dmu u ~theta ~mu =
  check ~theta ~mu;
  match u.spec with
  | Linear -> -.theta /. (mu *. mu)
  | Power k -> -.k *. theta /. (mu *. mu) *. Float.pow (theta /. mu) (k -. 1.)
  | Log -> -.theta /. (mu *. (mu +. theta))

let dtheta_dphi u ~phi ~mu =
  check_phi ~phi ~mu;
  match u.spec with
  | Linear -> mu
  | Power k -> mu /. k *. Float.pow phi ((1. /. k) -. 1.)
  | Log -> mu *. exp phi

let dtheta_dmu u ~phi ~mu =
  check_phi ~phi ~mu;
  match u.spec with
  | Linear -> phi
  | Power k -> Float.pow phi (1. /. k)
  | Log -> expm1 phi

let label u =
  match u.spec with
  | Linear -> "linear(theta/mu)"
  | Power k -> Printf.sprintf "power((theta/mu)^%g)" k
  | Log -> "log(1 + theta/mu)"

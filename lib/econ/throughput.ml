type spec =
  | Exponential of { l0 : float; beta : float }
  | Isoelastic of { l0 : float; beta : float }
  | Rational of { l0 : float; beta : float }

type t = { spec : spec }

let positive name x =
  if x <= 0. || not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Throughput: %s must be positive and finite, got %g" name x)

(* One kernel over the scalar field per family: the dual-number
   evaluators run it, so derivatives are exact by construction, and the
   float code below matches it bit for bit. *)
module Kernel (F : Numerics.Field.S) = struct
  open F

  let rate spec phi =
    match spec with
    | Exponential { l0; beta } -> const l0 * exp (neg (const beta) * phi)
    | Isoelastic { l0; beta } -> const l0 * pow_f (const 1. + phi) (-.beta)
    | Rational { l0; beta } -> const l0 / (const 1. + (const beta * phi))

  let slope spec phi =
    match spec with
    | Exponential { l0; beta } ->
      neg (const beta) * const l0 * exp (neg (const beta) * phi)
    | Isoelastic { l0; beta } ->
      neg (const beta) * const l0 * pow_f (const 1. + phi) (-.beta -. 1.)
    | Rational { l0; beta } ->
      let d = const 1. + (const beta * phi) in
      neg (const l0) * const beta / (d * d)
end

module K_dual = Kernel (Numerics.Dual)
module K_dual2 = Kernel (Numerics.Dual.Order2)

let validate = function
  | Exponential { l0; beta } | Isoelastic { l0; beta } | Rational { l0; beta } ->
    positive "l0" l0;
    positive "beta" beta

let make spec =
  validate spec;
  { spec }

let spec th = th.spec

let exponential ?(l0 = 1.) ~beta () = make (Exponential { l0; beta })
let isoelastic ?(l0 = 1.) ~beta () = make (Isoelastic { l0; beta })
let rational ?(l0 = 1.) ~beta () = make (Rational { l0; beta })

let check_phi phi =
  if phi < 0. || not (Float.is_finite phi) then
    invalid_arg (Printf.sprintf "Throughput: utilization %g out of range" phi)

(* The float kernels, per family, without the functor's closure calls
   (not inlined without flambda): [Kernel]'s operations in its order,
   so every value is bit-identical to [Kernel (Field.Float_s)]. *)
let rate th phi =
  check_phi phi;
  match th.spec with
  | Exponential { l0; beta } -> l0 *. exp (-.beta *. phi)
  | Isoelastic { l0; beta } -> l0 *. Float.pow (1. +. phi) (-.beta)
  | Rational { l0; beta } -> l0 /. (1. +. (beta *. phi))

let derivative th phi =
  check_phi phi;
  match th.spec with
  | Exponential { l0; beta } -> -.beta *. l0 *. exp (-.beta *. phi)
  | Isoelastic { l0; beta } -> -.beta *. l0 *. Float.pow (1. +. phi) (-.beta -. 1.)
  | Rational { l0; beta } ->
    let d = 1. +. (beta *. phi) in
    -.l0 *. beta /. (d *. d)

(* the Lemma-1 Newton pass needs rate and slope at every iterate: one
   evaluation writes both, bit-identical to [rate] and [derivative];
   the exponential shares its one [exp] and the rational its
   denominator. *)
let rate_slope_into th phi ~rates ~slopes i =
  check_phi phi;
  match th.spec with
  | Exponential { l0; beta } ->
    let e = exp (-.beta *. phi) in
    rates.(i) <- l0 *. e;
    slopes.(i) <- -.beta *. l0 *. e
  | Isoelastic { l0; beta } ->
    let b = 1. +. phi in
    rates.(i) <- l0 *. Float.pow b (-.beta);
    slopes.(i) <- -.beta *. l0 *. Float.pow b (-.beta -. 1.)
  | Rational { l0; beta } ->
    let d = 1. +. (beta *. phi) in
    rates.(i) <- l0 /. d;
    slopes.(i) <- -.l0 *. beta /. (d *. d)

let rate_d th phi =
  check_phi (Numerics.Dual.v phi);
  K_dual.rate th.spec phi

let slope_d th phi =
  check_phi (Numerics.Dual.v phi);
  K_dual.slope th.spec phi

let rate_d2 th phi =
  check_phi (Numerics.Dual.Order2.v phi);
  K_dual2.rate th.spec phi

let elasticity th phi =
  let l = rate th phi in
  if
    (l = 0.
    [@sublint.allow "NO-FLOAT-EQ"
        "exact division guard: the elasticity below divides by l; only an \
         exactly-zero rate is undefined"])
  then invalid_arg "Throughput.elasticity: zero rate";
  derivative th phi *. phi /. l

let scale_rate th ~kappa =
  positive "kappa" kappa;
  let spec =
    match th.spec with
    | Exponential e -> Exponential { e with l0 = kappa *. e.l0 }
    | Isoelastic e -> Isoelastic { e with l0 = kappa *. e.l0 }
    | Rational e -> Rational { e with l0 = kappa *. e.l0 }
  in
  make spec

let label th =
  match th.spec with
  | Exponential { l0; beta } -> Printf.sprintf "exp(l0=%g, beta=%g)" l0 beta
  | Isoelastic { l0; beta } -> Printf.sprintf "iso(l0=%g, beta=%g)" l0 beta
  | Rational { l0; beta } -> Printf.sprintf "rat(l0=%g, beta=%g)" l0 beta

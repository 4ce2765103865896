open Numerics
open Gametheory
open Test_helpers

let cournot_marginal c (s : Vec.t) =
  Vec.init 2 (fun i -> 1. -. (2. *. s.(i)) -. s.(1 - i) -. c)

let box2 () = Box.uniform ~dim:2 ~lo:0. ~hi:1.

let test_flow_reaches_nash () =
  let r =
    Gradient_dynamics.flow ~marginal:(cournot_marginal 0.1) ~box:(box2 ())
      ~horizon:40. ~dt:0.05 ~x0:(Vec.zeros 2) ()
  in
  check_true "stationary" r.Gradient_dynamics.stationary;
  check_close ~tol:1e-5 "x0 at Nash" 0.3 r.Gradient_dynamics.final.(0);
  check_close ~tol:1e-5 "x1 at Nash" 0.3 r.Gradient_dynamics.final.(1);
  match r.Gradient_dynamics.settled_at with
  | Some t -> check_in_range "settles early" ~lo:0. ~hi:40. t
  | None -> Alcotest.fail "expected settling"

let test_flow_respects_box () =
  (* marginal pushing hard upward: the state must stop at the bound *)
  let marginal _ = Vec.make 2 5. in
  let r =
    Gradient_dynamics.flow ~marginal ~box:(box2 ()) ~horizon:5. ~dt:0.01
      ~x0:(Vec.zeros 2) ()
  in
  check_close "pinned at hi" 1. r.Gradient_dynamics.final.(0);
  check_true "KKT-stationary at the bound" r.Gradient_dynamics.stationary

let test_vector_field_freezing () =
  let box = box2 () in
  let field = Gradient_dynamics.vector_field ~marginal:(fun _ -> Vec.make 2 (-1.)) ~box in
  let at_lower = field (Vec.zeros 2) in
  check_close "frozen at lower bound" 0. at_lower.(0);
  let interior = field (Vec.make 2 0.5) in
  check_close "free in the interior" (-1.) interior.(0)

(* RK4 evaluates the field four times a step and the final
   certificate once more: each evaluation is one call of the vector
   marginal, whatever the dimension *)
let test_one_marginal_call_per_field_evaluation () =
  let calls = ref 0 in
  let marginal s =
    incr calls;
    cournot_marginal 0.1 s
  in
  let _ =
    Gradient_dynamics.flow ~marginal ~box:(box2 ()) ~horizon:1. ~dt:0.125
      ~x0:(Vec.zeros 2) ()
  in
  Alcotest.(check int) "4 per step over 8 steps, plus the certificate" 33 !calls

let test_validation () =
  check_raises_invalid "bad horizon" (fun () ->
      Gradient_dynamics.flow ~marginal:(cournot_marginal 0.1) ~box:(box2 ())
        ~horizon:0. ~dt:0.1 ~x0:(Vec.zeros 2) ()
      |> ignore)

let prop_flow_matches_best_response =
  prop "gradient flow and best response agree on Cournot" ~count:25
    (float_range 0. 0.8)
    (fun c ->
      let star = (1. -. c) /. 3. in
      let r =
        Gradient_dynamics.flow ~marginal:(cournot_marginal c) ~box:(box2 ())
          ~horizon:60. ~dt:0.05 ~x0:(Vec.make 2 0.9) ()
      in
      Float.abs (r.Gradient_dynamics.final.(0) -. star) < 1e-4)

let suite =
  ( "gradient-dynamics",
    [
      quick "reaches Nash" test_flow_reaches_nash;
      quick "respects box" test_flow_respects_box;
      quick "field freezing" test_vector_field_freezing;
      quick "one marginal call per field evaluation"
        test_one_marginal_call_per_field_evaluation;
      quick "validation" test_validation;
      prop_flow_matches_best_response;
    ] )

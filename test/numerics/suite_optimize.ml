open Numerics
open Test_helpers

let parabola x = -.((x -. 1.3) ** 2.) (* max at 1.3 *)

let test_golden_section () =
  let r = Optimize.golden_section parabola ~lo:0. ~hi:3. in
  check_close ~tol:1e-6 "golden argmax" 1.3 r.Optimize.x;
  check_close ~tol:1e-9 "golden max" 0. r.Optimize.fx;
  check_raises_invalid "bad interval" (fun () ->
      Optimize.golden_section parabola ~lo:3. ~hi:0. |> ignore)

let test_brent_max () =
  let r = Optimize.brent_max parabola ~lo:0. ~hi:3. in
  check_close ~tol:1e-6 "brent argmax" 1.3 r.Optimize.x;
  let golden = Optimize.golden_section parabola ~lo:0. ~hi:3. in
  check_true "brent uses fewer evals" (r.Optimize.evaluations <= golden.Optimize.evaluations)

let test_boundary_maximum () =
  let f x = x in
  let r = Optimize.grid_then_brent f ~lo:0. ~hi:2. in
  check_close ~tol:1e-6 "boundary max" 2. r.Optimize.x

let test_grid_then_brent_multimodal () =
  (* two humps: global max at x ~ 3.97 *)
  let f x = sin x +. (0.4 *. sin (3. *. x)) in
  let g = Optimize.grid_then_brent ~points:65 f ~lo:0. ~hi:6. in
  let brute = Optimize.argmax_on_grid f (Grid.linspace 0. 6. 6001) in
  (* two humps are nearly tied; require matching the global VALUE *)
  check_close ~tol:1e-6 "multimodal max value" brute.Optimize.fx g.Optimize.fx

(* the refinement grid_then_brent replaced: golden section inside the
   same grid bracket *)
let grid_then_golden ~points ~tol f ~lo ~hi =
  let xs =
    Array.init points (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1)))
  in
  let coarse = Optimize.argmax_on_grid f xs in
  let k = ref 0 in
  Array.iteri (fun i x -> if x = coarse.Optimize.x then k := i) xs;
  let a = xs.(max 0 (!k - 1)) and b = xs.(min (points - 1) (!k + 1)) in
  let refined = Optimize.golden_section ~tol f ~lo:a ~hi:b in
  { refined with Optimize.evaluations = coarse.Optimize.evaluations + refined.Optimize.evaluations }

(* a tent with its peak at a kink, next to a lower hump *)
let kinked x = Float.max (-.Float.abs (x -. 1.234567)) (-0.5 -. (2. *. Float.abs (x -. 2.6)))

let test_grid_then_brent_matches_golden () =
  let tol = 1e-10 in
  List.iter
    (fun (name, f, peak) ->
      let b = Optimize.grid_then_brent ~tol f ~lo:0. ~hi:3. in
      let g = grid_then_golden ~points:33 ~tol f ~lo:0. ~hi:3. in
      check_close ~tol (name ^ ": within tol of golden") g.Optimize.x b.Optimize.x;
      check_close ~tol (name ^ ": within tol of the peak") peak b.Optimize.x)
    [ ("parabola", parabola, 1.3); ("kinked", kinked, 1.234567) ]

let test_grid_then_brent_fewer_evaluations () =
  let tol = 1e-10 in
  List.iter
    (fun (name, f) ->
      let b = Optimize.grid_then_brent ~tol f ~lo:0. ~hi:3. in
      let g = grid_then_golden ~points:33 ~tol f ~lo:0. ~hi:3. in
      check_true
        (Printf.sprintf "%s: brent %d < golden %d evaluations" name b.Optimize.evaluations
           g.Optimize.evaluations)
        (b.Optimize.evaluations < g.Optimize.evaluations))
    [ ("parabola", parabola); ("smooth", fun x -> sin x +. (0.4 *. sin (3. *. x))) ]

let test_argmax_on_grid () =
  let r = Optimize.argmax_on_grid (fun x -> -.Float.abs x) [| -2.; -1.; 3. |] in
  check_close "grid argmax" (-1.) r.Optimize.x;
  check_raises_invalid "empty grid" (fun () ->
      Optimize.argmax_on_grid (fun x -> x) [||] |> ignore)

let test_coordinate_ascent () =
  (* separable concave bowl with max at (1, -0.5) clipped to the box *)
  let f (x : Vec.t) = -.((x.(0) -. 1.) ** 2.) -. ((x.(1) +. 0.5) ** 2.) in
  let x, fx =
    Optimize.coordinate_ascent f ~lo:(Vec.of_list [ 0.; 0. ])
      ~hi:(Vec.of_list [ 2.; 2. ])
      ~x0:(Vec.of_list [ 2.; 2. ])
  in
  check_close ~tol:1e-5 "ca x0" 1. x.(0);
  check_close ~tol:1e-5 "ca x1 clipped" 0. x.(1);
  check_close ~tol:1e-4 "ca value" (-0.25) fx

let prop_golden_finds_planted_max =
  prop "golden section finds a planted quadratic max" ~count:200
    (float_range 0.2 2.8)
    (fun peak ->
      let f x = -.((x -. peak) ** 2.) in
      let r = Optimize.golden_section f ~lo:0. ~hi:3. in
      Float.abs (r.Optimize.x -. peak) < 1e-6)

let prop_grid_never_worse_than_endpoints =
  prop "grid_then_brent dominates both endpoints" ~count:100
    QCheck2.Gen.(pair (float_range (-2.) 2.) (float_range (-2.) 2.))
    (fun (a, b) ->
      let f x = (a *. sin x) +. (b *. cos (2. *. x)) in
      let r = Optimize.grid_then_brent f ~lo:(-3.) ~hi:3. in
      r.Optimize.fx >= f (-3.) -. 1e-9 && r.Optimize.fx >= f 3. -. 1e-9)

let suite =
  ( "optimize",
    [
      quick "golden section" test_golden_section;
      quick "brent max" test_brent_max;
      quick "boundary max" test_boundary_maximum;
      quick "multimodal" test_grid_then_brent_multimodal;
      quick "brent refinement matches golden" test_grid_then_brent_matches_golden;
      quick "brent refinement evaluates less" test_grid_then_brent_fewer_evaluations;
      quick "argmax on grid" test_argmax_on_grid;
      quick "coordinate ascent" test_coordinate_ascent;
      prop_golden_finds_planted_max;
      prop_grid_never_worse_than_endpoints;
    ] )

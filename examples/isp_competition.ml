(* ISP competition: Section 6 argues that if the access market is
   competitive, price regulation becomes unnecessary while subsidization
   remains attractive to every ISP. This example splits the paper's
   unit capacity across two competing ISPs and compares outcomes with
   the monopoly benchmark, with and without sponsored data.

   Run with: dune exec examples/isp_competition.exe *)

open Subsidization

let show label (m : Duopoly.market) =
  let pa, pb = m.Duopoly.prices and ra, rb = m.Duopoly.revenues in
  Printf.printf "%-28s pA=%.3f pB=%.3f  R=%.4f+%.4f  W=%.4f\n" label pa pb ra rb
    m.Duopoly.welfare

let () =
  let cps = Scenario.fig7_11_cps () in
  let market cap = Duopoly.make ~cps ~capacity_a:0.5 ~capacity_b:0.5 ~cap () in

  print_endline "Two ISPs share the paper's unit capacity; users pick the cheaper one.\n";
  show "monopoly, subsidies banned" (Duopoly.monopoly_benchmark (market 0.));
  show "duopoly, subsidies banned" (Duopoly.price_equilibrium (market 0.));
  show "monopoly, sponsored data" (Duopoly.monopoly_benchmark (market 1.));
  show "duopoly, sponsored data" (Duopoly.price_equilibrium (market 1.));

  print_newline ();
  print_endline "Competition disciplines prices without a regulator, and subsidization";
  print_endline "still raises both ISPs' revenue - the paper's Section-6 conjecture.";

(* Self-tests of the benchmark's own checks and of the open-loop
   generator (run with --self-test):
   - a daemon paused with SIGSTOP for a known interval once mid-phase
     must lift the whole-phase p99, and paused once in every window the
     windowed p99 (the reported loadgen.latency_p99_ms), to at least the
     least value the pauses allow: a request due while the daemon is
     stopped cannot be answered before it is continued, so its latency
     is at least the rest of the pause, and the same statistic over
     those lower bounds is the floor (the p99 leaves out the requests
     due in the first 1% of the phase or window, so the floor is the
     pause less about that slice);
   - a corrupted daemon answer, and a corrupted figure table cell, must
     each be counted as a failure;
   - the generator's lag p99 is reported (finite) for every phase. *)

let pause_s = 0.4

let check name ok detail =
  Printf.printf "%s %s: %s\n%!" (if ok then "PASS" else "FAIL") name detail;
  ok

let corrupt_answer (a : Openloop.answer) =
  match a.Openloop.response with
  | Some (Service.Proto.Solved { id; result }) ->
    let q = a.Openloop.item.Stream.market.Service.Proto.cap in
    let subsidies = Array.copy result.Service.Proto.subsidies in
    subsidies.(0) <- (if subsidies.(0) > q /. 2. then subsidies.(0) -. (q /. 4.) else subsidies.(0) +. (q /. 4.));
    Some { a with response = Some (Service.Proto.Solved { id; result = { result with subsidies } }) }
  | _ -> None

let serve_checks ~cli =
  Measure.with_dir "selftest" @@ fun dir ->
  let spec = Serve.cold in
  let stream = Stream.create ~seed:1 spec.Serve.mix in
  let d = Daemon.spawn ~cli ~dir ~n:0 ~jobs:1 ~journal:false in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let conn = Openloop.connect d.Daemon.socket in
  let first = Hashtbl.create 1024 in
  let rate = 500. and windows = 3 and duration = 3. in
  let phase ?actions () = Serve.run_phase ?actions conn stream ~first ~rate ~duration ~windows in
  let base, answers, verdicts, _ = phase () in
  (* each pause records when it really stopped and continued the daemon *)
  let paused starts =
    let stops = ref [] and conts = ref [] in
    let signal s times () =
      times := Obs.Clock.now () :: !times;
      Unix.kill d.Daemon.pid s
    in
    let actions =
      List.concat_map
        (fun t -> [ (t, signal Sys.sigstop stops); (t +. pause_s, signal Sys.sigcont conts) ])
        starts
    in
    let s, answers, _, ph = phase ~actions () in
    let bound due =
      List.fold_left2
        (fun acc stop cont -> if stop <= due && due < cont then Float.max acc (cont -. due) else acc)
        0. !stops !conts
    in
    let bounded =
      Array.mapi
        (fun i (a : Openloop.answer) -> { a with Openloop.latency_s = Some (bound ph.Openloop.due.(i)) })
        answers
    in
    (s, Serve.stats ~rate ~windows ~verdicts:[] ph bounded)
  in
  let once, once_floor = paused [ 1.3 ] in
  let every, every_floor = paused [ 0.3; 1.3; 2.3 ] in
  Openloop.close conn;
  let clean = List.for_all (fun v -> v = Serve.Good) verdicts in
  let corrupted =
    match List.find_map corrupt_answer (Array.to_list answers) with
    | Some bad ->
      Serve.is_wrong (Serve.verify ~first:(Hashtbl.create 1) bad)
    | None -> false
  in
  (* the floor itself must stay close to the pause, or the check would
     pass whatever the generator measured *)
  let lifted name ~paused ~floor_ms ~base =
    check name (paused >= floor_ms && floor_ms >= 0.9 *. 1e3 *. pause_s)
      (Printf.sprintf "%.2f ms paused for %.0f ms (floor %.2f ms) vs %.2f ms unpaused" paused
         (1e3 *. pause_s) floor_ms base)
  in
  let c1 = check "baseline phase verifies" clean (Printf.sprintf "%d answers" base.Serve.sent) in
  let c2 =
    lifted "one SIGSTOP lifts the whole-phase p99" ~paused:once.Serve.phase_p99_ms
      ~floor_ms:once_floor.Serve.phase_p99_ms ~base:base.Serve.phase_p99_ms
  in
  let c3 =
    lifted "a SIGSTOP per window lifts loadgen.latency_p99_ms" ~paused:every.Serve.p99_ms
      ~floor_ms:every_floor.Serve.p99_ms ~base:base.Serve.p99_ms
  in
  let c4 =
    check "lag p99 reported"
      (List.for_all (fun s -> Float.is_finite s.Serve.lag_p99_ms) [ base; once; every ])
      (String.concat ", "
         (List.map (fun s -> Printf.sprintf "%.4f ms" s.Serve.lag_p99_ms) [ base; once; every ]))
  in
  let c5 = check "corrupted answer fails verification" corrupted "one subsidy moved by q/4" in
  [ c1; c2; c3; c4; c5 ]

let figure_checks () =
  let tols = Reference.tolerances ~dir:Figures.reference_dir in
  let outcome = Experiments.Common.run (Experiments.Registry.find_exn "fig4") in
  let clean = Reference.failures ~dir:Figures.reference_dir ~tols outcome in
  let name, table = List.hd outcome.Experiments.Common.tables in
  let bad = Report.Table.make ~columns:(Report.Table.columns table) in
  List.iteri
    (fun i row ->
      Report.Table.add_row bad
        (if i = 1 then List.map (fun c -> match float_of_string_opt c with Some x -> Printf.sprintf "%.5g" (x *. 1.01 +. 1e-3) | None -> c) row
         else row))
    (Report.Table.rows table);
  let corrupted =
    Reference.failures ~dir:Figures.reference_dir ~tols
      { outcome with Experiments.Common.tables = [ (name, bad) ] }
  in
  let c1 =
    check "fig4 matches its reference" (clean = [])
      (Printf.sprintf "%d mismatches %s" (List.length clean) (String.concat "; " clean))
  in
  let c2 =
    check "corrupted figure cell fails" (corrupted <> [])
      (Printf.sprintf "%d mismatches" (List.length corrupted))
  in
  [ c1; c2 ]

let run ~cli =
  let figures = figure_checks () in
  let results = figures @ serve_checks ~cli in
  if List.for_all Fun.id results then 0 else 1

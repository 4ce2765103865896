(* The service soak: a forked daemon under >=10k randomized solve
   requests with every chaos mode injected mid-flight, asserting the
   robustness contract end to end — the daemon never crashes, every
   request is answered (solved, degraded or shed — never dropped, never
   rejected), the admission queue stays bounded, latency percentiles
   are measurable, shutdown drains cleanly, and the journal closes with
   nothing pending. `dune build @runtest-soak` runs it; SOAK_REQUESTS
   scales the load (default 10_000). *)

module P = Service.Proto
module Sv = Service.Server
module Cl = Service.Client
module J = Service.Journal
open Service_fixtures

let requests =
  match int_of_string_opt (try Sys.getenv "SOAK_REQUESTS" with Not_found -> "") with
  | Some n when n > 0 -> n
  | _ -> 10_000

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let check msg cond = if not cond then fail "%s" msg

let () =
  let socket = fresh_path ".sock" in
  let journal = fresh_path ".journal" in
  let address = Sv.Unix_path socket in
  (* no ~jobs: the daemon sizes its pool from SUBSIDIZATION_JOBS *)
  let daemon =
    Service.Fleet.start
      [ { (Sv.default_config ~address) with Sv.journal_path = Some journal; allow_chaos = true } ]
  in
  (match Service.Fleet.await address with
  | Error msg -> fail "daemon never came up: %s" msg
  | Ok probe ->
    Cl.close probe;
    let cfg =
      {
        (Service.Loadgen.default_config ~address ~requests) with
        Service.Loadgen.connections = 4;
        burst = 32;
        seed = 2014L;
        chaos_every = Some 50;
        deadline_s = Some 2.;
        timeout_s = 120.;
      }
    in
    (match Service.Loadgen.run ~on_event:print_endline cfg with
    | Error msg -> fail "loadgen failed: %s" msg
    | Ok report ->
      print_endline (Service.Loadgen.report_to_string report);
      (* the full report — counts, chaos toggles per mode, latency
         distribution — as a CSV artifact next to the soak log *)
      let csv = Filename.concat (Filename.get_temp_dir_name ()) "soak_loadgen.csv" in
      (try
         Service.Loadgen.write_csv ~path:csv report;
         Printf.printf "loadgen report written to %s\n" csv
       with Sys_error msg -> fail "loadgen csv write failed: %s" msg);
      check "every request solved, degraded or shed"
        (Service.Loadgen.report_ok report);
      check "full load was sent" (report.Service.Loadgen.sent = requests);
      check "chaos actually toggled mid-flight"
        (report.Service.Loadgen.chaos_toggles > 0);
      if report.Service.Loadgen.errors <> [] then
        List.iter (fail "transport error: %s") report.Service.Loadgen.errors);
    (* latency, queue bound and cache effectiveness are measurable in
       the daemon's own metrics *)
    (match Service.Loadgen.fetch_metrics ~prefix:"service." address with
    | Error msg -> fail "metrics fetch failed: %s" msg
    | Ok json ->
      (match Obs.Export.series_field json ~name:"service.solve.latency_s" "count" with
      | Some count when count > 0. -> ()
      | _ -> fail "no solve latency observations");
      (match Obs.Export.series_field json ~name:"service.solve.latency_s" "p99" with
      | Some p99 when Float.is_finite p99 && p99 >= 0. ->
        Printf.printf "solve latency p99: %.1f ms\n" (1000. *. p99)
      | _ -> fail "no finite latency p99");
      (match Obs.Export.series_field json ~name:"service.queue.depth" "value" with
      | Some depth when depth <= 64. -> ()
      | Some depth -> fail "queue depth %.0f above its bound" depth
      | None -> fail "no queue depth gauge");
      (match
         (Obs.Export.series_field json ~name:"service.cache.hits" "value",
          Obs.Export.series_field json ~name:"service.cache.warm_seeds" "value")
       with
      | Some hits, Some warm ->
        Printf.printf "cache: %.0f hits, %.0f warm seeds\n" hits warm;
        check "the reuse-heavy load hits the cache" (hits +. warm > 0.)
      | _ -> fail "cache counters missing"));
    (* graceful drain, clean exit, empty journal *)
    (match Cl.connect address with
    | Error e -> fail "shutdown connect failed: %s" (Cl.error_to_string e)
    | Ok client ->
      (match Cl.call client P.Shutdown with
      | Ok P.Bye -> ()
      | Ok r -> fail "shutdown answered with %s" (P.response_to_line r)
      | Error e -> fail "shutdown failed: %s" (Cl.error_to_string e));
      Cl.close client));
  (match Service.Fleet.wait daemon 0 with
  | Some (Unix.WEXITED 0) -> ()
  | Some (Unix.WEXITED code) -> fail "daemon exited with %d" code
  | Some (Unix.WSIGNALED s) -> fail "daemon died on signal %d" s
  | Some (Unix.WSTOPPED s) -> fail "daemon stopped on signal %d" s
  | None -> fail "daemon was never reaped");
  (match J.recover ~path:journal () with
  | Error msg -> fail "journal unreadable after drain: %s" msg
  | Ok r ->
    check "journal drained" (r.J.pending = []);
    Printf.printf "journal: %d acked, %d torn\n" (List.length r.J.acked) r.J.torn_lines);
  (try Sys.remove journal with Sys_error _ -> ());
  (try Sys.remove socket with Sys_error _ -> ());
  match !failures with
  | [] ->
    Printf.printf "soak OK: %d requests\n" requests;
    exit 0
  | failures ->
    List.iter (Printf.eprintf "soak FAIL: %s\n") (List.rev failures);
    exit 1

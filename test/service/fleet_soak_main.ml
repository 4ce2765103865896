(* The fleet soak: three forked shard daemons (journal + cache snapshot
   each) under a fleet-routed load with client-side network faults
   injected the whole way — dropped connections, torn mid-frame writes,
   delayed reads — plus a scripted SIGKILL of shard s0 at roughly half
   the load and a restart on the same socket/journal/snapshot at three
   quarters. The gate is the fleet robustness contract end to end:
   every request answered (zero unanswered, zero unrecovered transport
   errors), failovers actually exercised, the restarted shard back in
   rotation, every journal drained with no sequence acked twice.
   `dune build @runtest-fleet-soak` runs it; FLEET_SOAK_REQUESTS scales
   the load (default 2_000). *)

module P = Service.Proto
module Sv = Service.Server
module Cl = Service.Client
module J = Service.Journal
module Lg = Service.Loadgen
module Fleet = Service.Fleet
open Service_fixtures

let requests =
  match
    int_of_string_opt (try Sys.getenv "FLEET_SOAK_REQUESTS" with Not_found -> "")
  with
  | Some n when n > 0 -> n
  | _ -> 2_000

let shards = 3

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt
let check msg cond = if not cond then fail "%s" msg

let dir = Filename.temp_dir "fleet" ""

let configs =
  Fleet.layout ~dir ~shards
    { (Sv.default_config ~address:(Sv.Unix_path dir)) with Sv.seed = 100L }

let address i = (List.nth configs i).Sv.address

let () =
  let fleet_ring =
    match Fleet.ring configs with
    | Ok t -> t
    | Error msg ->
      prerr_endline ("fleet soak: " ^ msg);
      exit 2
  in
  (* one worker domain per shard: three shards share the box *)
  let fleet = Fleet.start ~jobs:1 configs in
  List.iteri
    (fun i _ ->
      match Fleet.await (address i) with
      | Ok c -> Cl.close c
      | Error msg -> fail "s%d never came up: %s" i msg)
    configs;
  let netfault =
    Service.Netfault.create ~drop_conn_p:0.02 ~torn_write_p:0.02
      ~delay_read_p:0.05 ~delay_s:0.002 ~seed:2014L ()
  in
  Printf.printf "fleet soak: %d requests over %d shards, chaos-net %s\n%!"
    requests shards
    (Service.Netfault.describe netfault);
  let killed = ref false and restarted = ref false in
  let on_round ~sent =
    if (not !killed) && sent >= requests / 2 then begin
      killed := true;
      Printf.printf "fleet soak: SIGKILL s0 at %d/%d sent\n%!" sent requests;
      Fleet.signal fleet 0 Sys.sigkill;
      ignore (Fleet.wait fleet 0)
    end;
    if !killed && (not !restarted) && sent >= 3 * requests / 4 then begin
      restarted := true;
      Printf.printf "fleet soak: restarting s0 at %d/%d sent\n%!" sent requests;
      Fleet.respawn fleet 0;
      match Fleet.await (address 0) with
      | Ok c -> Cl.close c
      | Error msg -> fail "restarted s0 never came up: %s" msg
    end
  in
  let cfg =
    {
      (Lg.default_config ~address:(address 0) ~requests) with
      Lg.connections = 2;
      burst = 16;
      seed = 2014L;
      timeout_s = 30.;
      fleet = Some fleet_ring;
      netfault = Some netfault;
    }
  in
  (match Lg.run ~on_event:print_endline ~on_round cfg with
  | Error msg -> fail "fleet loadgen failed: %s" msg
  | Ok report ->
    print_endline (Lg.report_to_string report);
    List.iter
      (fun (name, (s : Lg.shard_load)) ->
        Printf.printf "  shard %s: %d sent, %d answered, %.1f req/s\n" name
          s.Lg.sent s.Lg.answered s.Lg.req_s)
      report.Lg.per_shard;
    let csv = Filename.concat (Filename.get_temp_dir_name ()) "fleet_soak.csv" in
    (try
       Lg.write_csv ~path:csv report;
       Printf.printf "fleet report written to %s\n" csv
     with Sys_error msg -> fail "fleet csv write failed: %s" msg);
    check "the kill was actually scripted" !killed;
    check "the restart was actually scripted" !restarted;
    check "full load was sent" (report.Lg.sent = requests);
    check "zero unanswered requests" (report.Lg.unanswered = 0);
    check "every request solved, degraded or shed" (Lg.report_ok report);
    check "transport faults were recovered through the pool"
      (report.Lg.recovered > 0 || report.Lg.failovers > 0);
    if report.Lg.errors <> [] then
      List.iter (fail "unrecovered transport error: %s") report.Lg.errors);
  (* drain the fleet: every shard still alive answers Shutdown *)
  List.iteri
    (fun i _ ->
      match Fleet.await (address i) with
      | Error msg -> fail "s%d shutdown connect failed: %s" i msg
      | Ok client ->
        (match Cl.call client P.Shutdown with
        | Ok P.Bye -> ()
        | Ok r -> fail "s%d shutdown answered %s" i (P.response_to_line r)
        | Error e -> fail "s%d shutdown failed: %s" i (Cl.error_to_string e));
        Cl.close client)
    configs;
  List.iteri
    (fun i _ ->
      match Fleet.wait fleet i with
      | Some (Unix.WEXITED 0) | None -> ()
      | Some (Unix.WEXITED code) -> fail "s%d exited with %d" i code
      | Some (Unix.WSIGNALED s) -> fail "s%d died on signal %d" i s
      | Some (Unix.WSTOPPED s) -> fail "s%d stopped on signal %d" i s)
    configs;
  (* at-most-once per shard across the SIGKILL: journals drained, no
     sequence acked twice, and the restarted shard left a snapshot *)
  List.iteri
    (fun i (cfg : Sv.config) ->
      let journal = Option.get cfg.Sv.journal_path in
      match J.recover ~path:journal () with
      | Error msg -> fail "s%d journal unreadable: %s" i msg
      | Ok r ->
        check (Printf.sprintf "s%d journal drained" i) (r.J.pending = []);
        Hashtbl.iter
          (fun seq count ->
            if count <> 1 then fail "s%d seq %d acked %d times" i seq count)
          (ack_counts journal))
    configs;
  check "the restarted shard saved a snapshot"
    (Sys.file_exists (Option.get (List.hd configs).Sv.snapshot_path));
  remove_dir dir;
  match !failures with
  | [] ->
    Printf.printf "fleet soak OK: %d requests, one SIGKILL, one restart\n" requests;
    exit 0
  | failures ->
    List.iter (Printf.eprintf "fleet soak FAIL: %s\n") (List.rev failures);
    exit 1

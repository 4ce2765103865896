(* Sample statistics, process probes and the result line shared by
   every workload. *)

(* Numerics.Stats wants a non-empty sample; an empty one reads NaN. *)
let quantile xs q = if Array.length xs = 0 then Float.nan else Numerics.Stats.quantile xs q

let median xs = quantile xs 0.5

(* Set-up time from rounds of start-up samples: each round reads its
   fastest start and the run the median round. A start takes a few
   milliseconds, and the host's other tenants stall one start in two by
   up to 20 ms at random, so a plain median of the starts lands anywhere
   between the quiet and the stalled mode. *)
let setup_s rounds = median (Array.of_list (List.map Numerics.Stats.minimum rounds))

let starts_per_round = 3

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.equal (String.sub s i k) sub || at (i + 1)) in
  at 0

let samples xs = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") xs))

let ratio num den = if den = 0. then 0. else num /. den

(* {2 Spans} *)

(* Self time per span name: duration minus the part covered by the
   span's direct children. Spans opened on pool workers are roots. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      match s.parent with
      | Some p ->
        let d = s.stop -. s.start in
        Hashtbl.replace child_time p (d +. Option.value ~default:0. (Hashtbl.find_opt child_time p))
      | None -> ())
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let self =
        s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    spans;
  by_name

let add_into acc tbl =
  Hashtbl.iter
    (fun k v -> Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k)))
    tbl

(* {2 /proc probes} *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match read_file path with
  | None -> Float.nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      Float.nan (String.split_on_char '\n' s)

(* User+system CPU seconds of a live process (USER_HZ = 100). *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> Float.nan
  | Some s -> (
    (* the command field is parenthesised and may hold spaces *)
    let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    match String.split_on_char ' ' after with
    | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt
      :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      (float_of_string utime +. float_of_string stime) /. 100.
    | _ -> Float.nan)

let nproc () = Domain.recommended_domain_count ()

(* "5.1.1" -> 50101, so the version travels as a number *)
let ocaml_version_code () =
  match String.split_on_char '.' (List.hd (String.split_on_char '+' Sys.ocaml_version)) with
  | [ a; b; c ] -> float_of_string a *. 1e4 +. float_of_string b *. 1e2 +. float_of_string c
  | _ -> 0.

(* {2 Scratch directories inside the checkout} *)

let scratch_root = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir tag =
  let dir =
    Filename.concat scratch_root (Printf.sprintf "%s-%d-%.0f" tag (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  (match Report.Fsio.mkdir_p dir with Ok () -> () | Error msg -> failwith msg);
  dir

(* The scratch root goes too once no run is using it. *)
let with_dir tag f =
  let dir = fresh_dir tag in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.rmdir scratch_root with Sys_error _ -> ())
    (fun () -> f dir)

(* {2 Result line} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let result_json ~correct ~attempted ~failed metrics =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Num (float_of_int attempted));
      ("failed", Num (float_of_int failed));
      ( "metrics",
        Obj
          (List.map
             (fun m ->
               ( m.name,
                 Obj
                   [
                     ("value", Num m.value);
                     ("unit", Str m.unit_);
                   ] ))
             metrics) );
    ]

(* Human-readable rows first, the JSON result as the final line. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_) metrics;
  print_endline (Obs.Json.to_string (result_json ~correct ~attempted ~failed metrics))

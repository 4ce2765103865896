(* Differ for bench.v1 performance records: compares the per-figure
   measurements of two records under per-metric tolerance bands and
   reports regressions, so CI can gate perf PRs on `bench --compare`. *)

type tolerance = {
  seconds_rel : float;
  seconds_abs : float;
  counts_rel : float;
  counts_abs : float;
}

let default_tolerance =
  (* wall-clock is noisy (machine load, CPU scaling): a fast figure must
     double before it trips.  solver work counts are deterministic, so
     their band is tight — 2% plus a little slack for tiny figures. *)
  { seconds_rel = 0.5; seconds_abs = 0.1; counts_rel = 0.02; counts_abs = 64. }

type verdict = {
  figure : string;
  metric : string;
  baseline : float;
  current : float;
  floor : float;
  allowed : float;
  regressed : bool;
  stale : bool;
}

type report = {
  verdicts : verdict list;
  compared : string list;
  only_in_baseline : string list;
  only_in_current : string list;
}

let regressions r = List.filter (fun v -> v.regressed) r.verdicts
let stale r = List.filter (fun v -> v.stale) r.verdicts
let ok r = regressions r = [] && stale r = []

(* ------------------------------------------------------------------ *)
(* record parsing *)

type fig = {
  id : string;
  seconds : float option;
  root_calls : float option;
  objective_evaluations : float option;
  deriv_ad : float option;
  deriv_fd : float option;
  shared_root_calls : float option;
  shared_objective_evaluations : float option;
}

let field name json = Option.bind (Json.member name json) Json.to_float

let parse_figures json =
  match Option.bind (Json.member "figures" json) Json.to_list with
  | None -> Error "bench record has no \"figures\" array"
  | Some figs ->
    let parse j =
      match Json.member "id" j with
      | Some (Json.Str id) ->
        Some
          {
            id;
            seconds = field "seconds" j;
            root_calls = field "root_calls" j;
            objective_evaluations = field "objective_evaluations" j;
            deriv_ad = field "deriv_ad" j;
            deriv_fd = field "deriv_fd" j;
            shared_root_calls = field "shared_root_calls" j;
            shared_objective_evaluations = field "shared_objective_evaluations" j;
          }
      | _ -> None
    in
    Ok (List.filter_map parse figs)

let load_file ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.of_string text with
    | exception Json.Parse_error msg -> Error (path ^ ": " ^ msg)
    | json -> Ok json)

(* ------------------------------------------------------------------ *)
(* injection (self-test support): scale recorded seconds per figure *)

let scale_seconds json ~by =
  match by with
  | [] -> json
  | by -> (
    match json with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k <> "figures" then (k, v)
             else
               match v with
               | Json.Arr figs ->
                 ( k,
                   Json.Arr
                     (List.map
                        (fun fig ->
                          match Json.member "id" fig with
                          | Some (Json.Str id) -> (
                            match (List.assoc_opt id by, fig) with
                            | Some factor, Json.Obj ffields ->
                              Json.Obj
                                (List.map
                                   (fun (fk, fv) ->
                                     match (fk, fv) with
                                     | "seconds", Json.Num s ->
                                       (fk, Json.Num (s *. factor))
                                     | _ -> (fk, fv))
                                   ffields)
                            | _ -> fig)
                          | _ -> fig)
                        figs) )
               | _ -> (k, v))
           fields)
    | other -> other)

(* ------------------------------------------------------------------ *)
(* diffing *)

let diff ?(tolerance = default_tolerance) ~baseline ~current () =
  match (parse_figures baseline, parse_figures current) with
  | Error msg, _ -> Error ("baseline: " ^ msg)
  | _, Error msg -> Error ("current: " ^ msg)
  | Ok base_figs, Ok cur_figs ->
    let base_ids = List.map (fun f -> f.id) base_figs in
    let cur_ids = List.map (fun f -> f.id) cur_figs in
    let compared = List.filter (fun id -> List.mem id cur_ids) base_ids in
    let only_in_baseline =
      List.filter (fun id -> not (List.mem id cur_ids)) base_ids
    in
    let only_in_current =
      List.filter (fun id -> not (List.mem id base_ids)) cur_ids
    in
    (* seconds may fall freely; a deterministic count that falls out
       of its band means the baseline no longer describes the code *)
    let verdict ~two_sided figure metric ~rel ~abs b c =
      match (b, c) with
      | Some b, Some c when Float.is_finite b && Float.is_finite c ->
        let allowed = (b *. (1. +. rel)) +. abs in
        let floor = if two_sided then (b *. (1. -. rel)) -. abs else neg_infinity in
        Some
          { figure; metric; baseline = b; current = c; floor; allowed;
            regressed = c > allowed; stale = c < floor }
      | _ -> None
    in
    let count = verdict ~two_sided:true in
    let verdicts =
      List.concat_map
        (fun id ->
          let b = List.find (fun f -> f.id = id) base_figs in
          let c = List.find (fun f -> f.id = id) cur_figs in
          List.filter_map Fun.id
            [
              verdict ~two_sided:false id "seconds" ~rel:tolerance.seconds_rel
                ~abs:tolerance.seconds_abs b.seconds c.seconds;
              count id "root_calls" ~rel:tolerance.counts_rel
                ~abs:tolerance.counts_abs b.root_calls c.root_calls;
              count id "objective_evaluations" ~rel:tolerance.counts_rel
                ~abs:tolerance.counts_abs b.objective_evaluations
                c.objective_evaluations;
              (* derivative-mix counters: a deriv_fd regression means a
                 code path fell back from exact AD to stencils *)
              count id "deriv_fd" ~rel:tolerance.counts_rel
                ~abs:tolerance.counts_abs b.deriv_fd c.deriv_fd;
              (* the memoized fig7-11 sweep, attributed to each consumer *)
              count id "shared_root_calls" ~rel:tolerance.counts_rel
                ~abs:tolerance.counts_abs b.shared_root_calls c.shared_root_calls;
              count id "shared_objective_evaluations" ~rel:tolerance.counts_rel
                ~abs:tolerance.counts_abs b.shared_objective_evaluations
                c.shared_objective_evaluations;
            ])
        compared
    in
    Ok { verdicts; compared; only_in_baseline; only_in_current }

(* ------------------------------------------------------------------ *)
(* rendering *)

let table r =
  let t =
    Report.Table.make
      ~columns:
        [ "figure"; "metric"; "baseline"; "current"; "ratio"; "allowed"; "verdict" ]
  in
  List.iter
    (fun v ->
      Report.Table.add_row t
        [
          v.figure;
          v.metric;
          Printf.sprintf "%.6g" v.baseline;
          Printf.sprintf "%.6g" v.current;
          (if v.baseline > 0. then Printf.sprintf "%.2fx" (v.current /. v.baseline)
           else "-");
          (if Float.is_finite v.floor then Printf.sprintf "%.6g..%.6g" v.floor v.allowed
           else Printf.sprintf "<= %.6g" v.allowed);
          (if v.regressed then "REGRESSED" else if v.stale then "STALE" else "ok");
        ])
    r.verdicts;
  t

let summary r =
  let regs = regressions r and stale = stale r in
  let named vs = String.concat ", " (List.map (fun v -> v.figure ^ "." ^ v.metric) vs) in
  let skew =
    (match r.only_in_baseline with
    | [] -> []
    | ids -> [ Printf.sprintf "missing from current: %s" (String.concat "," ids) ])
    @
    match r.only_in_current with
    | [] -> []
    | ids -> [ Printf.sprintf "new in current: %s" (String.concat "," ids) ]
  in
  Printf.sprintf "bench compare: %d figures, %d checks, %d regressions%s%s%s"
    (List.length r.compared) (List.length r.verdicts) (List.length regs)
    (if regs = [] then "" else " (" ^ named regs ^ ")")
    (if stale = [] then ""
     else
       Printf.sprintf
         ", %d counts below their band (%s): the baseline is stale, regenerate it"
         (List.length stale) (named stale))
    (match skew with [] -> "" | s -> "; " ^ String.concat "; " s)

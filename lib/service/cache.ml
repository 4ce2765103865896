(* Content-addressed equilibrium cache. Single-domain by design: the
   server event loop is the only caller; pool workers only ever see
   the warm-start profile by value. *)

type entry = {
  price : float;
  cap : float;
  capacity : float;
  pop_fp : string;
  solved : Proto.solved;
  mutable tick : int;  (* recency stamp; larger = fresher *)
}

type stats = { hits : int; misses : int; warm_seeds : int; evictions : int }

type t = {
  limit : int;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable warm_seeds : int;
  mutable evictions : int;
  hits_c : Obs.Metrics.counter;
  misses_c : Obs.Metrics.counter;
  warm_c : Obs.Metrics.counter;
  evict_c : Obs.Metrics.counter;
  size_g : Obs.Metrics.gauge;
  snapshot_age_g : Obs.Metrics.gauge;
}

let create ~capacity =
  let limit = max 1 capacity in
  {
    limit;
    table = Hashtbl.create (min 64 (2 * limit));
    clock = 0;
    hits = 0;
    misses = 0;
    warm_seeds = 0;
    evictions = 0;
    hits_c = Obs.Metrics.counter "service.cache.hits";
    misses_c = Obs.Metrics.counter "service.cache.misses";
    warm_c = Obs.Metrics.counter "service.cache.warm_seeds";
    evict_c = Obs.Metrics.counter "service.cache.evictions";
    size_g = Obs.Metrics.gauge "service.cache.size";
    snapshot_age_g = Obs.Metrics.gauge "service.cache.snapshot_age_s";
  }

(* Canonical binary form, MD5-hashed: the IEEE-754 bits of every float,
   length-prefixed names and counts, and a tag per demand and
   throughput family, so two markets share a key iff they are
   bit-identical in every parameter. No text is rendered; a leading
   byte keeps the market and population keyspaces apart. *)
let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_cp b (cp : Econ.Cp.t) =
  add_int b (String.length cp.name);
  Buffer.add_string b cp.name;
  (match Econ.Demand.spec cp.demand with
  | Econ.Demand.Exponential { m0; alpha } ->
    Buffer.add_char b 'e';
    add_float b m0;
    add_float b alpha
  | Econ.Demand.Isoelastic { m0; alpha; scale } ->
    Buffer.add_char b 'i';
    add_float b m0;
    add_float b alpha;
    add_float b scale
  | Econ.Demand.Logit { m0; slope; midpoint } ->
    Buffer.add_char b 'l';
    add_float b m0;
    add_float b slope;
    add_float b midpoint);
  (match Econ.Throughput.spec cp.throughput with
  | Econ.Throughput.Exponential { l0; beta } ->
    Buffer.add_char b 'e';
    add_float b l0;
    add_float b beta
  | Econ.Throughput.Isoelastic { l0; beta } ->
    Buffer.add_char b 'i';
    add_float b l0;
    add_float b beta
  | Econ.Throughput.Rational { l0; beta } ->
    Buffer.add_char b 'r';
    add_float b l0;
    add_float b beta);
  add_float b cp.value

let digest ~knobs (m : Proto.market) =
  let b = Buffer.create (32 + (64 * Array.length m.cps)) in
  if knobs then begin
    Buffer.add_char b 'M';
    add_float b m.capacity;
    add_float b m.price;
    add_float b m.cap
  end
  else Buffer.add_char b 'P';
  add_int b (Array.length m.cps);
  Array.iter (add_cp b) m.cps;
  Digest.to_hex (Digest.string (Buffer.contents b))

let population_fingerprint m = digest ~knobs:false m

let fingerprint m = digest ~knobs:true m

let touch t entry =
  t.clock <- t.clock + 1;
  entry.tick <- t.clock

let find t ~fingerprint =
  match Hashtbl.find_opt t.table fingerprint with
  | Some entry ->
    touch t entry;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr t.hits_c;
    Some { entry.solved with Proto.cache = Proto.Hit }
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr t.misses_c;
    None

(* Nearest same-population entry under a normalized L2 distance over
   the three scalar knobs; relative normalization keeps a price sweep
   and a capacity sweep comparable. *)
let distance entry (m : Proto.market) =
  let d a b = (a -. b) /. Float.max 1. (Float.abs a +. Float.abs b) in
  let dp = d entry.price m.price
  and dq = d entry.cap m.cap
  and dc = d entry.capacity m.capacity in
  (dp *. dp) +. (dq *. dq) +. (dc *. dc)

let warm_start t (m : Proto.market) =
  let pop = population_fingerprint m in
  let best =
    Hashtbl.fold
      (fun _ entry acc ->
        if String.equal entry.pop_fp pop then
          let dist = distance entry m in
          match acc with
          | Some (_, best_dist) when best_dist <= dist -> acc
          | _ -> Some (entry, dist)
        else acc)
      t.table None
  in
  match best with
  | None -> None
  | Some (entry, _) ->
    t.warm_seeds <- t.warm_seeds + 1;
    Obs.Metrics.incr t.warm_c;
    Some (Array.copy entry.solved.Proto.subsidies)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun fp entry acc ->
        match acc with
        | Some (_, tick) when tick <= entry.tick -> acc
        | _ -> Some (fp, entry.tick))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (fp, _) ->
    Hashtbl.remove t.table fp;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.incr t.evict_c

let store t ~market ~fingerprint solved =
  let entry =
    {
      price = market.Proto.price;
      cap = market.Proto.cap;
      capacity = market.Proto.capacity;
      pop_fp = population_fingerprint market;
      solved = { solved with Proto.cache = Proto.Hit };
      tick = 0;
    }
  in
  touch t entry;
  if not (Hashtbl.mem t.table fingerprint) && Hashtbl.length t.table >= t.limit
  then evict_lru t;
  Hashtbl.replace t.table fingerprint entry;
  Obs.Metrics.set t.size_g (float_of_int (Hashtbl.length t.table))

let size t = Hashtbl.length t.table

(* {2 Snapshot persistence}

   One cache.v2 JSON document: every entry in recency order (oldest
   first), the solved payload in the exact wire shape. Written
   atomically and durably — a torn snapshot after a crash would turn
   the warm start into a cold one, which is exactly the failure the
   snapshot exists to avoid.

   The entries carry fingerprints but not the CPs they were derived
   from, so a snapshot is only valid under the key scheme that wrote
   it: cache.v1 held the older text-rendered keys, which nothing can
   match any more, and is refused rather than loaded. *)

let schema = "cache.v2"

let entry_json fp (e : entry) =
  Obs.Json.Obj
    [
      ("fp", Obs.Json.Str fp);
      ("price", Obs.Json.Num e.price);
      ("cap", Obs.Json.Num e.cap);
      ("capacity", Obs.Json.Num e.capacity);
      ("pop_fp", Obs.Json.Str e.pop_fp);
      ("tick", Obs.Json.Num (float_of_int e.tick));
      ("solved", Proto.solved_to_json e.solved);
    ]

let save t ~path =
  let entries =
    Hashtbl.fold (fun fp e acc -> (fp, e) :: acc) t.table []
    |> List.sort (fun (_, a) (_, b) -> compare a.tick b.tick)
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str schema);
        ("saved_unix", Obs.Json.Num (Obs.Clock.now ()));
        ("entries", Obs.Json.Arr (List.map (fun (fp, e) -> entry_json fp e) entries));
      ]
  in
  match
    Report.Fsio.write_atomic ~durable:true ~path (fun oc ->
        output_string oc (Obs.Json.to_string doc);
        output_char oc '\n')
  with
  | Error _ as e -> e
  | Ok () ->
    Obs.Metrics.set t.snapshot_age_g 0.;
    Ok (List.length entries)

let str_member name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "cache snapshot: missing string %S" name)

let num_member name json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Num x) -> Ok x
  | _ -> Error (Printf.sprintf "cache snapshot: missing number %S" name)

let entry_of_json json =
  let ( let* ) = Result.bind in
  let* fp = str_member "fp" json in
  let* price = num_member "price" json in
  let* cap = num_member "cap" json in
  let* capacity = num_member "capacity" json in
  let* pop_fp = str_member "pop_fp" json in
  let* tick = num_member "tick" json in
  let* solved =
    match Obs.Json.member "solved" json with
    | Some s -> Proto.solved_of_json s
    | None -> Error "cache snapshot: entry without solved payload"
  in
  Ok
    ( fp,
      {
        price;
        cap;
        capacity;
        pop_fp;
        solved = { solved with Proto.cache = Proto.Hit };
        tick = int_of_float tick;
      } )

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in_noerr ic;
  s

type loaded = { entries : int; age_s : float }

let load_into t ~path =
  if not (Sys.file_exists path) then Ok { entries = 0; age_s = 0. }
  else
    match read_file path with
    | exception Sys_error msg -> Error ("cache snapshot: " ^ msg)
    | content -> (
      match Obs.Json.of_string content with
      | exception Obs.Json.Parse_error msg ->
        Error ("cache snapshot: unparsable: " ^ msg)
      | json -> (
        match (str_member "schema" json, Obs.Json.member "entries" json) with
        | Ok v, Some (Obs.Json.Arr items) when String.equal v schema -> (
          let rec parse acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest -> (
              match entry_of_json item with
              | Ok e -> parse (e :: acc) rest
              | Error _ as err -> err)
          in
          match parse [] items with
          | Error _ as e -> e
          | Ok entries ->
            (* oldest snapshot tick first: re-touching in that order
               reproduces the relative LRU order under the live clock *)
            let entries =
              List.sort (fun (_, a) (_, b) -> compare a.tick b.tick) entries
            in
            List.iter
              (fun (fp, e) ->
                touch t e;
                if
                  (not (Hashtbl.mem t.table fp))
                  && Hashtbl.length t.table >= t.limit
                then evict_lru t;
                Hashtbl.replace t.table fp e)
              entries;
            Obs.Metrics.set t.size_g (float_of_int (Hashtbl.length t.table));
            let age_s =
              match num_member "saved_unix" json with
              | Ok saved -> Float.max 0. (Obs.Clock.now () -. saved)
              | Error _ -> 0.
            in
            Obs.Metrics.set t.snapshot_age_g age_s;
            Ok { entries = List.length entries; age_s })
        | Ok v, _ when String.equal v schema ->
          Error "cache snapshot: missing entries array"
        | Ok other, _ ->
          Error
            (Printf.sprintf "cache snapshot: unknown schema %s (expected %s)" other
               schema)
        | Error msg, _ -> Error msg))

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    warm_seeds = t.warm_seeds;
    evictions = t.evictions;
  }

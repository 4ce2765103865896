type labels = (string * string) list

let normalize labels = List.stable_sort (fun (a, _) (b, _) -> compare a b) labels

let labels_to_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let label labels k = List.assoc_opt k labels

(* ------------------------------------------------------------------ *)
(* buckets *)

(* log-scale buckets: [buckets_per_decade] per factor of 10 over
   [10^lo_exp, 10^hi_exp); everything below (incl. <= 0) is underflow,
   everything above is clamped into the last bucket *)
let buckets_per_decade = 24
let lo_exp = -9
let hi_exp = 9
let n_buckets = (hi_exp - lo_exp) * buckets_per_decade
let underflow_below = Float.pow 10. (float_of_int lo_exp)

let bucket_index x =
  let i =
    int_of_float
      (Float.floor ((Float.log10 x -. float_of_int lo_exp) *. float_of_int buckets_per_decade))
  in
  (* clamp both ends: at a decade boundary (e.g. exactly 1e-9) log10 can
     round a hair below lo_exp, which used to index at -1 *)
  if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let bucket_lower i =
  Float.pow 10.
    (float_of_int lo_exp +. (float_of_int i /. float_of_int buckets_per_decade))

let bucket_upper i = bucket_lower (i + 1)

let bucket_center i =
  Float.pow 10.
    (float_of_int lo_exp +. ((float_of_int i +. 0.5) /. float_of_int buckets_per_decade))

(* ------------------------------------------------------------------ *)
(* blocks: one flat float array per (domain, series) *)

(* a counter's block is its one total; a histogram's block is laid out
   as below, counts stored as floats (exact below 2^53) so that every
   update is an unboxed store *)
let h_count = 0
let h_sum = 1
let h_min = 2
let h_max = 3
let h_underflow = 4
let h_bucket0 = 5
let hist_width = h_bucket0 + n_buckets

let clear_block b =
  Float.Array.fill b 0 (Float.Array.length b) 0.;
  if Float.Array.length b = hist_width then begin
    Float.Array.set b h_min Float.infinity;
    Float.Array.set b h_max Float.neg_infinity
  end

let fresh_block width =
  let b = Float.Array.make width 0. in
  clear_block b;
  b

(* fold [src] into [into]; both have the same width *)
let merge_block ~into src =
  if Float.Array.length src = hist_width then begin
    Float.Array.iteri
      (fun i v ->
        if i <> h_min && i <> h_max then
          Float.Array.set into i (Float.Array.get into i +. v))
      src;
    Float.Array.set into h_min
      (Float.min (Float.Array.get into h_min) (Float.Array.get src h_min));
    Float.Array.set into h_max
      (Float.max (Float.Array.get into h_max) (Float.Array.get src h_max))
  end
  else Float.Array.set into 0 (Float.Array.get into 0 +. Float.Array.get src 0)

(* A domain's shard: [blocks.(id)] is its block for series [id], or the
   empty array until the domain first writes that series. Only the
   owning domain replaces [blocks] or fills a slot, and only under
   [lock]; its own writers then read them without the lock, while other
   domains read them under it. *)
type shard = { mutable blocks : Float.Array.t array }

let empty = Float.Array.create 0

(* ------------------------------------------------------------------ *)
(* registry *)

type counter = int
type gauge = float ref
type histogram = int

(* counters and histograms are a series id into every shard; gauges
   keep one locked cell (last write wins) *)
type cell = C | G of gauge | H

type series = { name : string; labels : labels; id : int; cell : cell }

(* one process-wide lock covers the table, the shard list, the retired
   shard, every shard's structure (not its block contents) and the
   gauges; writers of counters and histograms never take it after a
   domain's first write to a series *)
let lock = Mutex.create ()

let locked f = Mutex.protect lock f

(* ids are dense: a series' id is the table size when it registered *)
let registry : (string * labels, series) Hashtbl.t =
  Hashtbl.create 64
[@@sync "every access (register, reads, reset) goes through [lock]"]

(* shards of domains that have written since they started and not yet
   exited *)
let live : shard list ref = ref []
[@@sync "attach, retire and every read go through [lock]"]

(* the folded blocks of exited domains *)
let retired = { blocks = [||] }
[@@sync "retire folds into it and readers merge it under [lock]"]

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { blocks = [||] })

let block_slot_unlocked sh id width =
  let n = Array.length sh.blocks in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) empty in
    Array.blit sh.blocks 0 grown 0 n;
    sh.blocks <- grown
  end;
  let b = sh.blocks.(id) in
  if Float.Array.length b > 0 then b
  else begin
    let b = fresh_block width in
    sh.blocks.(id) <- b;
    b
  end

(* fold an exiting domain's blocks into [retired] and drop its shard
   from [live]; a write after this (a later exit hook) attaches the
   shard afresh, so no count is lost *)
let retire sh =
  locked (fun () ->
      Array.iteri
        (fun id b ->
          if Float.Array.length b > 0 then
            merge_block ~into:(block_slot_unlocked retired id (Float.Array.length b)) b)
        sh.blocks;
      live := List.filter (fun s -> s != sh) !live;
      sh.blocks <- [||])

(* slow path of a domain's first write to a series *)
let attach sh id width =
  locked (fun () ->
      if not (List.memq sh !live) then begin
        live := sh :: !live;
        Domain.at_exit (fun () -> retire sh)
      end;
      block_slot_unlocked sh id width)

(* the calling domain's block for series [id]: no lock, no allocation
   once the block exists *)
let block id width =
  let sh = Domain.DLS.get shard_key in
  let blocks = sh.blocks in
  if id < Array.length blocks then begin
    let b = blocks.(id) in
    if Float.Array.length b > 0 then b else attach sh id width
  end
  else attach sh id width

(* every shard's block for [id], the retired shard first *)
let fold_blocks_unlocked id f acc =
  let visit acc sh =
    if id < Array.length sh.blocks then begin
      let b = sh.blocks.(id) in
      if Float.Array.length b > 0 then f acc b else acc
    end
    else acc
  in
  List.fold_left visit (visit acc retired) !live

let counter_total_unlocked id =
  fold_blocks_unlocked id (fun acc b -> acc +. Float.Array.get b 0) 0.

let merged_hist_unlocked id =
  let m = fresh_block hist_width in
  fold_blocks_unlocked id (fun () b -> merge_block ~into:m b) ();
  m

let kind_name = function C -> "counter" | G _ -> "gauge" | H -> "histogram"

let register name labels make match_cell =
  let labels = normalize labels in
  let outcome =
    locked (fun () ->
        match Hashtbl.find_opt registry (name, labels) with
        | Some s -> (
          match match_cell s with
          | Some v -> Ok v
          | None -> Error (kind_name s.cell))
        | None ->
          let id = Hashtbl.length registry in
          let v, cell = make id in
          Hashtbl.add registry (name, labels) { name; labels; id; cell };
          Ok v)
  in
  match outcome with
  | Ok v -> v
  | Error kind ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s{%s} already registered as a %s" name
         (labels_to_string labels) kind)

let counter ?(labels = []) name : counter =
  register name labels
    (fun id -> (id, C))
    (fun s -> match s.cell with C -> Some s.id | _ -> None)

let incr ?(by = 1.) (c : counter) =
  let b = block c 1 in
  Float.Array.set b 0 (Float.Array.get b 0 +. by)

let counter_value (c : counter) = locked (fun () -> counter_total_unlocked c)

let gauge ?(labels = []) name : gauge =
  register name labels
    (fun _ ->
      let r = ref 0. in
      (r, G r))
    (fun s -> match s.cell with G r -> Some r | _ -> None)

let set (g : gauge) v = locked (fun () -> g := v)

let histogram ?(labels = []) name : histogram =
  register name labels
    (fun id -> (id, H))
    (fun s -> match s.cell with H -> Some s.id | _ -> None)

let observe (h : histogram) x =
  if Float.is_finite x then begin
    let b = block h hist_width in
    Float.Array.set b h_count (Float.Array.get b h_count +. 1.);
    Float.Array.set b h_sum (Float.Array.get b h_sum +. x);
    if x < Float.Array.get b h_min then Float.Array.set b h_min x;
    if x > Float.Array.get b h_max then Float.Array.set b h_max x;
    let slot = if x < underflow_below then h_underflow else h_bucket0 + bucket_index x in
    Float.Array.set b slot (Float.Array.get b slot +. 1.)
  end

(* ------------------------------------------------------------------ *)
(* reading a merged histogram block *)

let count_at m slot = int_of_float (Float.Array.get m slot)

(* Geometric within-bucket interpolation: find the bucket holding the
   target rank, then place the estimate at lower * (upper/lower)^frac
   where frac is the rank's position inside the bucket's mass.  This is
   exact for point masses sitting on a bucket edge (after the min/max
   clamp) and removes the half-bucket bias the old center-of-bucket
   answer had at boundaries. *)
let percentile_of m p =
  let count = count_at m h_count in
  let minimum = Float.Array.get m h_min and maximum = Float.Array.get m h_max in
  if count = 0 then Float.nan
  else if p <= 0. then minimum
  else if p >= 100. then maximum
  else begin
    let target = p /. 100. *. float_of_int count in
    let clamp v = Float.max minimum (Float.min maximum v) in
    let underflow = Float.Array.get m h_underflow in
    if target <= underflow then minimum
    else begin
      let cum = ref underflow in
      let answer = ref maximum in
      (try
         for i = 0 to n_buckets - 1 do
           let c = Float.Array.get m (h_bucket0 + i) in
           if c > 0. && !cum +. c >= target then begin
             let frac = (target -. !cum) /. c in
             answer :=
               bucket_lower i
               *. Float.pow 10. (frac /. float_of_int buckets_per_decade);
             raise Exit
           end;
           cum := !cum +. c
         done
       with Exit -> ());
      clamp !answer
    end
  end

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list;
  buckets_le : (float * int) list;
}

let summary_of m =
  let count = count_at m h_count and underflow = count_at m h_underflow in
  let bucket i = count_at m (h_bucket0 + i) in
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if bucket i > 0 then buckets := (bucket_center i, bucket i) :: !buckets
  done;
  let buckets = if underflow > 0 then (0., underflow) :: !buckets else !buckets in
  let les = ref [] in
  let cum = ref underflow in
  for i = 0 to n_buckets - 1 do
    if bucket i > 0 then begin
      cum := !cum + bucket i;
      les := (bucket_upper i, !cum) :: !les
    end
  done;
  let buckets_le =
    if underflow > 0 then (bucket_lower 0, underflow) :: List.rev !les
    else List.rev !les
  in
  {
    count;
    sum = Float.Array.get m h_sum;
    min = (if count = 0 then Float.nan else Float.Array.get m h_min);
    max = (if count = 0 then Float.nan else Float.Array.get m h_max);
    p50 = percentile_of m 50.;
    p90 = percentile_of m 90.;
    p99 = percentile_of m 99.;
    buckets;
    buckets_le;
  }

let percentile h p = percentile_of (locked (fun () -> merged_hist_unlocked h)) p
let summarize h = summary_of (locked (fun () -> merged_hist_unlocked h))

(* ------------------------------------------------------------------ *)
(* reading the registry *)

type read = Counter of float | Gauge of float | Histogram of summary

let read_unlocked s =
  match s.cell with
  | C -> Counter (counter_total_unlocked s.id)
  | G r -> Gauge !r
  | H -> Histogram (summary_of (merged_hist_unlocked s.id))

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let snapshot ?(prefix = "") () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ s acc ->
          if has_prefix prefix s.name then (s.name, s.labels, read_unlocked s) :: acc
          else acc)
        registry [])
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

let sum_counters ?(where = fun _ -> true) name =
  locked (fun () ->
      Hashtbl.fold
        (fun _ s acc ->
          match s.cell with
          | C when s.name = name && where s.labels -> acc +. counter_total_unlocked s.id
          | _ -> acc)
        registry 0.)

let sum_histograms ?(where = fun _ -> true) name =
  locked (fun () ->
      Hashtbl.fold
        (fun _ s acc ->
          match s.cell with
          | H when s.name = name && where s.labels ->
            fold_blocks_unlocked s.id (fun acc b -> acc +. Float.Array.get b h_sum) acc
          | _ -> acc)
        registry 0.)

(* writers racing a reset may land an update on either side of it *)
let reset ?(prefix = "") () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ s ->
          if has_prefix prefix s.name then
            match s.cell with
            | G r -> r := 0.
            | C | H -> fold_blocks_unlocked s.id (fun () b -> clear_block b) ())
        registry)

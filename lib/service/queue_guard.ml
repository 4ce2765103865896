type 'a t = {
  limit : int;
  q : 'a Queue.t;
  mutable shed : int;
  depth_g : Obs.Metrics.gauge;
  shed_c : Obs.Metrics.counter;
}

type 'a admit = Admitted | Refused of { depth : int; capacity : int }

let create ~capacity =
  {
    limit = max 1 capacity;
    q = Queue.create ();
    shed = 0;
    depth_g = Obs.Metrics.gauge "service.queue.depth";
    shed_c = Obs.Metrics.counter "service.queue.shed";
  }

let depth t = Queue.length t.q
let shed_count t = t.shed

let admit t item =
  let d = Queue.length t.q in
  if d >= t.limit then begin
    t.shed <- t.shed + 1;
    Obs.Metrics.incr t.shed_c;
    Refused { depth = d; capacity = t.limit }
  end
  else begin
    Queue.add item t.q;
    Obs.Metrics.set t.depth_g (float_of_int (d + 1));
    Admitted
  end

let take ?max:bound t =
  let n =
    match bound with None -> Queue.length t.q | Some m -> min m (Queue.length t.q)
  in
  let rec go k acc =
    if k <= 0 then List.rev acc else go (k - 1) (Queue.pop t.q :: acc)
  in
  let items = go n [] in
  Obs.Metrics.set t.depth_g (float_of_int (Queue.length t.q));
  items

(** Bounded admission queue.

    The server admits decoded solve requests here before batching them
    onto the worker pool. The bound is the backpressure contract: when
    [depth = capacity] the next admit is refused with the observed
    depth, which the server turns into a typed {!Proto.response.Shed}
    answer — the client learns immediately instead of waiting on an
    unbounded backlog, and server memory stays bounded under any load.

    Single-domain (event-loop only), like {!Cache}. Depth is exported
    as the [service.queue.depth] gauge and sheds as the
    [service.queue.shed] counter. *)

type 'a t

val create : capacity:int -> 'a t
(** Non-positive capacities are clamped to 1. *)

type 'a admit = Admitted | Refused of { depth : int; capacity : int }

val admit : 'a t -> 'a -> 'a admit

val take : ?max:int -> 'a t -> 'a list
(** Dequeue up to [max] items (default: everything), FIFO. *)

val depth : 'a t -> int
val shed_count : 'a t -> int

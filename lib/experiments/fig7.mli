(** Figure 7: ISP revenue [R] (left) and system welfare [W] (right) vs
    price, one curve per policy level [q in {0, 0.5, 1, 1.5, 2}].
    Expected shapes: at fixed [p], both [R] and [W] nondecreasing in
    [q] (Corollary 1); at fixed [q], [W] decreasing in [p] over the
    bulk of the range. *)

val experiment : Common.t

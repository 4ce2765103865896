(** Descriptive statistics over float arrays. Inputs must be non-empty
    unless stated otherwise. *)

val mean : float array -> float

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs p] with [p in [0,1]], linear interpolation between
    order statistics. Does not mutate the input. *)

val median : float array -> float

val minimum : float array -> float

val maximum : float array -> float

val geometric_mean : float array -> float
(** Requires strictly positive entries. *)

val correlation : float array -> float array -> float
(** Pearson correlation; requires equal lengths of at least 2 and
    non-degenerate inputs. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

val summarize : float array -> summary

(** Order statistics over latency samples. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; linear interpolation between
    closest ranks.  @raise Invalid_argument on the empty array. *)

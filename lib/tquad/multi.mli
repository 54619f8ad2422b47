(** Multi-pass bandwidth averaging.

    Table IV's note: "the average memory bandwidth usage is calculated over
    several passes with different time slices" — slice boundaries introduce
    quantization effects (a kernel active for a sliver of a slice is charged
    a whole active slice), so the paper averages across runs at different
    granularities.  [avg_bpi] does exactly that over finished passes, one
    {!Tquad.t} per slice interval: compute each pass's average
    bytes/instruction over the kernel's active slices, and average the
    passes. *)

val avg_bpi : Tquad.t list -> kernel:string -> metric:Tquad.metric -> float option
(** [None] if the kernel shows no traffic in any pass, or the list is empty.
    Passes where the kernel is silent are excluded from the mean. *)

val spread :
  Tquad.t list -> kernel:string -> metric:Tquad.metric -> (float * float) option
(** (min, max) of the per-pass averages — the measurement inconsistency the
    paper marks with "<" upper bounds in Table IV. *)

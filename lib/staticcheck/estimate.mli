(** Static per-kernel bandwidth model.

    Block weights are the product of the {e derived} trip counts
    ({!Loopinfo}) of the loops containing the block: constant trip counts
    are used exactly, and loops whose trip count is affine or unknown get
    the largest constant trip count resolved anywhere in the main image,
    floored at 32.  Every reachable instruction's
    statically-known memory traffic (load/store widths; prefetches excluded
    and block moves counted as 0 bytes) is weighted by its block's weight
    and also attributed to its {!Access} pattern class (sequential /
    strided / indirect / scalar / unknown).

    Library callees are folded into the calling kernel at the call site's
    weight, mirroring tQUAD's main-image-only attribution, so the rows are
    directly comparable — as a ranking, not as absolute bytes — with the
    dynamic per-kernel totals. *)

type buckets = {
  bk_sequential : float;
  bk_strided : float;
  bk_indirect : float;
  bk_scalar : float;  (** loop-invariant accesses + call/ret stack traffic *)
  bk_unknown : float;
}

val bk_total : buckets -> float

type row = {
  routine : Tq_vm.Symtab.routine;
  reads : float;  (** weighted read bytes *)
  writes : float;  (** weighted write bytes *)
  loops : int;  (** natural-loop headers in the routine *)
  trips_known : int;  (** loops with a constant or affine trip count *)
  trips_total : int;
  patterns : buckets;
}

val bytes : row -> float
(** [reads +. writes]. *)

val per_kernel : Tq_vm.Program.t -> row list
(** One row per main-image routine, in symbol-table order. *)

val render : row list -> string
(** The model's table: loops, resolved trip counts, weighted read and write
    bytes and the sequential / strided / indirect shares per kernel. *)

(** Sparse bitsets over non-negative integers.

    Backed by pages of 2{^15} members allocated on demand, each held as
    1,024 OCaml ints of 32 bits — 8 KiB of heap — in a {!Page_table}, so
    membership sets over a 64-bit-style address space (e.g. per-function
    touched-address sets for UnMA accounting) stay proportional to the
    number of distinct pages touched, not to the address range.  A set
    with no member holds no page and no translation cache. *)

type t

val create : unit -> t

val add_range : t -> int -> int -> unit
(** [add_range t x n] inserts [x], [x+1], ..., [x+n-1].
    @raise Invalid_argument if [n > 0] and [x < 0]. *)

val cardinal : t -> int
(** Number of distinct members; O(1) (maintained incrementally). *)

val iter_words : (int -> int -> unit) -> t -> unit
(** [iter_words f t] calls [f base word] for every non-zero 32-bit word, in
    ascending [base] order: bit [b] of [word] set means [base + b] is a
    member.  [base] is a multiple of 32, so a word never straddles an
    aligned page. *)

val union : t -> t -> unit
(** [union dst src] adds every member of [src] to [dst] ([src] unchanged).
    Word-at-a-time with an incremental cardinality update — the merge
    primitive for sharded tool states. *)

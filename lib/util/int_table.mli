(** Hash tables keyed by [int].

    [Hashtbl.Make] over [int] with an integer equality and a multiplicative
    hash: a lookup is OCaml code end to end, with no [caml_hash] C call and
    no polymorphic compare.  The keys of the analyses' per-address state
    (page indices, 64-byte block indices, packed routine pairs) are all
    ints. *)

include Hashtbl.S with type key = int

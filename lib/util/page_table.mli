(** Pages of [int]s keyed by page index, behind a direct-mapped
    translation cache.

    The page store of the analyses' per-address state ({!Paged_bitset},
    QUAD's shadow memory): pages live in an {!Int_table}, and a fixed
    64-entry direct-mapped cache of (page index, page) pairs answers
    the common case — a handful of working pages (stack, globals, a buffer)
    visited in turn — with one tag compare and one slot read.

    The hit test belongs at the call site, so the cache's fields are
    readable: a caller translates page index [idx] as

    {[
      let s = idx land Page_table.slot_mask in
      if Array.unsafe_get t.tags s = idx then Array.unsafe_get t.slots s
      else Page_table.page t idx
    ]}

    and only a miss pays a call.  (Code built with [-opaque], as dune's dev
    profile builds every library, never inlines a call into another
    module.)

    A table holds no cache until its first page: until then [tags] and
    [slots] are shared, all-empty arrays, so an untouched table costs its
    empty hash table only.  Page indices are non-negative. *)

type t = private {
  pages : int array Int_table.t;
  blank : int array;
      (** the contents of a new page; also every absent page's contents for
          {!page_ro} *)
  mutable tags : int array;  (** page index cached in each slot; -1 = empty *)
  mutable slots : int array array;
}

val slot_mask : int
(** [idx land slot_mask] is page [idx]'s cache slot; the cache has
    [slot_mask + 1] slots. *)

val create : int array -> t
(** [create blank] is an empty table whose new pages are copies of [blank].
    [blank] itself is never written and may be shared between tables. *)

val page : t -> int -> int array
(** [page t idx] is page [idx], allocated from [blank] if absent, and now
    cached.  The miss path of the translation above. *)

val page_ro : t -> int -> int array
(** [page_ro t idx] is page [idx] for reading only: an absent page resolves
    to [blank] without allocating, and [blank] never enters the cache (a
    later {!page} hit would hand it out for writing).  Callers must not
    write through the result. *)

val length : t -> int
(** Pages allocated. *)

val iter : (int -> int array -> unit) -> t -> unit
(** [iter f t] calls [f idx page] for every allocated page, in no
    particular order. *)

(** Byte-granular last-writer shadow memory.

    QUAD's central data structure: for every byte of the simulated address
    space it records which routine last wrote it, so that a later read can be
    attributed as a producer→consumer data communication.  A page covers
    4 KiB of guest space and is allocated on first write, keeping the
    footprint proportional to the application's working set; it holds one
    OCaml int per byte, so it takes 32 KiB of heap.  Pages are found through
    a {!Tq_util.Page_table}. *)

type t

val create : unit -> t

val set_range : t -> int -> int -> int -> unit
(** [set_range t addr len producer_id] records the last writer of [len]
    consecutive bytes — one page translation per touched page, equivalent
    to [len] single-byte writes. *)

val page_size : int
(** Bytes per shadow page (a power of two). *)

val page_mask : int
(** [page_size - 1]: [addr land page_mask] indexes within {!page_ro}. *)

val page_ro : t -> int -> int array
(** The page holding [addr], for reading only: a never-written page resolves
    to a shared all-[-1] page without allocating.  Entries are producer ids
    or [-1]; callers must not write through the returned array. *)

val page_count : t -> int

val merge_into : t -> t -> unit
(** [merge_into dst src] overlays [src]'s written bytes onto [dst]: bytes
    with a producer in [src] take [src]'s producer (later range wins); bytes
    [src] never wrote keep [dst]'s.  [src] is unchanged. *)

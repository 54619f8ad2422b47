(** Sparse byte-addressable memory.

    Backed by 4 KiB pages allocated on first touch, so a process can place
    its stack near the top of a 47-bit address space while globals sit at low
    addresses, without reserving the range in between.  All multi-byte
    accesses are little-endian and may straddle page boundaries. *)

type t

val create : unit -> t

val load : t -> width:Tq_isa.Isa.width -> int -> int
(** Zero-extended load. @raise Invalid_argument on negative address. *)

val loads : t -> width:Tq_isa.Isa.width -> int -> int
(** Sign-extended load. *)

val store : t -> width:Tq_isa.Isa.width -> int -> int -> unit
(** [store t ~width addr v] truncates [v] to [width] bytes. *)

val load_w8 : t -> int -> int
(** 8-byte zero-extended load with an aligned fast path: an 8-aligned
    access can never straddle a page, so the width dispatch and straddle
    test are skipped.  Equivalent to [load ~width:W8].
    @raise Invalid_argument on negative address. *)

val store_w8 : t -> int -> int -> unit
(** 8-byte store counterpart of {!load_w8}. *)

val load_f64 : t -> int -> float
(** @raise Invalid_argument on negative address. *)

val store_f64 : t -> int -> float -> unit
(** @raise Invalid_argument on negative address. *)

type cache_stats = { hits : int; misses : int }

val cache_stats : t -> cache_stats
(** Direct-mapped page-translation cache counters: [hits] resolved with one
    array compare, [misses] fell back to the page hashtable. *)

val read_bytes : t -> int -> int -> bytes
(** [read_bytes t addr len] copies out a range (zero where untouched). *)

val write_bytes : t -> int -> bytes -> unit

val read_cstring : t -> int -> string
(** Read a NUL-terminated string starting at the address.
    @raise Invalid_argument if no NUL within 4096 bytes. *)

val page_count : t -> int
(** Allocated pages, for footprint accounting. *)

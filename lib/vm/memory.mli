(** Sparse byte-addressable memory.

    Backed by 4 KiB pages allocated on first touch, so a process can place
    its stack near the top of a 47-bit address space while globals sit at low
    addresses, without reserving the range in between.  All multi-byte
    accesses are little-endian and may straddle page boundaries. *)

type t

exception Fault of string
(** A guest access the address space cannot serve: a negative address, a
    block whose length is negative or runs past the largest address, a
    string with no NUL in reach, or an access past {!max_bytes}.  Every
    accessor below raises it for a bad address; the execution loops turn it
    into a {!Machine.Trap} at the faulting instruction. *)

val max_bytes : int
(** The guest memory budget: 128 MiB (134217728 bytes, 32768 pages), far
    above what any of the repository's programs touches (wfs [large],
    2,508 pages).  A store that would materialize a page past it, and a
    {!read_bytes} block longer than it (a block move's copy), raise
    {!Fault} before any host memory is allocated for them, so a guest
    cannot grow the host's memory without bound. *)

val create : unit -> t

val load : t -> width:Tq_isa.Isa.width -> int -> int
(** Zero-extended load. *)

val loads : t -> width:Tq_isa.Isa.width -> int -> int
(** Sign-extended load. *)

val store : t -> width:Tq_isa.Isa.width -> int -> int -> unit
(** [store t ~width addr v] truncates [v] to [width] bytes. *)

val load_w8 : t -> int -> int
(** 8-byte zero-extended load with an aligned fast path: an 8-aligned
    access can never straddle a page, so the width dispatch and straddle
    test are skipped.  Equivalent to [load ~width:W8]. *)

val store_w8 : t -> int -> int -> unit
(** 8-byte store counterpart of {!load_w8}. *)

val load_f64 : t -> int -> float

val store_f64 : t -> int -> float -> unit

type cache_stats = { hits : int; misses : int }

val cache_stats : t -> cache_stats
(** Direct-mapped page-translation cache counters: [hits] resolved with one
    array compare, [misses] fell back to the page hashtable. *)

val read_bytes : t -> int -> int -> bytes
(** [read_bytes t addr len] copies out a range (zero where untouched);
    {!Fault} if [len] exceeds {!max_bytes}. *)

val write_bytes : t -> int -> bytes -> unit

val read_cstring : t -> int -> string
(** Read a NUL-terminated string starting at the address; {!Fault} if no
    NUL within 4096 bytes. *)

val page_count : t -> int
(** Allocated pages, for footprint accounting. *)

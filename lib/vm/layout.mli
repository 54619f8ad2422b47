(** Process address-space layout constants (shared by loader, runtime and
    profilers). *)

val text_base : int (** 0x0040_0000 — code addresses start here *)

val data_base : int (** 0x1000_0000 — globals and initial heap *)

val stack_top : int (** 0x7f00_0000_0000 — initial stack pointer *)

val stack_red_zone : int
(** Bytes below the live stack pointer still classified as stack area (the
    return-address slot a [call] writes sits below the pre-call SP). *)

val stack_lo : sp:int -> int -> int -> int
(** [stack_lo ~sp ea size] and {!stack_hi} split an access into its
    "local stack area" part and its global part, the classification QUAD
    and tQUAD report every total with and without.  An address is stack area
    when it lies in [\[sp - stack_red_zone, stack_top)]; that is one
    interval, so the stack part of [\[ea, ea + size)] is one run, and the
    access is the three consecutive runs
    [\[ea, lo)] global, [\[lo, hi)] stack, [\[hi, ea + size)] global,
    where [lo = stack_lo ~sp ea size] and [hi = stack_hi ~sp ea size].
    Any run may be empty ([ea <= lo <= hi <= ea + size] for [size >= 0]),
    so [hi - lo] is the access's stack bytes. *)

val stack_hi : sp:int -> int -> int -> int
(** The end of the stack run; see {!stack_lo}. *)

(** The runtime image ("librt") — the libc analogue.

    Hand-written assembly routines loaded as a {e library image}
    ([is_main_image = false]), so the profilers can exercise the paper's
    "exclude OS and library routine calls" option against real library code:
    [memcpy]/[memset]/[strlen] perform visible byte-loop memory traffic that
    is attributed differently depending on that option.

    Also provides [_start] (calls [main], passes its result to the exit
    syscall) and a 16-byte-aligned bump allocator for [malloc] backed by the
    [brk] syscall ([free] is a no-op, as in many embedded allocators). *)

val unit_ : Tq_asm.Link.cunit
(** The library compilation unit. *)

val unit_no_start : Tq_asm.Link.cunit
(** The same image without [_start], for programs (e.g. hand-written
    assembly) that provide their own entry point. *)

val link : Tq_asm.Link.cunit list -> Tq_vm.Program.t
(** [link units] links user units together with the runtime image; execution
    starts at the runtime's [_start]. *)

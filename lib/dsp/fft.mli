(** Reference FFT — the same in-place Danielson-Lanczos butterfly scheme
    (with an explicit per-element [bitrev] permutation pass, as in the case
    study's [fft1d]/[perm]/[bitrev] kernels).  The simulated MiniC
    application implements the identical operation ordering, so its output
    can be compared against this module bit-for-bit. *)

val fft : float array -> float array -> dir:int -> unit
(** In-place transform; [dir = 1] forward, [dir = -1] inverse (scales by
    1/N).  Length must be a power of two ≥ 2 and equal for both arrays.
    @raise Invalid_argument otherwise. *)

val dft_naive : float array -> float array -> dir:int -> float array * float array
(** O(n²) reference for testing. *)

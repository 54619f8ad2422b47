(** Native OCaml mirror of the simulated wfs application.

    Reproduces the MiniC program's computation with the identical operation
    ordering (same FFT butterfly order, same filter construction, same
    quantization), so the simulated binary's [output.wav] can be verified
    {e byte-for-byte} against [render].  This is the correctness oracle for
    the whole toolchain: compiler, VM, runtime and DBI transparency. *)

val render : Scenario.t -> string * float
(** [(wav_bytes, spectral_energy)]: the exact expected contents of
    [output.wav] and the spectral-monitor energy the application prints. *)

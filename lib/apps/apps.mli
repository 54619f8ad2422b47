(** Additional demo applications in MiniC.

    The paper notes tQUAD "was tested on a set of real applications" but
    details only the wfs case study; this module provides further realistic
    workloads with profiles very different from wfs, used by the examples,
    tests and the generality experiment in [bench].

    [image_pipeline] is a JPEG-flavoured image pipeline on a synthetic
    grayscale image: LCG noise + gradient generation, 3x3 Sobel edge
    detection, per-8x8-block 2-D DCT (naive DCT-II), quantization, zigzag
    scan, and run-length encoding.  The program prints deterministic
    checksums and the compressed size. *)

val image_pipeline_program :
  ?width:int -> ?height:int -> unit -> Tq_vm.Program.t
(** Compiled and linked against the runtime. *)

val pointer_chase : ?nodes:int -> ?rounds:int -> unit -> string
(** MiniC source of the locality microbenchmark: a pool of 16-byte list
    nodes walked once linked sequentially ([walk_seq]) and once linked along
    a Fisher-Yates shuffle ([walk_shuffled]) — identical work and bytes,
    very different cache behaviour (compare with {!Tq_prof.Cache_sim}).
    Defaults: 4096 nodes (64 KiB pool), 4 walk rounds. *)

val pointer_chase_program :
  ?nodes:int -> ?rounds:int -> unit -> Tq_vm.Program.t

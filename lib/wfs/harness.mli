(** Build-and-run helpers for the wfs case study. *)

val compile : ?optimize:bool -> Scenario.t -> Tq_vm.Program.t
(** Generate the MiniC source, compile it, and link against the runtime
    image.  [optimize] (default false) runs the compiler's -O1 pass.
    @raise Tq_minic.Driver.Compile_error on generator bugs. *)

val make_vfs : Scenario.t -> Tq_vm.Vfs.t
(** Fresh virtual filesystem holding [input.wav] (the synthesized primary
    source) and [config.bin] (sample rate and chunk count, two
    little-endian 64-bit integers). *)

val run_plain : Scenario.t -> Tq_vm.Machine.t
(** Execute uninstrumented to completion (the "native run").
    @raise Failure if the application exits non-zero. *)

val output_bytes : Tq_vm.Machine.t -> string
(** Contents of [output.wav] after a run. @raise Failure if absent. *)

val fuel : Scenario.t -> int
(** A generous instruction budget for the scenario (for [Engine.run]). *)

(** Architectural state and instruction semantics.

    A [Machine.t] is one simulated process: registers, sparse memory, program
    break, file descriptors and a retired-instruction counter.  The counter
    is the {e clock} every profiler in this repository uses, mirroring the
    paper's platform-independent instruction-count timing.

    [exec] executes a single already-fetched instruction; it is shared by the
    plain executor and by the DBI engine (which interleaves analysis-routine
    calls with [exec]).  Faults raise [Trap]; a guest memory fault surfaces
    as [Trap] through {!guard}. *)

exception Trap of { ip : int; reason : string }

type t

val create : ?vfs:Vfs.t -> Program.t -> t
(** Fresh process: [ip] at the program entry, [sp] at [Layout.stack_top],
    all registers zero, data segments copied in, brk at [data_end]. *)

val program : t -> Program.t
val vfs : t -> Vfs.t

(** {2 State accessors} *)

val ip : t -> int
val reg : t -> Tq_isa.Isa.reg -> int
val sp : t -> int
val instr_count : t -> int
val halted : t -> bool
val exit_code : t -> int option
val mem : t -> Memory.t
val stdout_contents : t -> string
(** Console output accumulated through the put* syscalls. *)

(** {2 Effective addresses}

    Computed from the current register state {e before} executing the
    instruction — this is what the DBI engine passes to analysis routines as
    the Pin [IARG_MEMORY*_EA] analogues. *)

val read_ea : t -> Tq_isa.Isa.ins -> int
(** Effective address of the memory read; meaningless (0) if the instruction
    does not read memory. [Ret] reads at [sp]. *)

val write_ea : t -> Tq_isa.Isa.ins -> int
(** Effective address of the memory write; [Call] writes at [sp-8]. *)

val block_len : t -> Tq_isa.Isa.ins -> int
(** Dynamic byte count of a [Movs] block move (0 for anything else) — the
    value analysis routines must use in place of the static widths. *)

(** {2 Execution} *)

val fetch : t -> Tq_isa.Isa.ins
(** Instruction at the current [ip]. @raise Trap on a wild [ip]. *)

val exec : t -> Tq_isa.Isa.ins -> unit
(** Execute one instruction (must be the one at [ip]): updates registers,
    memory, [ip] and the retired-instruction counter.  Syscalls are handled
    inline; [exit] sets the halted flag. *)

val guard : t -> (unit -> unit) -> unit
(** [guard t run] runs an execution loop over [t] (one that calls {!exec}
    or {!compile_ins} closures) and turns a guest memory fault
    ({!Memory.Fault}) into a {!Trap} at the faulting instruction.  Every
    loop that executes guest code runs inside it. *)

val compile_ins : t -> Tq_isa.Isa.ins -> next:int -> (unit -> unit)
(** [compile_ins t ins ~next] specializes [ins] (the instruction at address
    [next - ins_bytes]) into a single fused closure that is observably
    identical to [exec t ins]: it bumps the retired-instruction counter, does
    the work, and leaves [ip] at the follow-on address ([next] for straight
    -line code, the transfer target for control flow).  Register numbers,
    immediates, widths and predicates are resolved at compile time, so
    executing the closure pays no instruction dispatch — the primitive the
    DBI engine's threaded-code traces are built from.  The closures mutate
    the machine's private state directly; the state stays sealed because
    only closures, never the underlying arrays, escape this module. *)

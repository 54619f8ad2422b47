(** The simulated instruction set.

    A 64-bit RISC-style ISA standing in for the paper's x86 target.  It keeps
    exactly the properties the tQUAD/QUAD profilers observe through Pin:

    - explicit {e load}/{e store} instructions with byte-granular widths;
    - {e call} pushes the return address through memory at [sp-8] and
      {e ret} pops it (so calls and returns are themselves memory accesses in
      the stack area, as on x86);
    - optionally {e predicated} memory accesses (the analysis routine must
      only fire when the predicate register is non-zero, mirroring
      [INS_InsertPredicatedCall]);
    - {e prefetch} instructions that reference memory but must be discarded
      by analysis routines;
    - a dedicated stack-pointer register, used to classify accesses as local
      stack-area vs global.

    Instructions are 4 bytes wide for addressing purposes.  Register [x0]
    reads as zero and ignores writes.  [x2] is the stack pointer, [x3] the
    frame pointer; [x1] carries integer return values and [f0] float return
    values.  Arguments are passed on the stack (cdecl-style), which is what
    gives compiled code its realistic stack-traffic profile. *)

type reg = int (** integer register index, 0..31 *)

type freg = int (** float register index, 0..31 *)

val num_regs : int
val reg_zero : reg
val reg_rv : reg (** x1: integer return value *)

val reg_sp : reg (** x2: stack pointer *)

val reg_fp : reg (** x3: frame pointer *)

val reg_a0 : reg (** x4: first syscall argument (x4..x7) *)

val reg_t0 : reg
(** x10: first of the temporaries x10..x27 used by the MiniC
    expression-stack code generator *)

val num_temps : int (** how many consecutive temporaries follow [reg_t0] *)

val freg_rv : freg (** f0: float return value *)

val freg_t0 : freg (** f10: first float temporary *)

val num_ftemps : int

val ins_bytes : int (** code addressing granularity: 4 bytes/instruction *)

type width = W1 | W2 | W4 | W8

val width_bytes : width -> int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Sll | Srl | Sra
  | Slt | Sltu | Seq | Sne | Sle | Sge | Sgt

val eval_iop : binop -> int -> int -> int option
(** The integer ALU: [a op b] as the machine computes it (shift amounts
    taken [land 63], [sltu] unsigned, comparisons 0/1), or [None] for a
    [div]/[rem] by zero, where the machine traps.  The compiler's constant
    folder and the static dataflow layer fold through the same function. *)

val negate_cmp : binop -> binop option
(** The signed comparison that holds exactly when the given one fails
    ([slt] <-> [sge], [sle] <-> [sgt], [seq] <-> [sne]); [None] for
    [sltu], which has no complement in the set, and for the
    non-comparisons. *)

type fbinop = Fadd | Fsub | Fmul | Fdiv

type funop = Fneg | Fabs | Fsqrt | Fsin | Fcos | Ffloor

type fcmp = Feq | Fne | Flt | Fle

(** The float ALU, shared by the machine and the compiler's constant folder
    like {!eval_iop}. *)

val eval_fop : fbinop -> float -> float -> float
val eval_funop : funop -> float -> float
val eval_fcmp : fcmp -> float -> float -> bool

type operand = Reg of reg | Imm of int

type ins =
  | Nop
  | Li of reg * int (** load immediate *)
  | Mov of reg * reg
  | Bin of binop * reg * reg * operand (** [Bin (op, rd, rs, o)]: [rd <- rs op o] *)
  | Fli of freg * float
  | Fmov of freg * freg
  | Fbin of fbinop * freg * freg * freg
  | Fun of funop * freg * freg
  | Fcmp of fcmp * reg * freg * freg (** integer 0/1 result *)
  | I2f of freg * reg
  | F2i of reg * freg (** truncation toward zero *)
  | Load of { width : width; dst : reg; base : reg; off : int; pred : reg option }
  | Loads of { width : width; dst : reg; base : reg; off : int }
      (** sign-extending load *)
  | Store of { width : width; src : reg; base : reg; off : int; pred : reg option }
  | Fload of { dst : freg; base : reg; off : int; pred : reg option } (** 8 bytes *)
  | Fstore of { src : freg; base : reg; off : int; pred : reg option }
  | Prefetch of { base : reg; off : int } (** reads 64 bytes, must be ignored *)
  | Movs of { dst : reg; src : reg; len : reg }
      (** block copy of [len] bytes (x86 [rep movsb] analogue): one retired
          instruction that reads [len] bytes at [src] and writes them at
          [dst]; the byte count is dynamic, see {!is_block_move} *)
  | Jmp of int (** absolute code address *)
  | Jr of reg
  | Bz of reg * int (** branch to absolute address if register = 0 *)
  | Bnz of reg * int
  | Call of int (** push return address at [sp-8], jump *)
  | Callr of reg
  | Ret (** pop return address from [sp] *)
  | Syscall of int
  | Halt

(** {2 Static classification}

    These are the predicates a DBA tool queries at instrumentation time
    (Pin's [INS_IsMemoryRead] etc.). *)

val reads_memory : ins -> bool
(** [Load]/[Loads]/[Fload]/[Prefetch]/[Ret]. *)

val writes_memory : ins -> bool
(** [Store]/[Fstore]/[Call]/[Callr]. *)

val mem_read_bytes : ins -> int
(** Statically-known bytes read, 0 if none.  Prefetch reports its 64-byte
    line.  Block moves report 0: their byte count is dynamic
    ({!is_block_move}). *)

val mem_write_bytes : ins -> int

val is_prefetch : ins -> bool

val is_block_move : ins -> bool
(** [Movs]: analysis must read the dynamic length from the register. *)

val predicate_of : ins -> reg option
(** The guard register of a predicated access, if any. *)

val is_ret : ins -> bool

val is_control : ins -> bool
(** Any instruction that may divert control flow (ends a basic block). *)

val to_string : ins -> string

(** Register dataflow over a routine {!Cfg}: symbolic register values and
    flow-sensitive constant propagation through stack/data memory cells.

    Both are forward fixpoints solved by {!Cfg.forward} when the routine is
    analyzed, so every query below answers from finished results and never
    depends on which queries ran before.  Register environments start with
    the entry stack pointer in sp and [Top] everywhere else; where paths
    meet, a register keeps its value only if every path agrees, else
    [Top]; unreachable blocks are evaluated from an all-[Top] environment.
    Cell constants are propagated twice: the constants of the first round
    fold the loads the second round evaluates.  Constant folds use
    [Tq_isa.Isa.eval_iop], so a folded value is the one the VM computes
    (and a zero divisor folds to no constant).

    The value domain is linear expressions over {e cells} (fixed stack
    slots, addressed relative to the stack pointer at routine entry, and
    absolute data addresses) plus opaque {e loaded} terms for values that
    came through a computed address.  Anything non-linear collapses to
    [Top]; comparisons are kept one level deep so loop-exit guards can be
    recovered.  All of {!Loopinfo}, {!Access} and the dataflow diagnostics
    in {!Staticcheck} are built on this module. *)

(** A memory cell with a stable identity across the routine. [Stack o] is
    the byte at offset [o] from the {e entry} stack pointer (parameters sit
    at [o >= 8], the return address at [0], locals below [-8]).  [Data a]
    is the absolute address [a]; data cells are only trusted in fully
    linked code (pre-link, every data symbol collapses onto one placeholder
    address). *)
type cell = Stack of int | Data of int

(** An opaque leaf of a linear expression: the current content of a cell,
    or the value produced by the load at instruction index [i] whose
    address could not be resolved to a cell. *)
type term = Tcell of cell | Tload of int

type lin = {
  sp : int;  (** coefficient of the entry stack pointer (0 or 1 in practice) *)
  terms : (term * int) list;  (** sorted, coefficients non-zero *)
  k : int;  (** constant *)
}

type value = Lin of lin | Cmp of Tq_isa.Isa.binop * lin * lin | Top

val registers : Cfg.t -> int -> int -> value
(** [registers cfg i r]: the value of integer register [r] just before
    instruction [i], from the register fixpoint alone (no load is folded
    through a cell constant).  This is the first-round evaluator of
    {!analyze}, and what the verifier's stack-depth and constant-address
    checks read. *)

type t

val analyze : Cfg.t -> t

val cfg : t -> Cfg.t

val trust_data : t -> bool
(** Whether [Data] cells have stable identities (linked code only). *)

val frame_size : t -> int option
(** Local-frame byte size recovered from the standard prologue; [None]
    when the routine has no recognizable frame setup. *)

val escapes : t -> bool
(** Whether any frame address may leave the routine (stored to memory,
    block-copied, or passed to a syscall) — if not, calls cannot touch the
    local-variable window. *)

val escaped_offset : t -> int -> bool
(** [escaped_offset t o]: may the address of stack cell [Stack o] have
    left the routine?  True for every offset when an address-of value
    could not be pinned to a single cell. *)

val value_before : t -> int -> int -> value
(** [value_before t i r]: symbolic value of integer register [r] just
    before instruction [i] executes. *)

val cell_const_out_join : t -> int list -> cell -> int option
(** Constant content of a cell agreed on by the {e exits} of all the given
    blocks (used for loop-entry values over a header's preheader edges). *)

(** One explicit memory access (loads, sign-extending loads, stores, float
    loads/stores — not prefetches, block moves, or call/ret stack
    traffic). *)
type access = {
  a_index : int;
  a_width : int;  (** bytes *)
  a_is_store : bool;
  a_pred : bool;  (** predicated: may not execute *)
  a_addr : value;  (** reconstructed address expression *)
  a_cell : cell option;  (** fixed cell, when the address resolves to one *)
}

val access : t -> int -> access option

(** The operands of one of the five explicit memory opcodes ([Load],
    [Loads], [Store], [Fload], [Fstore]; float accesses are 8 bytes). *)
type mem_op = {
  m_base : int;  (** base register *)
  m_off : int;
  m_width : Tq_isa.Isa.width;
  m_store : bool;
  m_pred : int option;  (** guard register of a predicated access *)
}

val mem_op : Tq_isa.Isa.ins -> mem_op option

(* Shared helpers, also used by the other analysis modules. *)

val uses_defs : Tq_isa.Isa.ins -> int list * int list * int list * int list
(** (int uses, float uses, int defs, float defs) of one instruction. *)

val const : int -> lin
val lin_add : lin -> lin -> lin
val lin_sub : lin -> lin -> lin
val lin_scale : lin -> int -> lin
val lin_is_const : lin -> bool
val has_load_term : lin -> bool
val string_of_cell : cell -> string

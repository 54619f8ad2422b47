(** Instruction-mix profiling tool.

    A small third tool over the DBI engine (the classic first Pin tool):
    counts retired instructions by category, per kernel and overall.  Used
    by the CLI's [mix] subcommand and as the minimal example of writing a
    new analysis tool against {!Tq_dbi.Engine}. *)

type category = Load | Store | Block_move | Int_alu | Float_alu | Branch
              | Call_ret | Syscall | Other

val category_name : category -> string
(** Display name of a category (e.g. ["block move"]). *)

val categories : category list
(** All categories, in display order. *)

type t

include
  Tq_trace.Tool.S with type t := t and type config = unit and type seed = unit
(** [create] keeps the program image to refetch and classify the
    instructions named by [Block_exec] events.  [shard] is [Some], with an
    empty prefix: block summaries carry no cross-range state.  Merging adds
    per-block execution counts; a block re-summarized at a different length
    displaces the earlier summary, as in a sequential run. *)

val attach : Tq_dbi.Engine.t -> t
(** Register the tool: [create] + {!Tq_trace.Probe.attach}. *)

val per_kernel : t -> (Tq_vm.Symtab.routine * int array) list
(** Counts indexed in [categories] order, for kernels with any retired
    instruction, in symbol-table order. *)

val render : t -> string
(** Overall counts plus the {!per_kernel} table, as printed by
    [tquad mix]. *)

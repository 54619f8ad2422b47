(** Pin-like dynamic binary instrumentation engine.

    The engine executes a {!Tq_vm.Machine.t} through a JIT-style {e code
    cache}: the first time control reaches an address, the basic block
    starting there is "compiled" — each instruction is shown to every
    registered {e instrumentation} callback, which returns the {e analysis}
    actions to run before that instruction executes.  The compiled
    (actions, instruction) sequence is cached, so instrumentation cost is
    paid once per block while analysis cost is paid on every execution —
    exactly Pin's cost structure, which the paper's 37x-69x slowdown numbers
    reflect.

    With the code cache on (the default), blocks are {e closure-compiled}
    into threaded code: each instruction becomes one fused closure (analysis
    actions + the specialized instruction closure from
    {!Tq_vm.Machine.compile_ins}), and traces ending in a direct transfer
    cache links to their successor traces, so steady-state execution follows
    trace-to-trace links without hashtable probes — Pin's direct trace
    linking.  [~use_code_cache:false] retains the re-instrument-and-interpret
    reference path; both paths are observably equivalent (same architectural
    results, same analysis-action order, byte-identical profiler reports),
    which the differential tests verify on fuzzed programs.

    Mirrors of the Pin API used in the paper (Fig. 3-5):
    - [add_trace_instrumenter] ~ [TRACE_AddInstrumentFunction] (one callback
      per block, actions on any of its slots)
    - [add_ins_instrumenter]  ~ [INS_AddInstrumentFunction]
    - [add_rtn_instrumenter]  ~ [RTN_AddInstrumentFunction] (fires at routine
      entry)
    - [predicated]            ~ [INS_InsertPredicatedCall]: the wrapped
      action runs only if the instruction's guard predicate evaluates true.

    Analysis actions are closures; dynamic argument values (effective
    address, stack pointer — Pin's IARGs) are read from the machine at
    analysis time via {!Tq_vm.Machine.read_ea} / [write_ea] / [sp]. *)

type t

type action = unit -> unit
(** An injected analysis-routine call. *)

module Ins_view : sig
  (** Static (instrumentation-time) view of one instruction. *)

  type view

  val ins : view -> Tq_isa.Isa.ins
  val addr : view -> int

  val routine : view -> Tq_vm.Symtab.routine option
  (** The routine containing this instruction. *)
end

val create : ?use_code_cache:bool -> Tq_vm.Machine.t -> t
(** [use_code_cache] defaults to true; [false] re-instruments every block on
    every execution (the ablation in [bench/main.exe ablation]). *)

val machine : t -> Tq_vm.Machine.t

val add_ins_instrumenter : t -> (Ins_view.view -> action list) -> unit
(** Register an instruction-granularity instrumentation callback.  Must be
    called before [run]; actions are executed in registration order, before
    the instruction. *)

val add_rtn_instrumenter : t -> (Tq_vm.Symtab.routine -> action list) -> unit
(** Routine-granularity instrumentation: the returned actions run every time
    control reaches the routine's entry instruction, before any
    instruction-level actions for it. *)

val add_trace_instrumenter :
  t -> (Ins_view.view array -> (int * action) list) -> unit
(** Trace (basic-block) granularity instrumentation, Pin's
    [TRACE_AddInstrumentFunction] with its BBL → INS walk.  At compile
    time the callback sees the block's instruction views, in order ([views.(0)]
    is the block's start address), and returns [(slot, action)] pairs:
    each action runs on every execution of the block, before slot [slot]'s
    instruction — at a slot, trace actions (in registration order, then in
    list order) run before its routine-entry actions, which run before its
    instruction actions.  A slot outside the block raises
    [Invalid_argument] at compile time.  Must be called before [run].

    Because the ISA ends a block at {e any} control-transfer instruction
    (including [Syscall] and [Halt]), a dispatched block retires all its
    instructions unless one of them traps or the fuel runs out: an action
    on slot [i] then runs only if slots [0..i-1] retired.  At slot [i]'s
    actions, [Machine.instr_count] is the block's starting count plus [i],
    and a register no earlier slot writes still holds its value at block
    entry — which lets one action on the last slot stand for analysis of
    the whole block.  The start address names the compiled trace: the code
    cache is keyed by it and never evicts (and the reference path compiles
    the same block from the same address every time), so one address is
    one trace for the whole run; the v4 recorder keys repeated loop bodies
    on it ({!Tq_trace.Squash}). *)

val predicated : t -> Ins_view.view -> action -> action
(** [predicated t v a] is [a] guarded by [v]'s predicate register (no-op
    wrapper for non-predicated instructions). *)

val run : ?fuel:int -> t -> unit
(** Execute until halt. @raise Tq_vm.Executor.Out_of_fuel when the budget
    (default 2e9) is exhausted, and {!Tq_vm.Machine.Trap} on a fault, guest
    memory faults included, on either execution path. *)

type stats = {
  compiled_traces : int;
  compiled_instructions : int;
  lookups : int;  (** block dispatches (= executed basic blocks) *)
  misses : int;  (** dispatches that had to (re)compile *)
  chain_hits : int;
      (** dispatches resolved through trace links, bypassing the hashtable *)
  closure_instructions : int;
      (** instructions closure-compiled into threaded code *)
}

val stats : t -> stats

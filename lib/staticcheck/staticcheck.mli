(** Static binary verifier for linked programs and assembler units.

    Runs a small suite of whole-routine analyses over the {!Cfg} of each
    routine and reports everything it can prove wrong, without executing
    the program:

    - control flow: jumps that leave the routine's text or land between
      instruction boundaries, calls whose target is no routine's entry,
      dynamic transfers whose target cannot be proven;
    - reachability: blocks no path from the entry reaches, and routines
      whose last instruction can fall through into the next routine;
    - dataflow: reads of caller-saved temporaries before any definition
      (must-defined analysis over both register files);
    - stack discipline: paths reaching [ret] with [sp] provably or
      possibly different from its entry value;
    - memory: loads/stores whose constant effective address lies outside
      every data, heap and stack region.

    With [~dataflow:true], four further checks run on the {!Dataflow} /
    {!Loopinfo} layer:

    - [Uninit_local] (warning): a frame-pointer-addressed local may be
      read before any store to it on some path;
    - [Dead_store] (warning): a store to a local that no path ever reads;
    - [Oob_access] (error, needs [~bounds]): a constant-address access
      that overruns its data object or lands in inter-object padding;
    - [Invariant_load] (info): a load of a loop-invariant cell inside a
      loop — a hoisting opportunity, reported once per loop and cell.

    An empty diagnostic list means the checks passed; it does not mean the
    program is correct. *)

type cls =
  | Bad_jump
  | Bad_call
  | Dynamic_flow
  | Use_before_def
  | Unreachable_code
  | Stack_imbalance
  | Fall_through
  | Bad_address
  | Uninit_local
  | Oob_access
  | Dead_store
  | Invariant_load

type severity = Error | Warn | Info

val severity_of : cls -> severity
(** [Error] for the eight structural classes and [Oob_access];
    [Uninit_local] and [Dead_store] are warnings, [Invariant_load] is
    informational. *)

type diagnostic = {
  routine : string;
  index : int;  (** instruction index within the routine *)
  addr : int option;  (** absolute address when the code is linked *)
  cls : cls;
  message : string;
}

val render : diagnostic list -> string
(** One line per diagnostic: [routine+addr: [class] message]; warnings and
    infos tag the class as [[warn class]] / [[info class]]. *)

(** Static-data layout of a linked program, for bounds-checking constant
    addresses ([Oob_access]). *)
type bounds = {
  b_objects : (string * int * int) list;
      (** (name, start address, byte size), sorted by start address *)
  b_data_end : int;  (** first address past the static-data region *)
}

val check_items : name:string -> Tq_asm.Builder.item array -> diagnostic list
(** Check one unlinked assembler unit (label-resolved, symbols opaque).
    Runs the structural checks only — this is the codegen verify gate, so
    its diagnostics must all be hard errors. *)

val check_program :
  ?bounds:bounds ->
  ?dataflow:bool ->
  Tq_vm.Program.t ->
  diagnostic list
(** Check every routine of every image of a linked program ([dataflow]
    defaults to [false], keeping the
    default contract identical to the structural checker).  Diagnostics
    are in symbol-table order, then by instruction index. *)

(** Memory-access pattern classification.

    Every explicit load/store is classified relative to the {e innermost}
    loop containing it, by differentiating its reconstructed address
    expression over one loop iteration: induction variables advance by
    their step, loop-invariant cells stand still.

    - [Scalar]: the address does not change across iterations (or the
      access is outside any loop);
    - [Sequential]: the address advances by exactly the access width;
    - [Strided k]: the address advances by a constant [k] ≠ width;
    - [Indirect]: the address depends on a value loaded through a computed
      address (pointer chasing, index arrays);
    - [Unknown]: the address could not be reconstructed; the payload says
      why. *)

type pattern =
  | Scalar
  | Sequential
  | Strided of int
  | Indirect
  | Unknown of string

type acc = {
  index : int;  (** instruction index *)
  addr : int option;  (** code address, when linked *)
  width : int;
  is_store : bool;
  loop : int option;  (** innermost containing loop, index into [loops] *)
  pattern : pattern;
}

type loop_report = {
  lr_index : int;
  lr_head_addr : int option;
  lr_depth : int;
  lr_trip : Loopinfo.trip;
  lr_ivs : (Dataflow.cell * int) list;
}

type routine = {
  name : string;
  loops : loop_report list;
  accesses : acc list;
}

val analyze : Cfg.t -> Loopinfo.t * routine

val analyze_program : Tq_vm.Program.t -> routine list
(** The main-image routines. *)

type stats = {
  st_loops : int;
  st_const : int;
  st_affine : int;
  st_unknown : int;
  st_accesses : int;
  st_in_loop : int;
  st_classified : int;
  st_scalar : int;
  st_sequential : int;
  st_strided : int;
  st_indirect : int;
  st_unknown_acc : int;
}

val stats : routine list -> stats

val render : routine list -> string

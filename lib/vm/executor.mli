(** Plain (uninstrumented) execution loop — the "native run" baseline that
    the paper's 37.2x-68.95x instrumentation-slowdown comparison is measured
    against. *)

exception Out_of_fuel of int
(** Raised when the fuel budget is exhausted; carries the executed count. *)

val run : ?fuel:int -> Machine.t -> unit
(** Step until the machine halts.  [fuel] (default 2_000_000_000) bounds the
    number of instructions to catch runaway programs.  A fault, guest
    memory faults included, raises {!Machine.Trap}. *)

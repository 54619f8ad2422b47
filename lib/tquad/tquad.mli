(** tQUAD — temporal memory bandwidth usage analysis (the paper's
    contribution).

    Execution time is measured in {e retired instructions} and partitioned
    into fixed {e time slices}; for every kernel and slice, tQUAD records the
    bytes read and written, keeping stack-area-inclusive and -exclusive
    figures simultaneously.  From the per-slice series it derives each
    kernel's activity span, average and peak memory bandwidth (expressed in
    bytes per instruction, the paper's platform-independent unit), and the
    running-time graphs of Figs. 6-7.  {!Phases} consumes the same data to
    partition the execution into phases (Table IV).

    Mirroring the paper's command-line options:
    - the time-slice interval ([slice_interval]) adjusts the detail level of
      the extracted information;
    - stack-area accesses can be included or excluded — both aggregates come
      out of a single run here;
    - library/OS routines can be excluded from the internal call stack
      ([policy = Main_image_only]), attributing their traffic to the
      innermost main-image kernel.

    Prefetch memory references are discarded, and predicated accesses are
    only counted when their guard is true ([INS_InsertPredicatedCall]
    semantics). *)

type t

type config = {
  slice_interval : int;  (** instructions per time slice; must be positive *)
  policy : Tq_prof.Call_stack.policy;
}

include
  Tq_trace.Tool.S
    with type t := t
     and type config := config
     and type seed = Tq_prof.Call_stack.t
(** [shard] is [Some]: the ordered prefix maintains only the call stack
    ({!Tq_prof.Call_stack.prefix}), each shard runs a full analyzer seeded
    with the boundary's stack, and merging adds the per-kernel per-slice
    byte counts (activity unions). *)

val default_slice_interval : int
(** 10_000 instructions: the slice interval of every tool front end that is
    not given one. *)

val attach :
  ?slice_interval:int ->
  ?policy:Tq_prof.Call_stack.policy ->
  Tq_dbi.Engine.t ->
  t
(** [create] + {!Tq_trace.Probe.attach}: register instrumentation that
    feeds the engine's live event flow into {!consume}, except for each
    block's {e frame accesses}, which a block summary takes
    ({!Tq_trace.Probe.claim}).  A frame access is a non-predicated
    [Load]/[Loads]/[Fload]/[Store]/[Fstore] with base [sp] or [fp] in a
    main-image routine (any routine under [Track_all]), in a block where
    no instruction before the last writes [sp] or [fp].  Their bytes are
    summed per kernel and direction when the block is compiled; one action
    on the block's last slot adds them as stack bytes (excl 0) when every
    one lies in [\[sp - stack_red_zone, stack_top\]] and all their icounts
    fall in one slice, and charges each one with its exact address and
    icount otherwise.  Either way a run that halts leaves the state
    {!consume} over the probe's full stream would (the replayed report).

    A run that stops inside a block — a trap, or
    {!Tq_vm.Executor.Out_of_fuel} — never reaches that block's last slot:
    the frame accesses the block retired before stopping are not charged,
    so such a run's live state is not a report (the CLI exits 1 without
    rendering one).  [slice_interval] defaults to
    {!default_slice_interval}; [policy] to [Main_image_only]. *)

type metric = Read_incl | Read_excl | Write_incl | Write_excl

val slice_interval : t -> int

val total_slices : t -> int
(** Number of time slices covering the observed execution (at least the last
    slice that saw traffic; 0 before any traffic). *)

val kernels : t -> Tq_vm.Symtab.routine list
(** Kernels that produced any memory traffic, in symbol-table order. *)

val series : t -> Tq_vm.Symtab.routine -> metric -> float array
(** Bytes-per-instruction per time slice over the whole execution
    ([total_slices] entries) — the data behind the paper's running-time
    graphs. *)

val bytes_series : t -> Tq_vm.Symtab.routine -> metric -> int array
(** Raw bytes per slice. *)

type totals = {
  read_incl : int;
  read_excl : int;
  write_incl : int;
  write_excl : int;
  first_slice : int;  (** -1 if the kernel never accessed memory *)
  last_slice : int;
  activity_span : int;  (** number of slices with any traffic *)
}

val totals : t -> Tq_vm.Symtab.routine -> totals

val avg_bpi : t -> Tq_vm.Symtab.routine -> metric -> float
(** Average bytes/instruction over the kernel's {e active} slices (the
    paper's "average memory bandwidth usage" normalization). *)

val max_rw_bpi : t -> Tq_vm.Symtab.routine -> incl:bool -> float
(** Peak read+write bytes/instruction over all slices ("maximum bandwidth
    usage (R+W)"). *)

(** {2 Range queries (used by phase identification and reports)} *)

val active_in : t -> Tq_vm.Symtab.routine -> lo:int -> hi:int -> int
(** Number of slices in [lo..hi] (inclusive) where the kernel accessed
    memory. *)

val range_bytes : t -> Tq_vm.Symtab.routine -> metric -> lo:int -> hi:int -> int

val max_rw_in : t -> Tq_vm.Symtab.routine -> incl:bool -> lo:int -> hi:int -> float

(** Set-associative cache simulator (a DBI analysis tool).

    The paper's motivation is the processor/memory bottleneck and it
    positions tQUAD against hardware-counter suites (vTune, CodeAnalyst)
    that report cache misses on one concrete machine.  This tool provides
    that view {e portably}: an LRU write-back/write-allocate cache model
    driven by the same instrumentation events, reporting per-kernel hit/miss
    counts and the resulting off-chip traffic (misses and write-backs times
    the line size) — a machine-specific complement to tQUAD's
    platform-independent bytes/instruction.

    Prefetch instructions touch the cache (that is their purpose) but are
    not counted as demand accesses. *)

type geometry = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;  (** ways per set; [size = sets * assoc * line] *)
}

val default_l1 : geometry
(** 32 KiB, 64-byte lines, 8-way (the paper's Q9550 L1D shape). *)

val validate : geometry -> (unit, string) result
(** [Error] explains a non-power-of-two line size, a non-positive field, a
    size above 16 MiB (the whole model is allocated up front, three words
    per line) or a size that is not [sets * assoc * line]-consistent.
    Total: no field, however large, makes it raise. *)

type t

type config = {
  geometry : geometry;
  policy : Call_stack.policy;
      (** [Main_image_only] attributes like the other profilers *)
}

include
  Tq_trace.Tool.S
    with type t := t
     and type config := config
     and type seed = unit
(** [create] raises [Invalid_argument] if the geometry does not
    {!validate}.  [shard] is [None]: replacement state is order-sensitive
    and has no merge, so the replay job runs on the pipeline's ordered
    walk. *)

val attach :
  ?geometry:geometry ->
  ?policy:Call_stack.policy ->
  Tq_dbi.Engine.t ->
  t
(** Register the tool: [create] + {!Tq_trace.Probe.attach}.  Defaults:
    {!default_l1}, [Main_image_only]. *)

type krow = {
  routine : Tq_vm.Symtab.routine;
  accesses : int;  (** demand line-accesses *)
  misses : int;
  writebacks : int;  (** dirty evictions caused by this kernel's accesses *)
  mem_bytes : int;  (** off-chip traffic: (misses + writebacks) * line *)
}

val rows : t -> krow list
(** Kernels with any accesses, sorted by misses (descending). *)

val totals : t -> int * int
(** (accesses, misses) over the whole run. *)

val miss_rate : t -> float
(** Overall misses / accesses, in [0, 1] (0 before any access). *)

val render : t -> string
(** The per-kernel hit/miss table ({!rows}) plus the overall totals and
    miss rate, as printed by [tquad cache]. *)

(** A gprof-style sampling profiler over the DBI engine (produces the
    paper's Tables I and III).

    Like gprof it combines two data sources:
    - {e PC sampling}: every [period] retired instructions the current
      instruction pointer is attributed to the routine containing it, giving
      statistical self time;
    - {e call counting}: every routine entry increments its call count and
      the (caller → callee) arc count, caller taken from the profiler's own
      call stack.

    Total (self + descendants) time follows gprof's propagation: arcs are
    weighted by [arc_count / callee_total_calls] and self times are
    propagated bottom-up over the condensation of the call graph (Tarjan
    SCC); members of a recursive cycle report the cycle's aggregate total,
    which is also gprof's behaviour for cycles.

    Sampled instruction counts convert to "seconds" through a declared
    simulated clock rate of 1e9 instructions per second, preserving the paper's platform-independent
    instruction-count timing. *)

type t

include
  Tq_trace.Tool.S
    with type t := t
     and type config = int
     and type seed = Tq_prof.Call_stack.t * int
(** The config is the sampling period: instructions between samples (the
    analogue of gprof's 10 ms tick); it must be positive.  {!consume}
    derives samples from [Block_exec] events (the recorded block's address
    and instruction count reconstruct each pc), calls and arcs from
    [Rtn_entry]/[Ret].

    [shard] is [Some]: the ordered prefix maintains the [Track_all] call
    stack and the sampling phase (a closed form of the per-block advance) —
    the seed is that stack and the next sample's instruction count — and
    samples, calls, call-graph arcs and the total sample count merge by
    addition. *)

val clock_hz : float
(** The simulated clock, 1e9 instructions per second: the one rate at which
    instruction counts become seconds, in this profile and in every
    timeline. *)

val default_period : int
(** 10_000 instructions between samples: the period of every tool front end
    that is not given one. *)

val attach : ?period:int -> Tq_dbi.Engine.t -> t
(** [create] + {!Tq_trace.Probe.attach}; [period] defaults to
    {!default_period}. *)

type row = {
  routine : Tq_vm.Symtab.routine;
  pct_time : float;  (** percentage of total sampled time *)
  self_seconds : float;
  calls : int;
  self_ms_per_call : float;
  total_ms_per_call : float;
  samples : int;
}

val flat_profile : ?main_image_only:bool -> t -> row list
(** Sorted by self time, descending; ties by name.  [main_image_only]
    (default true) hides runtime-library routines, as the paper's tables
    do. *)

val call_graph_report : ?main_image_only:bool -> t -> string
(** gprof's second section: for each routine, its callers (with arc counts
    and the share of the routine's calls they account for) and its callees.
    Ordered by total time, descending. *)

(** Renderers for the paper's tables and figures.

    Each function turns profiler results into the same rows/columns the
    paper reports; [bin/tquad_cli] and [bench/main.exe] print these. *)

val flat_profile : Tq_gprofsim.Gprofsim.row list -> string
(** Table I layout: kernel, %time, self seconds, calls, self ms/call,
    total ms/call. *)

val quad_table : Tq_quad.Quad.krow list -> string
(** Table II layout: kernel, IN, IN UnMA, OUT, OUT UnMA — stack-excluded
    columns first, then stack-included. *)

val instrumented_profile :
  base:Tq_gprofsim.Gprofsim.row list ->
  adjusted:(string * float) list ->
  string
(** Table III layout: the flat profile of the instrumented binary.
    [adjusted] gives each kernel's self seconds under instrumentation; rank
    and trend arrows are computed against [base]'s ranking (the paper's
    up/down arrows). *)

val phase_table :
  Tq_tquad.Tquad.t -> (string * string list) list -> string
(** Table IV layout: one section per (phase name, member kernels).  The
    phase span is the earliest start to the latest end of its members'
    activity (the paper's overlapping spans); per-kernel columns are
    activity span, average read/write bandwidth (stack incl/excl) in
    bytes/instruction, max (R+W) bandwidth, and the phase's aggregate MBW.
    Kernels never observed are skipped. *)

val detected_phases : Tq_tquad.Phases.phase list -> string
(** The automatic phase-identification output (contiguous segments). *)

val figure :
  Tq_tquad.Tquad.t ->
  metric:Tq_tquad.Tquad.metric ->
  kernels:Tq_vm.Symtab.routine list ->
  ?max_slice:int ->
  title:string ->
  unit ->
  string
(** Figs. 6/7: per-kernel bandwidth intensity strips over time slices
    ([max_slice] cuts the tail, as Fig. 7 does). *)

val figure_csv :
  Tq_tquad.Tquad.t ->
  metric:Tq_tquad.Tquad.metric ->
  kernels:Tq_vm.Symtab.routine list ->
  string
(** The same series as CSV (slice, one column per kernel) for re-plotting. *)

val chrome_trace : Tq_tquad.Tquad.t -> string
(** The kernel activity timeline as a Chrome trace-event JSON document
    (load via chrome://tracing or Perfetto): one track per kernel, one
    complete event per contiguous run of active slices, annotated with the
    run's average bytes/instruction.  Instruction counts become
    microseconds at {!Tq_gprofsim.Gprofsim.clock_hz}. *)

val profile_diff :
  before:Tq_gprofsim.Gprofsim.row list ->
  after:Tq_gprofsim.Gprofsim.row list ->
  string
(** Side-by-side comparison of two flat profiles (the paper's code-revision
    workflow: profile, revise, re-profile).  Kernels are matched by name;
    the table reports %time and self-seconds before/after, the delta, and
    rank movement; kernels present in only one profile are marked new/gone. *)

val static_vs_measured :
  Tq_staticcheck.Estimate.row list ->
  Tq_tquad.Tquad.t ->
  (string * float * float) list
(** Pair each static model row with the inclusive bytes (reads + writes)
    that the tQUAD run measured for the same kernel:
    [(kernel, static weighted bytes, dynamic bytes)], in row order.  Rows of
    kernels the run never entered are dropped. *)

val static_tau : (string * float * float) list -> float
(** Kendall rank correlation between the static and the dynamic column of
    {!static_vs_measured}'s pairs, in [-1, 1]: (concordant - discordant) /
    pairs over 1-based descending ranks, earlier rows winning ties; [1.0]
    when there are fewer than two kernels. *)

val static_bandwidth : (string * float * float) list -> string
(** Side-by-side table of statically estimated vs dynamically measured
    per-kernel bytes — [(kernel, static weighted bytes, dynamic bytes)] —
    with each side's rank and the {!static_tau} rank-agreement summary.  The
    static column is a trip-count-weighted estimate, so only the ranking
    (which kernels dominate bandwidth), not the magnitudes, is expected to
    line up with the measured run. *)

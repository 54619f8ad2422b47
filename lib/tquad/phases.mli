(** Phase identification (the paper's Table IV).

    tQUAD "analyzes the data to identify the boundaries of potential
    phases": execution is segmented wherever the set of kernels about to be
    active stops resembling the set that was just active.  Concretely, with
    a smoothing window [w], let [F(s)] be the union of active-kernel sets
    over slices [s..s+w-1] and [R(s)] over [s-w+1..s]; a boundary is placed
    at [s] when the Jaccard similarity of [F(s)] and [R(s-1)] drops to
    [threshold] or below, provided the current phase is at least [min_len]
    slices long.  The window absorbs kernels (like [bitrev] in the case
    study) that are briefly silent without ending their phase. *)

type kernel_stats = {
  routine : Tq_vm.Symtab.routine;
  activity : int;  (** slices active within the phase *)
  avg_read_incl : float;  (** bytes/instruction, averaged over active slices *)
  avg_read_excl : float;
  avg_write_incl : float;
  avg_write_excl : float;
  max_rw_incl : float;  (** peak (read+write) bytes/instruction in the phase *)
  max_rw_excl : float;
}

type phase = {
  start_slice : int;
  end_slice : int;  (** inclusive *)
  span_pct : float;  (** share of the whole execution, in percent *)
  kernels : kernel_stats list;  (** ordered by first activity, then name *)
  aggregate_mbw : float;
      (** sum of member kernels' stack-inclusive peak bandwidths (the
          paper's "aggregate MBW") *)
}

val detect :
  ?threshold:float ->
  ?window:int ->
  ?gap:int ->
  ?min_len:int ->
  Tquad.t ->
  phase list
(** Defaults, for a run of [n] slices: [threshold = 0.2],
    [window = max 8 (n / 40)], [gap = max 2 (window / 6)] (of the window
    actually used) and [min_len = max 16 (n / 20)], so the window spans
    several periods of a program's outer loop and per-period kernel rotation
    is not mistaken for a phase change.  [gap] slices on either side of a
    candidate boundary are ignored when comparing the windows, so the
    transition slices themselves (which often carry traffic from both
    phases) do not mask the change.  Returns contiguous phases covering
    slice 0 to the last active slice; the empty list if the run produced no
    memory traffic. *)

val render : phase list -> string
(** Human-readable multi-line summary (one block per phase). *)

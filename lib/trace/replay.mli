(** Drive analysis tools from a recorded trace — once per tool through the
    sequential oracle, or all at once through the sharded streaming
    pipeline over OCaml 5 domains — with per-job fault isolation.

    A {!job} is a named factory: it builds a fresh tool instance, returns its
    event sink and a [finish] callback producing the tool's rendered result.
    A job may additionally carry a {!sharded} capability — a recipe for
    splitting the tool across trace ranges whose partial states merge back
    into the sequential result — which lets {!parallel} run a single tool on
    several domains at once.

    Every job comes back as an {!outcome}: a raising tool is captured as
    that job's [Error] (exception + backtrace) instead of aborting the whole
    run, so one broken analysis cannot take down the other tools'
    byte-identical reports. *)

type sink = {
  on_event : Event.t -> unit;
      (** take one event: {!sequential} and {!supervised} feed a sink
          through this alone *)
  on_plain : Cols.t -> unit;
      (** take a whole plain chunk's columns: afterwards the tool's state
          must equal what [on_event] over {!Cols.get}'s events, in order,
          would have left.  The columns are only the sink's to read during
          the call (the pipeline reuses the buffer). *)
  on_repeat : Squash.repeat -> unit;
      (** take a whole v4 repeat record: afterwards the tool's state must
          equal what [on_event] over {!Squash.expand}'s events would have
          left. *)
}
(** A tool instance's three entry points (see {!Tool.S}).  {!parallel}
    hands every chunk whole to every sink that wants any event, a plain
    chunk to [on_plain] and a repeat chunk's record to [on_repeat];
    {!sequential} and {!supervised} only ever call [on_event]. *)

type ('state, 'seed) shard_spec = {
  prefix_wants : Event.kind list;
      (** event kinds the prefix tracker consumes; [[]] if the tool needs no
          seed (its shards start from nothing) *)
  prefix : unit -> sink * (unit -> 'seed);
      (** Build the prefix tracker: a sink fed every [prefix_wants] event of
          the trace {e in order} (it runs inside the pipeline's ordered
          stage), handed every repeat record whole like any other sink,
          and a snapshot function capturing the tracker's current state as
          a fresh, independent ['seed].  The snapshot is taken at each
          shard boundary, so it must be callable repeatedly and cheap —
          e.g. {!Tq_prof.Call_stack.prefix} for stack-dependent tools. *)
  shard : 'seed -> sink * (unit -> 'state);
      (** Build one shard from the seed captured at its range's start: a sink
          fed the range's events of the job's [wants] kinds and its repeat
          records, in order (one walk of the range feeds every sharded
          job's shard), and a finaliser returning the shard's partial state. *)
  merge : 'state -> 'state -> unit;
      (** [merge earlier later] absorbs [later] (the state of the adjacent
          {e later} trace range) into [earlier].  {!parallel} folds shard
          states left-to-right, so after the fold the first shard's state
          must equal what a single shard over the whole trace would have
          produced. *)
  render : 'state -> string;
      (** Render the fully-merged state — must produce output byte-identical
          to the job's plain [make]-path report. *)
}
(** How to run one tool as mergeable trace-range shards.  The contract
    behind byte-identical sharded replay:
    [render (merge s_0 s_1 ... s_k)] = the sequential report, where shard
    [i] was built from a seed capturing the prefix tracker's state at the
    range boundary.  Tools that cannot shard (order-sensitive state with no
    merge, e.g. cache simulation) simply don't provide a spec and run in the
    pipeline's ordered stage instead. *)

type sharded = Sharded : ('state, 'seed) shard_spec -> sharded
(** The spec with its state/seed types packed away, so heterogeneous tools
    share one job list. *)

type job = {
  name : string;
  wants : Event.kind list;
      (** event kinds the sink consumes; events of other kinds are never
          delivered to it *)
  make : unit -> sink * (unit -> string);
  sharded : sharded option;
      (** if present, {!parallel} may split this job across trace ranges *)
}

type failure = {
  exn : exn;
  backtrace : string;  (** best-effort; empty unless backtraces are on *)
}

type outcome = (string, failure) result
(** [Ok report] — the tool's rendered result, byte-identical to a live
    instrumented run; [Error f] — the tool's factory, sink, finish or merge
    raised, or the decode pass feeding it found the trace unreadable. *)

val job :
  ?wants:Event.kind list ->
  string ->
  (unit -> (Event.t -> unit) * (unit -> string)) ->
  job
(** A job over a plain event sink, not sharded: it takes a plain chunk's
    columns by boxing their events ({!Cols.get}) and a repeat record by
    {!Squash.expand}ing it into the sink, both filtered to [wants].  [wants]
    defaults to {!Event.all_kinds}.  Narrowing it to the
    kinds the tool actually consumes (its [consume] match arms that do work)
    lets the replay driver skip the sink call for the rest; it must stay a
    superset of the consumed kinds or the tool silently loses events.  The
    analysis tools get their jobs, shard specs included, from {!Tool.job};
    a raw job is for ad-hoc sinks. *)

type run_stats = {
  rs_domains : int;  (** workers actually used (caller included) *)
  rs_shards : int;  (** trace ranges, one item each when a job is sharded *)
  rs_batch : int;
      (** the decode window, [max 4 (2 * rs_domains)]: decode runs at most
          this many chunks ahead of the slowest consumer, so it is also the
          live-chunk budget *)
  rs_chunks : int;
  rs_events : int;
  rs_decode_s : float;  (** summed across domains: chunk decode + CRC *)
  rs_ordered_s : float;  (** ordered stage: non-sharded sinks + seed prefix *)
  rs_shard_s : float;  (** range items (sharded tools' sinks), summed
                           across domains *)
  rs_merge_s : float;  (** post-join shard-state merges + renders *)
  rs_peak_live_chunks : int;
      (** high-water mark of decoded chunks held at once — the pipeline's
          actual queue depth, never above [rs_batch] *)
  rs_repeats : int;
      (** repeat deliveries: repeat chunks × the jobs that took them (a
          sharded job's prefix tracker is not counted); 0 on a v3 trace *)
}
(** One pipeline run's shape and per-stage cost, for the run manifest's
    [replay] section and the bench's scaling tables.  The run's wall time
    is the caller's to take (the CLI's [replay] span); the stage clocks say
    where it went. *)

val failure_message : failure -> string
(** One-line rendering of a failure ({!Reader.Format_error} is labelled as an
    unreadable trace). *)

val is_trace_error : failure -> bool
(** Did this job fail because the trace itself was unreadable
    ({!Reader.Format_error}) rather than because the tool raised? *)

val supervised :
  iter:((Event.t -> unit) array -> unit) ->
  job list ->
  (string * outcome) list
(** Run one supervised job group over a push-fed event stream, on the
    current domain — for streams that are not a recorded trace, such as a
    {!Probe} feeding tools from a live engine.  [iter] receives one fused,
    guarded sink per event tag ({!Event.n_kinds} of them, indexed by
    {!Event.tag}) and must deliver every event of the stream to the sink at
    its tag.  The group is built by the same routine as {!parallel}'s
    ordered stage, so supervision matches: a job whose factory, sink or
    finish raises is retired and reported as its own [Error]; an exception
    escaping [iter] itself fails every job still live.  Each sink hands
    an event to its members one guarded call each: this per-event path
    serves the live oracle, which no replay timing covers.  Never
    raises. *)

val sequential : Reader.t -> job list -> (string * outcome) list
(** Replay the trace once per job, in order, on the current domain — the
    oracle the sharded pipeline is checked against.  Never raises on a
    failing job or an unreadable trace — each job's result is its own
    {!outcome}. *)

val parallel :
  ?domains:int ->
  ?shards:int ->
  ?chunk:(int -> Reader.decoded) ->
  ?stats:(run_stats -> unit) ->
  Reader.t ->
  job list ->
  (string * outcome) list
(** Replay through the sharded streaming pipeline — the one multi-tool
    replay engine, behind [tquad replay --all] and every served job.  Every
    chunk is decoded and CRC-verified {e exactly once} into a pooled slot
    by [chunk].  By default that is {!Reader.chunk_into}[ reader] into a
    column buffer the pipeline reuses once the chunk's slot is freed, so
    decoding a plain chunk allocates nothing once the pool is built; a
    caller's [chunk] (the serve layer passes a cache lookup with its
    cancellation checkpoint) returns chunks it owns, which the pipeline
    never writes to.  The chunks then
    flow through two kinds of consumers running concurrently on one shared
    domain pool:

    - the {e ordered stage} — a single token walks the chunks in trace
      order, feeding non-sharded jobs' sinks and the sharded jobs' seed
      prefix trackers, and snapshotting shard seeds at range boundaries;
    - {e range items} — the trace is split into [shards] event-balanced
      chunk ranges, and each range is one item: a supervised group of
      every sharded job's shard for that range, built the same way as the
      ordered stage's group.  A range starts once its seeds are
      snapshotted and consumes its chunks as they decode, possibly far
      ahead of the ordered token.

    Both walk a chunk through the same delivery: each member of the group
    (a job's sink, a shard or a prefix tracker) that wants any event takes
    the whole chunk in one guarded call, a plain chunk's columns by
    {!sink}[.on_plain], a repeat chunk's record ({!Reader.decoded}) by
    {!sink}[.on_repeat].  So each chunk is walked at most twice, once by
    the ordered stage and once by its range, however many tools are
    sharded.

    A decoded chunk is freed (its buffer back in the pool) once the
    ordered stage and its range have walked it; decode runs at most
    [max 4 (2*domains)] chunks ahead of the slowest consumer, so at most
    that many decoded chunks, and column buffers, are live at once
    ({!run_stats}[.rs_batch]).  Results come back in job order,
    reports byte-identical to {!sequential}.

    [domains] defaults to [Domain.recommended_domain_count ()] and is
    always capped by it — decode and analysis share the one pool, so
    oversubscribing the machine only adds work.  The calling domain is
    worker [0] and [domains - 1] more are spawned, so a [domains = 1] run
    spawns none.  [shards] defaults to the domain count (capped at the
    chunk count), one range item per domain: the ranges are the only
    parallelism beside the ordered stage and decode.  With one shard every
    job runs its plain [make] path in the ordered stage, with no prefix
    tracker or merge: [~domains:1] with default shards is one ordered walk
    on the calling domain.  [shards > 1] with [domains = 1] still runs the
    full shard/merge path on the calling domain, which keeps it
    exercisable on any machine.

    Supervision: the ordered group and the range groups share each job's
    liveness, so a job whose factory, [on_plain], [on_repeat], merge or
    finish raises in any of them is retired in all of them (its sinks in
    later chunks and ranges do no work, and it takes none of the rest of
    the chunk it raised in) and reported as its own [Error]; the other
    jobs run to completion, each taking every chunk whole.  Only an exception from
    [chunk] (an unreadable trace raising {!Reader.Format_error}, or a
    caller's cancellation) fails every job still live; a job that had
    already failed keeps its own failure.  No exception escapes a domain.

    [stats] receives the pipeline's {!run_stats} before the call
    returns.  An empty job list returns [[]]
    without touching the trace. *)

val check_program : Reader.t -> Tq_vm.Program.t -> (unit, string) result
(** Does this trace belong to this program?  [Error] explains a fingerprint
    mismatch; a trace stamped with fingerprint [0L] (recorder did not know
    the program) is accepted. *)

(** The serve daemon's job manager: a bounded queue of replay jobs
    multiplexed over a shared pool of OCaml 5 worker domains.

    Each submitted {!spec} is one served replay — a trace, a program and a
    tool subset — executed by {!Tq_trace.Replay.parallel} on its worker's
    domain ([~domains:1]: one ordered walk, no sharding), with the shared
    decoded-chunk cache as the pipeline's chunk source, so per-tool failures
    stay per-tool and hot chunks decode once.

    Backpressure is structural: the queue has a hard bound and {!submit}
    refuses (never blocks, never grows) when it is full — the server turns
    the refusal into a typed [busy] response.  Connection threads block in
    {!wait} (one condition variable, broadcast on every state change), so a
    slow job never ties up a worker beyond its own execution. *)

type spec = {
  trace_key : int64;  (** cache-key namespace, from {!Protocol.trace_key} *)
  reader : Tq_trace.Reader.t;
  prog : Tq_vm.Program.t;
  tools : string list;  (** validated against {!Tq_report.Toolset.names} by the caller *)
  slice : int;
  period : int;
}

type outcome = (string * Tq_trace.Replay.outcome) list
(** One entry per requested tool, in request order. *)

type status =
  | Unknown  (** no such job id *)
  | Pending  (** queued or running *)
  | Done of outcome

exception Cancelled of string
(** The cooperative cancellation token fired — the reason says who pulled
    it (e.g. a disconnected client).  Appears as the [Error] exn of every
    tool in a cancelled job's outcome. *)

exception Deadline_exceeded of float
(** The job overran its wall-clock budget (the payload, in seconds).
    Appears as the [Error] exn of every tool in a timed-out job's
    outcome. *)

type stats = {
  submitted : int;
  completed : int;
  failed_jobs : int;  (** completed jobs with at least one [Error] outcome *)
  timed_out_jobs : int;  (** jobs killed by their wall-clock deadline *)
  cancelled_jobs : int;  (** jobs killed by their cancellation token *)
  rejected : int;  (** submissions refused by the full queue *)
  depth : int;  (** queued, not yet picked up *)
  running : int;
  peak_depth : int;
  queue_limit : int;
  workers : int;
  latency : float array;
      (** execution wall times (seconds) of up to the last 4096 completed
          jobs, unordered — feed {!Tq_util.Stats.percentile} *)
}

type t

val create :
  ?workers:int ->
  ?on_done:(int -> unit) ->
  ?default_deadline_s:float ->
  queue_limit:int ->
  cache:Tq_trace.Reader.decoded Lru.t ->
  unit ->
  t
(** Start the pool.  [workers] defaults to
    [Domain.recommended_domain_count - 1] (at least 1) and is capped at
    [Domain.recommended_domain_count], as replay caps its domains: more
    domains than cores only add contention, and the runtime refuses to spawn
    beyond its own limit.  [workers:0] spawns
    no domains — jobs then run only via {!step}, the deterministic mode the
    tests use.  [on_done id] fires after job [id]'s results are stored and
    waiters are woken, outside the manager lock (the server writes the
    job's manifest there).  [default_deadline_s] is the wall-clock budget
    applied to every job that does not carry its own (none by default). *)

val chunk_weight : Tq_trace.Reader.decoded -> int
(** The weight, in estimated bytes, that a decoded chunk charges against
    the shared cache's budget: [64 * events + 256] for a plain chunk; for
    a repeat chunk, which holds its record alone, [64 * body events +
    8 * (4 * fields + literal deltas) + 512].  It is at least the chunk's
    reachable heap size (docs/METRICS.md, serve chunk cache), so the
    cache's capacity bounds the memory its entries hold. *)

val submit : ?deadline_s:float -> t -> spec -> (int, [ `Queue_full of int ]) result
(** Enqueue; [Ok id] or [`Queue_full depth] when the bound is hit (also
    after {!drain} began).  Never blocks.

    [deadline_s] overrides the pool's default wall-clock budget, measured
    from submission (queue wait counts: a stale job fails fast instead of
    occupying a worker slot).  Enforcement is cooperative — the pipeline's
    chunk source checks before each chunk — so an over-budget job dies
    within one chunk's work, its outcome a typed {!Deadline_exceeded}
    failure for every tool, and its worker-domain slot is freed. *)

val cancel : ?reason:string -> t -> int -> bool
(** Pull job [id]'s cooperative cancellation token.  [false] if the id is
    unknown or the job already finished (its results stay readable); [true]
    if the token was (or already had been) pulled while the job was queued
    or running — it will finish promptly with a typed {!Cancelled} failure
    for every tool.  Used by the server when a job's client disconnects. *)

val status : t -> int -> status

val replay_stats : t -> int -> Tq_trace.Replay.run_stats option
(** The {!Tq_trace.Replay.parallel} statistics of finished job [id], for
    its manifest; [None] for an unknown, pending or never-replayed job. *)

val killed : outcome -> [ `Deadline_exceeded | `Cancelled ] option
(** The job-level verdict carried by a finished outcome: [Some] when the
    watchdog or a cancellation killed the whole job ([None] for ordinary
    completions, including per-tool failures).  The server turns this into
    the typed [killed] member of the report response. *)

val wait : t -> int -> outcome option
(** Block until the job completes; [None] for an unknown id.  Returns
    immediately if it is already done. *)

val step : t -> bool
(** Run one queued job to completion on the calling thread; [false] when
    the queue is empty.  The test-mode scheduler for [workers:0] pools (it
    works on any pool). *)

val stats : t -> stats

val drain : t -> unit
(** Stop accepting submissions, run the queue dry, join the worker domains.
    Completed results stay readable through {!status}/{!wait}.
    Idempotent. *)

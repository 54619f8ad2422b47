(** The replayable analysis toolset — renderers, job factories and the
    manifest codecs shared by the CLI, the bench and the serve daemon.

    One report codec path: [tquad gprof] on a live run, [tquad replay
    --tool gprof] on a trace, and a served [replay] job all print their
    reports through the same renderer, so the three are byte-identical for
    the same events.  The registry sits above the six tool libraries and
    below the daemon, so the analysis path does not link the server. *)

val names : string list
(** Every replayable tool, in canonical order:
    [tquad; quad; gprof; mix; cache; footprint]. *)

val job :
  prog:Tq_vm.Program.t ->
  slice:int ->
  period:int ->
  string ->
  (Tq_trace.Replay.job, string) result
(** Build the named tool's replay job with {!Tq_trace.Tool.job}, from the
    tool's {!Tq_trace.Tool.S} module, its config and its renderer.  [slice]
    is the tquad time-slice interval (instructions), [period] the gprof
    sampling period; the other configs are the defaults (main-image
    attribution, {!Tq_prof.Cache_sim.default_l1}).  Every tool except
    [cache] carries its shard capability, so {!Tq_trace.Replay.parallel}
    can split the trace into chunk ranges; cache simulation is
    order-sensitive and replays on the ordered walk.  [Error] names the
    unknown tool and lists the valid ones. *)

(** {1 Renderers}

    Each takes a finished tool instance and renders the exact report its
    live subcommand prints. *)

val render_gprof : Tq_gprofsim.Gprofsim.t -> string
val render_quad : Tq_quad.Quad.t -> string
val render_tquad : slice:int -> Tq_tquad.Tquad.t -> string
val render_mix : Tq_prof.Ins_mix.t -> string

(** {1 Shared manifest sections} *)

val trace_section :
  ?extra:(string * Tq_obs.Json.t) list -> Tq_trace.Reader.t -> Tq_obs.Json.t
(** The canonical ["trace"] description of a loaded reader — version,
    events, chunks, bytes, program fingerprint, last icount, the v4
    compression accounting, plus salvage statistics when present.  One
    codec path shared by the CLI's manifest ["trace"] section, [tquad
    trace-info --json] and the serve daemon's [upload] and [trace-info]
    responses, so the three can never drift.  [extra] members are appended
    after the standard ones. *)

val replay_section : Tq_trace.Replay.run_stats -> Tq_obs.Json.t
(** The canonical ["replay"] manifest section of one pipeline run:
    domains, shards, batch (the live-chunk budget), chunks, events,
    peak_live_chunks, repeats (the repeat deliveries) and stage_s.  The one
    codec behind [tquad replay --all --metrics] and the serve daemon's
    per-job manifests. *)

(** The replayable analysis toolset — renderers and job factories shared by
    the CLI and the serve daemon.

    One report codec path: [tquad gprof] on a live run, [tquad replay
    --tool gprof] on a trace, and a served [replay] job all print their
    reports through the same renderer, so the three are byte-identical for
    the same events.  These functions lived in the CLI before the daemon
    existed; they moved here so the server does not depend on the binary. *)

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

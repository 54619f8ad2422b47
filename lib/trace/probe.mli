(** The event-flow probe: a DBI tool that turns one execution into the
    {!Event} stream.

    This is the single place where machine state is sampled for analysis.
    Every profiler's [attach] is now probe + its event sink, and the recorder
    is probe + {!Writer} — which is what makes a replayed analysis
    bit-identical to a live one: both consume the same stream, produced by
    the same instrumentation.

    Emission order: [Block_exec] at block dispatch, then per instruction
    [Rtn_entry] (at routine entries), the memory events, and [Ret] last.  Predicated accesses are emitted only when
    the guard is true ([INS_InsertPredicatedCall] semantics); prefetches
    come out as [Prefetch]; block copies carry their dynamic length. *)

type claim = {
  slots : int list;
      (** slots of the block whose [Load]/[Store] events the tool takes
          itself: the probe emits none for them (their other events —
          [Rtn_entry], [Ret] — still come out) *)
  actions : (int * Tq_dbi.Engine.action) list;
      (** the tool's own actions, on slots of the block as
          {!Tq_dbi.Engine.add_trace_instrumenter} places them; at a slot
          they run after the probe's events *)
}
(** A tool's claim on one block: the accesses it accounts for with its
    own actions rather than one event each — as one block summary
    (tQUAD's frame accesses) or as one action per access (QUAD). *)

val attach :
  ?wants:Event.kind list ->
  ?claim:(Tq_dbi.Engine.Ins_view.view array -> claim) ->
  Tq_dbi.Engine.t ->
  (Event.t -> unit) ->
  unit
(** Register the probe's instrumentation: one trace instrumenter that walks
    each block at compile time and instruments only what is asked for.
    [wants] (default every kind) names the event kinds the sink reads; no
    other kind is instrumented, so a tool pays for nothing it drops.
    [claim], called once per block compile with the block's views, lets a
    tool take some of the block's loads and stores with its own actions
    ({!claim}); the default claims none.  Must be called before the engine
    runs.  Multiple probes (one per live tool) may coexist on one engine;
    each synthesizes its own stream.  The recorder is [attach] with every
    kind, no claim and {!Writer.emit} as the sink: a [Block_exec]'s address
    names the engine's compiled trace (the code cache is keyed by it), so
    the v4 suppressor needs nothing from the engine beyond the event
    itself. *)

val record :
  ?fuel:int ->
  ?compress:bool ->
  Tq_dbi.Engine.t ->
  path:string ->
  int
(** Attach a probe streaming to [path], run the engine to halt, append the
    final [End] event and close the file (also on exceptions).  Returns the
    number of events recorded.  [compress] (default [false]) records a v4
    redundancy-suppressed container (see {!Writer}); the decoded event
    stream — and therefore every replayed report — is identical either way.
    The recording streams to ["path.tmp"] and is atomically renamed to
    [path] when finalized; a recorder killed mid-run therefore leaves a
    [.tmp] file that {!Reader.load}[ ~mode:Salvage] can recover chunk by
    chunk.  @raise Tq_vm.Executor.Out_of_fuel (and anything [Engine.run]
    raises) after closing the partial file. *)

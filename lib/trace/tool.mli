(** The one signature every analysis tool implements.

    QUAD, tQUAD, gprofsim, the instruction mix, the cache simulator and the
    footprint tool are companion analyses over a single event stream: each
    is built from a config and the program, consumes {!Event.t}s, whole
    plain chunks as columns ({!Cols}) and whole v4 repeat records (in
    closed form where it can), and —
    where its state merges — splits into trace-range shards.  {!S} states
    that once; {!job} and {!attach} derive the replay job (plain and
    sharded paths) and the live attachment from it, so no tool wires
    either by hand. *)

type ('config, 'seed, 't) shard = {
  prefix_wants : Event.kind list;
      (** event kinds [prefix] consumes; [[]] if shards need no seed *)
  prefix : 'config -> Tq_vm.Program.t -> Replay.sink * (unit -> 'seed);
      (** the ordered prefix tracker and its snapshot — see
          {!Replay.shard_spec}[.prefix] *)
  seeded : 'config -> Tq_vm.Program.t -> 'seed -> 't;
      (** a fresh analyser starting mid-trace from a boundary's seed *)
  merge_into : 't -> 't -> unit;
      (** [merge_into a b] folds [b], the adjacent later trace range, into
          [a]; after a left-to-right fold the first state reports exactly
          what one sequential analyser would *)
}
(** How a tool splits across trace ranges. *)

module type S = sig
  type t
  type config
      (** the parameters [create] takes (slice interval, sampling period,
          call-stack policy, cache geometry; [unit] if none) *)

  type seed  (** shard seed: a call stack, a sampling phase, or [unit] *)

  val interest : Event.kind list
  (** Event kinds {!consume} does work on; replay delivers no others. *)

  val consume : t -> Event.t -> unit
  (** Process one event: the entry point of live runs and of the
      sequential oracle. *)

  val consume_plain : t -> Cols.t -> unit
  (** Take a whole plain chunk's columns.  It must leave [t] as {!consume}
      over the chunk's events ({!Cols.get}), in order, would have, so
      reports stay byte-identical.  The four memory tools take it through
      {!Tq_prof.Call_stack.attribute_plain}, gprofsim and the instruction
      mix by their own loop over the kinds they read.  Only
      {!Replay.parallel} hands tools columns. *)

  val consume_repeat : t -> Squash.repeat -> unit
  (** Take a whole v4 repeat record — a loop body, its iteration count and
      its per-field strides.  It must leave [t] as {!consume} over
      {!Squash.expand}'s events would have, so reports stay
      byte-identical.  tQUAD and the footprint tool take, in closed form,
      records whose bodies hold no [Rtn_entry]/[Ret] and whose access
      fields are affine, and walk the others' fields in order
      ({!Squash.fields}); gprofsim takes in closed form those whose blocks
      also tile each iteration without a gap, and expands the others; the
      instruction mix takes every record in closed form; QUAD and the
      cache simulator walk every record in order (docs/TRACE.md §6).  Only
      {!Replay.parallel} hands tools records: the sequential oracle and
      live runs feed {!consume} alone. *)

  val create : config -> Tq_vm.Program.t -> t
  (** A fresh analyser for a run starting at the first event. *)

  val shard : (config, seed, t) shard option
  (** [None] for tools whose state is order-sensitive with no merge. *)
end

val job :
  (module S with type config = 'c and type t = 't) ->
  string ->
  'c ->
  Tq_vm.Program.t ->
  render:('t -> string) ->
  Replay.job
(** [job (module T) name config prog ~render] is the tool's replay job:
    [wants = T.interest], a [make] path that renders a {!S.create}d
    analyser, and — when [T.shard] is [Some] — the matching
    {!Replay.sharded} spec whose merged state goes through the same
    [render]. *)

val attach :
  ?claim:('t -> Tq_dbi.Engine.Ins_view.view array -> Probe.claim) ->
  wants:Event.kind list ->
  (Tq_vm.Program.t -> 't) ->
  ('t -> Event.t -> unit) ->
  Tq_dbi.Engine.t ->
  't
(** [attach ~wants:T.interest create consume engine] builds the analyser
    over the engine's program and feeds it the live event flow through
    {!Probe.attach}[ ~wants] — every tool's [attach].  [claim] is the
    tool's block summary over the built analyser: the accesses it claims
    reach the tool through its own actions, not through [consume] (tQUAD's
    frame accesses, {!Probe.claim}).  Must happen before the engine
    runs. *)

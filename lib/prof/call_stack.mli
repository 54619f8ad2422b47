(** The profilers' internal call stack.

    A runtime-instrumentation tool sees no call-graph or frame metadata in
    the binary (the paper stresses this: "we needed to implement our own call
    graph... an internal call stack data structure is dynamically created and
    maintained").  This module is that structure: frames are pushed from
    routine-entry analysis events and popped from return events, matched by
    stack-pointer value so that frames the tool chose {e not} to track (e.g.
    library routines under [Main_image_only]) never unbalance the stack. *)

type policy =
  | Track_all  (** push every routine *)
  | Main_image_only
      (** push only main-image routines; library/OS activity is attributed
          to the innermost main-image frame (the paper's "exclude OS and
          library routine calls" option) *)

val charged_to_itself : policy -> Tq_vm.Symtab.routine -> bool
(** Whether the policy charges an access of routine [r]'s code to [r]
    itself, whatever the stack holds: under [Track_all] always, under
    [Main_image_only] when [r] is in the main image.  Such an access's
    kernel is known where the instruction is instrumented, so a live tool
    can fix it when the block compiles; the routines this holds for are
    also the ones the stack pushes. *)

type t

val create : Tq_vm.Symtab.t -> policy -> t
(** An empty stack over the program's routines. *)

val on_entry : t -> Tq_vm.Symtab.routine -> sp:int -> unit
(** Call from a routine-entry analysis event; [sp] is the stack pointer at
    the entry instruction (pointing at the pushed return address). *)

val on_ret : t -> sp:int -> unit
(** Call from a return-instruction analysis event (before the pop executes);
    pops the top frame iff it was entered at this [sp]. *)

val top : t -> Tq_vm.Symtab.routine option
(** The innermost tracked frame. *)

val attribute :
  t ->
  ('s ->
  int ->
  write:bool ->
  icount:int ->
  sp:int ->
  ea:int ->
  size:int ->
  unit) ->
  's ->
  Tq_trace.Event.t ->
  unit
(** [attribute t access s ev] is the one event front end of the
    memory tools (tQUAD, QUAD, the cache simulator and the footprint tool).
    [Rtn_entry] and [Ret] keep the stack in step; every load, every store
    and both halves of a block copy (the source read, then the destination
    write, each of the dynamic length, which may be 0) go to
    [access s kernel ~write ~icount ~sp ~ea ~size], where [kernel] is the
    routine id the access is charged to.  Under [Track_all] that is the
    routine statically containing the instruction; under
    [Main_image_only], library code is charged to the innermost main-image
    frame, and an access with no such frame is dropped.  Other events are
    ignored.  Allocation-free when [access] is a top-level function. *)

val attribute_plain :
  t ->
  ('s ->
  int ->
  write:bool ->
  icount:int ->
  sp:int ->
  ea:int ->
  size:int ->
  unit) ->
  ('s -> ea:int -> size:int -> unit) ->
  's ->
  Tq_trace.Cols.t ->
  unit
(** [attribute_plain t access prefetch s c] is {!attribute} [t access s]
    over every event of the plain chunk [c], in order, read from its
    columns without building one, and sends each [Prefetch]'s address and
    size to [prefetch s ~ea ~size] as {!attribute_record} does: the memory
    tools' {!Tq_trace.Tool.S}[.consume_plain].  Allocation-free when
    [access] and [prefetch] are top-level functions. *)

val no_prefetch : 's -> ea:int -> size:int -> unit
(** The prefetch handler of a tool that discards prefetches. *)

val attribute_repeat :
  t ->
  ('s ->
  int ->
  write:bool ->
  icount:int ->
  sp:int ->
  ea:int ->
  size:int ->
  unit) ->
  ('s ->
  int ->
  write:bool ->
  iters:int ->
  icount:int ->
  d_icount:int ->
  sp:int ->
  d_sp:int ->
  ea:int ->
  d_ea:int ->
  size:int ->
  unit) ->
  's ->
  Tq_trace.Squash.repeat ->
  unit
(** [attribute_repeat t access run s r] is {!attribute} [t access s] over
    every event {!Tq_trace.Squash.expand}[ r] yields, in closed form where
    it can be: every access of [r]'s body goes to [run s] once, as an
    affine run over the record's iterations, in body order (a block copy's
    source run, then its destination run).  Iteration [i] of a run is the
    access [kernel ~write ~icount:(icount + i * d_icount)
    ~sp:(sp + i * d_sp) ~ea:(ea + i * d_ea) ~size], for
    [0 <= i < iters]; [size] is the same every iteration and may be 0.  A
    body holding [Rtn_entry] or [Ret] (the stack, and with it an access's
    kernel, would change between iterations), a literal access field or a
    block copy whose length changes between iterations is walked in order
    instead, by {!attribute_record} with no prefetch handler.  A tool
    whose [run] adds to its state what [access] would over the
    iterations, in any order, takes every record by this.
    Allocation-free in closed form when [run] is a top-level function. *)

val attribute_record :
  t ->
  ('s ->
  int ->
  write:bool ->
  icount:int ->
  sp:int ->
  ea:int ->
  size:int ->
  unit) ->
  ('s -> ea:int -> size:int -> unit) ->
  's ->
  Tq_trace.Squash.repeat ->
  unit
(** [attribute_record t access prefetch s r] is {!attribute} [t access s]
    over every event {!Tq_trace.Squash.expand}[ r] yields, in the same
    order, without building one: it walks the record's fields
    ({!Tq_trace.Squash.fields}) iteration by iteration, keeps the stack in
    step with the body's [Rtn_entry]/[Ret], sends every access to
    [access], and sends each [Prefetch]'s address and size to
    [prefetch s ~ea ~size].  It takes every record, whatever its fields
    or calls, so a tool whose state depends on the order of its accesses
    (QUAD's producers, the cache simulator's replacement state) takes
    records by it, as {!attribute_repeat} does the records it cannot take
    in closed form.  Allocation-free per event when [access] and
    [prefetch] are top-level functions. *)

val interest : Tq_trace.Event.kind list
(** The event kinds {!attribute} reads. *)

val prefix :
  Tq_vm.Symtab.t -> policy -> Tq_trace.Replay.sink * (unit -> t)
(** The shard-seed prefix tracker of every stack-dependent tool: a sink
    that keeps a fresh stack of the given policy in step with the
    [Rtn_entry]/[Ret] events it is fed (others are ignored), reads them
    out of every plain chunk's columns (a chunk with none,
    {!Tq_trace.Cols.t}[.calls = 0], is skipped), and takes every repeat
    record — by {!attribute_record}'s walk when the body
    calls or returns, as a no-op otherwise — and a snapshot returning an
    independent copy of the stack. *)

val shard :
  ('config -> policy) ->
  seeded:('config -> Tq_vm.Program.t -> t -> 'a) ->
  merge_into:('a -> 'a -> unit) ->
  ('config, t, 'a) Tq_trace.Tool.shard option
(** The shard part of a tool whose only seed is its call stack: the
    {!prefix} tracker of the config's policy over [Rtn_entry]/[Ret], and the
    tool's own [seeded] and [merge_into]. *)

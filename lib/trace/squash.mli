(** Record-time redundancy suppression — the v4 container's compressor.

    Loop-dominated executions emit the same loop-body event sequence over
    and over, only the numeric operands (instruction counts, addresses,
    stack pointers, lengths) advancing — usually by a constant stride per
    iteration.  This module detects such runs online, as the probe emits
    events, and hands {!Writer} either plain events (in order) or whole
    {e repeat records} ({!repeat}): the body's events once, an iteration
    count, and per numeric field either one affine stride or the literal
    per-iteration deltas (see docs/TRACE.md for the wire encoding,
    {!Event.num_fields} for the canonical field order).

    Detection is keyed on the block address: a candidate body is the
    segment window between two [Block_exec] events with the same [addr].
    The address names the engine's compiled trace one to one (the code
    cache is keyed by it and never evicts), so the key needs nothing
    beyond the event stream, and a container is a function of its events.

    Guarantees: the concatenation of everything flushed — plain events plus
    each repeat record expanded ({!expand}) to [iters] copies of its body
    with the field tables applied — is exactly the input event stream, in
    order.  Memory is bounded by the pending window, the body cap and the
    uncommitted-iteration buffer; a run reaching the raw-event cap is
    flushed and detection restarts.

    A run is committed to a repeat record once it covers at least 2
    iterations {e and} 32 raw events; shorter runs replay as plain events
    (tiny repeat chunks would cost more than they save). *)

val max_body : int
(** Cap on a repeat's body length in events (512), also the pending-window
    size.  A wire rule: {!Reader} refuses a repeat or body-def chunk whose
    body is longer. *)

val max_raw : int
(** Cap on the raw events one repeat record covers (65536), bounding the
    decoder's per-chunk expansion.  A wire rule: {!Reader} refuses a repeat
    chunk with [B × iters] above it. *)

type repeat = {
  body : Event.t array;  (** iteration 0, [B] events *)
  iters : int;  (** iterations, body included ([>= 1]) *)
  literal : bool array;
      (** per numeric field (flattened {!Event.num_fields} order over the
          body): [true] = the field takes its deltas from [lits] *)
  stride : int array;  (** per field: the affine stride, when not literal *)
  lits : int array array;
      (** per field: the [iters - 1] per-iteration deltas, when literal *)
}
(** One repeat record: what a v4 repeat chunk means.  The suppressor emits
    it, the writer prices and encodes it, the reader decodes it, and the
    replay tools, which take every record ({!Tool.S.consume_repeat}),
    read it. *)

val expand : repeat -> (Event.t -> unit) -> unit
(** [expand r sink] passes the record's [B × iters] raw events to [sink],
    in order: the body, then [iters - 1] iterations in which every numeric
    field [f] advances by [r.lits.(f).(i - 1)] when [r.literal.(f)], else
    by [r.stride.(f)].  The one expander: {!Reader.iter}, a raw
    {!Replay.job}'s sink, gprofsim (for a record off its closed form) and
    the writer (pricing a run's plain encoding) all expand through it. *)

(** {2 The in-order field walk}

    What {!expand} yields, without building an event: a consumer that
    needs a record's events in order (QUAD's shadow memory, the cache
    simulator's replacement state, a shard prefix tracker's call stack)
    walks [iters] iterations over the body and reads iteration [i]'s
    numeric fields from [vals] —

    {[
      let foff, vals = Squash.fields r in
      for i = 0 to r.iters - 1 do
        if i > 0 then Squash.advance r vals i;
        (* body event k of iteration i: the structure of r.body.(k), its
           numeric fields at vals.(foff.(k) ..) *)
      done
    ]}

    — the same fields, in the same order, as {!Event.read_num_fields}
    over the [k]-th event {!expand} passes in iteration [i]. *)

val fields : repeat -> int array * int array
(** [fields r] is [(foff, vals)]: [foff.(k)] is the offset of body event
    [k]'s first numeric field ([foff.(B)] = the field count), and [vals]
    (one slot per field) holds iteration 0's fields, read from the body. *)

val advance : repeat -> int array -> int -> unit
(** [advance r vals i] moves [vals] from iteration [i - 1]'s fields to
    iteration [i]'s ([1 <= i < r.iters]). *)

type out = {
  out_plain : Event.t -> unit;  (** one event the suppressor won't elide *)
  out_repeat : repeat -> unit;
      (** a committed run: its body repeated [iters] times ([iters >= 2],
          body included); a literal field's stride is [0] *)
}

type t

val create : out -> t
(** A suppressor flushing to [out]. *)

val feed : t -> Event.t -> unit
(** Feed one event.  [Block_exec] events are segment boundaries keyed by
    their address. *)

val flush : t -> unit
(** Flush all buffered state: the open run (as a repeat record if
    committed, else as plain events), the pending window and the open
    segment.  Call exactly once, at end of stream. *)

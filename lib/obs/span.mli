(** Pipeline spans: timed stages of one run.

    A {!recorder} collects one span per pipeline stage — compile, link,
    verify, execute, record, replay, salvage — with the stage's wall time,
    the GC heap high-water mark when the stage closed, and free-form integer
    attributes (instructions retired, events produced, ...).  Like
    {!Metrics}, a recorder is either enabled or the shared {!disabled}
    no-op: {!with_span} on a disabled recorder is exactly the wrapped call.

    Spans may nest; each records its own start offset and duration, so the
    manifest preserves the stage structure without an explicit tree. *)

type recorder

val create : unit -> recorder
val disabled : recorder
val is_enabled : recorder -> bool

val with_span :
  recorder -> ?attrs:(unit -> (string * int) list) -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a named stage.  [attrs] is evaluated after the thunk
    returns (so it can read results).  If the thunk raises, the span is
    still recorded — with a [("failed", 1)] attribute instead of [attrs] —
    and the exception passes through. *)

val to_json : recorder -> Json.t
(** The manifest's ["spans"] section, ordered by start time (outer spans
    before the inner spans they contain): a list of objects with [name],
    [start_s] (offset from the recorder's creation, seconds), [wall_s],
    [top_heap_words] ([Gc.((quick_stat ()).top_heap_words)] when the span
    closed — the major-heap high-water mark, a peak-live-memory proxy) and
    an [attrs] object of integers (e.g. [("instructions", n)]). *)

(** Deterministic, seeded fault injection for trace containers.

    The harness behind the trace subsystem's robustness contract: for {e any}
    mutation of a valid v3 or v4 trace, a strict {!Tq_trace.Reader.load} must
    either succeed with byte-identical events or raise
    {!Tq_trace.Reader.Format_error} (never another exception, never wrong
    events), and a salvage load must return a CRC-verified subsequence of the
    original events.  [test/test_fault.ml] and [test/test_compress.ml] check
    exactly that property; the CI corruption sweep drives the same mutations
    through the CLI.

    Mutations are pure string transforms — the input container is parsed
    with faultgen's own minimal v3/v4 scanner, not through [Reader] (the
    module exists to test the reader, so it must not trust it).  All
    generation is reproducible from the seed alone; on a v3 container the
    seeded draw is unchanged from before v4 existed, so archived sweep
    corpora stay byte-reproducible. *)

type mutation =
  | Bit_flip of { offset : int; bit : int }
      (** flip one bit anywhere in the file *)
  | Truncate of { len : int }  (** keep the first [len] bytes *)
  | Duplicate_chunk of { index : int }
      (** splice a byte-identical copy of chunk [index] right after it
          (index/trailer left stale on purpose) *)
  | Drop_chunk of { index : int }
      (** remove chunk [index] (index/trailer left stale on purpose) *)
  | Corrupt_index of { offset : int; bit : int }
      (** bit-flip constrained to the index region *)
  | Corrupt_trailer of { offset : int; bit : int }
      (** bit-flip constrained to the 16-byte trailer *)
  | Strip_tail
      (** drop the index and trailer — the shape of a recorder killed
          mid-run (an un-finalized [.tmp] file) *)
  | Flip_kind of { index : int }
      (** toggle chunk [index]'s kind byte between plain (0xA7) and repeat
          (0xA8) — caught only because v4 CRCs cover the kind byte *)
  | Corrupt_repeat of { offset : int; bit : int }
      (** bit-flip constrained to the body of a v4 repeat or body-def chunk
          (a torn loop body; salvage must drop the chunk — and, for a torn
          def, every repeat referencing it — and resync on the next) *)

val describe : mutation -> string
(** Human-readable, e.g. for logging which corruption a sweep applied. *)

val slug : mutation -> string
(** Short kebab-case kind name (["bit-flip"], ["strip-tail"], ...) for file
    names and CLI arguments. *)

val apply : mutation -> string -> string
(** Apply the mutation to a raw container image.
    @raise Invalid_argument if the input is not an intact v3/v4 container or
    the mutation's parameters do not fit it. *)

val random : seed:int -> string -> mutation
(** A mutation chosen deterministically from [seed], with parameters drawn
    to fit the given container (chunk indices in range, region-constrained
    offsets).  Same seed + same container = same mutation; the v4-only kinds
    ([Flip_kind], [Corrupt_repeat]) are drawn only for v4 inputs.
    @raise Invalid_argument if the input is not an intact v3/v4 container. *)

val sweep : seed:int -> count:int -> string -> (mutation * string) list
(** [count] independent seeded mutations of the same container, each paired
    with the mutated image. *)

(** {2 Seeded generator}

    The self-contained LCG (Java's 48-bit parameters) behind every seeded
    draw here and in the daemon's wire chaos harness: reproducible from the
    seed alone, independent of [Random]'s global state. *)

type rng

val rng : int -> rng
val next : rng -> int
(** The next draw, a non-negative 29-bit integer. *)

val pick : rng -> int -> int
(** [pick r bound] draws from [0, bound), or is 0 when [bound <= 0]. *)

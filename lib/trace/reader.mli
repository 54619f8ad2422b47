(** Reader for recorded traces (see {!Writer} for the file layout and
    [docs/TRACE.md] for the full wire-format specification).

    A loaded reader is immutable — {!iter} and {!chunk_events} keep all
    decoding state local — so one reader can drive any number of concurrent
    replay domains over the same in-memory image ({!Replay.parallel}).

    Both container versions load here: v3 (CRC + salvage) and v4
    (redundancy-suppressed).  A v4 {e repeat chunk} — an iteration count,
    per-field stride/literal tables and a reference to the {e body-def
    chunk} holding the loop body's events (interned: one def serves every
    repeat of the same body) — decodes to its {!Squash.repeat} record.
    {!iter} and {!chunk_events} expand it through {!Squash.expand}, the
    writer's own expander, so they see the exact event stream the probe
    emitted; {!chunk} returns the record alone, which the replay
    pipeline hands whole to its consumers.  A plain chunk decodes into
    columns ({!Cols}, the one plain-payload decoder), which {!chunk}
    returns as they are and {!iter} and {!chunk_events} box.  Body refs are
    cross-checked against the def's payload CRC at load time, so a
    reference can never silently resolve to the wrong body; in [Salvage]
    mode a repeat chunk whose def was lost to corruption is dropped and
    counted.  All event counts exposed here ({!n_events},
    {!chunk_event_count}, the index) are {e raw} (decoded) counts;
    {!stored_events} is the physically-encoded count.

    One classifier builds the chunk table in both modes and bounds what each
    chunk may claim: a plain chunk at most one event per payload byte, a
    repeat or body-def at most {!Squash.max_body} body events and
    {!Squash.max_raw} raw events.  A chunk breaking a bound is a
    {!Format_error} at load, so no decode allocates or loops beyond what
    the file holds.

    Fault tolerance: chunks carry a CRC-32 that is verified lazily, per
    chunk, before any of its events are decoded — corruption anywhere in a
    chunk surfaces as {!Format_error}, never as a decode crash or silently
    wrong events.  Each chunk is verified {e at most once per process}: the
    reader keeps a per-chunk verified bit shared by every iteration pass
    ({!iter}, {!crc_check}, {!chunk}), so repeated
    replays — or several replay domains walking the same reader — never pay
    the digest twice.  The bits are written without synchronization; a race
    between domains can at worst re-verify a chunk, never skip an unverified
    one.  In [Strict] mode the trailer, the index and the exact
    tiling of the chunk region are validated up front; [Salvage] mode ignores
    the trailer and index entirely and rebuilds the chunk list by scanning
    forward from the header, keeping every chunk whose CRC verifies — the
    path for recordings killed mid-run ([.tmp] files) or damaged on disk. *)

exception Format_error of string

type t

type mode =
  | Strict  (** require an intact trailer, index and chunk tiling (default) *)
  | Salvage
      (** rebuild the chunk list by forward scan; only CRC-verified chunks
          are kept *)

type salvage = {
  salvaged_chunks : int;  (** chunks recovered (CRC-verified) *)
  dropped_chunks : int;
      (** corrupt byte-regions skipped by the scan — a lower bound on the
          number of chunks lost *)
  dropped_bytes : int;  (** total bytes in those regions *)
  reason : string;  (** human-readable scan summary *)
}

val load : ?mode:mode -> string -> t
(** Read the whole file, validate magic and (in [Strict] mode) trailer and
    index, decode the chunk index.  Each chunk's CRC is checked lazily, the
    first time the chunk is decoded (or by {!crc_check}); salvage scanning
    verifies every chunk it keeps.
    @raise Format_error on a corrupt or truncated file.
    @raise Sys_error if the file cannot be read. *)

val of_string : ?mode:mode -> string -> t
(** [load] on an in-memory container image (no file involved). *)

val iter : t -> (Event.t -> unit) -> unit
(** Replay events in recording order, boxed ({!Cols.get}): each plain
    chunk is decoded whole into one reused column buffer before its
    events reach the sink, so an exception from the sink is never taken
    for a decode failure.
    @raise Format_error if a chunk fails its CRC check or is malformed. *)

val crc_check : t -> int
(** Ensure every chunk's CRC-32 has been verified, without decoding any
    events, and return the chunk count.  Chunks already verified this process (their
    verified bit is set) are skipped; the rest are digested and marked.  The
    full-file verification pass behind a manifest's [trace.crc_verify_s]
    timing.
    @raise Format_error on the first chunk whose CRC does not match. *)

type decoded =
  | Plain of Cols.t
      (** a plain chunk's events, as columns (none for a v4 body-def
          chunk): every replay consumer takes them whole
          ({!Replay.sink}[.on_plain]) *)
  | Record of Squash.repeat
      (** a v4 repeat chunk's record, not expanded: every replay consumer
          takes it whole ({!Replay.sink}[.on_repeat]); {!Squash.expand}
          yields its [B × iters] events *)
(** One decoded chunk: what the replay pipeline holds in a slot and the
    serve layer's chunk cache holds per entry. *)

val chunk : t -> int -> decoded
(** Decode chunk [i] (0-based, [0 <= i < ]{!n_chunks}), CRC-verifying it
    first if its verified bit is not yet set.  Chunks decode independently
    (the delta-codec state resets at every chunk boundary), so this is the
    chunk-granular read behind the serve layer's decoded-chunk cache: a
    returned chunk is always decoded and verified, and re-reading a chunk
    never re-verifies it.  A plain chunk comes back in fresh columns of
    its exact size, for the caller to keep.  A repeat chunk comes back as
    its record alone, after the CRC and every structural check
    ({!Squash.max_body}, {!Squash.max_raw}, the body reference, the field
    tables), for its consumers to take whole.
    @raise Invalid_argument if the index is out of range.
    @raise Format_error if the chunk fails its CRC check or is malformed:
    an event running past the end of the file or of its payload, or a
    payload longer than its events. *)

val chunk_into : t -> Cols.t -> int -> decoded
(** {!chunk}, with a plain chunk decoded into the given columns, which it
    grows if they are too short ({!max_plain_events} never is) and whose
    previous contents it replaces: [Plain cols].  A repeat chunk's body
    decodes through them too, and its record keeps none of them.
    {!Replay.parallel}'s default chunk source, which reuses a buffer once
    no consumer holds its chunk. *)

val max_plain_events : t -> int
(** The most events any plain chunk holds (from the chunk index): a
    {!Cols} buffer of that size takes every plain chunk without growing. *)

val chunk_events : t -> int -> Event.t array
(** Chunk [i]'s raw events, boxed: {!chunk} with a plain chunk's columns
    read out by {!Cols.get} and a repeat chunk's record expanded.  The
    columns are a scratch buffer of the calling domain's, which keeps the
    size of the largest chunk it has held. *)

val chunk_event_count : t -> int -> int
(** Number of events in chunk [i], straight from the chunk index — no decode,
    no CRC.  Lets the sharded replay pipeline place event-balanced shard
    boundaries before any chunk is touched.
    @raise Invalid_argument if the index is out of range. *)

val verified_chunks : t -> int
(** How many chunks have their verified bit set — observability for the
    verify-at-most-once contract ([= ]{!n_chunks} after {!crc_check} or a
    full iteration of a v3 trace; salvage-loaded readers are born fully
    verified). *)

val fingerprint : t -> int64
(** The recorded program's {!Tq_vm.Program.fingerprint} as stamped by the
    writer; [0L] when the recorder did not know it. *)

val n_events : t -> int
val n_chunks : t -> int

val last_icount : t -> int
(** Instruction count of the last event (the recording's [End] event when the
    recording completed), [0] for an empty trace. *)

val byte_size : t -> int
(** On-disk size of the trace, in bytes. *)

val version : t -> int
(** Container version of the loaded file: [4] or [3]. *)

val stored_events : t -> int
(** Events physically encoded in the container: plain events plus one body
    per body-def chunk (a body shared by many repeats is counted once).
    [= n_events] for v3. *)

val event_ratio : t -> float
(** [n_events t / stored_events t], the event-level compression ratio of a
    v4 trace: [1.0] for v3, and for a trace that stores no event. *)

val plain_chunks : t -> int
(** Plain event chunks in the container ([= n_chunks] for v3). *)

val repeat_chunks : t -> int
(** v4 repeat (suppressed loop) chunks in the container ([0] for v3). *)

val body_chunks : t -> int
(** v4 body-def chunks (interned loop bodies referenced by repeat chunks)
    in the container ([0] for v3).  A def decodes to no events of its
    own — {!chunk_event_count} reports [0] for it. *)

val salvage_info : t -> salvage option
(** Scan statistics; [Some] exactly when the reader was loaded in [Salvage]
    mode. *)

(** Streaming writer for the on-disk trace container (versions 3 and 4).

    The complete wire-format specification — both container versions,
    chunk framing, the event codec, CRC coverage, index, trailer
    and salvage rules — is [docs/TRACE.md]; this comment is the summary.

    File layout (all integers LEB128 unless noted):

    {v
    "TQTRC3\n" | "TQTRC4\n"                         magic
    fingerprint  := program fingerprint (8 bytes LE, 0 = unknown)
    chunk*       := plain | body_def | repeat (the latter two v4 only)
    plain        := 0xA7  n_events  first_icount  payload_len
                    crc32 (4 bytes LE)  payload
    body_def     := 0xA9  0  first_icount  payload_len
                    crc32 (4 bytes LE)  body_events body
    repeat       := 0xA8  n_raw  first_icount  payload_len
                    crc32 (4 bytes LE)  body_events iters bref bcrc
                    field_bitmap field_tables
    index        := n_chunks  (offset_delta first_icount_delta n_events)*
    trailer      := index_offset (8 bytes LE)  "TQTRIX1\n"
    v}

    Each chunk's payload is a run of {!Event.t} delta-encoded against a
    fresh {!Event.state} seeded with the chunk's [first_icount], so any chunk
    decodes without its predecessors; the index lists every chunk's offset,
    first instruction count and event count, so a reader can place shard
    bounds without decoding.  Index entries always count {e raw} (decoded)
    events, so shard bounds are version-agnostic.

    Both versions share the robustness rules:

    - every chunk starts with a kind byte and stores a CRC-32
      ({!Tq_util.Crc32}) of its header fields and payload, so corruption is
      detected deterministically instead of surfacing as a decode crash or
      silently wrong events;
    - chunks are fully self-delimiting, so a reader can rebuild the index by
      scanning forward from the file header when the trailer or index is
      missing or corrupt ({!Reader.load}[ ~mode:Salvage]);
    - the writer streams to ["path.tmp"] and atomically renames to [path] in
      {!close} — a finished trace is never observed half-written, and a
      recorder killed mid-run leaves a salvageable [.tmp] instead of a
      truncated file under the final name.

    v4 ([~compress:true]) adds redundancy suppression ({!Squash}): a
    repeated loop-body event run is stored as one {e body-def chunk} (kind
    {!body_magic} — the body's events, encoded relative to their own first
    instruction count so the same body recurring later produces the same
    bytes and is interned once) plus a {e repeat chunk} (kind
    {!repeat_magic}) carrying the iteration count, a reference to the def
    (its file offset and payload CRC — a reference can never silently
    resolve to the wrong body) and per-numeric-field stride/literal tables;
    {!Reader} expands them transparently.  A def always precedes every
    repeat chunk that references it.  A committed run whose repeat chunk,
    new def and plain-chunk split would cost more than its plain encoding
    is written as plain events.  v4 chunk CRCs additionally cover the
    kind byte, so a flipped kind cannot masquerade as a valid chunk of the
    other kind. *)

val magic : string
(** v3 container magic. *)

val magic_v4 : string
(** v4 (redundancy-suppressed) container magic. *)

val chunk_magic : char
(** Kind byte of a plain event chunk (v3 and v4). *)

val repeat_magic : char
(** Kind byte of a repeat (suppressed loop) chunk — v4 only. *)

val body_magic : char
(** Kind byte of a body-def chunk (an interned loop body that repeat chunks
    reference) — v4 only. *)

val trailer_magic : string

val header_bytes : int
(** Size of the fixed header (magic + fingerprint); identical in v3/v4. *)

type t

val create :
  ?chunk_bytes:int -> ?fingerprint:int64 -> ?compress:bool -> string -> t
(** Open ["path.tmp"] for writing and emit the header.  A chunk is flushed
    once its payload reaches [chunk_bytes] (default 64 KiB).  [fingerprint]
    is the recorded program's {!Tq_vm.Program.fingerprint} (default [0L] =
    unknown); replay refuses a trace whose fingerprint does not match the
    program it is replayed against.  [compress] (default [false]) writes a
    v4 container and routes events through the {!Squash} redundancy
    suppressor; the decoded event stream is identical either way.  If
    anything after opening the channel raises, the channel is closed and the
    temp file removed (no leaked fd). *)

val emit : t -> Event.t -> unit
(** Append one event.  Under [~compress], [Block_exec] events act as
    detection boundaries keyed by their address; use {!emit_boundary} when
    the engine's compiled-trace identity is available (the probe does). *)

val emit_boundary : t -> trace_id:int -> Event.t -> unit
(** [emit] for a block-dispatch event carrying the engine's compiled-trace
    id ({!Tq_dbi.Engine.add_trace_instrumenter}), the preferred dictionary
    key for repetition detection.  Equivalent to {!emit} for uncompressed
    writers. *)

val events : t -> int
(** Events emitted so far (raw count — what a reader will decode). *)

val stored_events : t -> int
(** Events physically encoded so far: plain events plus one body per
    body-def chunk (a body referenced by many repeat chunks is counted
    once).  [events w / stored_events w] is the event-level compression
    ratio (1x for uncompressed writers).  Only final after {!close} — the
    suppressor buffers a bounded window. *)

val repeat_chunks : t -> int
(** Repeat chunks written so far ([0] for uncompressed writers). *)

val body_chunks : t -> int
(** Body-def chunks written so far ([0] for uncompressed writers).  At most
    [repeat_chunks w] — fewer when interning shares a body across repeats. *)

val version : t -> int
(** Container version being written: [4] under [~compress], else [3]. *)

val close : t -> unit
(** Flush the suppressor and the last chunk, append the index and trailer,
    close the file and rename ["path.tmp"] to [path].  Idempotent —
    including when the finalization itself fails: the writer is marked
    closed before any syscall, and on error the channel is torn down with
    [close_out_noerr] and the [.tmp] file is left on disk for salvage. *)

val with_file :
  ?chunk_bytes:int ->
  ?fingerprint:int64 ->
  ?compress:bool ->
  string ->
  (t -> 'a) ->
  'a
(** [create] / [close] bracket; the file is closed (index written, temp file
    renamed) even if the callback raises. *)

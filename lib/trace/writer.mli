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
    - the writer streams to ["path.tmp"] and atomically renames to [path]
      when {!with_file} finishes — a finished trace is never observed
      half-written, and a recorder killed mid-run leaves a salvageable
      [.tmp] instead of a truncated file under the final name.

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

val emit : t -> Event.t -> unit
(** Append one event.  Under [~compress], [Block_exec] events act as
    repetition-detection boundaries keyed by their block address
    ({!Squash.feed}). *)

val events : t -> int
(** Events emitted so far (raw count — what a reader will decode). *)

val with_file :
  ?chunk_bytes:int ->
  ?fingerprint:int64 ->
  ?compress:bool ->
  string ->
  (t -> 'a) ->
  'a
(** [with_file path f] opens ["path.tmp"], writes the header and runs [f]
    on the writer; then, even if [f] raises, it flushes the suppressor and
    the last chunk, appends the index and trailer and renames the temp file
    to [path].  A chunk is flushed once its payload reaches [chunk_bytes]
    (default 64 KiB).  [fingerprint] is the recorded program's
    {!Tq_vm.Program.fingerprint} (default [0L] = unknown); replay refuses a
    trace whose fingerprint does not match the program it is replayed
    against.  [compress] (default [false]) writes a v4 container and routes
    events through the {!Squash} redundancy suppressor; the decoded event
    stream is identical either way.  If the finalization fails, the channel
    is torn down and the [.tmp] file is left on disk for salvage.  After
    [with_file] returns, {!emit} on the writer raises [Invalid_argument]. *)

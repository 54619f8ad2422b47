(** Wire protocol of the serve daemon — framing, trace identity and the
    shared response shapes.

    One frame = a 4-byte big-endian length followed by that many bytes of
    {!Tq_obs.Json} text.  Both directions use the same framing; binary
    payloads (trace containers, object files) ride inside [Json.Str]
    members, which hold arbitrary bytes.  Frames larger than 256 MiB
    are refused on read and on write — a malformed peer cannot make the
    server allocate unboundedly.

    Every response is an object with a boolean ["ok"] member.  Failures are
    [{"ok": false, "error": KIND, "reason": TEXT}] where KIND is one of the
    {!val-busy} … {!val-shutting_down} constants — clients dispatch on the
    kind, humans read the reason.  See docs/SERVE.md for the full request
    and response schemas. *)

val max_frame : int
(** 256 MiB: the largest frame payload read or written unless a caller
    passes a tighter [max_frame]. *)

exception Frame_error of string
(** A malformed frame: oversized or negative length prefix, or a payload
    that is not valid JSON.  Distinct from [End_of_file]-style clean
    closure, which {!read_frame} reports as [None]. *)

exception Timeout of string
(** A deadline expired while waiting for socket readiness.  Raised only
    when the caller passed a timeout; the payload says which wait stalled. *)

val read_frame :
  ?idle_timeout_s:float ->
  ?frame_timeout_s:float ->
  ?max_frame:int ->
  Unix.file_descr ->
  Tq_obs.Json.t option
(** Read one frame.  [None] when the peer closed the connection cleanly
    (EOF before any length byte).

    [idle_timeout_s] bounds the wait for the frame's {e first} byte (an
    idle-but-healthy peer); [frame_timeout_s] bounds the rest of the frame
    once that byte arrived — header and payload together — so a peer
    dribbling bytes (slow loris) cannot pin the reader.  Either elapsing
    raises {!Timeout}.  Omitted timeouts block forever.  [max_frame]
    overrides the module default, for boundary tests.

    Reads retry on [EINTR]/[EAGAIN]/[EWOULDBLOCK] — a signal during a
    blocking socket read must not tear down a healthy connection.
    @raise Frame_error on an out-of-bounds length or malformed payload.
    @raise End_of_file when the connection dies mid-frame.
    @raise Timeout when a deadline expires. *)

val write_frame :
  ?timeout_s:float -> ?max_frame:int -> Unix.file_descr -> Tq_obs.Json.t -> unit
(** Serialise and send one frame.  [timeout_s] bounds the whole write (a
    peer that stops reading cannot pin the writer); writes retry on
    [EINTR]/[EAGAIN]/[EWOULDBLOCK].
    @raise Frame_error if the rendering exceeds [max_frame]
    (default 256 MiB).
    @raise Timeout when the deadline expires. *)

(** {1 Trace identity} *)

val trace_key : string -> int64
(** FNV-1a-64 digest of the raw container bytes — the serve layer's trace
    fingerprint.  Distinct from the recorded {e program}'s fingerprint
    (stamped inside the container): two recordings of one program get
    different keys, so cache entries and uploads never alias. *)

val trace_id : string -> string
(** {!trace_key} rendered as 16 lowercase hex digits — the [id] clients
    quote in [trace-info] and [replay] requests. *)

(** {1 Shared sections} *)

val trace_section :
  ?extra:(string * Tq_obs.Json.t) list -> Tq_trace.Reader.t -> Tq_obs.Json.t
(** The canonical ["trace"] description of a loaded reader — version,
    events, chunks, bytes, program fingerprint, last icount, plus salvage
    statistics when present.  One codec path shared by the CLI's manifest
    ["trace"] section, [tquad trace-info --json] and the serve daemon's
    [trace-info] response, so the three can never drift.  [extra] members
    are appended after the standard ones. *)

val replay_section : Tq_trace.Replay.run_stats -> Tq_obs.Json.t
(** The canonical ["replay"] manifest section of one pipeline run:
    domains, shards, batch (the live-chunk budget), chunks, events,
    peak_live_chunks, repeats (the repeat deliveries) and stage_s.  The one codec behind
    [tquad replay --all --metrics] and the serve daemon's per-job
    manifests. *)

(** {1 Response shapes} *)

val ok : (string * Tq_obs.Json.t) list -> Tq_obs.Json.t
(** [{"ok": true, ...members}]. *)

val error :
  ?extra:(string * Tq_obs.Json.t) list -> string -> string -> Tq_obs.Json.t
(** [error kind reason] = [{"ok": false, "error": kind, "reason": reason,
    ...extra}]. *)

val busy : string
(** Admission control refused the request (rate limit or full job queue);
    the response carries [retry_after_s]. *)

val bad_request : string
(** The request frame was well-formed JSON but not a valid request. *)

val not_found : string
(** Unknown trace id or job id. *)

val bad_trace : string
(** An uploaded container failed to load, or its program check failed. *)

val shutting_down : string
(** The server is draining; no new work is accepted. *)

val timeout : string
(** A server-side deadline expired: the connection idled past its budget,
    a frame stalled mid-transfer, or a job overran its wall-clock limit. *)

val server_error : string
(** The request raised inside the server — a bug, not the client's fault.
    Terminal for the client (retrying the same request will likely raise
    again). *)

(** {1 Request accessors} *)

val get_str : string -> Tq_obs.Json.t -> string option
val get_int : string -> Tq_obs.Json.t -> int option

val get_num : string -> Tq_obs.Json.t -> float option
(** [Int] or [Float] members, as float. *)

val get_bool : string -> Tq_obs.Json.t -> bool option

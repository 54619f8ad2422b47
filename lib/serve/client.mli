(** Client side of the serve protocol — a thin, typed wrapper over one
    connected Unix-domain socket.

    Each helper sends one request frame and blocks for the response frame;
    the connection is usable from one thread at a time (the protocol has no
    request ids — responses pair with requests by order).  Server refusals
    come back as [Error {kind; reason}] with [kind] one of the
    {!Protocol.busy} family; transport problems (connection refused, server
    gone mid-request, malformed frame) surface as the ["transport"] kind
    and a client-side response deadline as ["timeout"].

    {!with_retry} is the fault-tolerance layer: it classifies errors into
    retryable ([busy], [transport], [timeout]) and terminal kinds and
    re-runs the retryable ones under bounded exponential backoff with
    jitter, honouring the server's [retry_after_s] hint as a floor. *)

type t

type err = {
  kind : string;
      (** a {!Protocol} error kind, ["transport"] for socket/framing
          failures, or ["timeout"] when the client-side response deadline
          expired *)
  reason : string;
  retry_after_s : float option;  (** populated on [busy] refusals *)
}

val connect : ?timeout_s:float -> ?attempt:int -> string -> (t, err) result
(** Connect to the daemon's socket path.  [timeout_s] bounds every send and
    every response wait on this connection — an unresponsive server surfaces
    as a ["timeout"] error instead of a hang.  [attempt] (default [1]) is
    the enclosing retry loop's attempt number; requests on a connection with
    [attempt > 1] carry an ["attempt"] member, which the server counts as
    [retries_observed].
    @raise Invalid_argument on a non-positive [timeout_s]. *)

val close : t -> unit

(** {1 Typed operations} *)

val ping : t -> (unit, err) result

val upload :
  ?name:string ->
  ?program:string ->
  trace:string ->
  t ->
  (string, err) result
(** Upload a trace container (raw bytes) with an optional encoded object
    file ({!Tq_vm.Objfile.encode}); returns the server's trace id.
    Idempotent: re-uploading known bytes returns the same id. *)

val trace_info : t -> string -> (Tq_obs.Json.t, err) result
(** The server's ["trace"] section for an uploaded trace id. *)

val replay :
  ?tools:string list ->
  ?slice:int ->
  ?period:int ->
  ?deadline_s:float ->
  ?attach:bool ->
  t ->
  string ->
  (int, err) result
(** Submit a replay of trace [id] through [tools] (default: all); returns
    the job id.  [busy] refusals carry [retry_after_s].  [deadline_s]
    tightens the server's wall-clock budget for this job (it can never
    loosen it).  [attach] ties the job to this connection: if the
    connection closes before the job finishes, the server cancels it. *)

type report = {
  job : int;
  done_ : bool;
  reports : (string * string) list;  (** tool name → rendered report *)
  failures : (string * string) list;  (** tool name → failure message *)
  killed : string option;
      (** ["deadline-exceeded"] or ["cancelled"] when the watchdog or a
          cancellation killed the whole job *)
}

val report : ?wait:bool -> t -> int -> (report, err) result
(** Fetch a job's results.  With [wait] (default [false]) the server holds
    the request until the job completes, so [done_] is always [true] on
    success. *)

val stats : t -> (Tq_obs.Json.t, err) result
(** The server's live ["server"] observability section. *)

val shutdown : t -> (unit, err) result
(** Ask the server to drain and exit. *)

(** {1 Retry policy} *)

type policy = {
  retries : int;  (** additional attempts after the first (0 = no retry) *)
  base_s : float;  (** delay before the first retry *)
  factor : float;  (** exponential growth per attempt *)
  max_s : float;  (** delay ceiling *)
  jitter : float;
      (** fraction of the delay randomised away (0 = deterministic,
          0.25 = delays land in [0.75d, d]) *)
}

val default_policy : policy
(** [retries = 0] (opt-in), [base_s = 0.1], [factor = 2.], [max_s = 5.],
    [jitter = 0.25]. *)

val with_retry :
  ?policy:policy ->
  ?sleep:(float -> unit) ->
  ?rand:(float -> float) ->
  (attempt:int -> ('a, err) result) ->
  ('a, err) result
(** [with_retry f] runs [f ~attempt:1] and re-runs it (with incremented
    [attempt]) after each retryable failure ([busy], [transport] or
    [timeout]; every other kind fails identically on retry and is
    terminal), for at most [policy.retries] retries.  Before retry [n] it
    sleeps the capped exponential backoff [min max_s (base_s * factor^(n-1))],
    jittered downward by [jitter] and floored at the server's
    [retry_after_s] hint when present.  Terminal errors and exhausted
    budgets return the last error.  [f] should establish its own connection
    per attempt (pass [attempt] to {!connect} so the server can count the
    retry) — a transport failure usually means the old connection is dead.
    [sleep] and [rand] (default {!Random.float}) are injectable for
    tests. *)

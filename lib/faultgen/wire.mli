(** Deterministic, seeded fault injection at the serve protocol's wire
    level — the transport-layer sibling of {!Faultgen}'s container
    mutations.

    The robustness contract under test: for {e any} byte stream a peer
    sends, the serve daemon must stay alive and answer the next healthy
    client correctly — malformed frames get a typed [bad-request], stalled
    ones a typed [timeout] (or a quiet reap), and none of them may crash a
    connection thread or corrupt another client's session.
    [test/test_chaos.ml] checks exactly that property; the CI chaos smoke
    drives the same strikes through [tquad client chaos].

    Everything here hand-rolls the framing on purpose — the module exists
    to attack [Tq_serve.Protocol], so it must not frame through it.  All
    generation is reproducible from the seed alone. *)

type mutation =
  | Torn_header of { keep : int }
      (** send only [keep] (0–3) bytes of the 4-byte length prefix, then
          close — the half-open peer shape *)
  | Oversized_length of { claim : int }
      (** a length prefix past the frame cap: the server must refuse
          without allocating [claim] bytes *)
  | Negative_length  (** a length prefix with the sign bit set *)
  | Garbage_payload of { len : int; seed : int }
      (** a well-framed payload of seeded garbage that is never valid
          JSON *)
  | Mid_frame_disconnect of { claim : int; sent : int }
      (** declare [claim] payload bytes, send [sent < claim], close *)
  | Stall_then_resume of { split : int; stall_s : float }
      (** the slow-loris probe: send [split] bytes of a {e valid} ping
          frame, stall, then finish it — completes if the stall beats the
          server's frame timeout, reaps otherwise; both are correct *)

val slug : mutation -> string
(** Short kebab-case kind name (["torn-header"], ["stall-resume"], ...)
    for summaries and CLI output. *)

(** How the server answered a strike.  Every constructor except
    {!Unreachable} means the server survived. *)
type verdict =
  | Rejected of string  (** a typed error frame; payload = the error kind *)
  | Accepted  (** an [{"ok": true}] frame (a stall that beat the timeout) *)
  | Closed  (** connection closed without a reply — a quiet reap *)
  | Silent  (** socket open but no reply within the wait budget *)
  | Unreachable of string  (** could not connect — the server is gone *)

val verdict_slug : verdict -> string

val ping : ?wait_s:float -> socket:string -> unit -> (unit, string) result
(** The health probe between strikes: one hand-rolled, {e valid} ping
    frame.  [Ok] iff the server answered [{"ok": true}]; the error is a
    {!verdict_slug}. *)

type event = { mutation : mutation; verdict : verdict }

val storm :
  ?wait_s:float -> socket:string -> seed:int -> rounds:int -> unit -> event list
(** [rounds] independent seeded strikes, one connection each, in order.
    Deterministic mutation sequence from [seed] (verdicts depend on server
    timing). *)

(** LRU cache of decoded trace chunks, keyed by (trace fingerprint, chunk
    index).

    The serve daemon's hot-trace accelerator: the first replay of a chunk
    decodes (and CRC-verifies) it through {!Tq_trace.Reader.chunk};
    every later replay of the same chunk — same job, another job, another
    client — hits the cache and pays neither the decode nor the digest.
    Capacity is a weight budget (estimated bytes); insertion evicts from the
    least-recently-used end until the new entry fits.

    All operations are thread-safe (one internal mutex): the cache is shared
    by every worker domain of the job manager.  Values should be immutable
    (decoded chunks — event arrays and repeat records — are treated as such
    by every consumer). *)

type 'v t

type key = int64 * int
(** (trace fingerprint, chunk index).  The fingerprint is the serve layer's
    {e trace} fingerprint — a digest of the container bytes
    ({!Protocol.trace_key}) — not the recorded program's fingerprint, so two
    different recordings of one program never alias. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries pushed out by capacity pressure *)
  entries : int;  (** resident entries *)
  weight : int;  (** resident weight (estimated bytes) *)
  capacity : int;  (** weight budget *)
}

val create : capacity:int -> 'v t
(** [capacity] is the weight budget; it must be positive. *)

val find : 'v t -> key -> 'v option
(** Look up and touch (move to most-recently-used).  Counts a hit or a
    miss. *)

val add : 'v t -> key -> weight:int -> 'v -> unit
(** Insert at most-recently-used, evicting least-recently-used entries until
    the budget holds.  An entry heavier than the whole budget is not cached
    at all (and evicts nothing); re-adding a resident key just touches it. *)

val stats : 'v t -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

(** QUAD — the memory access pattern analyser (companion tool, ref [4] of the
    paper; produces Table II and the QDU graph).

    Attached to a DBI engine, it traces every non-prefetch memory byte:
    writes update the last-writer {!Shadow} map and the writer's
    unique-memory-address (UnMA) sets; reads are charged to the reading
    kernel (IN) and, when the byte has a recorded producer, to the
    producer→consumer binding and the producer's OUT count.  Stack-inclusive
    and stack-exclusive figures are accounted simultaneously in one run.

    Definitions (Table II caption):
    - IN: total bytes read by the kernel;
    - IN UnMA: unique addresses the kernel read from;
    - OUT: total bytes read {e by any kernel} from locations this kernel had
      previously written;
    - OUT UnMA: unique addresses the kernel wrote to. *)

type t

include
  Tq_trace.Tool.S
    with type t := t
     and type config = Tq_prof.Call_stack.policy
     and type seed = Tq_prof.Call_stack.t
(** The config is the call-stack policy: [Main_image_only] attributes
    traffic performed by library/OS routines to the innermost main-image
    caller.

    [shard] is [Some].  The ordered prefix tracks only the call stack
    ({!Tq_prof.Call_stack.prefix}).  A seeded analyser starts mid-trace in
    {e pending} mode: a read whose byte has no producer in its own range is
    deferred into block counters — per consumer kernel, each 64-byte block
    holding such a read gets an incl and an excl read count per byte.
    Budget: 1 KiB per (64-byte block, consumer) pair with such a read,
    independent of how often the block is read.

    [merge_into a b] folds [b] (the adjacent later trace range) into [a]:
    byte counters add, UnMA and binding address sets union, [b]'s deferred
    block counters resolve against [a]'s shadow map — each maximal run of
    counted bytes with one producer is charged to that producer's binding
    in one step — then [b]'s shadow writes supersede [a]'s.  [a] must cover
    the trace from its beginning up to where [b] starts. *)

val attach :
  ?policy:Tq_prof.Call_stack.policy -> Tq_dbi.Engine.t -> t
(** Register QUAD's instrumentation on the engine (must happen before the
    engine runs): [create] + {!Tq_trace.Probe.attach}.  [policy] defaults to
    [Main_image_only].

    Every load and store of a routine whose accesses are charged to itself
    ({!Tq_prof.Call_stack.charged_to_itself}) is claimed: it reaches QUAD
    through an action on its own slot, with its kernel fixed when the
    block compiles, and no probe event.  A claimed slot skips the UnMA and
    binding address-set adds that its previous run already made (same
    address and stack pointer, and for a binding the same producer of the
    whole access).  Block copies, [Rtn_entry]/[Ret], and the accesses
    [Main_image_only] charges to the innermost main-image frame (library
    code) stay on events.  Since every action runs at its own slot, the
    state after a trap or a fuel stop mid-block is the per-access one. *)

type krow = {
  routine : Tq_vm.Symtab.routine;
  in_bytes : int;  (** stack area excluded *)
  in_unma : int;
  out_bytes : int;
  out_unma : int;
  in_bytes_incl : int;  (** stack area included *)
  in_unma_incl : int;
  out_bytes_incl : int;
  out_unma_incl : int;
}

val rows : t -> krow list
(** One row per kernel with any traffic, sorted by kernel name (the paper's
    Table II layout). *)

type binding = {
  producer : Tq_vm.Symtab.routine;
  consumer : Tq_vm.Symtab.routine;
  bytes : int;  (** stack excluded *)
  bytes_incl : int;
  unma : int;  (** unique addresses carrying the communication (incl.) *)
}

val bindings : t -> binding list
(** Producer/consumer data-communication bindings, heaviest first. *)

val to_dot : t -> string
(** The QDU (Quantitative Data Usage) graph in Graphviz DOT format: nodes are
    kernels, edges are bindings annotated with bytes and UnMA.  Edges moving
    no stack-inclusive bytes are elided. *)

val shadow_pages : t -> int
(** Allocated shadow pages, for footprint reporting. *)

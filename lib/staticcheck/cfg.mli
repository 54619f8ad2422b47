(** Control-flow graph over normalized routine code ({!Rcode}), with
    dominators and the natural-loop nest — the one CFG and loop analysis
    that the verifier, the dataflow layer ({!Loopinfo}), the bandwidth
    estimator and the WCET analyzer all read.

    The graph is total: ill-formed control flow simply contributes no edge,
    and each client decides from the {!Rcode.flow} facts whether that is
    acceptable (the checker reports it, the WCET analyzer refuses the
    routine).  Basic blocks end at any control transfer except calls (calls
    return to the next instruction); block 0 is the routine entry. *)

type block = {
  id : int;
  first : int;  (** instruction index of the first instruction *)
  last : int;
  succs : int list;  (** block ids; empty = routine exit *)
}

(** A natural loop: one per header, the back edges to the same header
    merged.  Loops with distinct headers are disjoint or nested, so they
    form a forest. *)
type loop = {
  header : int;  (** block id *)
  body : bool array;  (** per block id; reachable blocks only *)
  blocks : int list;  (** the body's block ids, ascending *)
  latches : int list;  (** tails of the back edges to [header], ascending *)
  parent : int;  (** index of the innermost enclosing loop; -1 if outermost *)
  depth : int;  (** 1 = outermost *)
}

type t = {
  code : Rcode.t;
  blocks : block array;
  block_of : int array;  (** instruction index -> block id *)
  preds : int list array;
  reachable : bool array;  (** from the entry block *)
  idom : int array;  (** immediate dominator; -1 for entry and unreachable *)
  loops : loop array;  (** in header order, which is code-address order *)
  innermost : int array;
      (** per block: index of the innermost containing loop, or -1 *)
}

val build : Rcode.t -> t

val n_blocks : t -> int

val dominates : t -> int -> int -> bool
(** [dominates t a b]: block [a] dominates (reachable) block [b]. *)

val depth : t -> int -> int
(** Loop-nesting depth of a block: 0 outside every loop. *)

val render : t -> string
(** Compact textual dump (blocks, depths, edges, reachability). *)

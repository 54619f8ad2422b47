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

(** {2 The block solver}

    Every dataflow pass over a routine — the register and cell-constant
    fixpoints of {!Dataflow}, and the verifier's register, local and
    liveness checks — runs through these two functions.  Blocks are swept
    in id order (descending for {!backward}) until no state changes; a
    block's state only ever rises (the [join] of its old state and the new
    contributions), so the solver terminates whenever [join] has finite
    height, and it keeps no state between calls.

    What it guarantees: for a monotone [transfer] the result is the least
    solution of the block equations, so it does not depend on the order
    in which blocks are visited; and for any [transfer] it depends only on
    the graph and the functions given — never on earlier queries.
    [transfer] must not mutate its argument. *)

val forward :
  t ->
  entry:'a ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(block -> 'a -> 'a) ->
  'a option array
(** Per block, the state before its first instruction: the [join] of its
    predecessors' out-states (its in-state through [transfer]), and of
    [entry] for block 0; [None] for an unreachable block. *)

val backward :
  t ->
  exit:'a ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(block -> 'a -> 'a) ->
  'a array
(** The backward counterpart (liveness): per block, the state after its
    last instruction, the [join] of its successors' states before their
    first instruction ([transfer] maps a block's after-state to its
    before-state).  Every block starts from [exit], which is also what a
    block without successors ends with, so [exit] must be the least state
    (the [join]'s identity); unreachable blocks keep it. *)

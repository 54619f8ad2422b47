(** Static worst-case execution time analysis.

    A small static WCET analyzer in the style the paper's related work
    surveys (aiT, Bound-T, Chronos, ...): it works on the {e binary}, reads
    each routine's CFG and natural-loop nest from {!Tq_staticcheck.Cfg},
    takes user-supplied loop bounds (static tools cannot derive
    data-dependent trip counts), and computes an instruction-count upper
    bound by structural longest-path over the loop nest, composed
    interprocedurally over the (recursion-free) call graph.

    The bound is {e sound but not tight}: every loop is charged its full
    worst iteration times its bound, and the timing model is the simulated
    machine's one-instruction-one-tick clock — deliberately simple, which is
    exactly the over-pessimism argument the paper makes against static WCET
    for complex processors ([bench] checks bound ≥ measured and reports the
    pessimism factor). *)

exception Analysis_error of string

type loop_info = {
  header_addr : int;  (** code address of the loop header block *)
  body_blocks : int;  (** reachable blocks in the loop body *)
  depth : int;  (** 1 = outermost *)
}

val loops : Tq_vm.Program.t -> string -> loop_info list
(** Natural loops of a routine, in header-address order (the order in which
    [bounds] lists are consumed).
    @raise Analysis_error on an unknown routine or control flow that cannot
    be bounded: dynamic jumps or calls, jumps to an address that is not an
    instruction of the routine, calls to an address that is no routine's
    entry. *)

val analyze :
  Tq_vm.Program.t -> bounds:(string -> int list) -> string -> int
(** [analyze prog ~bounds name] is an upper bound on the instructions one
    invocation of routine [name] retires, including its callees.
    [bounds r] must supply the loop bounds of routine [r] in header-address
    order.  A bound is the maximum number of times the loop {e header}
    executes per entry of the loop — for a classic
    [for (i = 0; i < n; i++)] that is [n + 1] (the final, failing condition
    check counts).
    @raise Analysis_error as {!loops} does, and on recursion, missing or
    negative bounds, or irreducible flow (a cycle that is no natural loop,
    found while computing the longest path). *)

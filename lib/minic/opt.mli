(** Optional Mir-level optimizer (the compiler's -O1).

    Performs constant folding (integer, float, comparisons, conversions),
    algebraic simplification (additive/multiplicative identities — dropped
    operands must be side-effect free), strength reduction (multiply by a
    power of two becomes a shift), short-circuit simplification,
    constant-condition branch/loop elimination, and dead
    expression-statement removal.

    The default pipeline compiles -O0-style (like the paper's
    instrumentation targets); this pass exists for the ablation that shows
    how compiler optimization changes a memory-bandwidth profile
    ([bench/main.exe ablation]). *)

val program : Mir.program -> Mir.program

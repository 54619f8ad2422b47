(** Type checking and lowering of MiniC to {!Mir}.

    Resolves names, checks and annotates types, inserts implicit
    int-to-float conversions, scales pointer arithmetic, decays arrays to
    pointers, assigns stack-frame offsets to locals and parameters, and
    synthesizes globals for string literals.

    Builtins (provided by the runtime image, [lib/rt]) are known to the
    checker: [open close read write seek fsize malloc free memcpy memset
    strlen print_int print_float print_str print_char exit clock], plus the
    float intrinsics [sqrt sin cos floor fabs] which lower to single FPU
    instructions. *)

exception Type_error of { pos : Ast.pos; msg : string }

val lower : Ast.program -> Mir.program
(** @raise Type_error on any static error (unknown names, type mismatches,
    [break] outside a loop, missing or ill-typed [main], ...). *)

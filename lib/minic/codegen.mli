(** Code generation from {!Mir} to the assembly builder.

    The generated code is deliberately gcc -O0-flavoured: every variable
    lives in memory (stack frame or data segment), every access is an
    explicit load/store, arguments travel on the stack.  This is what makes
    the compiled case-study applications exhibit the realistic local/global
    memory-traffic split that the profilers classify.

    Calling convention (matches the hand-written runtime image):
    - caller pushes arguments left-to-right at [sp+0, sp+8, ...], then
      [call] pushes the return address below them;
    - callee prologue saves the caller's frame pointer and points [fp] at
      it, so: saved fp at [fp+0], return address at [fp+8], argument [i] at
      [fp+16+8i], locals below [fp];
    - integer/pointer results in [x1], float results in [f0]; all
      temporaries are caller-saved (the generator spills live temporaries
      around calls). *)

exception Codegen_error of string
(** Raised when an expression needs more than the 18 temporaries per class
    (in practice: pathological expression nesting). *)

val gen_unit : image:string -> Mir.program -> Tq_asm.Link.cunit
(** Package a lowered program as a main-image compilation unit. *)

(** One-call MiniC compilation entry points. *)

exception Compile_error of string
(** Any lexing/parsing/typing/codegen failure, with position formatted into
    the message. *)

val fill_template : (string * string) list -> string -> string
(** [fill_template substitutions template] replaces every occurrence of each
    key with its value, one substitution after the other in list order, so
    a later key also matches text an earlier value put in.  The
    parameterized MiniC sources (the demo apps, the wfs case study) are
    instantiated through it. *)

val compile_unit :
  ?optimize:bool -> ?verify:bool -> image:string -> string -> Tq_asm.Link.cunit
(** [compile_unit ~image source] compiles a MiniC translation unit into a
    linkable main-image compilation unit.  [optimize] (default false, i.e.
    -O0, like the paper's profiling targets) runs the {!Opt} pass.  [verify]
    (default false) gates the output through the static binary verifier
    ({!Tq_staticcheck.Staticcheck.check_items}) and fails compilation if any
    diagnostic fires.
    @raise Compile_error on any static error. *)

(** MiniC pretty-printer.

    Produces parseable source from an AST; [Parser.parse (print (Parser.parse
    src))] yields the same AST as [Parser.parse src] modulo positions (the
    roundtrip property tested in [test/test_ast_print.ml]).  Used by the CLI
    and tests; also handy for dumping the generated wfs source. *)

val program : Ast.program -> string

val strip_positions : Ast.program -> Ast.program
(** Normalize all positions to line 0 / col 0, for structural comparison. *)

exception Compile_error of string

let fill_template substitutions template =
  let replace text (key, value) =
    let kl = String.length key in
    let buf = Buffer.create (String.length text) in
    let i = ref 0 in
    let n = String.length text in
    while !i < n do
      if !i + kl <= n && String.sub text !i kl = key then begin
        Buffer.add_string buf value;
        i := !i + kl
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  List.fold_left replace template substitutions

let fail_at (pos : Ast.pos) msg =
  raise (Compile_error (Printf.sprintf "%d:%d: %s" pos.line pos.col msg))

let parse_and_lower source =
  match Lower.lower (Parser.parse source) with
  | mir -> mir
  | exception Lexer.Lex_error { pos; msg } -> fail_at pos ("lexical error: " ^ msg)
  | exception Parser.Parse_error { pos; msg } -> fail_at pos ("syntax error: " ^ msg)
  | exception Lower.Type_error { pos; msg } -> fail_at pos ("type error: " ^ msg)

let verify_unit (u : Tq_asm.Link.cunit) =
  let bad =
    List.concat_map
      (fun (r : Tq_asm.Link.routine) ->
        Tq_staticcheck.Staticcheck.check_items ~name:r.rname
          (Tq_asm.Builder.items r.body))
      u.routines
  in
  if bad <> [] then
    raise
      (Compile_error
         ("generated code failed static verification:\n"
         ^ Tq_staticcheck.Staticcheck.render bad))

let compile_unit ?(optimize = false) ?(verify = false) ~image source =
  let mir = parse_and_lower source in
  let mir = if optimize then Opt.program mir else mir in
  match Codegen.gen_unit ~image mir with
  | u ->
      if verify then verify_unit u;
      u
  | exception Codegen.Codegen_error msg ->
      raise (Compile_error ("code generation error: " ^ msg))

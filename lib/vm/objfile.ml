module Isa = Tq_isa.Isa

let magic = "TQBIN1\n"

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ---------- primitives (LEB128 shared with the trace format) ---------- *)

let sleb128 = Tq_util.Leb128.write_s

let read_u8 s pos =
  if !pos >= String.length s then fail "truncated (u8 at %d)" !pos;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let read_sleb128 s pos =
  try Tq_util.Leb128.read_s s pos
  with Tq_util.Leb128.Truncated p -> fail "truncated (sleb128 at %d)" p

let write_string buf s =
  sleb128 buf (String.length s);
  Buffer.add_string buf s

let read_string s pos =
  let n = read_sleb128 s pos in
  if n < 0 || !pos + n > String.length s then fail "truncated string at %d" !pos;
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let write_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let read_f64 s pos =
  if !pos + 8 > String.length s then fail "truncated f64 at %d" !pos;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[!pos + i]))
  done;
  pos := !pos + 8;
  Int64.float_of_bits !v

(* ---------- opcode table ---------- *)

let binop_code = function
  | Isa.Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Sll -> 8 | Srl -> 9 | Sra -> 10 | Slt -> 11
  | Sltu -> 12 | Seq -> 13 | Sne -> 14 | Sle -> 15 | Sge -> 16 | Sgt -> 17

let binop_of_code = function
  | 0 -> Isa.Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Rem | 5 -> And
  | 6 -> Or | 7 -> Xor | 8 -> Sll | 9 -> Srl | 10 -> Sra | 11 -> Slt
  | 12 -> Sltu | 13 -> Seq | 14 -> Sne | 15 -> Sle | 16 -> Sge | 17 -> Sgt
  | c -> fail "bad binop code %d" c

let fbinop_code = function Isa.Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3

let fbinop_of_code = function
  | 0 -> Isa.Fadd | 1 -> Fsub | 2 -> Fmul | 3 -> Fdiv
  | c -> fail "bad fbinop code %d" c

let funop_code = function
  | Isa.Fneg -> 0 | Fabs -> 1 | Fsqrt -> 2 | Fsin -> 3 | Fcos -> 4 | Ffloor -> 5

let funop_of_code = function
  | 0 -> Isa.Fneg | 1 -> Fabs | 2 -> Fsqrt | 3 -> Fsin | 4 -> Fcos | 5 -> Ffloor
  | c -> fail "bad funop code %d" c

let fcmp_code = function Isa.Feq -> 0 | Fne -> 1 | Flt -> 2 | Fle -> 3

let fcmp_of_code = function
  | 0 -> Isa.Feq | 1 -> Fne | 2 -> Flt | 3 -> Fle
  | c -> fail "bad fcmp code %d" c

let width_code = function Isa.W1 -> 0 | W2 -> 1 | W4 -> 2 | W8 -> 3

let width_of_code = function
  | 0 -> Isa.W1 | 1 -> W2 | 2 -> W4 | 3 -> W8
  | c -> fail "bad width code %d" c

(* memory-access flag byte: width in low 2 bits, signed bit 2, pred bit 3 *)
let mem_flags ~width ~signed ~pred =
  width_code width lor (if signed then 4 else 0)
  lor (match pred with Some _ -> 8 | None -> 0)

let encode_ins buf (ins : Isa.ins) =
  let op n = Buffer.add_uint8 buf n in
  let reg r = Buffer.add_uint8 buf r in
  match ins with
  | Isa.Nop -> op 0
  | Li (r, v) -> op 1; reg r; sleb128 buf v
  | Mov (d, s) -> op 2; reg d; reg s
  | Bin (o, d, s, Isa.Reg r) -> op 3; Buffer.add_uint8 buf (binop_code o); reg d; reg s; reg r
  | Bin (o, d, s, Isa.Imm v) -> op 4; Buffer.add_uint8 buf (binop_code o); reg d; reg s; sleb128 buf v
  | Fli (r, f) -> op 5; reg r; write_f64 buf f
  | Fmov (d, s) -> op 6; reg d; reg s
  | Fbin (o, d, a, b) -> op 7; Buffer.add_uint8 buf (fbinop_code o); reg d; reg a; reg b
  | Fun (o, d, s) -> op 8; Buffer.add_uint8 buf (funop_code o); reg d; reg s
  | Fcmp (c, d, a, b) -> op 9; Buffer.add_uint8 buf (fcmp_code c); reg d; reg a; reg b
  | I2f (d, s) -> op 10; reg d; reg s
  | F2i (d, s) -> op 11; reg d; reg s
  | Load { width; dst; base; off; pred } ->
      op 12;
      Buffer.add_uint8 buf (mem_flags ~width ~signed:false ~pred);
      reg dst; reg base; sleb128 buf off;
      (match pred with Some p -> reg p | None -> ())
  | Loads { width; dst; base; off } ->
      op 12;
      Buffer.add_uint8 buf (mem_flags ~width ~signed:true ~pred:None);
      reg dst; reg base; sleb128 buf off
  | Store { width; src; base; off; pred } ->
      op 13;
      Buffer.add_uint8 buf (mem_flags ~width ~signed:false ~pred);
      reg src; reg base; sleb128 buf off;
      (match pred with Some p -> reg p | None -> ())
  | Fload { dst; base; off; pred } ->
      op 14;
      Buffer.add_uint8 buf (mem_flags ~width:Isa.W8 ~signed:false ~pred);
      reg dst; reg base; sleb128 buf off;
      (match pred with Some p -> reg p | None -> ())
  | Fstore { src; base; off; pred } ->
      op 15;
      Buffer.add_uint8 buf (mem_flags ~width:Isa.W8 ~signed:false ~pred);
      reg src; reg base; sleb128 buf off;
      (match pred with Some p -> reg p | None -> ())
  | Prefetch { base; off } -> op 16; reg base; sleb128 buf off
  | Movs { dst; src; len } -> op 17; reg dst; reg src; reg len
  | Jmp a -> op 18; sleb128 buf a
  | Jr r -> op 19; reg r
  | Bz (r, a) -> op 20; reg r; sleb128 buf a
  | Bnz (r, a) -> op 21; reg r; sleb128 buf a
  | Call a -> op 22; sleb128 buf a
  | Callr r -> op 23; reg r
  | Ret -> op 24
  | Syscall n -> op 25; sleb128 buf n
  | Halt -> op 26

let decode_ins s pos : Isa.ins =
  let reg () =
    let r = read_u8 s pos in
    if r >= Isa.num_regs then fail "bad register %d at %d" r !pos;
    r
  in
  let mem () =
    let flags = read_u8 s pos in
    let width = width_of_code (flags land 3) in
    let signed = flags land 4 <> 0 in
    let has_pred = flags land 8 <> 0 in
    (width, signed, has_pred)
  in
  match read_u8 s pos with
  | 0 -> Isa.Nop
  | 1 ->
      let r = reg () in
      Li (r, read_sleb128 s pos)
  | 2 ->
      let d = reg () in
      Mov (d, reg ())
  | 3 ->
      let o = binop_of_code (read_u8 s pos) in
      let d = reg () in
      let a = reg () in
      Bin (o, d, a, Isa.Reg (reg ()))
  | 4 ->
      let o = binop_of_code (read_u8 s pos) in
      let d = reg () in
      let a = reg () in
      Bin (o, d, a, Isa.Imm (read_sleb128 s pos))
  | 5 ->
      let r = reg () in
      Fli (r, read_f64 s pos)
  | 6 ->
      let d = reg () in
      Fmov (d, reg ())
  | 7 ->
      let o = fbinop_of_code (read_u8 s pos) in
      let d = reg () in
      let a = reg () in
      Fbin (o, d, a, reg ())
  | 8 ->
      let o = funop_of_code (read_u8 s pos) in
      let d = reg () in
      Fun (o, d, reg ())
  | 9 ->
      let c = fcmp_of_code (read_u8 s pos) in
      let d = reg () in
      let a = reg () in
      Fcmp (c, d, a, reg ())
  | 10 ->
      let d = reg () in
      I2f (d, reg ())
  | 11 ->
      let d = reg () in
      F2i (d, reg ())
  | 12 ->
      let width, signed, has_pred = mem () in
      let dst = reg () in
      let base = reg () in
      let off = read_sleb128 s pos in
      if signed then begin
        if has_pred then fail "predicated sign-extending load at %d" !pos;
        Loads { width; dst; base; off }
      end
      else
        Load { width; dst; base; off; pred = (if has_pred then Some (reg ()) else None) }
  | 13 ->
      let width, _, has_pred = mem () in
      let src = reg () in
      let base = reg () in
      let off = read_sleb128 s pos in
      Store { width; src; base; off; pred = (if has_pred then Some (reg ()) else None) }
  | 14 ->
      let _, _, has_pred = mem () in
      let dst = reg () in
      let base = reg () in
      let off = read_sleb128 s pos in
      Fload { dst; base; off; pred = (if has_pred then Some (reg ()) else None) }
  | 15 ->
      let _, _, has_pred = mem () in
      let src = reg () in
      let base = reg () in
      let off = read_sleb128 s pos in
      Fstore { src; base; off; pred = (if has_pred then Some (reg ()) else None) }
  | 16 ->
      let base = reg () in
      Prefetch { base; off = read_sleb128 s pos }
  | 17 ->
      let dst = reg () in
      let src = reg () in
      Movs { dst; src; len = reg () }
  | 18 -> Jmp (read_sleb128 s pos)
  | 19 -> Jr (reg ())
  | 20 ->
      let r = reg () in
      Bz (r, read_sleb128 s pos)
  | 21 ->
      let r = reg () in
      Bnz (r, read_sleb128 s pos)
  | 22 -> Call (read_sleb128 s pos)
  | 23 -> Callr (reg ())
  | 24 -> Ret
  | 25 -> Syscall (read_sleb128 s pos)
  | 26 -> Halt
  | c -> fail "bad opcode %d at %d" c (!pos - 1)

(* ---------- whole program ---------- *)

let encode (p : Program.t) =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  sleb128 buf p.Program.entry;
  sleb128 buf p.Program.data_end;
  (* symbols *)
  let routines = ref [] in
  Symtab.iter (fun r -> routines := r :: !routines) p.Program.symtab;
  let routines = List.rev !routines in
  sleb128 buf (List.length routines);
  List.iter
    (fun (r : Symtab.routine) ->
      write_string buf r.name;
      sleb128 buf r.entry;
      sleb128 buf r.size;
      write_string buf r.image;
      Buffer.add_uint8 buf (if r.is_main_image then 1 else 0))
    routines;
  (* data segments *)
  sleb128 buf (List.length p.Program.data);
  List.iter
    (fun (addr, bytes) ->
      sleb128 buf addr;
      write_string buf bytes)
    p.Program.data;
  (* code *)
  sleb128 buf (Array.length p.Program.code);
  Array.iter (encode_ins buf) p.Program.code;
  Buffer.contents buf

let decode s =
  if String.length s < String.length magic
     || String.sub s 0 (String.length magic) <> magic
  then fail "bad magic";
  let pos = ref (String.length magic) in
  let entry = read_sleb128 s pos in
  let data_end = read_sleb128 s pos in
  let n_routines = read_sleb128 s pos in
  if n_routines < 0 then fail "negative routine count";
  let routines =
    List.init n_routines (fun _ ->
        let name = read_string s pos in
        let entry = read_sleb128 s pos in
        let size = read_sleb128 s pos in
        let image = read_string s pos in
        let is_main_image = read_u8 s pos <> 0 in
        { Symtab.id = 0; name; entry; size; image; is_main_image })
  in
  let n_data = read_sleb128 s pos in
  if n_data < 0 then fail "negative data count";
  let data =
    List.init n_data (fun _ ->
        let addr = read_sleb128 s pos in
        let bytes = read_string s pos in
        (addr, bytes))
  in
  let n_ins = read_sleb128 s pos in
  if n_ins < 0 then fail "negative instruction count";
  let code = Array.init n_ins (fun _ -> decode_ins s pos) in
  if !pos <> String.length s then fail "trailing bytes at %d" !pos;
  let symtab =
    try Symtab.build routines
    with Invalid_argument msg -> fail "invalid symbol table: %s" msg
  in
  { Program.code; entry; data; data_end; symtab }

let is_objfile s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

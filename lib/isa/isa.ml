type reg = int
type freg = int

let num_regs = 32
let reg_zero = 0
let reg_rv = 1
let reg_sp = 2
let reg_fp = 3
let reg_a0 = 4
let reg_t0 = 10
let num_temps = 18
let freg_rv = 0
let freg_t0 = 10
let num_ftemps = 18
let ins_bytes = 4

type width = W1 | W2 | W4 | W8

let width_bytes = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Sll | Srl | Sra
  | Slt | Sltu | Seq | Sne | Sle | Sge | Sgt

let eval_iop op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Rem -> if b = 0 then None else Some (a mod b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)
  | Sll -> Some (a lsl (b land 63))
  | Srl -> Some (a lsr (b land 63))
  | Sra -> Some (a asr (b land 63))
  | Slt -> Some (if a < b then 1 else 0)
  | Sltu -> Some (if a lxor min_int < b lxor min_int then 1 else 0)
  | Seq -> Some (if a = b then 1 else 0)
  | Sne -> Some (if a <> b then 1 else 0)
  | Sle -> Some (if a <= b then 1 else 0)
  | Sge -> Some (if a >= b then 1 else 0)
  | Sgt -> Some (if a > b then 1 else 0)

let negate_cmp = function
  | Slt -> Some Sge
  | Sle -> Some Sgt
  | Sgt -> Some Sle
  | Sge -> Some Slt
  | Seq -> Some Sne
  | Sne -> Some Seq
  | _ -> None

type fbinop = Fadd | Fsub | Fmul | Fdiv

type funop = Fneg | Fabs | Fsqrt | Fsin | Fcos | Ffloor

type fcmp = Feq | Fne | Flt | Fle

let eval_fop op a b =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b

let eval_funop op a =
  match op with
  | Fneg -> -.a
  | Fabs -> Float.abs a
  | Fsqrt -> Float.sqrt a
  | Fsin -> sin a
  | Fcos -> cos a
  | Ffloor -> Float.floor a

let eval_fcmp c a b =
  match c with
  | Feq -> a = b
  | Fne -> a <> b
  | Flt -> a < b
  | Fle -> a <= b

type operand = Reg of reg | Imm of int

type ins =
  | Nop
  | Li of reg * int
  | Mov of reg * reg
  | Bin of binop * reg * reg * operand
  | Fli of freg * float
  | Fmov of freg * freg
  | Fbin of fbinop * freg * freg * freg
  | Fun of funop * freg * freg
  | Fcmp of fcmp * reg * freg * freg
  | I2f of freg * reg
  | F2i of reg * freg
  | Load of { width : width; dst : reg; base : reg; off : int; pred : reg option }
  | Loads of { width : width; dst : reg; base : reg; off : int }
  | Store of { width : width; src : reg; base : reg; off : int; pred : reg option }
  | Fload of { dst : freg; base : reg; off : int; pred : reg option }
  | Fstore of { src : freg; base : reg; off : int; pred : reg option }
  | Prefetch of { base : reg; off : int }
  | Movs of { dst : reg; src : reg; len : reg }
  | Jmp of int
  | Jr of reg
  | Bz of reg * int
  | Bnz of reg * int
  | Call of int
  | Callr of reg
  | Ret
  | Syscall of int
  | Halt

let prefetch_line = 64

let reads_memory = function
  | Load _ | Loads _ | Fload _ | Prefetch _ | Ret | Movs _ -> true
  | _ -> false

let writes_memory = function
  | Store _ | Fstore _ | Call _ | Callr _ | Movs _ -> true
  | _ -> false

let mem_read_bytes = function
  | Load { width; _ } | Loads { width; _ } -> width_bytes width
  | Fload _ -> 8
  | Prefetch _ -> prefetch_line
  | Ret -> 8
  | _ -> 0

let mem_write_bytes = function
  | Store { width; _ } -> width_bytes width
  | Fstore _ -> 8
  | Call _ | Callr _ -> 8
  | _ -> 0

let is_prefetch = function Prefetch _ -> true | _ -> false
let is_block_move = function Movs _ -> true | _ -> false

let predicate_of = function
  | Load { pred; _ } | Store { pred; _ } | Fload { pred; _ } | Fstore { pred; _ }
    -> pred
  | _ -> None

let is_ret = function Ret -> true | _ -> false

let is_control = function
  | Jmp _ | Jr _ | Bz _ | Bnz _ | Call _ | Callr _ | Ret | Halt | Syscall _ ->
      true
  | _ -> false

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Sll -> "sll" | Srl -> "srl"
  | Sra -> "sra" | Slt -> "slt" | Sltu -> "sltu" | Seq -> "seq" | Sne -> "sne"
  | Sle -> "sle" | Sge -> "sge" | Sgt -> "sgt"

let fbinop_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let funop_name = function
  | Fneg -> "fneg" | Fabs -> "fabs" | Fsqrt -> "fsqrt" | Fsin -> "fsin"
  | Fcos -> "fcos" | Ffloor -> "ffloor"

let fcmp_name = function
  | Feq -> "feq" | Fne -> "fne" | Flt -> "flt" | Fle -> "fle"

let width_suffix = function W1 -> "b" | W2 -> "h" | W4 -> "w" | W8 -> "d"

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "x%d" r
  | Imm i -> Format.fprintf ppf "%d" i

let pp_pred ppf = function
  | None -> ()
  | Some p -> Format.fprintf ppf " ?x%d" p

let pp ppf = function
  | Nop -> Format.fprintf ppf "nop"
  | Li (r, i) -> Format.fprintf ppf "li x%d, %d" r i
  | Mov (d, s) -> Format.fprintf ppf "mov x%d, x%d" d s
  | Bin (op, d, s, o) ->
      Format.fprintf ppf "%s x%d, x%d, %a" (binop_name op) d s pp_operand o
  | Fli (r, f) -> Format.fprintf ppf "fli f%d, %h" r f
  | Fmov (d, s) -> Format.fprintf ppf "fmov f%d, f%d" d s
  | Fbin (op, d, a, b) ->
      Format.fprintf ppf "%s f%d, f%d, f%d" (fbinop_name op) d a b
  | Fun (op, d, s) -> Format.fprintf ppf "%s f%d, f%d" (funop_name op) d s
  | Fcmp (c, d, a, b) ->
      Format.fprintf ppf "%s x%d, f%d, f%d" (fcmp_name c) d a b
  | I2f (d, s) -> Format.fprintf ppf "i2f f%d, x%d" d s
  | F2i (d, s) -> Format.fprintf ppf "f2i x%d, f%d" d s
  | Load { width; dst; base; off; pred } ->
      Format.fprintf ppf "l%s x%d, %d(x%d)%a" (width_suffix width) dst off
        base pp_pred pred
  | Loads { width; dst; base; off } ->
      Format.fprintf ppf "l%ss x%d, %d(x%d)" (width_suffix width) dst off base
  | Store { width; src; base; off; pred } ->
      Format.fprintf ppf "s%s x%d, %d(x%d)%a" (width_suffix width) src off
        base pp_pred pred
  | Fload { dst; base; off; pred } ->
      Format.fprintf ppf "fld f%d, %d(x%d)%a" dst off base pp_pred pred
  | Fstore { src; base; off; pred } ->
      Format.fprintf ppf "fsd f%d, %d(x%d)%a" src off base pp_pred pred
  | Prefetch { base; off } -> Format.fprintf ppf "prefetch %d(x%d)" off base
  | Movs { dst; src; len } ->
      Format.fprintf ppf "movs (x%d), (x%d), x%d" dst src len
  | Jmp a -> Format.fprintf ppf "jmp 0x%x" a
  | Jr r -> Format.fprintf ppf "jr x%d" r
  | Bz (r, a) -> Format.fprintf ppf "bz x%d, 0x%x" r a
  | Bnz (r, a) -> Format.fprintf ppf "bnz x%d, 0x%x" r a
  | Call a -> Format.fprintf ppf "call 0x%x" a
  | Callr r -> Format.fprintf ppf "callr x%d" r
  | Ret -> Format.fprintf ppf "ret"
  | Syscall n -> Format.fprintf ppf "syscall %d" n
  | Halt -> Format.fprintf ppf "halt"

let to_string i = Format.asprintf "%a" pp i

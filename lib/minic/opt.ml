module Isa = Tq_isa.Isa
open Mir

(* Can the value be discarded without changing behaviour?  Loads are pure
   for the *application*; an optimizing compiler removes them, which is
   exactly what the optimization-level ablation wants to show. *)
let rec pure = function
  | Const_i _ | Const_f _ | Sym_addr _ | Frame_addr _ -> true
  | Load_i (_, _, a) | Load_f a | Funop (_, a) | I2f a | F2i a -> pure a
  | Iop (_, a, b) | Fop (_, a, b) | Fcmp (_, a, b) | Andalso (a, b) | Orelse (a, b)
    ->
      pure a && pure b
  | Call _ -> false

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v / 2) in
  go 0 n

let rec expr e =
  match e with
  | Const_i _ | Const_f _ | Sym_addr _ | Frame_addr _ -> e
  | Load_i (w, s, a) -> Load_i (w, s, expr a)
  | Load_f a -> Load_f (expr a)
  | I2f a -> (
      match expr a with
      | Const_i n -> Const_f (float_of_int n)
      | a -> I2f a)
  | F2i a -> (
      match expr a with
      | Const_f f when Float.is_finite f -> Const_i (int_of_float f)
      | a -> F2i a)
  | Funop (op, a) -> (
      match expr a with
      | Const_f f -> Const_f (Isa.eval_funop op f)
      | a -> Funop (op, a))
  | Fop (op, a, b) -> (
      match (expr a, expr b) with
      | Const_f x, Const_f y -> Const_f (Isa.eval_fop op x y)
      | a, b -> Fop (op, a, b))
  | Fcmp (c, a, b) -> (
      match (expr a, expr b) with
      | Const_f x, Const_f y -> Const_i (if Isa.eval_fcmp c x y then 1 else 0)
      | a, b -> Fcmp (c, a, b))
  | Andalso (a, b) -> (
      match (expr a, expr b) with
      | Const_i 0, _ -> Const_i 0
      | Const_i _, b -> b (* operands are already normalized to 0/1 *)
      | a, Const_i 0 when pure a -> Const_i 0
      | a, b -> Andalso (a, b))
  | Orelse (a, b) -> (
      match (expr a, expr b) with
      | Const_i 0, b -> b
      | Const_i _, _ -> Const_i 1
      | a, b -> Orelse (a, b))
  | Call (name, args, ret) ->
      Call (name, List.map (fun (c, a) -> (c, expr a)) args, ret)
  | Iop (op, a, b) -> iop op (expr a) (expr b)

and iop op a b =
  match (a, b) with
  | Const_i x, Const_i y -> (
      match Isa.eval_iop op x y with
      | Some v -> Const_i v
      | None -> Iop (op, a, b) (* division by zero: trap at runtime *))
  | _ -> (
      match (op, a, b) with
      | (Isa.Add | Sub | Or | Xor | Sll | Srl | Sra), _, Const_i 0 -> a
      | Isa.Add, Const_i 0, _ -> b
      | (Isa.Mul | Div), _, Const_i 1 -> a
      | Isa.Mul, Const_i 1, _ -> b
      | Isa.Mul, _, Const_i 0 when pure a -> Const_i 0
      | Isa.Mul, Const_i 0, _ when pure b -> Const_i 0
      | Isa.And, _, Const_i 0 when pure a -> Const_i 0
      | Isa.And, Const_i 0, _ when pure b -> Const_i 0
      | Isa.Mul, _, Const_i n when is_pow2 n -> Iop (Isa.Sll, a, Const_i (log2 n))
      | Isa.Mul, Const_i n, _ when is_pow2 n -> Iop (Isa.Sll, b, Const_i (log2 n))
      | _ -> Iop (op, a, b))

(* does the statement list contain a break/continue belonging to the
   enclosing loop? (nested loops capture their own) *)
let rec has_loop_escape stmts =
  List.exists
    (function
      | Break | Continue -> true
      | If (_, t, f) -> has_loop_escape t || has_loop_escape f
      | _ -> false)
    stmts

let rec stmt s =
  match s with
  | Store_i (w, a, v) -> [ Store_i (w, expr a, expr v) ]
  | Store_f (a, v) -> [ Store_f (expr a, expr v) ]
  | Expr (c, e) ->
      let e = expr e in
      if pure e then [] else [ Expr (c, e) ]
  | If (cond, t, f) -> (
      match expr cond with
      | Const_i 0 -> block f
      | Const_i _ -> block t
      | cond -> [ If (cond, block t, block f) ])
  | For { cond; step; body } -> (
      let cond = Option.map expr cond in
      match cond with
      | Some (Const_i 0) -> []
      | _ -> [ For { cond; step = block step; body = block body } ])
  | Dowhile (body, cond) -> (
      match expr cond with
      | Const_i 0 when not (has_loop_escape body) ->
          block body (* executes exactly once; safe only without break/continue *)
      | cond -> [ Dowhile (block body, cond) ])
  | Return None -> [ Return None ]
  | Return (Some (c, e)) -> [ Return (Some (c, expr e)) ]
  | Break -> [ Break ]
  | Continue -> [ Continue ]

and block stmts = List.concat_map stmt stmts

let func f = { f with body = block f.body }

let program p = { p with funcs = List.map func p.funcs }

let text_base = 0x0040_0000
let data_base = 0x1000_0000
let stack_top = 0x7f00_0000_0000
let stack_red_zone = 64

(* int-typed, so the comparisons compile to machine compares (the
   polymorphic [Stdlib.min]/[max] would cost a C call per access) *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

let stack_lo ~sp ea size = imin (imax ea (sp - stack_red_zone)) (ea + size)
let stack_hi ~sp ea size =
  imax (stack_lo ~sp ea size) (imin (ea + size) stack_top)

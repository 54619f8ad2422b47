open Tq_isa

exception Trap of { ip : int; reason : string }

type t = {
  prog : Program.t;
  regs : int array;
  fregs : float array;
  memory : Memory.t;
  filesystem : Vfs.t;
  mutable pc : int;
  mutable count : int;
  mutable is_halted : bool;
  mutable exit_status : int option;
  mutable brk : int;
  fds : Vfs.fd option array;
  console : Buffer.t;
}

let trap t reason = raise (Trap { ip = t.pc; reason })

let create ?vfs prog =
  let t =
    {
      prog;
      regs = Array.make Isa.num_regs 0;
      fregs = Array.make Isa.num_regs 0.;
      memory = Memory.create ();
      filesystem = (match vfs with Some v -> v | None -> Vfs.create ());
      pc = prog.Program.entry;
      count = 0;
      is_halted = false;
      exit_status = None;
      brk = prog.Program.data_end;
      fds = Array.make 64 None;
      console = Buffer.create 256;
    }
  in
  t.regs.(Isa.reg_sp) <- Layout.stack_top;
  List.iter
    (fun (addr, bytes) -> Memory.write_bytes t.memory addr (Bytes.of_string bytes))
    prog.Program.data;
  t

let program t = t.prog
let vfs t = t.filesystem
let ip t = t.pc
let reg t r = if r = Isa.reg_zero then 0 else t.regs.(r)

let set_reg t r v = if r <> Isa.reg_zero then t.regs.(r) <- v

let freg t r = t.fregs.(r)
let sp t = t.regs.(Isa.reg_sp)
let instr_count t = t.count
let halted t = t.is_halted
let exit_code t = t.exit_status
let mem t = t.memory
let stdout_contents t = Buffer.contents t.console

let read_ea t ins =
  match ins with
  | Isa.Load { base; off; _ } | Isa.Loads { base; off; _ }
  | Isa.Fload { base; off; _ } | Isa.Prefetch { base; off } ->
      reg t base + off
  | Isa.Ret -> sp t
  | Isa.Movs { src; _ } -> reg t src
  | _ -> 0

let write_ea t ins =
  match ins with
  | Isa.Store { base; off; _ } | Isa.Fstore { base; off; _ } -> reg t base + off
  | Isa.Call _ | Isa.Callr _ -> sp t - 8
  | Isa.Movs { dst; _ } -> reg t dst
  | _ -> 0

(* Dynamic byte count of a block-move; 0 for other instructions. *)
let block_len t ins =
  match ins with Isa.Movs { len; _ } -> max 0 (reg t len) | _ -> 0

let fetch t =
  match Program.fetch t.prog t.pc with
  | ins -> ins
  | exception Invalid_argument msg -> trap t msg

(* Unsigned comparison over the full native-int range. *)
let ucmp_lt a b = a lxor min_int < b lxor min_int

let eval_binop t op a b =
  match Isa.eval_iop op a b with
  | Some v -> v
  | None ->
      trap t
        (if op = Isa.Div then "integer division by zero"
         else "integer remainder by zero")

(* ---------- syscalls ---------- *)

let sys_exit = Sysno.exit
let sys_open = Sysno.open_
let sys_close = Sysno.close
let sys_read = Sysno.read
let sys_write = Sysno.write
let sys_brk = Sysno.brk
let sys_putint = Sysno.putint
let sys_putfloat = Sysno.putfloat
let sys_putstr = Sysno.putstr
let sys_putchar = Sysno.putchar
let sys_seek = Sysno.seek
let sys_fsize = Sysno.fsize
let sys_clock = Sysno.clock

let alloc_fd t =
  let rec go i =
    if i >= Array.length t.fds then trap t "out of file descriptors"
    else if t.fds.(i) = None then i
    else go (i + 1)
  in
  go 3

let fd_index t n =
  if n < 0 || n >= Array.length t.fds then trap t "bad file descriptor" else n

let get_fd t n =
  match t.fds.(fd_index t n) with
  | None -> trap t (Printf.sprintf "file descriptor %d not open" n)
  | Some fd -> fd

(* A byte count a syscall takes from the guest, checked before any buffer
   is sized from it. *)
let guest_len t what n =
  if n < 0 || n > Vfs.max_file_size then
    trap t
      (Printf.sprintf "%s length %d outside 0..%d" what n Vfs.max_file_size)
  else n

let do_syscall t n =
  let a0 = reg t Isa.reg_a0
  and a1 = reg t (Isa.reg_a0 + 1)
  and a2 = reg t (Isa.reg_a0 + 2) in
  let ret v = set_reg t Isa.reg_rv v in
  if n = sys_exit then begin
    t.is_halted <- true;
    t.exit_status <- Some a0
  end
  else if n = sys_open then begin
    let path = Memory.read_cstring t.memory a0 in
    match Vfs.openf t.filesystem path ~writable:(a1 <> 0) with
    | Error _ -> ret (-1)
    | Ok fd ->
        let n = alloc_fd t in
        t.fds.(n) <- Some fd;
        ret n
  end
  else if n = sys_close then begin
    Option.iter (Vfs.close t.filesystem) t.fds.(fd_index t a0);
    t.fds.(a0) <- None;
    ret 0
  end
  else if n = sys_read then begin
    let fd = get_fd t a0 in
    let data = Vfs.read fd (guest_len t "read" a2) in
    Memory.write_bytes t.memory a1 data;
    ret (Bytes.length data)
  end
  else if n = sys_write then begin
    let fd = get_fd t a0 in
    let buf = Memory.read_bytes t.memory a1 (guest_len t "write" a2) in
    match Vfs.write fd buf with Ok n -> ret n | Error msg -> trap t msg
  end
  else if n = sys_brk then begin
    if a0 > t.brk then t.brk <- a0;
    ret t.brk
  end
  else if n = sys_putint then begin
    Buffer.add_string t.console (string_of_int a0);
    ret 0
  end
  else if n = sys_putfloat then begin
    (* Float syscall argument travels in f4 (see {!Sysno}). *)
    Buffer.add_string t.console (Printf.sprintf "%.6g" (freg t 4));
    ret 0
  end
  else if n = sys_putstr then begin
    Buffer.add_bytes t.console
      (Memory.read_bytes t.memory a0 (guest_len t "putstr" a1));
    ret 0
  end
  else if n = sys_putchar then begin
    Buffer.add_char t.console (Char.chr (a0 land 0xff));
    ret 0
  end
  else if n = sys_seek then begin
    match Vfs.seek (get_fd t a0) a1 with Ok () -> ret 0 | Error msg -> trap t msg
  end
  else if n = sys_fsize then ret (Vfs.fd_size (get_fd t a0))
  else if n = sys_clock then ret t.count
  else trap t (Printf.sprintf "unknown syscall %d" n)

(* ---------- execution ---------- *)

let exec t ins =
  let next = t.pc + Isa.ins_bytes in
  t.count <- t.count + 1;
  (match ins with
  | Isa.Nop -> t.pc <- next
  | Li (r, i) ->
      set_reg t r i;
      t.pc <- next
  | Mov (d, s) ->
      set_reg t d (reg t s);
      t.pc <- next
  | Bin (op, d, s, o) ->
      let b = match o with Isa.Reg r -> reg t r | Imm i -> i in
      set_reg t d (eval_binop t op (reg t s) b);
      t.pc <- next
  | Fli (r, f) ->
      t.fregs.(r) <- f;
      t.pc <- next
  | Fmov (d, s) ->
      t.fregs.(d) <- t.fregs.(s);
      t.pc <- next
  | Fbin (op, d, a, b) ->
      t.fregs.(d) <- Isa.eval_fop op t.fregs.(a) t.fregs.(b);
      t.pc <- next
  | Fun (op, d, s) ->
      t.fregs.(d) <- Isa.eval_funop op t.fregs.(s);
      t.pc <- next
  | Fcmp (c, d, a, b) ->
      set_reg t d (if Isa.eval_fcmp c t.fregs.(a) t.fregs.(b) then 1 else 0);
      t.pc <- next
  | I2f (d, s) ->
      t.fregs.(d) <- float_of_int (reg t s);
      t.pc <- next
  | F2i (d, s) ->
      set_reg t d (int_of_float t.fregs.(s));
      t.pc <- next
  | Load { width; dst; base; off; pred } ->
      (match pred with
      | Some p when reg t p = 0 -> ()
      | _ -> set_reg t dst (Memory.load t.memory ~width (reg t base + off)));
      t.pc <- next
  | Loads { width; dst; base; off } ->
      set_reg t dst (Memory.loads t.memory ~width (reg t base + off));
      t.pc <- next
  | Store { width; src; base; off; pred } ->
      (match pred with
      | Some p when reg t p = 0 -> ()
      | _ -> Memory.store t.memory ~width (reg t base + off) (reg t src));
      t.pc <- next
  | Fload { dst; base; off; pred } ->
      (match pred with
      | Some p when reg t p = 0 -> ()
      | _ -> t.fregs.(dst) <- Memory.load_f64 t.memory (reg t base + off));
      t.pc <- next
  | Fstore { src; base; off; pred } ->
      (match pred with
      | Some p when reg t p = 0 -> ()
      | _ -> Memory.store_f64 t.memory (reg t base + off) t.fregs.(src));
      t.pc <- next
  | Prefetch _ ->
      (* Hint only: references memory from the profiler's point of view but
         has no architectural effect. *)
      t.pc <- next
  | Movs { dst; src; len } ->
      let n = reg t len in
      if n > 0 then begin
        let data = Memory.read_bytes t.memory (reg t src) n in
        Memory.write_bytes t.memory (reg t dst) data
      end;
      t.pc <- next
  | Jmp a -> t.pc <- a
  | Jr r -> t.pc <- reg t r
  | Bz (r, a) -> t.pc <- (if reg t r = 0 then a else next)
  | Bnz (r, a) -> t.pc <- (if reg t r <> 0 then a else next)
  | Call a ->
      let nsp = sp t - 8 in
      Memory.store t.memory ~width:Isa.W8 nsp next;
      t.regs.(Isa.reg_sp) <- nsp;
      t.pc <- a
  | Callr r ->
      let target = reg t r in
      let nsp = sp t - 8 in
      Memory.store t.memory ~width:Isa.W8 nsp next;
      t.regs.(Isa.reg_sp) <- nsp;
      t.pc <- target
  | Ret ->
      let ra = Memory.load t.memory ~width:Isa.W8 (sp t) in
      t.regs.(Isa.reg_sp) <- sp t + 8;
      t.pc <- ra
  | Syscall n ->
      do_syscall t n;
      t.pc <- next
  | Halt ->
      t.is_halted <- true;
      if t.exit_status = None then t.exit_status <- Some 0);
  ()

(* [exec] and the compiled closures move [pc] only after an instruction's
   work, so a fault raised mid-instruction is charged to that instruction.
   One handler around the whole loop costs nothing per instruction. *)
let guard t run = try run () with Memory.Fault reason -> trap t reason

(* ---------- closure compilation (threaded code) ---------- *)

(* First-class binop implementations for the closure compiler: resolving the
   operator once at compile time replaces the per-execution [eval_binop]
   dispatch with one indirect call.  [trap] inside Div/Rem sees the correct
   ip because [compile_ins] closures only advance [pc] after their work,
   preserving exec's "pc points at the executing instruction" invariant. *)
let binop_fn t op : int -> int -> int =
  match op with
  | Isa.Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> fun a b -> if b = 0 then trap t "integer division by zero" else a / b
  | Rem ->
      fun a b -> if b = 0 then trap t "integer remainder by zero" else a mod b
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Sll -> fun a b -> a lsl (b land 63)
  | Srl -> fun a b -> a lsr (b land 63)
  | Sra -> fun a b -> a asr (b land 63)
  | Slt -> fun a b -> if a < b then 1 else 0
  | Sltu -> fun a b -> if ucmp_lt a b then 1 else 0
  | Seq -> fun a b -> if a = b then 1 else 0
  | Sne -> fun a b -> if a <> b then 1 else 0
  | Sle -> fun a b -> if a <= b then 1 else 0
  | Sge -> fun a b -> if a >= b then 1 else 0
  | Sgt -> fun a b -> if a > b then 1 else 0

(* Specialize one instruction into a single fused closure.  The returned
   closure performs exactly what [exec] would — bump the retired counter,
   do the work, leave [pc] at the follow-on address — but with registers,
   immediates, widths and predicates resolved here, once, so the hot loop
   pays no variant dispatch.  Reads of the zero register go straight to
   [regs.(0)], which is 0 by construction (nothing ever writes it); writes
   to it are compiled out while still evaluating the right-hand side for
   its faults, mirroring [set_reg] after evaluation.  Keeping this compiler
   inside [Machine] is what keeps the architectural state sealed: callers
   get closures, never the raw arrays. *)
let compile_ins t ins ~next =
  let regs = t.regs and fregs = t.fregs and mem = t.memory in
  match ins with
  | Isa.Nop | Isa.Prefetch _ ->
      (* Prefetch is a hint: references memory from the profiler's point of
         view but has no architectural effect. *)
      fun () ->
        t.count <- t.count + 1;
        t.pc <- next
  | Isa.Li (r, i) ->
      if r = Isa.reg_zero then
        fun () ->
          t.count <- t.count + 1;
          t.pc <- next
      else
        fun () ->
          t.count <- t.count + 1;
          regs.(r) <- i;
          t.pc <- next
  | Isa.Mov (d, s) ->
      if d = Isa.reg_zero then
        fun () ->
          t.count <- t.count + 1;
          t.pc <- next
      else
        fun () ->
          t.count <- t.count + 1;
          regs.(d) <- regs.(s);
          t.pc <- next
  | Isa.Bin (op, d, s, o) -> (
      let f = binop_fn t op in
      match o with
      | Isa.Reg r ->
          if d = Isa.reg_zero then
            fun () ->
              t.count <- t.count + 1;
              ignore (f regs.(s) regs.(r));
              t.pc <- next
          else
            fun () ->
              t.count <- t.count + 1;
              regs.(d) <- f regs.(s) regs.(r);
              t.pc <- next
      | Isa.Imm i ->
          if d = Isa.reg_zero then
            fun () ->
              t.count <- t.count + 1;
              ignore (f regs.(s) i);
              t.pc <- next
          else
            fun () ->
              t.count <- t.count + 1;
              regs.(d) <- f regs.(s) i;
              t.pc <- next)
  | Isa.Fli (r, f) ->
      fun () ->
        t.count <- t.count + 1;
        fregs.(r) <- f;
        t.pc <- next
  | Isa.Fmov (d, s) ->
      fun () ->
        t.count <- t.count + 1;
        fregs.(d) <- fregs.(s);
        t.pc <- next
  | Isa.Fbin (op, d, a, b) -> (
      match op with
      | Isa.Fadd ->
          fun () ->
            t.count <- t.count + 1;
            fregs.(d) <- fregs.(a) +. fregs.(b);
            t.pc <- next
      | Fsub ->
          fun () ->
            t.count <- t.count + 1;
            fregs.(d) <- fregs.(a) -. fregs.(b);
            t.pc <- next
      | Fmul ->
          fun () ->
            t.count <- t.count + 1;
            fregs.(d) <- fregs.(a) *. fregs.(b);
            t.pc <- next
      | Fdiv ->
          fun () ->
            t.count <- t.count + 1;
            fregs.(d) <- fregs.(a) /. fregs.(b);
            t.pc <- next)
  | Isa.Fun (op, d, s) ->
      let f =
        match op with
        | Isa.Fneg -> ( ~-. )
        | Fabs -> Float.abs
        | Fsqrt -> Float.sqrt
        | Fsin -> sin
        | Fcos -> cos
        | Ffloor -> Float.floor
      in
      fun () ->
        t.count <- t.count + 1;
        fregs.(d) <- f fregs.(s);
        t.pc <- next
  | Isa.Fcmp (c, d, a, b) ->
      if d = Isa.reg_zero then
        fun () ->
          t.count <- t.count + 1;
          t.pc <- next
      else
        let f =
          match c with
          | Isa.Feq -> fun x y -> if x = y then 1 else 0
          | Fne -> fun x y -> if x <> y then 1 else 0
          | Flt -> fun x y -> if x < y then 1 else 0
          | Fle -> fun x y -> if x <= y then 1 else 0
        in
        fun () ->
          t.count <- t.count + 1;
          regs.(d) <- f fregs.(a) fregs.(b);
          t.pc <- next
  | Isa.I2f (d, s) ->
      fun () ->
        t.count <- t.count + 1;
        fregs.(d) <- float_of_int regs.(s);
        t.pc <- next
  | Isa.F2i (d, s) ->
      if d = Isa.reg_zero then
        fun () ->
          t.count <- t.count + 1;
          t.pc <- next
      else
        fun () ->
          t.count <- t.count + 1;
          regs.(d) <- int_of_float fregs.(s);
          t.pc <- next
  | Isa.Load { width; dst; base; off; pred } -> (
      let ld =
        match width with
        | Isa.W8 -> Memory.load_w8 mem
        | w -> fun a -> Memory.load mem ~width:w a
      in
      match pred with
      | None ->
          if dst = Isa.reg_zero then
            fun () ->
              t.count <- t.count + 1;
              ignore (ld (regs.(base) + off));
              t.pc <- next
          else
            fun () ->
              t.count <- t.count + 1;
              regs.(dst) <- ld (regs.(base) + off);
              t.pc <- next
      | Some p ->
          fun () ->
            t.count <- t.count + 1;
            (if regs.(p) <> 0 then
               let v = ld (regs.(base) + off) in
               if dst <> Isa.reg_zero then regs.(dst) <- v);
            t.pc <- next)
  | Isa.Loads { width; dst; base; off } ->
      if dst = Isa.reg_zero then
        fun () ->
          t.count <- t.count + 1;
          ignore (Memory.loads mem ~width (regs.(base) + off));
          t.pc <- next
      else
        fun () ->
          t.count <- t.count + 1;
          regs.(dst) <- Memory.loads mem ~width (regs.(base) + off);
          t.pc <- next
  | Isa.Store { width; src; base; off; pred } -> (
      let st =
        match width with
        | Isa.W8 -> Memory.store_w8 mem
        | w -> fun a v -> Memory.store mem ~width:w a v
      in
      match pred with
      | None ->
          fun () ->
            t.count <- t.count + 1;
            st (regs.(base) + off) regs.(src);
            t.pc <- next
      | Some p ->
          fun () ->
            t.count <- t.count + 1;
            if regs.(p) <> 0 then st (regs.(base) + off) regs.(src);
            t.pc <- next)
  | Isa.Fload { dst; base; off; pred } -> (
      match pred with
      | None ->
          fun () ->
            t.count <- t.count + 1;
            fregs.(dst) <- Memory.load_f64 mem (regs.(base) + off);
            t.pc <- next
      | Some p ->
          fun () ->
            t.count <- t.count + 1;
            if regs.(p) <> 0 then
              fregs.(dst) <- Memory.load_f64 mem (regs.(base) + off);
            t.pc <- next)
  | Isa.Fstore { src; base; off; pred } -> (
      match pred with
      | None ->
          fun () ->
            t.count <- t.count + 1;
            Memory.store_f64 mem (regs.(base) + off) fregs.(src);
            t.pc <- next
      | Some p ->
          fun () ->
            t.count <- t.count + 1;
            if regs.(p) <> 0 then
              Memory.store_f64 mem (regs.(base) + off) fregs.(src);
            t.pc <- next)
  | Isa.Movs { dst; src; len } ->
      fun () ->
        t.count <- t.count + 1;
        let n = regs.(len) in
        if n > 0 then begin
          let data = Memory.read_bytes mem regs.(src) n in
          Memory.write_bytes mem regs.(dst) data
        end;
        t.pc <- next
  | Isa.Jmp a ->
      fun () ->
        t.count <- t.count + 1;
        t.pc <- a
  | Isa.Jr r ->
      fun () ->
        t.count <- t.count + 1;
        t.pc <- regs.(r)
  | Isa.Bz (r, a) ->
      fun () ->
        t.count <- t.count + 1;
        t.pc <- (if regs.(r) = 0 then a else next)
  | Isa.Bnz (r, a) ->
      fun () ->
        t.count <- t.count + 1;
        t.pc <- (if regs.(r) <> 0 then a else next)
  | Isa.Call a ->
      fun () ->
        t.count <- t.count + 1;
        let nsp = regs.(Isa.reg_sp) - 8 in
        Memory.store_w8 mem nsp next;
        regs.(Isa.reg_sp) <- nsp;
        t.pc <- a
  | Isa.Callr r ->
      fun () ->
        t.count <- t.count + 1;
        (* target read before the push, exactly as [exec] orders it *)
        let target = regs.(r) in
        let nsp = regs.(Isa.reg_sp) - 8 in
        Memory.store_w8 mem nsp next;
        regs.(Isa.reg_sp) <- nsp;
        t.pc <- target
  | Isa.Ret ->
      fun () ->
        t.count <- t.count + 1;
        let sp = regs.(Isa.reg_sp) in
        let ra = Memory.load_w8 mem sp in
        regs.(Isa.reg_sp) <- sp + 8;
        t.pc <- ra
  | Isa.Syscall n ->
      fun () ->
        t.count <- t.count + 1;
        do_syscall t n;
        t.pc <- next
  | Isa.Halt ->
      fun () ->
        t.count <- t.count + 1;
        t.is_halted <- true;
        if t.exit_status = None then t.exit_status <- Some 0

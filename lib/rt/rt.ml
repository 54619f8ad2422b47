module Isa = Tq_isa.Isa
module Builder = Tq_asm.Builder
module Link = Tq_asm.Link
module Sysno = Tq_vm.Sysno

(* Convention reminder: at routine entry the return address sits at [sp],
   argument j at [sp + 8 + 8j].  Results return in x1 (int) / f0 (float).
   These leaf routines use no frame pointer; x10..x27 are caller-saved. *)

let a0 = Isa.reg_a0
let a1 = Isa.reg_a0 + 1
let rv = Isa.reg_rv
let sp = Isa.reg_sp

let routine rname f =
  let b = Builder.create () in
  f b;
  { Link.rname; body = b }

let load_arg b dst j =
  Builder.ins b
    (Isa.Load { width = Isa.W8; dst; base = sp; off = 8 + (8 * j); pred = None })

let fload_arg b dst j =
  Builder.ins b (Isa.Fload { dst; base = sp; off = 8 + (8 * j); pred = None })

(* a syscall wrapper taking [n] integer arguments *)
let sys_wrapper name n sysno =
  routine name (fun b ->
      for j = 0 to n - 1 do
        load_arg b (a0 + j) j
      done;
      Builder.ins b (Isa.Syscall sysno);
      Builder.ins b Isa.Ret)

let r_start =
  routine "_start" (fun b ->
      Builder.call b "main";
      Builder.ins b (Isa.Mov (a0, rv));
      Builder.ins b (Isa.Syscall Sysno.exit))

let r_exit = sys_wrapper "exit" 1 Sysno.exit
let r_open = sys_wrapper "open" 2 Sysno.open_
let r_close = sys_wrapper "close" 1 Sysno.close
let r_read = sys_wrapper "read" 3 Sysno.read
let r_write = sys_wrapper "write" 3 Sysno.write
let r_seek = sys_wrapper "seek" 2 Sysno.seek
let r_fsize = sys_wrapper "fsize" 1 Sysno.fsize
let r_clock = sys_wrapper "clock" 0 Sysno.clock
let r_print_int = sys_wrapper "print_int" 1 Sysno.putint
let r_print_char = sys_wrapper "print_char" 1 Sysno.putchar

let r_print_float =
  routine "print_float" (fun b ->
      fload_arg b 4 0;
      (* putfloat reads f4 *)
      Builder.ins b (Isa.Syscall Sysno.putfloat);
      Builder.ins b Isa.Ret)

(* strlen(s): x1 = length *)
let r_strlen =
  routine "strlen" (fun b ->
      load_arg b 10 0;
      Builder.ins b (Isa.Li (rv, 0));
      let loop = Builder.fresh_label b in
      let done_ = Builder.fresh_label b in
      Builder.place b loop;
      Builder.ins b (Isa.Bin (Isa.Add, 11, 10, Isa.Reg rv));
      Builder.ins b (Isa.Load { width = Isa.W1; dst = 12; base = 11; off = 0; pred = None });
      Builder.bz b 12 done_;
      Builder.ins b (Isa.Bin (Isa.Add, rv, rv, Isa.Imm 1));
      Builder.jmp b loop;
      Builder.place b done_;
      Builder.ins b Isa.Ret)

(* print_str(s): strlen inline, then putstr(s, len) *)
let r_print_str =
  routine "print_str" (fun b ->
      load_arg b a0 0;
      Builder.ins b (Isa.Li (a1, 0));
      let loop = Builder.fresh_label b in
      let done_ = Builder.fresh_label b in
      Builder.place b loop;
      Builder.ins b (Isa.Bin (Isa.Add, 11, a0, Isa.Reg a1));
      Builder.ins b (Isa.Load { width = Isa.W1; dst = 12; base = 11; off = 0; pred = None });
      Builder.bz b 12 done_;
      Builder.ins b (Isa.Bin (Isa.Add, a1, a1, Isa.Imm 1));
      Builder.jmp b loop;
      Builder.place b done_;
      Builder.ins b (Isa.Syscall Sysno.putstr);
      Builder.ins b Isa.Ret)

(* memcpy(dst, src, n): the bulk moves through the block-copy (rep movs)
   instruction, as an optimized libc would *)
let r_memcpy =
  routine "memcpy" (fun b ->
      load_arg b 10 0;
      load_arg b 11 1;
      load_arg b 12 2;
      Builder.ins b (Isa.Movs { dst = 10; src = 11; len = 12 });
      Builder.ins b (Isa.Mov (rv, 10));
      Builder.ins b Isa.Ret)

(* memset(dst, c, n): returns dst *)
let r_memset =
  routine "memset" (fun b ->
      load_arg b 10 0;
      load_arg b 11 1;
      load_arg b 12 2;
      Builder.ins b (Isa.Li (13, 0));
      let loop = Builder.fresh_label b in
      let done_ = Builder.fresh_label b in
      Builder.place b loop;
      Builder.ins b (Isa.Bin (Isa.Slt, 14, 13, Isa.Reg 12));
      Builder.bz b 14 done_;
      Builder.ins b (Isa.Bin (Isa.Add, 15, 10, Isa.Reg 13));
      Builder.ins b (Isa.Store { width = Isa.W1; src = 11; base = 15; off = 0; pred = None });
      Builder.ins b (Isa.Bin (Isa.Add, 13, 13, Isa.Imm 1));
      Builder.jmp b loop;
      Builder.place b done_;
      Builder.ins b (Isa.Mov (rv, 10));
      Builder.ins b Isa.Ret)

(* malloc(n): bump allocator over brk; 16-byte aligned; free() is a no-op *)
let r_malloc =
  routine "malloc" (fun b ->
      let have = Builder.fresh_label b in
      Builder.la b 10 "__rt_heap";
      Builder.ins b (Isa.Load { width = Isa.W8; dst = 11; base = 10; off = 0; pred = None });
      Builder.bnz b 11 have;
      (* first call: heap starts at the current program break *)
      Builder.ins b (Isa.Li (a0, 0));
      Builder.ins b (Isa.Syscall Sysno.brk);
      Builder.ins b (Isa.Mov (11, rv));
      Builder.place b have;
      (* result = heap; heap += round16(n); brk(heap) *)
      load_arg b 12 0;
      Builder.ins b (Isa.Bin (Isa.Add, 12, 12, Isa.Imm 15));
      Builder.ins b (Isa.Bin (Isa.And, 12, 12, Isa.Imm (lnot 15)));
      Builder.ins b (Isa.Bin (Isa.Add, 13, 11, Isa.Reg 12));
      Builder.ins b (Isa.Store { width = Isa.W8; src = 13; base = 10; off = 0; pred = None });
      Builder.ins b (Isa.Mov (a0, 13));
      Builder.ins b (Isa.Syscall Sysno.brk);
      Builder.ins b (Isa.Mov (rv, 11));
      Builder.ins b Isa.Ret)

let r_free =
  routine "free" (fun b ->
      Builder.ins b (Isa.Li (rv, 0));
      Builder.ins b Isa.Ret)

let unit_ =
  {
    Link.uname = "librt";
    main_image = false;
    routines =
      [
        r_start; r_exit; r_open; r_close; r_read; r_write; r_seek; r_fsize;
        r_clock; r_print_int; r_print_char; r_print_float; r_print_str;
        r_strlen; r_memcpy; r_memset; r_malloc; r_free;
      ];
    data = [ { Link.dname = "__rt_heap"; init = Link.Zero 8 } ];
  }

let unit_no_start =
  { unit_ with Link.routines = List.filter (fun r -> r.Link.rname <> "_start") unit_.Link.routines }

let link units = Link.link (units @ [ unit_ ])

open Tq_isa
open Tq_vm
open Tq_asm

(* ---------- helpers ---------- *)

let build ?(data = []) ?(extra_units = []) routines =
  Link.link_with_symbols
    ({ Link.uname = "test"; main_image = true; routines; data } :: extra_units)

let routine rname f =
  let b = Builder.create () in
  f b;
  { Link.rname; body = b }

let exit0 b =
  Builder.ins b (Isa.Li (Isa.reg_a0, 0));
  Builder.ins b (Isa.Syscall Sysno.exit)

let run_prog ?vfs (prog, syms) =
  let m = Machine.create ?vfs prog in
  Executor.run ~fuel:1_000_000 m;
  (m, syms)

let sym syms name = Hashtbl.find syms name

let word (m, syms) name = Memory.loads (Machine.mem m) ~width:Isa.W8 (sym syms name)

(* ---------- machine semantics ---------- *)

let test_arith () =
  let p =
    build
      ~data:[ { Link.dname = "result"; init = Zero 64 } ]
      [
        routine "_start" (fun b ->
            Builder.la b 20 "result";
            Builder.ins b (Isa.Li (10, 7));
            Builder.ins b (Isa.Li (11, 5));
            let store i off =
              Builder.ins b
                (Isa.Store { width = Isa.W8; src = i; base = 20; off; pred = None })
            in
            Builder.ins b (Isa.Bin (Isa.Mul, 12, 10, Isa.Reg 11));
            store 12 0;
            Builder.ins b (Isa.Bin (Isa.Div, 12, 10, Isa.Imm 2));
            store 12 8;
            Builder.ins b (Isa.Bin (Isa.Rem, 12, 10, Isa.Reg 11));
            store 12 16;
            Builder.ins b (Isa.Bin (Isa.Sub, 12, 11, Isa.Reg 10));
            store 12 24;
            Builder.ins b (Isa.Bin (Isa.Sll, 12, 10, Isa.Imm 3));
            store 12 32;
            Builder.ins b (Isa.Bin (Isa.Sra, 12, 12, Isa.Imm 2));
            store 12 40;
            Builder.ins b (Isa.Bin (Isa.Slt, 12, 11, Isa.Reg 10));
            store 12 48;
            Builder.ins b (Isa.Bin (Isa.Xor, 12, 10, Isa.Imm 0xff));
            store 12 56;
            exit0 b);
      ]
  in
  let r = run_prog p in
  let m, syms = r in
  let at off = Memory.loads (Machine.mem m) ~width:Isa.W8 (sym syms "result" + off) in
  Alcotest.(check int) "mul" 35 (at 0);
  Alcotest.(check int) "div" 3 (at 8);
  Alcotest.(check int) "rem" 2 (at 16);
  Alcotest.(check int) "sub negative" (-2) (at 24);
  Alcotest.(check int) "sll" 56 (at 32);
  Alcotest.(check int) "sra" 14 (at 40);
  Alcotest.(check int) "slt" 1 (at 48);
  Alcotest.(check int) "xor" (7 lxor 0xff) (at 56);
  Alcotest.(check (option int)) "exit code" (Some 0) (Machine.exit_code m)

let test_memory_widths () =
  let p =
    build
      ~data:[ { Link.dname = "buf"; init = Zero 64 } ]
      [
        routine "_start" (fun b ->
            Builder.la b 20 "buf";
            Builder.ins b (Isa.Li (10, 0xAB));
            Builder.ins b
              (Isa.Store { width = Isa.W1; src = 10; base = 20; off = 0; pred = None });
            Builder.ins b
              (Isa.Loads { width = Isa.W1; dst = 11; base = 20; off = 0 });
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 11; base = 20; off = 8; pred = None });
            Builder.ins b
              (Isa.Load { width = Isa.W1; dst = 12; base = 20; off = 0; pred = None });
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 12; base = 20; off = 16; pred = None });
            Builder.ins b (Isa.Li (13, 0x1234_5678));
            Builder.ins b
              (Isa.Store { width = Isa.W2; src = 13; base = 20; off = 24; pred = None });
            Builder.ins b
              (Isa.Load { width = Isa.W2; dst = 14; base = 20; off = 24; pred = None });
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 14; base = 20; off = 32; pred = None });
            exit0 b);
      ]
  in
  let m, syms = run_prog p in
  let at off = Memory.loads (Machine.mem m) ~width:Isa.W8 (sym syms "buf" + off) in
  Alcotest.(check int) "signed byte" (-85) (at 8);
  Alcotest.(check int) "unsigned byte" 0xAB (at 16);
  Alcotest.(check int) "u16 truncation" 0x5678 (at 32)

let test_float_ops () =
  let p =
    build
      ~data:[ { Link.dname = "fbuf"; init = Zero 64 } ]
      [
        routine "_start" (fun b ->
            Builder.la b 20 "fbuf";
            Builder.ins b (Isa.Fli (10, 1.5));
            Builder.ins b (Isa.Fli (11, 2.25));
            Builder.ins b (Isa.Fbin (Isa.Fadd, 12, 10, 11));
            Builder.ins b (Isa.Fstore { src = 12; base = 20; off = 0; pred = None });
            Builder.ins b (Isa.Fbin (Isa.Fmul, 12, 10, 11));
            Builder.ins b (Isa.Fstore { src = 12; base = 20; off = 8; pred = None });
            Builder.ins b (Isa.Fli (13, 2.0));
            Builder.ins b (Isa.Fun (Isa.Fsqrt, 14, 13));
            Builder.ins b (Isa.Fstore { src = 14; base = 20; off = 16; pred = None });
            Builder.ins b (Isa.Li (15, 7));
            Builder.ins b (Isa.I2f (16, 15));
            Builder.ins b (Isa.Fstore { src = 16; base = 20; off = 24; pred = None });
            Builder.ins b (Isa.Fli (17, -3.75));
            Builder.ins b (Isa.F2i (18, 17));
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 18; base = 20; off = 32; pred = None });
            exit0 b);
      ]
  in
  let m, syms = run_prog p in
  let atf off = Memory.load_f64 (Machine.mem m) (sym syms "fbuf" + off) in
  let feq = Alcotest.float 1e-12 in
  Alcotest.check feq "fadd" 3.75 (atf 0);
  Alcotest.check feq "fmul" 3.375 (atf 8);
  Alcotest.check feq "fsqrt" (sqrt 2.) (atf 16);
  Alcotest.check feq "i2f" 7. (atf 24);
  Alcotest.(check int) "f2i trunc toward zero" (-3)
    (Memory.loads (Machine.mem m) ~width:Isa.W8 (sym syms "fbuf" + 32))

let test_loop_sum () =
  let p =
    build
      ~data:[ { Link.dname = "result"; init = Zero 8 } ]
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Li (10, 0));
            Builder.ins b (Isa.Li (11, 1));
            Builder.ins b (Isa.Li (12, 10));
            let loop = Builder.fresh_label b in
            let done_ = Builder.fresh_label b in
            Builder.place b loop;
            Builder.ins b (Isa.Bin (Isa.Sle, 13, 11, Isa.Reg 12));
            Builder.bz b 13 done_;
            Builder.ins b (Isa.Bin (Isa.Add, 10, 10, Isa.Reg 11));
            Builder.ins b (Isa.Bin (Isa.Add, 11, 11, Isa.Imm 1));
            Builder.jmp b loop;
            Builder.place b done_;
            Builder.la b 20 "result";
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 10; base = 20; off = 0; pred = None });
            exit0 b);
      ]
  in
  let r = run_prog p in
  Alcotest.(check int) "sum 1..10" 55 (word r "result")

let test_call_ret_stack () =
  let p =
    build
      ~data:[ { Link.dname = "result"; init = Zero 24 } ]
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Mov (21, Isa.reg_sp));
            (* push one argument, cdecl style *)
            Builder.ins b (Isa.Bin (Isa.Sub, Isa.reg_sp, Isa.reg_sp, Isa.Imm 8));
            Builder.ins b (Isa.Li (10, 20));
            Builder.ins b
              (Isa.Store
                 { width = Isa.W8; src = 10; base = Isa.reg_sp; off = 0; pred = None });
            Builder.call b "double_it";
            Builder.ins b (Isa.Bin (Isa.Add, Isa.reg_sp, Isa.reg_sp, Isa.Imm 8));
            Builder.la b 20 "result";
            Builder.ins b
              (Isa.Store
                 { width = Isa.W8; src = Isa.reg_rv; base = 20; off = 0; pred = None });
            (* sp must be restored exactly *)
            Builder.ins b (Isa.Bin (Isa.Seq, 22, 21, Isa.Reg Isa.reg_sp));
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 22; base = 20; off = 8; pred = None });
            exit0 b);
        routine "double_it" (fun b ->
            (* arg at sp+8: return address was pushed at sp *)
            Builder.ins b
              (Isa.Load { width = Isa.W8; dst = 10; base = Isa.reg_sp; off = 8; pred = None });
            Builder.ins b (Isa.Bin (Isa.Add, Isa.reg_rv, 10, Isa.Reg 10));
            Builder.ins b Isa.Ret);
      ]
  in
  let r = run_prog p in
  Alcotest.(check int) "returned value" 40 (word r "result");
  let m, syms = r in
  Alcotest.(check int) "sp restored" 1
    (Memory.loads (Machine.mem m) ~width:Isa.W8 (sym syms "result" + 8))

let test_nested_calls () =
  (* f(n) = n<=1 ? 1 : n*f(n-1), recursive through the memory stack *)
  let p =
    build
      ~data:[ { Link.dname = "result"; init = Zero 8 } ]
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Bin (Isa.Sub, Isa.reg_sp, Isa.reg_sp, Isa.Imm 8));
            Builder.ins b (Isa.Li (10, 6));
            Builder.ins b
              (Isa.Store
                 { width = Isa.W8; src = 10; base = Isa.reg_sp; off = 0; pred = None });
            Builder.call b "fact";
            Builder.ins b (Isa.Bin (Isa.Add, Isa.reg_sp, Isa.reg_sp, Isa.Imm 8));
            Builder.la b 20 "result";
            Builder.ins b
              (Isa.Store
                 { width = Isa.W8; src = Isa.reg_rv; base = 20; off = 0; pred = None });
            exit0 b);
        routine "fact" (fun b ->
            let recurse = Builder.fresh_label b in
            Builder.ins b
              (Isa.Load { width = Isa.W8; dst = 10; base = Isa.reg_sp; off = 8; pred = None });
            Builder.ins b (Isa.Bin (Isa.Sgt, 11, 10, Isa.Imm 1));
            Builder.bnz b 11 recurse;
            Builder.ins b (Isa.Li (Isa.reg_rv, 1));
            Builder.ins b Isa.Ret;
            Builder.place b recurse;
            (* save n on our frame, call fact(n-1) *)
            Builder.ins b (Isa.Bin (Isa.Sub, Isa.reg_sp, Isa.reg_sp, Isa.Imm 16));
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 10; base = Isa.reg_sp; off = 8; pred = None });
            Builder.ins b (Isa.Bin (Isa.Sub, 12, 10, Isa.Imm 1));
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 12; base = Isa.reg_sp; off = 0; pred = None });
            Builder.call b "fact";
            Builder.ins b
              (Isa.Load { width = Isa.W8; dst = 10; base = Isa.reg_sp; off = 8; pred = None });
            Builder.ins b (Isa.Bin (Isa.Add, Isa.reg_sp, Isa.reg_sp, Isa.Imm 16));
            Builder.ins b (Isa.Bin (Isa.Mul, Isa.reg_rv, Isa.reg_rv, Isa.Reg 10));
            Builder.ins b Isa.Ret);
      ]
  in
  let r = run_prog p in
  Alcotest.(check int) "6!" 720 (word r "result")

let test_predicated_store () =
  let p =
    build
      ~data:[ { Link.dname = "buf"; init = Zero 16 } ]
      [
        routine "_start" (fun b ->
            Builder.la b 20 "buf";
            Builder.ins b (Isa.Li (10, 99));
            Builder.ins b (Isa.Li (11, 0));
            Builder.ins b (Isa.Li (12, 1));
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 10; base = 20; off = 0; pred = Some 11 });
            Builder.ins b
              (Isa.Store { width = Isa.W8; src = 10; base = 20; off = 8; pred = Some 12 });
            exit0 b);
      ]
  in
  let m, syms = run_prog p in
  let at off = Memory.loads (Machine.mem m) ~width:Isa.W8 (sym syms "buf" + off) in
  Alcotest.(check int) "false predicate suppresses store" 0 (at 0);
  Alcotest.(check int) "true predicate stores" 99 (at 8)

let test_div_by_zero_traps () =
  let p, _ =
    build
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Li (10, 1));
            Builder.ins b (Isa.Li (11, 0));
            Builder.ins b (Isa.Bin (Isa.Div, 12, 10, Isa.Reg 11));
            exit0 b);
      ]
  in
  let m = Machine.create p in
  Alcotest.(check bool) "traps" true
    (try
       Executor.run m;
       false
     with Machine.Trap { reason; _ } -> reason = "integer division by zero")

let test_reg_zero () =
  let p =
    build
      ~data:[ { Link.dname = "buf"; init = Zero 8 } ]
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Li (Isa.reg_zero, 77));
            Builder.la b 20 "buf";
            Builder.ins b
              (Isa.Store
                 { width = Isa.W8; src = Isa.reg_zero; base = 20; off = 0; pred = None });
            exit0 b);
      ]
  in
  let r = run_prog p in
  Alcotest.(check int) "x0 ignores writes" 0 (word r "buf")

let test_syscalls_console_and_clock () =
  let p, _ =
    build
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Li (Isa.reg_a0, 42));
            Builder.ins b (Isa.Syscall Sysno.putint);
            Builder.ins b (Isa.Li (Isa.reg_a0, Char.code '\n'));
            Builder.ins b (Isa.Syscall Sysno.putchar);
            Builder.ins b (Isa.Syscall Sysno.clock);
            Builder.ins b (Isa.Bin (Isa.Sgt, 10, Isa.reg_rv, Isa.Imm 0));
            Builder.ins b (Isa.Mov (Isa.reg_a0, 10));
            Builder.ins b (Isa.Syscall Sysno.exit));
      ]
  in
  let m = Machine.create p in
  Executor.run m;
  Alcotest.(check string) "console" "42\n" (Machine.stdout_contents m);
  Alcotest.(check (option int)) "clock > 0" (Some 1) (Machine.exit_code m)

let test_file_io () =
  let vfs = Vfs.create () in
  Vfs.install vfs "in.dat" "hello";
  let p, _ =
    build
      ~data:
        [
          { Link.dname = "path_in"; init = Bytes "in.dat\000" };
          { Link.dname = "path_out"; init = Bytes "out.dat\000" };
          { Link.dname = "buf"; init = Zero 16 };
        ]
      [
        routine "_start" (fun b ->
            (* fd = open("in.dat", read) *)
            Builder.la b Isa.reg_a0 "path_in";
            Builder.ins b (Isa.Li (Isa.reg_a0 + 1, 0));
            Builder.ins b (Isa.Syscall Sysno.open_);
            Builder.ins b (Isa.Mov (20, Isa.reg_rv));
            (* n = read(fd, buf, 16) *)
            Builder.ins b (Isa.Mov (Isa.reg_a0, 20));
            Builder.la b (Isa.reg_a0 + 1) "buf";
            Builder.ins b (Isa.Li (Isa.reg_a0 + 2, 16));
            Builder.ins b (Isa.Syscall Sysno.read);
            Builder.ins b (Isa.Mov (21, Isa.reg_rv));
            Builder.ins b (Isa.Mov (Isa.reg_a0, 20));
            Builder.ins b (Isa.Syscall Sysno.close);
            (* out = open("out.dat", write); write(out, buf, n) *)
            Builder.la b Isa.reg_a0 "path_out";
            Builder.ins b (Isa.Li (Isa.reg_a0 + 1, 1));
            Builder.ins b (Isa.Syscall Sysno.open_);
            Builder.ins b (Isa.Mov (22, Isa.reg_rv));
            Builder.ins b (Isa.Mov (Isa.reg_a0, 22));
            Builder.la b (Isa.reg_a0 + 1) "buf";
            Builder.ins b (Isa.Mov (Isa.reg_a0 + 2, 21));
            Builder.ins b (Isa.Syscall Sysno.write);
            Builder.ins b (Isa.Mov (Isa.reg_a0, 22));
            Builder.ins b (Isa.Syscall Sysno.close);
            exit0 b);
      ]
  in
  let m = Machine.create ~vfs p in
  Executor.run m;
  Alcotest.(check (option string)) "copied through VM" (Some "hello")
    (Vfs.contents vfs "out.dat")

let test_brk () =
  let p, _ =
    build
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Li (Isa.reg_a0, 0));
            Builder.ins b (Isa.Syscall Sysno.brk);
            Builder.ins b (Isa.Mov (20, Isa.reg_rv));
            Builder.ins b (Isa.Bin (Isa.Add, Isa.reg_a0, 20, Isa.Imm 4096));
            Builder.ins b (Isa.Syscall Sysno.brk);
            Builder.ins b (Isa.Bin (Isa.Sub, 21, Isa.reg_rv, Isa.Reg 20));
            Builder.ins b (Isa.Mov (Isa.reg_a0, 21));
            Builder.ins b (Isa.Syscall Sysno.exit));
      ]
  in
  let m = Machine.create p in
  Executor.run m;
  Alcotest.(check (option int)) "brk grew by 4096" (Some 4096)
    (Machine.exit_code m)

let test_executor_fuel () =
  let p, _ =
    build
      [
        routine "_start" (fun b ->
            let loop = Builder.fresh_label b in
            Builder.place b loop;
            Builder.jmp b loop);
      ]
  in
  let m = Machine.create p in
  Alcotest.(check bool) "out of fuel" true
    (try
       Executor.run ~fuel:1000 m;
       false
     with Executor.Out_of_fuel n -> n >= 1000)

(* ---------- memory unit ---------- *)

let test_memory_cross_page () =
  let mem = Memory.create () in
  let addr = 4096 - 3 in
  Memory.store mem ~width:Isa.W8 addr 0x1122334455667788;
  Alcotest.(check int) "cross page roundtrip" 0x1122334455667788
    (Memory.load mem ~width:Isa.W8 addr);
  Memory.store_f64 mem (2 * 4096 - 4) 3.14159;
  Alcotest.(check (float 0.)) "cross page float" 3.14159
    (Memory.load_f64 mem (2 * 4096 - 4))

let test_memory_bulk () =
  let mem = Memory.create () in
  Memory.write_bytes mem 5000 (Bytes.of_string "abcdef");
  Alcotest.(check string) "read back" "abcdef"
    (Bytes.to_string (Memory.read_bytes mem 5000 6));
  Alcotest.(check string) "zero beyond" "\000"
    (Bytes.to_string (Memory.read_bytes mem 5006 1));
  Memory.write_bytes mem 6000 (Bytes.of_string "path\000junk");
  Alcotest.(check string) "cstring" "path" (Memory.read_cstring mem 6000)

let qcheck_memory_roundtrip =
  QCheck.Test.make ~name:"memory store/load roundtrip (all widths)" ~count:300
    QCheck.(
      triple (int_bound 100_000)
        (oneofl [ Isa.W1; Isa.W2; Isa.W4; Isa.W8 ])
        (int_bound max_int))
    (fun (addr, width, v) ->
      let mem = Memory.create () in
      Memory.store mem ~width addr v;
      let bits = Isa.width_bytes width * 8 in
      let expected = if bits >= Sys.int_size then v else v land ((1 lsl bits) - 1) in
      Memory.load mem ~width addr = expected)

let qcheck_memory_f64 =
  QCheck.Test.make ~name:"memory f64 roundtrip" ~count:200
    QCheck.(pair (int_bound 1_000_000) float)
    (fun (addr, v) ->
      let mem = Memory.create () in
      Memory.store_f64 mem addr v;
      let got = Memory.load_f64 mem addr in
      Int64.bits_of_float got = Int64.bits_of_float v)

let test_memory_negative_f64 () =
  (* load_f64/store_f64 must reject negative addresses exactly like the
     integer paths do: with the guest memory fault *)
  let mem = Memory.create () in
  let expect_fault name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Memory.Fault _ -> true)
  in
  expect_fault "load_f64 negative" (fun () -> Memory.load_f64 mem (-8));
  expect_fault "store_f64 negative" (fun () ->
      Memory.store_f64 mem (-8) 1.0;
      0.)

let test_memory_page_cache_stats () =
  let mem = Memory.create () in
  let s0 = Memory.cache_stats mem in
  Alcotest.(check int) "fresh: no hits" 0 s0.Memory.hits;
  Alcotest.(check int) "fresh: no misses" 0 s0.Memory.misses;
  Memory.store mem ~width:Isa.W8 0 42;
  let s1 = Memory.cache_stats mem in
  Alcotest.(check bool) "first touch misses" true (s1.Memory.misses > 0);
  for _ = 1 to 10 do
    ignore (Memory.load mem ~width:Isa.W8 0)
  done;
  let s2 = Memory.cache_stats mem in
  Alcotest.(check bool) "repeated touches hit" true
    (s2.Memory.hits >= s1.Memory.hits + 10);
  Alcotest.(check int) "no new misses on the hot page" s1.Memory.misses
    s2.Memory.misses

let qcheck_memory_w8_fast_path =
  (* the aligned W8 fast path must agree with the generic width-dispatched
     path at every alignment, including page-straddling addresses *)
  QCheck.Test.make ~name:"load_w8/store_w8 == load/store ~width:W8" ~count:300
    QCheck.(pair (int_bound 20_000) (int_bound max_int))
    (fun (addr, v) ->
      let m1 = Memory.create () and m2 = Memory.create () in
      Memory.store_w8 m1 addr v;
      Memory.store m2 ~width:Isa.W8 addr v;
      Memory.load_w8 m1 addr = Memory.load m1 ~width:Isa.W8 addr
      && Memory.load_w8 m1 addr = Memory.load_w8 m2 addr
      && Memory.load_w8 m2 addr = Memory.load m2 ~width:Isa.W8 addr)

(* ---------- symtab / layout ---------- *)

let mk_routine id name entry size =
  { Symtab.id; name; entry; size; image = "img"; is_main_image = true }

let test_symtab_lookup () =
  let t =
    Symtab.build
      [ mk_routine 0 "b" 200 40; mk_routine 0 "a" 100 52; mk_routine 0 "c" 400 8 ]
  in
  Alcotest.(check int) "count" 3 (Symtab.count t);
  let name_at addr =
    Symtab.find t addr |> Option.map (fun r -> r.Symtab.name)
  in
  Alcotest.(check (option string)) "entry hit" (Some "a") (name_at 100);
  Alcotest.(check (option string)) "interior hit" (Some "a") (name_at 148);
  Alcotest.(check (option string)) "boundary miss" None (name_at 152);
  Alcotest.(check (option string)) "hole" None (name_at 300);
  Alcotest.(check (option string)) "last" (Some "c") (name_at 404);
  Alcotest.(check (option string)) "below" None (name_at 50);
  (* ids are densely reassigned in address order *)
  Alcotest.(check string) "by_id order" "a" (Symtab.by_id t 0).Symtab.name;
  Alcotest.(check (option string)) "by_name" (Some "b")
    (Symtab.by_name t "b" |> Option.map (fun r -> r.Symtab.name))

let test_symtab_overlap () =
  Alcotest.(check bool) "overlap rejected" true
    (try
       ignore (Symtab.build [ mk_routine 0 "a" 100 52; mk_routine 0 "b" 120 8 ]);
       false
     with Invalid_argument _ -> true)

let test_layout_stack_classification () =
  let sp = Layout.stack_top - 256 in
  (* a one-byte access at [a] is stack area iff its stack run is that byte *)
  let is_stack a = Layout.stack_hi ~sp a 1 - Layout.stack_lo ~sp a 1 = 1 in
  Alcotest.(check bool) "local above sp" true (is_stack (sp + 16));
  Alcotest.(check bool) "red zone below sp" true (is_stack (sp - 8));
  Alcotest.(check bool) "global data" false (is_stack Layout.data_base);
  Alcotest.(check bool) "heap" false (is_stack (Layout.data_base + 100_000));
  Alcotest.(check bool) "beyond stack top" false (is_stack Layout.stack_top);
  (* runs of accesses crossing either end of the stack area *)
  let base = sp - Layout.stack_red_zone in
  let run ea size =
    (Layout.stack_lo ~sp ea size, Layout.stack_hi ~sp ea size)
  in
  Alcotest.(check (pair int int)) "straddles sp - red_zone" (base, base + 4)
    (run (base - 4) 8);
  Alcotest.(check (pair int int)) "straddles stack_top"
    (Layout.stack_top - 4, Layout.stack_top)
    (run (Layout.stack_top - 4) 8);
  Alcotest.(check (pair int int)) "covers the whole stack area"
    (base, Layout.stack_top)
    (run (base - 8) (Layout.stack_top - base + 16));
  Alcotest.(check (pair int int)) "all global: empty run at the end"
    (Layout.data_base + 8, Layout.data_base + 8)
    (run Layout.data_base 8);
  Alcotest.(check (pair int int)) "above stack_top: empty run"
    (Layout.stack_top + 8, Layout.stack_top + 8)
    (run (Layout.stack_top + 8) 8)

(* ---------- link errors ---------- *)

let test_link_undefined () =
  Alcotest.(check bool) "undefined symbol" true
    (try
       ignore
         (build
            [
              routine "_start" (fun b ->
                  Builder.call b "nope";
                  exit0 b);
            ]);
       false
     with Link.Link_error msg -> msg = "undefined symbol: nope")

let test_link_duplicate () =
  Alcotest.(check bool) "duplicate symbol" true
    (try
       ignore
         (build
            [
              routine "_start" exit0;
              routine "f" exit0;
              routine "f" exit0;
            ]);
       false
     with Link.Link_error msg -> msg = "duplicate symbol: f")

let test_link_library_image () =
  let lib =
    {
      Link.uname = "librt";
      main_image = false;
      routines = [ routine "helper" (fun b -> Builder.ins b Isa.Ret) ];
      data = [];
    }
  in
  let p, _ =
    build ~extra_units:[ lib ]
      [
        routine "_start" (fun b ->
            Builder.call b "helper";
            exit0 b);
      ]
  in
  let r = Symtab.by_name p.Program.symtab "helper" |> Option.get in
  Alcotest.(check bool) "library flag" false r.Symtab.is_main_image;
  Alcotest.(check string) "image name" "librt" r.Symtab.image;
  let m = Machine.create p in
  Executor.run m;
  Alcotest.(check (option int)) "runs through library call" (Some 0)
    (Machine.exit_code m)

let test_disassemble () =
  let p, _ =
    build
      [
        routine "_start" (fun b ->
            Builder.ins b (Isa.Li (10, 5));
            exit0 b);
      ]
  in
  let s = Program.disassemble p in
  Alcotest.(check bool) "has routine header" true
    (Astring_contains.contains s "<_start>");
  Alcotest.(check bool) "has li" true (Astring_contains.contains s "li x10, 5")

let suites =
  [
    ( "vm.machine",
      [
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "memory widths" `Quick test_memory_widths;
        Alcotest.test_case "float ops" `Quick test_float_ops;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        Alcotest.test_case "call/ret stack" `Quick test_call_ret_stack;
        Alcotest.test_case "recursion" `Quick test_nested_calls;
        Alcotest.test_case "predicated store" `Quick test_predicated_store;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_traps;
        Alcotest.test_case "x0 hardwired" `Quick test_reg_zero;
        Alcotest.test_case "console+clock" `Quick test_syscalls_console_and_clock;
        Alcotest.test_case "file io" `Quick test_file_io;
        Alcotest.test_case "brk" `Quick test_brk;
        Alcotest.test_case "fuel" `Quick test_executor_fuel;
      ] );
    ( "vm.memory",
      [
        Alcotest.test_case "cross page" `Quick test_memory_cross_page;
        Alcotest.test_case "bulk + cstring" `Quick test_memory_bulk;
        QCheck_alcotest.to_alcotest qcheck_memory_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_memory_f64;
        Alcotest.test_case "f64 negative address" `Quick test_memory_negative_f64;
        Alcotest.test_case "page cache stats" `Quick test_memory_page_cache_stats;
        QCheck_alcotest.to_alcotest qcheck_memory_w8_fast_path;
      ] );
    ( "vm.symtab",
      [
        Alcotest.test_case "lookup" `Quick test_symtab_lookup;
        Alcotest.test_case "overlap" `Quick test_symtab_overlap;
        Alcotest.test_case "stack classification" `Quick
          test_layout_stack_classification;
      ] );
    ( "asm.link",
      [
        Alcotest.test_case "undefined symbol" `Quick test_link_undefined;
        Alcotest.test_case "duplicate symbol" `Quick test_link_duplicate;
        Alcotest.test_case "library image" `Quick test_link_library_image;
        Alcotest.test_case "disassemble" `Quick test_disassemble;
      ] );
  ]

open Tq_isa

let load w = Isa.Load { width = w; dst = 1; base = 2; off = 4; pred = None }
let store w = Isa.Store { width = w; src = 1; base = 2; off = -4; pred = Some 3 }

let test_width_bytes () =
  Alcotest.(check (list int)) "widths" [ 1; 2; 4; 8 ]
    (List.map Isa.width_bytes [ Isa.W1; W2; W4; W8 ])

let test_memory_classification () =
  (* reads *)
  List.iter
    (fun (ins, bytes) ->
      Alcotest.(check bool) "reads" true (Isa.reads_memory ins);
      Alcotest.(check int) "read bytes" bytes (Isa.mem_read_bytes ins))
    [
      (load Isa.W1, 1); (load Isa.W2, 2); (load Isa.W4, 4); (load Isa.W8, 8);
      (Isa.Loads { width = Isa.W2; dst = 1; base = 2; off = 0 }, 2);
      (Isa.Fload { dst = 1; base = 2; off = 0; pred = None }, 8);
      (Isa.Ret, 8);
      (Isa.Prefetch { base = 1; off = 0 }, 64);
    ];
  (* writes *)
  List.iter
    (fun (ins, bytes) ->
      Alcotest.(check bool) "writes" true (Isa.writes_memory ins);
      Alcotest.(check int) "write bytes" bytes (Isa.mem_write_bytes ins))
    [
      (store Isa.W1, 1); (store Isa.W8, 8);
      (Isa.Fstore { src = 1; base = 2; off = 0; pred = None }, 8);
      (Isa.Call 0x400000, 8);
      (Isa.Callr 5, 8);
    ];
  (* block moves are dynamic: classified as both, size 0 statically *)
  let movs = Isa.Movs { dst = 1; src = 2; len = 3 } in
  Alcotest.(check bool) "movs reads" true (Isa.reads_memory movs);
  Alcotest.(check bool) "movs writes" true (Isa.writes_memory movs);
  Alcotest.(check bool) "movs is block move" true (Isa.is_block_move movs);
  Alcotest.(check int) "movs static read bytes" 0 (Isa.mem_read_bytes movs);
  (* non-memory instructions *)
  List.iter
    (fun ins ->
      Alcotest.(check bool) "no read" false (Isa.reads_memory ins);
      Alcotest.(check bool) "no write" false (Isa.writes_memory ins))
    [ Isa.Nop; Isa.Li (1, 5); Isa.Bin (Isa.Add, 1, 2, Isa.Imm 3);
      Isa.Fbin (Isa.Fadd, 1, 2, 3); Isa.Jmp 0; Isa.Bz (1, 0); Isa.Halt;
      Isa.Syscall 0 ]

let test_control_classification () =
  List.iter
    (fun ins -> Alcotest.(check bool) "control" true (Isa.is_control ins))
    [ Isa.Jmp 0; Isa.Jr 1; Isa.Bz (1, 0); Isa.Bnz (1, 0); Isa.Call 0;
      Isa.Callr 1; Isa.Ret; Isa.Halt; Isa.Syscall 1 ];
  List.iter
    (fun ins -> Alcotest.(check bool) "not control" false (Isa.is_control ins))
    [ Isa.Nop; load Isa.W8; store Isa.W8; Isa.Movs { dst = 1; src = 2; len = 3 } ];
  Alcotest.(check bool) "ret" true (Isa.is_ret Isa.Ret);
  Alcotest.(check bool) "prefetch" true
    (Isa.is_prefetch (Isa.Prefetch { base = 1; off = 0 }))

let test_predicates () =
  Alcotest.(check (option int)) "predicated store" (Some 3)
    (Isa.predicate_of (store Isa.W4));
  Alcotest.(check (option int)) "unpredicated load" None
    (Isa.predicate_of (load Isa.W4));
  Alcotest.(check (option int)) "alu has no predicate" None
    (Isa.predicate_of (Isa.Bin (Isa.Add, 1, 2, Isa.Imm 3)))

let test_disassembly_goldens () =
  List.iter
    (fun (ins, text) -> Alcotest.(check string) text text (Isa.to_string ins))
    [
      (Isa.Nop, "nop");
      (Isa.Li (10, -5), "li x10, -5");
      (Isa.Bin (Isa.Add, 1, 2, Isa.Reg 3), "add x1, x2, x3");
      (Isa.Bin (Isa.Sra, 1, 2, Isa.Imm 4), "sra x1, x2, 4");
      (load Isa.W8, "ld x1, 4(x2)");
      (Isa.Loads { width = Isa.W2; dst = 1; base = 2; off = 0 }, "lhs x1, 0(x2)");
      (store Isa.W4, "sw x1, -4(x2) ?x3");
      (Isa.Fload { dst = 7; base = 2; off = 8; pred = None }, "fld f7, 8(x2)");
      (Isa.Fbin (Isa.Fmul, 1, 2, 3), "fmul f1, f2, f3");
      (Isa.Fcmp (Isa.Fle, 4, 5, 6), "fle x4, f5, f6");
      (Isa.Movs { dst = 1; src = 2; len = 3 }, "movs (x1), (x2), x3");
      (Isa.Prefetch { base = 9; off = 0 }, "prefetch 0(x9)");
      (Isa.Jmp 0x400010, "jmp 0x400010");
      (Isa.Call 0x400000, "call 0x400000");
      (Isa.Syscall 8, "syscall 8");
    ]

let suites =
  [
    ( "isa",
      [
        Alcotest.test_case "width bytes" `Quick test_width_bytes;
        Alcotest.test_case "memory classification" `Quick
          test_memory_classification;
        Alcotest.test_case "control classification" `Quick
          test_control_classification;
        Alcotest.test_case "predicates" `Quick test_predicates;
        Alcotest.test_case "disassembly goldens" `Quick test_disassembly_goldens;
      ] );
  ]

open Tq_vm
open Tq_minic

(* ---------- differential: -O1 must preserve observable behaviour ------- *)

let run ?(optimize = false) src =
  let prog = Tq_rt.Rt.link [ Driver.compile_unit ~optimize ~image:"app" src ] in
  let m = Machine.create prog in
  Executor.run ~fuel:50_000_000 m;
  (Machine.exit_code m, Machine.stdout_contents m, Machine.instr_count m)

let check_same_behaviour name src =
  Alcotest.test_case name `Quick (fun () ->
      let e0, out0, n0 = run ~optimize:false src in
      let e1, out1, n1 = run ~optimize:true src in
      Alcotest.(check (option int)) (name ^ ": exit") e0 e1;
      Alcotest.(check string) (name ^ ": console") out0 out1;
      Alcotest.(check bool) (name ^ ": not slower") true (n1 <= n0))

let differential_cases =
  [
    check_same_behaviour "constants" "int main() { return 2 + 3 * 4 - 1; }";
    check_same_behaviour "float constants"
      "int main() { return (int)(sqrt(16.0) + 1.5 * 2.0); }";
    check_same_behaviour "identities"
      "int main() { int x; x = 7; return x * 1 + 0 + (x << 0) - x / 1; }";
    check_same_behaviour "pow2 mul"
      "int main() { int s; s = 0; for (int i = 0; i < 20; i++) s += i * 8; \
       return s & 255; }";
    check_same_behaviour "const if" "int main() { if (1) return 3; return 4; }";
    check_same_behaviour "dead if" "int main() { if (0) return 3; return 4; }";
    check_same_behaviour "const while"
      "int main() { int x; x = 5; while (0) x = 9; return x; }";
    check_same_behaviour "do-while once"
      "int main() { int x; x = 0; do { x += 2; } while (0); return x; }";
    check_same_behaviour "do-while with break"
      "int main() { int x; x = 0; do { x++; if (x > 2) break; x += 10; } \
       while (0); return x; }";
    check_same_behaviour "short circuit with call"
      "int g; int side() { g += 1; return 1; } \
       int main() { int a; a = 1 && side(); int b; b = 0 && side(); \
       int c; c = 1 || side(); return g * 10 + a + b + c; }";
    check_same_behaviour "call kept in dead-value position"
      "int g; int f() { g = 9; return 2; } \
       int main() { f(); return g; }";
    check_same_behaviour "division by zero not folded"
      "int main() { int z; z = 1; if (z) return 7; return 1 / 0; }";
    check_same_behaviour "arrays and pointers"
      "int a[16]; int main() { for (int i = 0; i < 16; i++) a[i] = i * 4; \
       int* p; p = a + 2; return *p + a[3 * 1]; }";
    check_same_behaviour "wfs tiny kernel mix"
      "float v[64]; \
       float work() { float s; s = 0.0; for (int i = 0; i < 64; i++) { \
       v[i] = sin((float) i * 0.1) * 2.0; s += v[i] * 1.0 + 0.0; } return s; } \
       int main() { float s; s = work(); print_float(s); return (int) fabs(s); }";
  ]

(* ---------- specific transformations at the Mir level ---------- *)

open Mir

(* fold one expression through the whole-program pass: it is the value of
   the only statement of a one-function program *)
let fold e =
  let p =
    { funcs = [ { name = "f"; frame_size = 16; body = [ Return (Some (Ci, e)) ] } ];
      globals = [] }
  in
  match (Opt.program p).funcs with
  | [ { body = [ Return (Some (Ci, e')) ]; _ } ] -> e'
  | _ -> Alcotest.fail "the return statement did not survive"

let test_fold_int () =
  let e = Iop (Tq_isa.Isa.Add, Const_i 2, Iop (Tq_isa.Isa.Mul, Const_i 3, Const_i 4)) in
  Alcotest.(check bool) "folds to 14" true (fold e = Const_i 14)

let test_fold_float () =
  let e = Fop (Tq_isa.Isa.Fmul, Const_f 2., Const_f 3.5) in
  Alcotest.(check bool) "folds to 7." true (fold e = Const_f 7.);
  let c = Fcmp (Tq_isa.Isa.Flt, Const_f 1., Const_f 2.) in
  Alcotest.(check bool) "fcmp folds" true (fold c = Const_i 1)

let test_conversions () =
  Alcotest.(check bool) "i2f" true (fold (I2f (Const_i 3)) = Const_f 3.);
  Alcotest.(check bool) "f2i" true (fold (F2i (Const_f 3.9)) = Const_i 3)

let test_identities () =
  let x = Load_i (Tq_isa.Isa.W8, false, Frame_addr (-8)) in
  Alcotest.(check bool) "x+0" true (fold (Iop (Tq_isa.Isa.Add, x, Const_i 0)) = x);
  Alcotest.(check bool) "0+x" true (fold (Iop (Tq_isa.Isa.Add, Const_i 0, x)) = x);
  Alcotest.(check bool) "x*1" true (fold (Iop (Tq_isa.Isa.Mul, x, Const_i 1)) = x);
  Alcotest.(check bool) "x*0 pure" true
    (fold (Iop (Tq_isa.Isa.Mul, x, Const_i 0)) = Const_i 0);
  (* impure operand must survive *)
  let call = Call ("f", [], Some Ci) in
  (match fold (Iop (Tq_isa.Isa.Mul, call, Const_i 0)) with
  | Iop (Tq_isa.Isa.Mul, Call _, Const_i 0) -> ()
  | _ -> Alcotest.fail "call dropped by x*0");
  Alcotest.(check bool) "pow2 strength reduction" true
    (fold (Iop (Tq_isa.Isa.Mul, x, Const_i 8))
    = Iop (Tq_isa.Isa.Sll, x, Const_i 3))

let test_div_zero_not_folded () =
  match fold (Iop (Tq_isa.Isa.Div, Const_i 1, Const_i 0)) with
  | Iop (Tq_isa.Isa.Div, Const_i 1, Const_i 0) -> ()
  | _ -> Alcotest.fail "1/0 must not be folded"

let test_short_circuit () =
  let b = Fcmp (Tq_isa.Isa.Flt, Load_f (Frame_addr (-8)), Const_f 0.) in
  Alcotest.(check bool) "0 && b" true (fold (Andalso (Const_i 0, b)) = Const_i 0);
  Alcotest.(check bool) "1 && b" true (fold (Andalso (Const_i 1, b)) = b);
  Alcotest.(check bool) "0 || b" true (fold (Orelse (Const_i 0, b)) = b);
  Alcotest.(check bool) "1 || b" true (fold (Orelse (Const_i 1, b)) = Const_i 1)

let test_dead_statements () =
  let p =
    {
      funcs =
        [
          {
            name = "f";
            frame_size = 16;
            body =
              [
                Expr (Some Ci, Load_i (Tq_isa.Isa.W8, false, Frame_addr (-8)));
                Expr (Some Ci, Call ("g", [], Some Ci));
                If (Const_i 0, [ Return (Some (Ci, Const_i 1)) ], []);
                For
                  {
                    cond = Some (Const_i 0);
                    step = [];
                    body = [ Return (Some (Ci, Const_i 2)) ];
                  };
                Return (Some (Ci, Const_i 3));
              ];
          };
        ];
      globals = [];
    }
  in
  let p' = Opt.program p in
  match (List.hd p'.funcs).body with
  | [ Expr (Some Ci, Call ("g", [], Some Ci)); Return (Some (Ci, Const_i 3)) ] -> ()
  | body ->
      Alcotest.fail
        (Printf.sprintf "unexpected optimized body (%d statements)"
           (List.length body))

let test_instruction_reduction () =
  (* the optimizer must measurably shrink a constant-heavy program *)
  let src =
    "int main() { int s; s = 0; for (int i = 0; i < 100; i++) \
     s += i * 16 + 3 * 4 - 12; return s & 1023; }"
  in
  let _, _, n0 = run ~optimize:false src in
  let _, _, n1 = run ~optimize:true src in
  Alcotest.(check bool)
    (Printf.sprintf "O1 (%d) at least 5%% fewer instructions than O0 (%d)" n1 n0)
    true
    (float_of_int n1 < 0.95 *. float_of_int n0)

let qcheck_opt_differential =
  (* random arithmetic expressions through both pipelines *)
  let gen =
    QCheck.Gen.(
      let rec expr n =
        if n = 0 then map (fun i -> string_of_int i) (int_range 0 99)
        else
          let sub = expr (n - 1) in
          oneof
            [
              map (fun i -> string_of_int i) (int_range 0 99);
              map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s | %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s & %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s < %s)" a b) sub sub;
            ]
      in
      expr 4)
  in
  QCheck.Test.make ~name:"random expressions agree across -O0/-O1" ~count:60
    (QCheck.make gen) (fun e ->
      let src = Printf.sprintf "int main() { return (%s) & 255; }" e in
      let e0, _, _ = run ~optimize:false src in
      let e1, _, _ = run ~optimize:true src in
      e0 = e1)

let suites =
  [
    ( "minic.opt",
      differential_cases
      @ [
          Alcotest.test_case "fold int" `Quick test_fold_int;
          Alcotest.test_case "fold float" `Quick test_fold_float;
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "div by zero kept" `Quick test_div_zero_not_folded;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "dead statements" `Quick test_dead_statements;
          Alcotest.test_case "instruction reduction" `Quick
            test_instruction_reduction;
          QCheck_alcotest.to_alcotest qcheck_opt_differential;
        ] );
  ]

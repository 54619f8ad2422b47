(* The static binary verifier: clean code verifies clean, each seeded defect
   yields its diagnostic class, and the bandwidth estimator ranks loopy
   kernels above straight-line ones. *)

open Tq_vm
module Isa = Tq_isa.Isa
module Builder = Tq_asm.Builder
module Sc = Tq_staticcheck.Staticcheck

let has_class c = List.exists (fun (d : Sc.diagnostic) -> d.Sc.cls = c)
module Cfg = Tq_staticcheck.Cfg
module Rcode = Tq_staticcheck.Rcode
module Estimate = Tq_staticcheck.Estimate

let compile src = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ]

let t0 = Isa.reg_t0
let t1 = Isa.reg_t0 + 1

(* ---------- clean programs verify clean ---------- *)

let loopy_src =
  "int N; int buf[64];\n\
   int fill(int n) { int i; for (i = 0; i < n; i = i + 1) buf[i] = i * 2; \
   return n; }\n\
   int sum2d(int n) { int i; int j; int s; s = 0;\n\
  \  for (i = 0; i < n; i = i + 1) { for (j = 0; j < n; j = j + 1) { if (buf[j] \
   > 8) s = s + buf[j]; else s = s - 1; } }\n\
  \  return s; }\n\
   int main() { N = 8; fill(64); while (1) { if (N > 4) break; } return \
   sum2d(N); }\n"

let test_clean_program () =
  let prog = compile loopy_src in
  Alcotest.(check string)
    "no diagnostics (all images)" ""
    (Sc.render (Sc.check_program prog))

let test_clean_wfs_and_apps () =
  List.iter
    (fun (name, prog) ->
      Alcotest.(check string)
        (name ^ " verifies clean")
        ""
        (Sc.render (Sc.check_program prog)))
    [
      ("wfs tiny", Tq_wfs.Harness.compile Tq_wfs.Scenario.tiny);
      ("wfs default", Tq_wfs.Harness.compile Tq_wfs.Scenario.default);
      ("imgpipe", Tq_apps.Apps.image_pipeline_program ~width:16 ~height:8 ());
      ("chase", Tq_apps.Apps.pointer_chase_program ~nodes:16 ~rounds:2 ());
    ]

(* ---------- CFG structure ---------- *)

let test_cfg_loops () =
  (* two nested counted loops built by the compiler *)
  let prog = compile loopy_src in
  let r = Option.get (Symtab.by_name prog.Program.symtab "sum2d") in
  let cfg = Cfg.build (Rcode.of_routine prog r) in
  Alcotest.(check bool) "several blocks" true (Cfg.n_blocks cfg >= 4);
  Alcotest.(check bool) "has back edges" true
    (List.length (List.concat_map (fun (l : Cfg.loop) -> l.Cfg.latches)
       (Array.to_list cfg.Cfg.loops)) >= 2);
  let maxd =
    Array.fold_left (fun d (l : Cfg.loop) -> max d l.Cfg.depth) 0 cfg.Cfg.loops
  in
  Alcotest.(check int) "nest depth 2" 2 maxd;
  (match cfg.Cfg.loops with
  | [| outer; inner |] ->
      Alcotest.(check (list int)) "parents" [ -1; 0 ]
        [ outer.Cfg.parent; inner.Cfg.parent ];
      Alcotest.(check (list int)) "depths" [ 1; 2 ] [ outer.Cfg.depth; inner.Cfg.depth ];
      Alcotest.(check bool) "inner body inside outer" true
        (List.for_all (fun b -> outer.Cfg.body.(b)) inner.Cfg.blocks);
      Alcotest.(check bool) "outer header outside inner" false
        inner.Cfg.body.(outer.Cfg.header);
      Alcotest.(check int) "inner header's innermost loop" 1
        cfg.Cfg.innermost.(inner.Cfg.header)
  | ls -> Alcotest.failf "expected 2 loops, got %d" (Array.length ls));
  Alcotest.(check bool)
    "every block reachable" true
    (Array.for_all Fun.id cfg.Cfg.reachable);
  (* entry dominates everything: idom chains all terminate at block 0 *)
  Array.iter
    (fun (b : Cfg.block) ->
      if b.Cfg.id <> 0 then
        Alcotest.(check bool) "has idom" true (cfg.Cfg.idom.(b.Cfg.id) >= 0))
    cfg.Cfg.blocks;
  (* entry block is block 0 and starts at the routine entry *)
  Alcotest.(check (option int)) "entry addr" (Some r.Symtab.entry)
    (Rcode.addr_of cfg.Cfg.code cfg.Cfg.blocks.(0).Cfg.first);
  (* every successor id is valid, and preds invert succs *)
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "succ in range" true
            (s >= 0 && s < Cfg.n_blocks cfg);
          Alcotest.(check bool) "pred edge recorded" true
            (List.mem b.Cfg.id cfg.Cfg.preds.(s)))
        b.Cfg.succs)
    cfg.Cfg.blocks

(* ---------- seeded mutations: one defect, one diagnostic class ---------- *)

let mutate prog f =
  let code = Array.copy prog.Program.code in
  f code;
  { prog with Program.code }

let find_in routine prog p =
  let r = Option.get (Symtab.by_name prog.Program.symtab routine) in
  let lo = Program.index_of_addr prog r.Symtab.entry in
  let hi = lo + (r.Symtab.size / Isa.ins_bytes) - 1 in
  let rec go i =
    if i > hi then Alcotest.failf "no matching instruction in %s" routine
    else if p prog.Program.code.(i) then i
    else go (i + 1)
  in
  go lo

let test_mutation_bad_jump () =
  let prog = compile loopy_src in
  let i = find_in "sum2d" prog (function Isa.Jmp _ -> true | _ -> false) in
  let bad =
    mutate prog (fun code ->
        match code.(i) with
        | Isa.Jmp a -> code.(i) <- Isa.Jmp (a + 2) (* misaligned *)
        | _ -> assert false)
  in
  Alcotest.(check bool)
    "clobbered jump target -> bad-jump" true
    (has_class Sc.Bad_jump (Sc.check_program bad))

let test_mutation_bad_call () =
  let prog = compile loopy_src in
  let i = find_in "main" prog (function Isa.Call _ -> true | _ -> false) in
  let bad =
    mutate prog (fun code ->
        match code.(i) with
        | Isa.Call a -> code.(i) <- Isa.Call (a + Isa.ins_bytes)
        | _ -> assert false)
  in
  Alcotest.(check bool)
    "call into a routine body -> bad-call" true
    (has_class Sc.Bad_call (Sc.check_program bad))

let test_mutation_dropped_ret () =
  let prog = compile loopy_src in
  let r = Option.get (Symtab.by_name prog.Program.symtab "fill") in
  let last =
    Program.index_of_addr prog r.Symtab.entry + (r.Symtab.size / Isa.ins_bytes) - 1
  in
  (match prog.Program.code.(last) with
  | Isa.Ret -> ()
  | i -> Alcotest.failf "expected trailing ret, got %s" (Isa.to_string i));
  let bad = mutate prog (fun code -> code.(last) <- Isa.Nop) in
  Alcotest.(check bool)
    "dropped final ret -> fall-through" true
    (has_class Sc.Fall_through (Sc.check_program bad))

(* Crafted assembler units: definite defects the compiler never emits. *)

let unit_of emit =
  let b = Builder.create () in
  emit b;
  Builder.items b

let test_crafted_use_before_def () =
  let items =
    unit_of (fun b ->
        Builder.ins b (Isa.Bin (Isa.Add, t1, t0, Isa.Imm 1));
        Builder.ins b Isa.Ret)
  in
  let d = Sc.check_items ~name:"ubd" items in
  Alcotest.(check bool) "reads temp before def" true
    (has_class Sc.Use_before_def d)

let test_crafted_stack_imbalance () =
  let items =
    unit_of (fun b ->
        Builder.ins b (Isa.Bin (Isa.Sub, Isa.reg_sp, Isa.reg_sp, Isa.Imm 8));
        Builder.ins b Isa.Ret)
  in
  let d = Sc.check_items ~name:"stk" items in
  Alcotest.(check bool) "ret with sp off by 8" true
    (has_class Sc.Stack_imbalance d)

let test_crafted_entry_loop_stack () =
  (* a loop whose header is the routine entry: the back edge joins the
     entry state, so sp at the ret is not provably entry-8 *)
  let b = Builder.create () in
  let top = Builder.fresh_label b in
  Builder.place b top;
  Builder.ins b (Isa.Bin (Isa.Sub, Isa.reg_sp, Isa.reg_sp, Isa.Imm 8));
  Builder.bnz b Isa.reg_rv top;
  Builder.ins b Isa.Ret;
  let d = Sc.check_items ~name:"entry-loop" (Builder.items b) in
  Alcotest.(check (list string))
    "ret after an entry loop"
    [ "ret with unprovable stack depth (sp not restored to its entry value)" ]
    (List.map (fun d -> d.Sc.message) d)

let test_crafted_bad_address () =
  let items =
    unit_of (fun b ->
        Builder.ins b (Isa.Li (t0, 8));
        Builder.ins b
          (Isa.Load { width = Isa.W8; dst = t1; base = t0; off = 0; pred = None });
        Builder.ins b Isa.Ret)
  in
  let d = Sc.check_items ~name:"addr" items in
  Alcotest.(check bool) "load from the null page" true
    (has_class Sc.Bad_address d)

(* The stack-depth and constant-address checks read the register fixpoint,
   so values flow through registers other than sp and across block
   boundaries. *)

let messages d = List.map (fun d -> d.Sc.message) d

let test_crafted_stack_via_register () =
  let items =
    unit_of (fun b ->
        Builder.ins b (Isa.Li (t0, 8));
        Builder.ins b (Isa.Bin (Isa.Add, Isa.reg_sp, Isa.reg_sp, Isa.Reg t0));
        Builder.ins b Isa.Ret)
  in
  Alcotest.(check (list string))
    "sp moved by a register holding a constant"
    [ "ret with sp = entry+8 (unbalanced stack)" ]
    (messages (Sc.check_items ~name:"stk-reg" items))

(* li t0, 8; a branch; the load through t0 sits in the join block *)
let const_load_after_join ?pred () =
  let b = Builder.create () in
  let join = Builder.fresh_label b in
  Builder.ins b (Isa.Li (t0, 8));
  Builder.bnz b Isa.reg_rv join;
  Builder.ins b Isa.Nop;
  Builder.place b join;
  Builder.ins b
    (Isa.Load { width = Isa.W8; dst = t1; base = t0; off = 0; pred });
  Builder.ins b Isa.Ret;
  Builder.items b

let test_crafted_bad_address_across_blocks () =
  Alcotest.(check (list string))
    "constant survives the join"
    [ "load at constant address 0x8, outside any data/heap/stack region" ]
    (messages (Sc.check_items ~name:"addr-join" (const_load_after_join ())));
  Alcotest.(check (list string))
    "predicated: the guard may never fire" []
    (messages
       (Sc.check_items ~name:"addr-pred"
          (const_load_after_join ~pred:Isa.reg_rv ())))

let test_crafted_bad_address_unreachable () =
  let items =
    unit_of (fun b ->
        Builder.ins b Isa.Ret;
        Builder.ins b (Isa.Li (t0, 8));
        Builder.ins b
          (Isa.Load { width = Isa.W8; dst = t1; base = t0; off = 0; pred = None });
        Builder.ins b Isa.Ret)
  in
  Alcotest.(check (list string))
    "only the unreachable block is reported"
    [ "unreachable block of 3 instruction(s)" ]
    (messages (Sc.check_items ~name:"addr-dead" items))

let test_crafted_dynamic_flow () =
  let items =
    unit_of (fun b ->
        Builder.ins b (Isa.Li (t0, 0x40_0000));
        Builder.ins b (Isa.Jr t0))
  in
  let d = Sc.check_items ~name:"dyn" items in
  Alcotest.(check bool) "jr -> dynamic-flow" true
    (has_class Sc.Dynamic_flow d)

let test_crafted_unreachable () =
  let items =
    unit_of (fun b ->
        Builder.ins b Isa.Ret;
        Builder.ins b Isa.Nop;
        Builder.ins b Isa.Ret)
  in
  let d = Sc.check_items ~name:"unreach" items in
  Alcotest.(check bool) "code after ret" true
    (has_class Sc.Unreachable_code d)

(* ---------- builder dead-code elimination ---------- *)

let test_builder_drop_dead () =
  let b = Builder.create ~drop_dead:true () in
  Builder.ins b (Isa.Li (t0, 1));
  Builder.ins b Isa.Ret;
  Builder.ins b (Isa.Li (t0, 2)) (* dead *);
  Builder.ins b Isa.Ret (* dead *);
  Alcotest.(check int) "dead tail elided" 2 (Array.length (Builder.items b))

let test_builder_drop_dead_label_revives () =
  let b = Builder.create ~drop_dead:true () in
  let l = Builder.fresh_label b in
  Builder.ins b (Isa.Li (t0, 0));
  Builder.bnz b t0 l;
  Builder.ins b Isa.Ret;
  Builder.ins b (Isa.Li (t0, 9)) (* dead: after ret, before any label *);
  Builder.place b l;
  Builder.ins b (Isa.Li (t0, 1)) (* live again: l is referenced *);
  Builder.ins b Isa.Ret;
  let items = Builder.items b in
  Alcotest.(check int) "one instruction elided" 5 (Array.length items);
  (* the branch must still resolve to the revived code, not the dead slot *)
  let target = Array.to_list items |> List.find_map (function
    | Builder.Bnz_l (_, t) -> Some t
    | _ -> None) in
  Alcotest.(check (option int)) "branch retargeted" (Some 3) target;
  Alcotest.(check string) "elided body verifies clean" ""
    (Sc.render (Sc.check_items ~name:"revive" items))

(* ---------- estimator ---------- *)

let test_estimate_ranks_loops () =
  let prog = compile loopy_src in
  let rows = Estimate.per_kernel prog in
  let find name =
    List.find (fun r -> r.Estimate.routine.Symtab.name = name) rows
  in
  let fill = find "fill" and sum2d = find "sum2d" and main = find "main" in
  Alcotest.(check int) "fill has one loop" 1 fill.Estimate.loops;
  Alcotest.(check int) "sum2d has two loops" 2 sum2d.Estimate.loops;
  Alcotest.(check bool) "depth-2 kernel outweighs depth-1" true
    (Estimate.bytes sum2d > Estimate.bytes fill);
  Alcotest.(check bool) "all kernels estimated" true (List.length rows >= 3);
  Alcotest.(check bool) "main reads something" true (main.Estimate.reads > 0.)

let test_estimate_wfs_heaviest () =
  (* the paper's FFT dominates wfs bandwidth; the static ranking agrees *)
  let rows = Estimate.per_kernel (Tq_wfs.Harness.compile Tq_wfs.Scenario.tiny) in
  let heaviest =
    List.fold_left
      (fun acc r -> if Estimate.bytes r > Estimate.bytes acc then r else acc)
      (List.hd rows) rows
  in
  Alcotest.(check string) "fft1d is the static heavyweight" "fft1d"
    heaviest.Estimate.routine.Symtab.name

let suites =
  [
    ( "staticcheck",
      [
        Alcotest.test_case "clean program verifies clean" `Quick
          test_clean_program;
        Alcotest.test_case "wfs and app programs verify clean" `Quick
          test_clean_wfs_and_apps;
        Alcotest.test_case "cfg: loops, dominators, reachability" `Quick
          test_cfg_loops;
        Alcotest.test_case "mutation: clobbered jump -> bad-jump" `Quick
          test_mutation_bad_jump;
        Alcotest.test_case "mutation: clobbered call -> bad-call" `Quick
          test_mutation_bad_call;
        Alcotest.test_case "mutation: dropped ret -> fall-through" `Quick
          test_mutation_dropped_ret;
        Alcotest.test_case "crafted: use-before-def" `Quick
          test_crafted_use_before_def;
        Alcotest.test_case "crafted: stack imbalance" `Quick
          test_crafted_stack_imbalance;
        Alcotest.test_case "crafted: stack after a loop at the entry" `Quick
          test_crafted_entry_loop_stack;
        Alcotest.test_case "crafted: bad constant address" `Quick
          test_crafted_bad_address;
        Alcotest.test_case "crafted: stack moved through a register" `Quick
          test_crafted_stack_via_register;
        Alcotest.test_case "crafted: bad constant address across a join"
          `Quick test_crafted_bad_address_across_blocks;
        Alcotest.test_case "crafted: bad constant address, unreachable"
          `Quick test_crafted_bad_address_unreachable;
        Alcotest.test_case "crafted: dynamic flow" `Quick
          test_crafted_dynamic_flow;
        Alcotest.test_case "crafted: unreachable code" `Quick
          test_crafted_unreachable;
        Alcotest.test_case "builder: dead tail elided" `Quick
          test_builder_drop_dead;
        Alcotest.test_case "builder: referenced label revives" `Quick
          test_builder_drop_dead_label_revives;
        Alcotest.test_case "estimate: loop depth ranks kernels" `Quick
          test_estimate_ranks_loops;
        Alcotest.test_case "estimate: wfs heavyweight is fft1d" `Quick
          test_estimate_wfs_heaviest;
      ] );
  ]

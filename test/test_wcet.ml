open Tq_vm
open Tq_wcet

let compile src = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ]

let run prog =
  let m = Machine.create prog in
  Executor.run ~fuel:50_000_000 m;
  m

let no_bounds = fun _ -> []

(* straight-line code: the bound is exact *)
let test_straight_line_exact () =
  let prog = compile "int main() { int x; x = 1 + 2 * 3; int y; y = x - 4; return y; }" in
  let m = run prog in
  let bound = Wcet.analyze prog ~bounds:no_bounds "_start" in
  Alcotest.(check int) "bound = measured exactly" (Machine.instr_count m) bound

let test_branch_takes_max () =
  (* the two arms differ in cost; WCET must charge the expensive one *)
  let src_cheap = "int main() { if (1) return 1; return 2 * 3 * 4 * 5; }" in
  let src_dear = "int main() { if (0) return 1; return 2 * 3 * 4 * 5; }" in
  let p1 = compile src_cheap and p2 = compile src_dear in
  let m1 = run p1 and m2 = run p2 in
  let b1 = Wcet.analyze p1 ~bounds:no_bounds "_start" in
  let b2 = Wcet.analyze p2 ~bounds:no_bounds "_start" in
  Alcotest.(check bool) "sound on cheap path" true (b1 >= Machine.instr_count m1);
  Alcotest.(check bool) "sound on dear path" true (b2 >= Machine.instr_count m2);
  (* both programs have the same shape, so the same bound *)
  Alcotest.(check int) "same static bound" b1 b2

let loop_src =
  "int main() { int s; s = 0; for (int i = 0; i < 10; i++) s += i; return s; }"

let test_single_loop () =
  let prog = compile loop_src in
  let m = run prog in
  let ls = Wcet.loops prog "main" in
  Alcotest.(check int) "one loop" 1 (List.length ls);
  Alcotest.(check int) "depth 1" 1 (List.hd ls).Wcet.depth;
  (* header executes 11 times (10 iterations + failing check) *)
  let bounds = function "main" -> [ 11 ] | _ -> [] in
  let bound = Wcet.analyze prog ~bounds "_start" in
  let actual = Machine.instr_count m in
  Alcotest.(check bool)
    (Printf.sprintf "sound: bound %d >= actual %d" bound actual)
    true (bound >= actual);
  Alcotest.(check bool)
    (Printf.sprintf "tight-ish: bound %d <= 1.5x actual %d" bound actual)
    true
    (float_of_int bound <= 1.5 *. float_of_int actual)

let test_nested_loops () =
  let prog =
    compile
      "int main() { int s; s = 0; for (int i = 0; i < 6; i++) \
       for (int j = 0; j < 8; j++) s += i * j; return s; }"
  in
  let m = run prog in
  let ls = Wcet.loops prog "main" in
  Alcotest.(check int) "two loops" 2 (List.length ls);
  Alcotest.(check (list int)) "depths" [ 1; 2 ]
    (List.map (fun l -> l.Wcet.depth) ls);
  (* header-address order = source order: outer first *)
  let bounds = function "main" -> [ 7; 9 ] | _ -> [] in
  let bound = Wcet.analyze prog ~bounds "_start" in
  let actual = Machine.instr_count m in
  Alcotest.(check bool)
    (Printf.sprintf "sound: %d >= %d" bound actual)
    true (bound >= actual);
  Alcotest.(check bool) "within 2x" true
    (float_of_int bound <= 2. *. float_of_int actual)

let test_call_composition () =
  let prog =
    compile
      "int work(int n) { int s; s = 0; for (int i = 0; i < 20; i++) s += n; \
       return s; }\n\
       int main() { return work(1) + work(2) + work(3); }"
  in
  let m = run prog in
  let bounds = function "work" -> [ 21 ] | _ -> [] in
  let bound = Wcet.analyze prog ~bounds "_start" in
  Alcotest.(check bool) "interprocedural soundness" true
    (bound >= Machine.instr_count m)

let test_library_calls_need_bounds () =
  (* memset has a data-dependent loop; the analysis must demand a bound *)
  let prog =
    compile "int main() { char b[64]; memset((char*) b, 0, 64); return 0; }"
  in
  (match Wcet.analyze prog ~bounds:no_bounds "_start" with
  | _ -> Alcotest.fail "expected missing-bound error"
  | exception Wcet.Analysis_error msg ->
      Alcotest.(check bool) "names memset" true
        (Astring_contains.contains msg "memset"));
  (* with the bound supplied (64 bytes + final check) it composes *)
  let bounds = function "memset" -> [ 65 ] | _ -> [] in
  let m = run prog in
  let bound = Wcet.analyze prog ~bounds "_start" in
  Alcotest.(check bool) "sound with library bound" true
    (bound >= Machine.instr_count m)

let test_recursion_rejected () =
  let prog =
    compile
      "int f(int n) { if (n <= 0) return 0; return f(n - 1) + 1; }\n\
       int main() { return f(5); }"
  in
  match Wcet.analyze prog ~bounds:no_bounds "main" with
  | _ -> Alcotest.fail "expected recursion error"
  | exception Wcet.Analysis_error msg ->
      Alcotest.(check bool) "mentions recursion" true
        (Astring_contains.contains msg "recursion")

let test_missing_bound_message () =
  let prog = compile loop_src in
  match Wcet.analyze prog ~bounds:no_bounds "main" with
  | _ -> Alcotest.fail "expected bound error"
  | exception Wcet.Analysis_error msg ->
      Alcotest.(check bool) "explains count" true
        (Astring_contains.contains msg "0 loop bound(s) supplied, 1 loop(s)")

let test_dynamic_flow_rejected () =
  let open Tq_asm in
  let b = Builder.create () in
  Builder.ins b (Tq_isa.Isa.Li (10, 0x400000));
  Builder.ins b (Tq_isa.Isa.Jr 10);
  let prog =
    Link.link
      [ { Link.uname = "t"; main_image = true;
          routines = [ { Link.rname = "_start"; body = b } ]; data = [] } ]
  in
  match Wcet.analyze prog ~bounds:no_bounds "_start" with
  | _ -> Alcotest.fail "expected dynamic-flow error"
  | exception Wcet.Analysis_error msg ->
      Alcotest.(check bool) "mentions jr" true
        (Astring_contains.contains msg "dynamic jump")

(* the CFG the analysis reads: entry at the routine entry, edges consistent,
   and its loop nest is what [Wcet.loops] reports *)
let test_cfg_shape () =
  let module Cfg = Tq_staticcheck.Cfg in
  let module Rcode = Tq_staticcheck.Rcode in
  let prog = compile loop_src in
  let r = Symtab.by_name prog.Program.symtab "main" |> Option.get in
  let cfg = Cfg.build (Rcode.of_routine prog r) in
  Alcotest.(check bool) "several blocks" true (Cfg.n_blocks cfg >= 4);
  Alcotest.(check (option int)) "entry addr" (Some r.Symtab.entry)
    (Rcode.addr_of cfg.Cfg.code cfg.Cfg.blocks.(0).Cfg.first);
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "succ in range" true
            (s >= 0 && s < Cfg.n_blocks cfg);
          Alcotest.(check bool) "pred edge recorded" true
            (List.mem b.Cfg.id cfg.Cfg.preds.(s)))
        b.Cfg.succs)
    cfg.Cfg.blocks;
  let headers =
    Array.to_list cfg.Cfg.loops
    |> List.map (fun (l : Cfg.loop) ->
           Option.get
             (Rcode.addr_of cfg.Cfg.code cfg.Cfg.blocks.(l.Cfg.header).Cfg.first))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "Wcet.loops headers" headers
    (List.map (fun (l : Wcet.loop_info) -> l.Wcet.header_addr) (Wcet.loops prog "main"))

(* a two-entry cycle: neither block dominates the other, so there is no
   natural loop to bound and the path DAG keeps a cycle *)
let irreducible_asm =
  {|
.func _start
  li x10, 1
  bz x10, b
a:
  sub x10, x10, 1
b:
  bnz x10, a
  halt
.endfunc
|}

let test_irreducible_rejected () =
  let prog = Tq_asm.(Link.link [ Asm_parse.parse irreducible_asm ]) in
  Alcotest.(check int) "no natural loop" 0 (List.length (Wcet.loops prog "_start"));
  match Wcet.analyze prog ~bounds:no_bounds "_start" with
  | _ -> Alcotest.fail "expected irreducible-flow error"
  | exception Wcet.Analysis_error msg ->
      Alcotest.(check bool) "mentions irreducible" true
        (Astring_contains.contains msg "irreducible")

(* `tquad wcet` exit codes: 2 for usage errors, 3 for input whose control
   flow cannot be bounded; 1 stays reserved for program failures *)
let test_cli_exit_codes () =
  let tmp = Test_dataflow.write_tmp in
  let loop = tmp ".mc" loop_src in
  let recursive =
    tmp ".mc"
      "int f(int n) { if (n <= 0) return 0; return f(n - 1) + 1; }\n\
       int main() { return f(5); }\n"
  in
  let dynamic = tmp ".s" ".func _start\n  li x10, 0x400000\n  jr x10\n.endfunc\n" in
  let irreducible = tmp ".s" irreducible_asm in
  let rc args = Test_dataflow.run_cli ("wcet " ^ args) in
  Alcotest.(check int) "bounded program: 0" 0 (rc loop);
  Alcotest.(check int) "unknown --routine: 2" 2 (rc (loop ^ " --routine nosuch"));
  Alcotest.(check int) "negative --bound: 2" 2 (rc (loop ^ " --bound=-1"));
  Alcotest.(check int) "recursion: 3" 3 (rc recursive);
  Alcotest.(check int) "dynamic jump: 3" 3 (rc dynamic);
  Alcotest.(check int) "irreducible flow: 3" 3 (rc irreducible);
  List.iter Sys.remove [ loop; recursive; dynamic; irreducible ]

(* A bound that does not fit in an int is refused, never wrapped: for one
   loop the bound is [rest + b * iteration], exact up to the largest [b]
   that fits, and one more is an [Analysis_error]. *)
let test_overflow_refused () =
  let prog = compile loop_src in
  let at b =
    Wcet.analyze prog ~bounds:(function "main" -> [ b ] | _ -> []) "_start"
  in
  let iteration = at 12 - at 11 in
  let rest = at 11 - (11 * iteration) in
  let largest = (max_int - rest) / iteration in
  Alcotest.(check int) "largest bound that fits: exact"
    (rest + (largest * iteration))
    (at largest);
  List.iter
    (fun b ->
      match at b with
      | w -> Alcotest.failf "bound %d: got %d, expected Analysis_error" b w
      | exception Wcet.Analysis_error msg ->
          Alcotest.(check bool) ("names the overflow: " ^ msg) true
            (Astring_contains.contains msg "WCET bound exceeds"))
    [ largest + 1; max_int / 2; max_int ]

(* the CLI exits 3 on a bound past max_int; one that fits still exits 0 *)
let test_cli_overflow () =
  let rc args = Test_dataflow.run_cli ("wcet " ^ args) in
  Alcotest.(check int) "wfs tiny, --bound 1e9: 3" 3
    (rc "--wfs tiny --bound 1000000000");
  Alcotest.(check int) "pointer-chase, --bound 1e9: 3" 3
    (rc "--app pointer-chase --bound 1000000000");
  Alcotest.(check int) "wfs tiny, --bound 10000 still fits: 0" 0
    (rc "--wfs tiny --bound 10000")

(* the wfs application end-to-end: bound every loop, check soundness *)
let test_wfs_soundness () =
  let scen = Tq_wfs.Scenario.tiny in
  let prog = Tq_wfs.Harness.compile scen in
  let m = Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) prog in
  Executor.run ~fuel:(Tq_wfs.Harness.fuel scen) m;
  let actual = Machine.instr_count m in
  (* generous uniform bound: every loop header in any wfs routine executes at
     most max(total output samples, input samples, fft size) + 2 times per
     loop entry; soundness only needs an upper bound *)
  let generic =
    max
      (scen.Tq_wfs.Scenario.chunks * scen.Tq_wfs.Scenario.frame
      * scen.Tq_wfs.Scenario.speakers)
      (max (Tq_wfs.Scenario.input_samples scen) scen.Tq_wfs.Scenario.fft_n)
    + 2
  in
  let bounds name = List.map (fun _ -> generic) (Wcet.loops prog name) in
  match Wcet.analyze prog ~bounds "_start" with
  | bound ->
      Alcotest.(check bool)
        (Printf.sprintf "wfs bound %d >= actual %d" bound actual)
        true (bound >= actual);
      (* pinned: the loop nest and path structure behind the bound must
         not drift when the analysis is reworked *)
      Alcotest.(check int) "wfs tiny uniform bound" 59_250_001_090_225_510 bound
  | exception Wcet.Analysis_error msg ->
      Alcotest.fail ("analysis failed: " ^ msg)

(* The dataflow layer's constant trip counts, fed back as loop bounds (a
   counted loop's header runs trips + 1 times per entry), must bound the
   measured run of the random loop nests the dataflow property uses. *)
let qcheck_trip_bounds_cover_run =
  QCheck.Test.make ~count:20 ~name:"WCET on inferred trip bounds >= measured"
    (QCheck.make
       ~print:(fun (n, s, k, c, m) ->
         Printf.sprintf "N=%d STEP=%d K=%d C=%d M=%d" n s k c m)
       Test_dataflow.gen_params)
    (fun params ->
      let prog = compile (Test_dataflow.src_of params) in
      let bounds name =
        let r = Option.get (Symtab.by_name prog.Program.symtab name) in
        let cfg = Tq_staticcheck.(Cfg.build (Rcode.of_routine prog r)) in
        let li = Tq_staticcheck.(Loopinfo.analyze (Dataflow.analyze cfg)) in
        Array.to_list (Tq_staticcheck.Loopinfo.loops li)
        |> List.map (fun (l : Tq_staticcheck.Loopinfo.loop) ->
               match l.Tq_staticcheck.Loopinfo.l_trip with
               | Tq_staticcheck.Loopinfo.Tconst t -> t + 1
               | t ->
                   QCheck.Test.fail_reportf "%s: non-constant trips %s" name
                     (Tq_staticcheck.Loopinfo.trip_to_string t))
      in
      let bound = Wcet.analyze prog ~bounds "_start" in
      let actual = Machine.instr_count (run prog) in
      if bound < actual then
        QCheck.Test.fail_reportf "bound %d < measured %d" bound actual;
      true)

let suites =
  [
    ( "wcet",
      [
        Alcotest.test_case "straight line exact" `Quick test_straight_line_exact;
        Alcotest.test_case "branch max" `Quick test_branch_takes_max;
        Alcotest.test_case "single loop" `Quick test_single_loop;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "call composition" `Quick test_call_composition;
        Alcotest.test_case "library bounds" `Quick test_library_calls_need_bounds;
        Alcotest.test_case "recursion rejected" `Quick test_recursion_rejected;
        Alcotest.test_case "missing bound message" `Quick
          test_missing_bound_message;
        Alcotest.test_case "dynamic flow rejected" `Quick
          test_dynamic_flow_rejected;
        Alcotest.test_case "irreducible flow rejected" `Quick
          test_irreducible_rejected;
        Alcotest.test_case "cfg shape" `Quick test_cfg_shape;
        Alcotest.test_case "wfs soundness" `Quick test_wfs_soundness;
        Alcotest.test_case "CLI exit codes (0/2/3)" `Quick test_cli_exit_codes;
        Alcotest.test_case "overflowing bound refused" `Quick
          test_overflow_refused;
        Alcotest.test_case "CLI: overflowing bound exits 3" `Quick
          test_cli_overflow;
        QCheck_alcotest.to_alcotest qcheck_trip_bounds_cover_run;
      ] );
  ]

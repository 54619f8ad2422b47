open Tq_isa
open Tq_vm
open Tq_asm
open Tq_dbi

(* A program with a loop doing loads and stores, plus a helper routine, used
   by most engine tests:

     _start: calls touch(3 times) in a loop, then exits.
     touch:  one 8-byte load + one 8-byte store on "buf".  *)

let loop_iters = 3

let program () =
  Link.link
    [
      {
        Link.uname = "main";
        main_image = true;
        data = [ { Link.dname = "buf"; init = Zero 64 } ];
        routines =
          [
            {
              Link.rname = "_start";
              body =
                (let b = Builder.create () in
                 Builder.ins b (Isa.Li (24, loop_iters));
                 let loop = Builder.fresh_label b in
                 let done_ = Builder.fresh_label b in
                 Builder.place b loop;
                 Builder.bz b 24 done_;
                 Builder.call b "touch";
                 Builder.ins b (Isa.Bin (Isa.Sub, 24, 24, Isa.Imm 1));
                 Builder.jmp b loop;
                 Builder.place b done_;
                 Builder.ins b (Isa.Li (Isa.reg_a0, 0));
                 Builder.ins b (Isa.Syscall Sysno.exit);
                 b);
            };
            {
              Link.rname = "touch";
              body =
                (let b = Builder.create () in
                 Builder.la b 20 "buf";
                 Builder.ins b
                   (Isa.Load
                      { width = Isa.W8; dst = 10; base = 20; off = 0; pred = None });
                 Builder.ins b (Isa.Bin (Isa.Add, 10, 10, Isa.Imm 1));
                 Builder.ins b
                   (Isa.Store
                      { width = Isa.W8; src = 10; base = 20; off = 0; pred = None });
                 Builder.ins b Isa.Ret;
                 b);
            };
          ];
      };
    ]

let test_instruction_counting () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  let counted = ref 0 in
  Engine.add_ins_instrumenter eng (fun _v -> [ (fun () -> incr counted) ]);
  Engine.run eng;
  Alcotest.(check bool) "halted" true (Machine.halted m);
  Alcotest.(check int) "analysis fired once per retired instruction"
    (Machine.instr_count m) !counted

let test_load_store_counting () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  let loads = ref 0 and stores = ref 0 and load_bytes = ref 0 in
  Engine.add_ins_instrumenter eng (fun v ->
      let i = Engine.Ins_view.ins v in
      let acc = ref [] in
      if Isa.reads_memory i && not (Isa.is_prefetch i) then begin
        let n = Isa.mem_read_bytes i in
        acc :=
          (fun () ->
            incr loads;
            load_bytes := !load_bytes + n)
          :: !acc
      end;
      if Isa.writes_memory i then acc := (fun () -> incr stores) :: !acc;
      !acc);
  Engine.run eng;
  (* per iteration: call (store) + explicit load + explicit store + ret (load).
     _start itself performs loop_iters calls; no other memory traffic. *)
  Alcotest.(check int) "loads = explicit + rets" (2 * loop_iters) !loads;
  Alcotest.(check int) "stores = explicit + calls" (2 * loop_iters) !stores;
  Alcotest.(check int) "load bytes" (16 * loop_iters) !load_bytes

let test_effective_addresses () =
  let prog = program () in
  let m = Machine.create prog in
  let eng = Engine.create m in
  (* "buf" is the first (only) datum, so it lands exactly at data_base. *)
  let buf_addr = Layout.data_base in
  let seen_global_reads = ref [] in
  Engine.add_ins_instrumenter eng (fun v ->
      let i = Engine.Ins_view.ins v in
      match i with
      | Isa.Load _ ->
          [
            (fun () ->
              seen_global_reads := Machine.read_ea m i :: !seen_global_reads);
          ]
      | _ -> []);
  Engine.run eng;
  Alcotest.(check int) "one global load per iter" loop_iters
    (List.length !seen_global_reads);
  List.iter
    (fun ea -> Alcotest.(check int) "ea = buf" buf_addr ea)
    !seen_global_reads

let test_rtn_instrumenter () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  let entries = Hashtbl.create 4 in
  Engine.add_rtn_instrumenter eng (fun r ->
      let name = r.Symtab.name in
      [
        (fun () ->
          Hashtbl.replace entries name
            (1 + Option.value ~default:0 (Hashtbl.find_opt entries name)));
      ]);
  Engine.run eng;
  Alcotest.(check (option int)) "_start entered once" (Some 1)
    (Hashtbl.find_opt entries "_start");
  Alcotest.(check (option int)) "touch entered per loop" (Some loop_iters)
    (Hashtbl.find_opt entries "touch")

let test_predicated_analysis () =
  let prog =
    Link.link
      [
        {
          Link.uname = "main";
          main_image = true;
          data = [ { Link.dname = "buf"; init = Zero 16 } ];
          routines =
            [
              {
                Link.rname = "_start";
                body =
                  (let b = Builder.create () in
                   Builder.la b 20 "buf";
                   Builder.ins b (Isa.Li (11, 0));
                   Builder.ins b (Isa.Li (12, 1));
                   Builder.ins b (Isa.Li (10, 5));
                   Builder.ins b
                     (Isa.Store
                        { width = Isa.W8; src = 10; base = 20; off = 0; pred = Some 11 });
                   Builder.ins b
                     (Isa.Store
                        { width = Isa.W8; src = 10; base = 20; off = 8; pred = Some 12 });
                   Builder.ins b (Isa.Li (Isa.reg_a0, 0));
                   Builder.ins b (Isa.Syscall Sysno.exit);
                   b);
              };
            ];
        };
      ]
  in
  let m = Machine.create prog in
  let eng = Engine.create m in
  let fired = ref 0 in
  Engine.add_ins_instrumenter eng (fun v ->
      match Engine.Ins_view.ins v with
      | Isa.Store _ ->
          [ Engine.predicated eng v (fun () -> incr fired) ]
      | _ -> []);
  Engine.run eng;
  Alcotest.(check int) "only true-predicate store analysed" 1 !fired

let test_code_cache_stats () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  Engine.add_ins_instrumenter eng (fun _ -> []);
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check bool) "some traces compiled" true (s.compiled_traces > 0);
  Alcotest.(check bool) "hits happened (loop reuses blocks)" true
    (s.lookups > s.misses);
  Alcotest.(check int) "with cache, misses = distinct traces" s.compiled_traces
    s.misses

let test_no_code_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache:false m in
  Engine.add_ins_instrumenter eng (fun _ -> []);
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check int) "every lookup misses" s.lookups s.misses;
  Alcotest.(check int) "recompiled every time" s.lookups s.compiled_traces

let test_chaining_stats () =
  (* the loop's blocks end in direct transfers, so after the first lap every
     dispatch except the indirect Ret follows a cached trace link *)
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check bool) "steady state follows trace links" true
    (s.chain_hits > 0);
  Alcotest.(check bool) "chain hits are a subset of dispatches" true
    (s.chain_hits <= s.lookups - s.misses);
  Alcotest.(check int) "every compiled instruction is closure-compiled"
    s.compiled_instructions s.closure_instructions

let test_no_closure_compilation_without_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache:false m in
  Engine.run eng;
  let s = Engine.stats eng in
  Alcotest.(check int) "reference path never closure-compiles" 0
    s.closure_instructions;
  Alcotest.(check int) "reference path never chains" 0 s.chain_hits

let test_uninstrumented_equivalence () =
  (* The engine must not perturb architectural results. *)
  let m1 = Machine.create (program ()) in
  Executor.run m1;
  let m2 = Machine.create (program ()) in
  let eng = Engine.create m2 in
  Engine.add_ins_instrumenter eng (fun _v -> [ (fun () -> ()) ]);
  Engine.run eng;
  Alcotest.(check int) "same instruction count" (Machine.instr_count m1)
    (Machine.instr_count m2);
  Alcotest.(check (option int)) "same exit code" (Machine.exit_code m1)
    (Machine.exit_code m2)

let test_instrumenter_registration_frozen () =
  let m = Machine.create (program ()) in
  let eng = Engine.create m in
  Engine.add_ins_instrumenter eng (fun v ->
      if Engine.Ins_view.addr v = 0 then []
      else
        [
          (fun () ->
            (* registering from inside a run must fail *)
            match Engine.add_ins_instrumenter eng (fun _ -> []) with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ());
        ]);
  Engine.run eng

(* ---------- trace instrumentation ---------- *)

(* The per-slot action order: at every executed instruction, the trace
   callbacks' actions for its slot (registration order, then list order),
   then its routine-entry actions, then its instruction actions. *)
let test_trace_action_order ~use_code_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache m in
  let log = ref [] in
  let note tag addr () = log := (tag, addr) :: !log in
  let slot_addrs views = Array.to_list (Array.map Engine.Ins_view.addr views) in
  Engine.add_ins_instrumenter eng (fun v ->
      [ note "ins" (Engine.Ins_view.addr v) ]);
  Engine.add_trace_instrumenter eng (fun views ->
      List.concat
        (List.mapi
           (fun i a -> [ (i, note "t1a" a); (i, note "t1b" a) ])
           (slot_addrs views)));
  Engine.add_rtn_instrumenter eng (fun r -> [ note "rtn" r.Symtab.entry ]);
  Engine.add_trace_instrumenter eng (fun views ->
      (* listed last slot first: the slot, not the list position, places it *)
      List.rev (List.mapi (fun i a -> (i, note "t2" a)) (slot_addrs views)));
  Engine.run eng;
  let log = List.rev !log in
  let entries = Hashtbl.create 4 in
  Symtab.iter
    (fun r -> Hashtbl.replace entries r.Symtab.entry ())
    (Machine.program m).Program.symtab;
  let expected =
    List.concat_map
      (fun (tag, a) ->
        if tag <> "ins" then []
        else
          [ ("t1a", a); ("t1b", a); ("t2", a) ]
          @ (if Hashtbl.mem entries a then [ ("rtn", a) ] else [])
          @ [ ("ins", a) ])
      log
  in
  Alcotest.(check int) "one ins action per retired instruction"
    (Machine.instr_count m)
    (List.length (List.filter (fun (t, _) -> t = "ins") log));
  Alcotest.(check (list (pair string int))) "per-slot action order" expected log

(* The views a trace callback sees are the block as the program holds it:
   consecutive addresses from the block start, [Program.fetch]'s
   instructions, [Symtab.find]'s routines, a control transfer last and only
   last. *)
let test_trace_views ~use_code_cache () =
  let prog = program () in
  let m = Machine.create prog in
  let eng = Engine.create ~use_code_cache m in
  let blocks = ref 0 in
  Engine.add_trace_instrumenter eng (fun views ->
      incr blocks;
      let n = Array.length views in
      let a0 = Engine.Ins_view.addr views.(0) in
      Alcotest.(check int) "block starts at the dispatch address"
        (Machine.ip m) a0;
      Array.iteri
        (fun i v ->
          let a = Engine.Ins_view.addr v in
          Alcotest.(check int) "consecutive addresses"
            (a0 + (i * Isa.ins_bytes))
            a;
          Alcotest.(check bool) "Program.fetch" true
            (Engine.Ins_view.ins v = Program.fetch prog a);
          Alcotest.(check bool) "Symtab.find" true
            (Engine.Ins_view.routine v = Symtab.find prog.Program.symtab a);
          Alcotest.(check bool) "control transfer last" (i = n - 1)
            (Isa.is_control (Engine.Ins_view.ins v)))
        views;
      []);
  Engine.run eng;
  Alcotest.(check bool) "callback saw blocks" true (!blocks > 0)

let test_trace_registration_frozen ~use_code_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache m in
  let refused = ref 0 in
  Engine.add_trace_instrumenter eng (fun _ ->
      [
        ( 0,
          fun () ->
            match Engine.add_trace_instrumenter eng (fun _ -> []) with
            | () -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> incr refused );
      ]);
  Engine.run eng;
  Alcotest.(check bool) "registration refused while running" true
    (!refused > 0)

let test_trace_slot_outside_block ~use_code_cache () =
  let m = Machine.create (program ()) in
  let eng = Engine.create ~use_code_cache m in
  Engine.add_trace_instrumenter eng (fun views ->
      [ (Array.length views, fun () -> ()) ]);
  match Engine.run eng with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let on_both_paths name f =
  List.map
    (fun (path, use_code_cache) ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name path)
        `Quick (f ~use_code_cache))
    [ ("code cache", true); ("reference", false) ]

let suites =
  [
    ( "dbi.engine",
      [
        Alcotest.test_case "instruction counting" `Quick test_instruction_counting;
        Alcotest.test_case "load/store counting" `Quick test_load_store_counting;
        Alcotest.test_case "effective addresses" `Quick test_effective_addresses;
        Alcotest.test_case "rtn instrumentation" `Quick test_rtn_instrumenter;
        Alcotest.test_case "predicated analysis" `Quick test_predicated_analysis;
        Alcotest.test_case "code cache stats" `Quick test_code_cache_stats;
        Alcotest.test_case "no code cache" `Quick test_no_code_cache;
        Alcotest.test_case "trace chaining stats" `Quick test_chaining_stats;
        Alcotest.test_case "no closure compilation without cache" `Quick
          test_no_closure_compilation_without_cache;
        Alcotest.test_case "transparency" `Quick test_uninstrumented_equivalence;
        Alcotest.test_case "frozen registration" `Quick
          test_instrumenter_registration_frozen;
      ]
      @ on_both_paths "trace action order" test_trace_action_order
      @ on_both_paths "trace views" test_trace_views
      @ on_both_paths "frozen trace registration" test_trace_registration_frozen
      @ on_both_paths "trace slot outside its block" test_trace_slot_outside_block
    );
  ]

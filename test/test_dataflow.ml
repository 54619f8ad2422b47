(* The dataflow layer of the static checker: symbolic trip counts,
   stride-classified access patterns, the dataflow-only diagnostics, the
   parametric bandwidth model, and the CLI exit-code contract.

   The differential property is the load-bearing one: for randomized
   constant-bound MiniC loop nests, every statically classified access is
   checked against the effective addresses the instrumented engine actually
   observes, and every constant trip count against the dynamic header
   execution count. *)

open Tq_vm
module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Sc = Tq_staticcheck.Staticcheck
module Cfg = Tq_staticcheck.Cfg
module Rcode = Tq_staticcheck.Rcode
module Dataflow = Tq_staticcheck.Dataflow
module Loopinfo = Tq_staticcheck.Loopinfo
module Access = Tq_staticcheck.Access
module Estimate = Tq_staticcheck.Estimate

let has_class c = List.exists (fun (d : Sc.diagnostic) -> d.Sc.cls = c)

(* failure-message form of an access pattern *)
let show_pattern : Access.pattern -> string = function
  | Scalar -> "scalar"
  | Sequential -> "sequential"
  | Strided k -> Printf.sprintf "strided(%+d)" k
  | Indirect -> "indirect"
  | Unknown why -> "unknown: " ^ why

let compile src = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ]

let rep_of prog name =
  let r = Option.get (Symtab.by_name prog.Program.symtab name) in
  let cfg = Cfg.build (Rcode.of_routine prog r) in
  let li, rep = Access.analyze cfg in
  (r, li, rep)

let loops_by_addr (rep : Access.routine) =
  List.sort
    (fun (a : Access.loop_report) b -> compare a.Access.lr_head_addr b.Access.lr_head_addr)
    rep.Access.loops

(* ---------- trip counts ---------- *)

let test_trip_const () =
  let prog =
    compile
      "int buf[64];\n\
       int kern() { int s; s = 0; for (int i = 0; i < 40; i = i + 3) s = s + \
       buf[i]; return s; }\n\
       int main() { return kern(); }\n"
  in
  let _, _, rep = rep_of prog "kern" in
  match loops_by_addr rep with
  | [ l ] ->
      Alcotest.(check string)
        "ceil(40/3) trips" "14"
        (Loopinfo.trip_to_string l.Access.lr_trip)
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_trip_affine () =
  let prog =
    compile
      "int buf[64];\n\
       int kern(int n) { for (int i = 0; i < n; i = i + 1) buf[i] = i; return \
       0; }\n\
       int main() { return kern(17); }\n"
  in
  let _, _, rep = rep_of prog "kern" in
  match loops_by_addr rep with
  | [ l ] -> (
      match l.Access.lr_trip with
      | Loopinfo.Taffine { num = 1; den = 1; off = 0; _ } -> ()
      | t ->
          Alcotest.failf "expected affine trips in the parameter, got %s"
            (Loopinfo.trip_to_string t))
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let test_trip_nested_and_calls () =
  (* in-loop calls — one of them conditional — must not destroy the
     induction variable: the sp save/restore around each call-argument
     area joins across the cycle (the wfs main-chunk-loop shape) *)
  let prog =
    compile
      "int out[32]; int tr_slot;\n\
       int helper(int x) { tr_slot = x + 1; return 0; }\n\
       int kern() {\n\
      \  for (int i = 0; i < 8; i = i + 1) {\n\
      \    helper(i);\n\
      \    if (i % 2 == 0 && i <= 4) helper(i / 2);\n\
      \    for (int j = 0; j < 4; j = j + 1) out[i * 4 + j] = tr_slot;\n\
      \  }\n\
      \  return out[0]; }\n\
       int main() { return kern(); }\n"
  in
  let _, _, rep = rep_of prog "kern" in
  match loops_by_addr rep with
  | [ outer; inner ] ->
      Alcotest.(check string)
        "outer trips" "8"
        (Loopinfo.trip_to_string outer.Access.lr_trip);
      Alcotest.(check string)
        "inner trips" "4"
        (Loopinfo.trip_to_string inner.Access.lr_trip)
  | ls -> Alcotest.failf "expected 2 loops, got %d" (List.length ls)

let test_trip_unknown_geometric () =
  let prog =
    compile
      "int kern(int n) { int x; x = 1; while (x < n) x = x * 2; return x; }\n\
       int main() { return kern(100); }\n"
  in
  let _, _, rep = rep_of prog "kern" in
  match loops_by_addr rep with
  | [ l ] -> (
      match l.Access.lr_trip with
      | Loopinfo.Tunknown _ -> ()
      | t ->
          Alcotest.failf "geometric loop should be unknown, got %s"
            (Loopinfo.trip_to_string t))
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

(* ---------- access patterns ---------- *)

let patterns_of prog name =
  let _, _, rep = rep_of prog name in
  List.filter_map
    (fun (a : Access.acc) ->
      if a.Access.loop <> None then Some (a.Access.is_store, a.Access.pattern)
      else None)
    rep.Access.accesses

let test_patterns () =
  let prog =
    compile
      "int a[128]; int b[128]; int idx[128]; int g;\n\
       int kern() { int s; s = 0;\n\
      \  for (int i = 0; i < 64; i = i + 1) {\n\
      \    a[i] = s;            \n\
      \    b[2 * i] = i;        \n\
      \    s = s + a[idx[i]];   \n\
      \    s = s + g;           \n\
      \  }\n\
      \  return s; }\n\
       int main() { return kern(); }\n"
  in
  let pats = patterns_of prog "kern" in
  Alcotest.(check bool) "has sequential store" true
    (List.mem (true, Access.Sequential) pats);
  Alcotest.(check bool) "has 16-byte strided store" true
    (List.mem (true, Access.Strided 16) pats);
  Alcotest.(check bool) "has indirect load" true
    (List.mem (false, Access.Indirect) pats);
  Alcotest.(check int) "nothing unclassified" 0
    (List.length
       (List.filter
          (fun (_, q) -> match q with Access.Unknown _ -> true | _ -> false)
          pats))

(* ---------- dataflow diagnostics ---------- *)

let diag_classes src =
  Sc.check_program ~dataflow:true (compile src)

let test_diag_uninit () =
  let ds = diag_classes "int main() { int x; return x; }\n" in
  Alcotest.(check bool) "uninit-local fires" true (has_class Sc.Uninit_local ds)

let test_diag_dead_store () =
  let ds =
    diag_classes "int main() { int x; x = 5; x = 6; return x; }\n"
  in
  Alcotest.(check bool) "dead-store fires" true (has_class Sc.Dead_store ds)

let test_diag_invariant_load () =
  let ds =
    diag_classes
      "int g;\n\
       int main() { int s; s = 0; for (int i = 0; i < 8; i = i + 1) s = s + \
       g; return s; }\n"
  in
  Alcotest.(check bool) "invariant-load fires" true
    (has_class Sc.Invariant_load ds)

let test_diag_clean_stays_clean () =
  (* turning the dataflow layer on must not invent errors or warnings for
     the clean case-study program *)
  let prog = Tq_wfs.Harness.compile Tq_wfs.Scenario.tiny in
  let non_info ds =
    List.length
      (List.filter (fun d -> Sc.severity_of d.Sc.cls <> Sc.Info) ds)
  in
  Alcotest.(check int) "default check clean" 0
    (non_info (Sc.check_program prog));
  Alcotest.(check int) "dataflow check clean" 0
    (non_info (Sc.check_program ~dataflow:true prog))

(* ---------- parametric estimator ---------- *)

let test_estimator_ranks_big_loop () =
  let prog =
    compile
      "int big[4096];\n\
       int kern() { int s; s = 0; for (int i = 0; i < 4096; i = i + 1) s = s \
       + big[i]; return s; }\n\
       int straight() { return big[0] + big[1] + big[2]; }\n\
       int main() { return kern() + straight(); }\n"
  in
  let find rows n =
    List.find (fun (r : Estimate.row) -> r.Estimate.routine.Symtab.name = n) rows
  in
  let rows = Estimate.per_kernel prog in
  let k = find rows "kern" and s = find rows "straight" in
  Alcotest.(check bool) "kern outweighs straight" true
    (Estimate.bytes k > Estimate.bytes s);
  (* the model knows the real trip count: 4096 iterations of a loop
     reading 8 bytes dominates, far beyond the unresolved-loop floor *)
  Alcotest.(check bool) "trip-weighted bytes >= 4096*8" true
    (Estimate.bytes k >= 4096. *. 8.);
  Alcotest.(check int) "trips resolved" 1 k.Estimate.trips_known

(* ---------- CLI exit-code contract ---------- *)

let cli_path () =
  let candidates =
    [
      "../bin/tquad_cli.exe";
      "_build/default/bin/tquad_cli.exe";
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/tquad_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "tquad_cli.exe not built"

let write_tmp ext content =
  let path = Filename.temp_file "tq_dataflow" ext in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (cli_path ()) args)

(* check's own codes, then the program codes every subcommand shares: a
   program that cannot be read or compiled exits 3, two programs exit 2. *)
let test_exit_codes () =
  let clean = write_tmp ".mc" "int main() { return 0; }\n" in
  let seven = write_tmp ".mc" "int main() { return 7; }\n" in
  let diag =
    write_tmp ".mc" "int g[4];\nint main() { int x; return g[9] + x; }\n"
  in
  let garbage = write_tmp ".mc" "int main( {\n" in
  let bad_asm = write_tmp ".s" ".func _start\n  bogus x1\n.endfunc\n" in
  let out = Filename.temp_file "tq_dataflow" ".out" in
  let trc = Filename.temp_file "tq_dataflow" ".trc" in
  Alcotest.(check int) "clean program: 0" 0
    (run_cli (Printf.sprintf "check %s" clean));
  Alcotest.(check int) "unknown flag: 2" 2
    (run_cli (Printf.sprintf "check --no-such-flag %s" clean));
  Alcotest.(check int) "--json with --bandwidth: 2" 2
    (run_cli (Printf.sprintf "check --json --bandwidth %s" clean));
  Alcotest.(check int) "diagnostics: 4" 4
    (run_cli (Printf.sprintf "check --dataflow %s" diag));
  Alcotest.(check int) "record: 0" 0
    (run_cli (Printf.sprintf "record %s -o %s" clean trc));
  Alcotest.(check int) "run, program exits 0: 0" 0 (run_cli ("run " ^ clean));
  Alcotest.(check int) "run, program exits 7: 1" 1 (run_cli ("run " ^ seven));
  let programs =
    [ ("missing file", "/nonexistent/input.mc", 3);
      ("unparseable source", garbage, 3);
      ("bad assembly", bad_asm, 3);
      ("FILE --wfs", clean ^ " --wfs tiny", 2);
      ("--app --wfs", "--app pointer-chase --wfs tiny", 2) ]
  in
  List.iter
    (fun (before, after) ->
      List.iter
        (fun (what, program, code) ->
          Alcotest.(check int)
            (Printf.sprintf "%s, %s: %d" before what code)
            code
            (run_cli (String.concat " " [ before; program; after ])))
        programs)
    [ ("run", ""); ("build", "-o " ^ out); ("disasm", ""); ("gprof", "");
      ("tquad", ""); ("wcet", ""); ("record", "-o " ^ out);
      ("replay " ^ trc, "--tool gprof"); ("check", "") ];
  (* an output the CLI cannot write exits 3: each path's parent is a
     regular file, which fails the open for any user *)
  let unwritable = Filename.concat clean "x" in
  let writer =
    write_tmp ".mc"
      "int main() { int fd; fd = open(\"sub/o.txt\", 1); close(fd); return \
       0; }\n"
  in
  let dir = Filename.temp_dir "tq_dataflow" "" in
  List.iter
    (fun (what, args) ->
      Alcotest.(check int) (what ^ ": 3") 3 (run_cli args))
    [ ("build -o", Printf.sprintf "build %s -o %s" clean unwritable);
      ("quad --dot", Printf.sprintf "quad %s --dot %s" clean unwritable);
      ("tquad --csv", Printf.sprintf "tquad %s --csv %s" clean unwritable);
      ("tquad --trace", Printf.sprintf "tquad %s --trace %s" clean unwritable);
      ("run --metrics", Printf.sprintf "run %s --metrics %s" clean unwritable);
      ( "faultgen -o",
        Printf.sprintf "faultgen %s --mutation bit-flip -o %s" trc unwritable );
      (* the program creates sub/o.txt, and DIR has no sub/ to write it to *)
      ("run --dir write-back", Printf.sprintf "run %s --dir %s" writer dir) ];
  Sys.rmdir dir;
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ clean; seven; diag; garbage; bad_asm; writer; out; trc ]

let test_json_manifest () =
  let clean =
    write_tmp ".mc"
      "int buf[64];\n\
       int main() { for (int i = 0; i < 64; i = i + 1) buf[i] = i; return 0; \
       }\n"
  in
  let out = Filename.temp_file "tq_dataflow" ".json" in
  let rc =
    Sys.command
      (Printf.sprintf "%s check --dataflow --json %s > %s 2>/dev/null"
         (cli_path ()) clean out)
  in
  Alcotest.(check int) "clean --json exits 0" 0 rc;
  let ic = open_in_bin out in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = Tq_obs.Json.of_string raw in
  (match Tq_obs.Manifest.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "manifest invalid: %s" e);
  let check = Option.get (Tq_obs.Json.member "check" doc) in
  Alcotest.(check bool) "dataflow flag set" true
    (Tq_obs.Json.member "dataflow" check = Some (Tq_obs.Json.Int 1));
  (match Tq_obs.Json.member "loops" check with
  | Some loops ->
      Alcotest.(check bool) "one const loop" true
        (Tq_obs.Json.member "const" loops = Some (Tq_obs.Json.Int 1))
  | None -> Alcotest.fail "no loops object");
  List.iter Sys.remove [ clean; out ]

(* ---------- differential: static model vs instrumented execution -------- *)

(* Observe one run: per-address execution counts and, for memory
   instructions, the effective addresses in execution order. *)
let observe prog =
  let m = Machine.create prog in
  let eng = Engine.create m in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let eas : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  Engine.add_ins_instrumenter eng (fun v ->
      let a = Engine.Ins_view.addr v in
      let ins = Engine.Ins_view.ins v in
      let bump () =
        Hashtbl.replace counts a
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts a))
      in
      if Isa.mem_read_bytes ins + Isa.mem_write_bytes ins > 0 then
        let ea () =
          if Isa.mem_write_bytes ins > 0 then Machine.write_ea m ins
          else Machine.read_ea m ins
        in
        [
          bump;
          (fun () ->
            Hashtbl.replace eas a
              (ea () :: Option.value ~default:[] (Hashtbl.find_opt eas a)));
        ]
      else [ bump ]);
  Engine.run ~fuel:10_000_000 eng;
  let count a = Option.value ~default:0 (Hashtbl.find_opt counts a) in
  let ea_trace a =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt eas a))
  in
  (count, ea_trace)

let deltas = function
  | [] | [ _ ] -> []
  | x :: rest -> List.rev (fst (List.fold_left
      (fun (acc, prev) y -> ((y - prev) :: acc, y)) ([], x) rest))

let gen_params =
  QCheck.Gen.(
    map
      (fun ((n, step), (k, c, m)) -> (n, step, k, c, m))
      (pair
         (pair (int_range 0 12) (int_range 1 3))
         (triple (int_range 0 3) (int_range 0 4) (int_range 1 8))))

let src_of (n, step, k, c, m) =
  Printf.sprintf
    "int buf[512]; int out[512];\n\
     int kern() { int s; s = 0;\n\
    \  for (int i = 0; i < %d; i = i + %d) buf[%d * i + %d] = i;\n\
    \  for (int i = 0; i < %d; i = i + 1) { s = s + buf[i]; out[i] = s; }\n\
    \  return s; }\n\
     int main() { return kern(); }\n"
    n step k c m

let expected_trips1 (n, step, _, _, _) = (n + step - 1) / step

(* per-iteration byte advance a pattern promises; None = no promise *)
let promised_delta width = function
  | Access.Scalar -> Some 0
  | Access.Sequential -> Some width
  | Access.Strided k -> Some k
  | Access.Indirect | Access.Unknown _ -> None

let qcheck_static_vs_dynamic =
  QCheck.Test.make ~count:20 ~name:"static trips and strides match execution"
    (QCheck.make
       ~print:(fun (n, s, k, c, m) ->
         Printf.sprintf "N=%d STEP=%d K=%d C=%d M=%d" n s k c m)
       gen_params)
    (fun params ->
      let _, step, k, _, m = params in
      let prog = compile (src_of params) in
      let _, _, rep = rep_of prog "kern" in
      let count, ea_trace = observe prog in
      (match loops_by_addr rep with
      | [ l1; l2 ] ->
          (* constant trip counts, exactly *)
          let trips lr =
            match lr.Access.lr_trip with
            | Loopinfo.Tconst t -> t
            | t ->
                QCheck.Test.fail_reportf "non-constant trips: %s"
                  (Loopinfo.trip_to_string t)
          in
          let t1 = trips l1 and t2 = trips l2 in
          if t1 <> expected_trips1 params then
            QCheck.Test.fail_reportf "loop1 trips %d, expected %d" t1
              (expected_trips1 params);
          if t2 <> m then
            QCheck.Test.fail_reportf "loop2 trips %d, expected %d" t2 m;
          (* the header of a counted loop runs trips+1 times *)
          List.iter
            (fun (lr, t) ->
              let h = Option.get lr.Access.lr_head_addr in
              if count h <> t + 1 then
                QCheck.Test.fail_reportf
                  "header 0x%x executed %d times, trips %d" h (count h) t)
            [ (l1, t1); (l2, t2) ];
          (* the first store of loop1 is the generated strided one *)
          let in_loop1 =
            List.filter (fun (a : Access.acc) -> a.Access.loop <> None) rep.Access.accesses
            |> List.filter (fun (a : Access.acc) ->
                   match a.Access.addr with
                   | Some ad ->
                       ad >= Option.get l1.Access.lr_head_addr
                       && (ad < Option.get l2.Access.lr_head_addr)
                   | None -> false)
          in
          let buf_store =
            List.filter (fun (a : Access.acc) -> a.Access.is_store) in_loop1
            |> List.sort (fun (a : Access.acc) b -> compare a.Access.addr b.Access.addr)
            |> List.hd
          in
          let expect =
            if k = 0 then Access.Scalar
            else if k * step = 1 then Access.Sequential
            else Access.Strided (8 * k * step)
          in
          if buf_store.Access.pattern <> expect then
            QCheck.Test.fail_reportf "buf store classified %s, expected %s"
              (show_pattern buf_store.Access.pattern)
              (show_pattern expect);
          (* every classified in-loop access keeps its address promise *)
          List.iter
            (fun (a : Access.acc) ->
              match
                (a.Access.addr, promised_delta a.Access.width a.Access.pattern)
              with
              | Some ad, Some d ->
                  List.iter
                    (fun got ->
                      if got <> d then
                        QCheck.Test.fail_reportf
                          "access 0x%x (%s): observed delta %d, promised %d"
                          ad
                          (show_pattern a.Access.pattern)
                          got d)
                    (deltas (ea_trace ad))
              | _ -> ())
            (List.filter (fun (a : Access.acc) -> a.Access.loop <> None)
               rep.Access.accesses);
          (* nothing in a constant-bound nest may stay unclassified *)
          List.iter
            (fun (a : Access.acc) ->
              match a.Access.pattern with
              | Access.Unknown why when a.Access.loop <> None ->
                  QCheck.Test.fail_reportf "unclassified in-loop access: %s" why
              | _ -> ())
            rep.Access.accesses
      | ls -> QCheck.Test.fail_reportf "expected 2 loops, got %d" (List.length ls));
      true)

(* ---------- query-order independence ---------- *)

(* Every answer depends only on the routine: on two fresh analyses, each
   store's access and stored value, asked first to last on one and last to
   first on the other, must agree; and the loops found on an analysis that
   has already answered those queries must equal a fresh analysis's. *)
let store_answers df order =
  let code = (Dataflow.cfg df).Cfg.code in
  List.map
    (fun i ->
      match code.Rcode.ins.(i) with
      | Isa.Store { src; _ } ->
          (Dataflow.access df i, Dataflow.value_before df i src)
      | _ -> assert false)
    order

let order_dependent prog =
  let bad = ref [] in
  Symtab.iter
    (fun r ->
      if r.Symtab.size > 0 then begin
        let cfg = Cfg.build (Rcode.of_routine prog r) in
        let code = cfg.Cfg.code in
        let stores =
          List.filter
            (fun i -> match code.Rcode.ins.(i) with Isa.Store _ -> true | _ -> false)
            (List.init (Rcode.n code) Fun.id)
        in
        let asc = store_answers (Dataflow.analyze cfg) stores in
        let df = Dataflow.analyze cfg in
        let desc = List.rev (store_answers df (List.rev stores)) in
        List.iter2
          (fun i (a, b) ->
            if a <> b then
              bad := Printf.sprintf "%s store i%d" r.Symtab.name i :: !bad)
          stores (List.combine asc desc);
        let fresh = Loopinfo.loops (Loopinfo.analyze (Dataflow.analyze cfg)) in
        if Loopinfo.loops (Loopinfo.analyze df) <> fresh then
          bad := Printf.sprintf "%s loops" r.Symtab.name :: !bad
      end)
    prog.Program.symtab;
  List.rev !bad

let test_order_independent () =
  List.iter
    (fun (what, prog) ->
      match order_dependent prog with
      | [] -> ()
      | bad ->
          Alcotest.failf "%s: %d answer(s) depend on query order, e.g. %s" what
            (List.length bad) (List.hd bad))
    [
      ("wfs tiny", Tq_wfs.Harness.compile Tq_wfs.Scenario.tiny);
      ("image-pipeline", Tq_apps.Apps.image_pipeline_program ());
      ("pointer-chase", Tq_apps.Apps.pointer_chase_program ());
    ]

let qcheck_order_independent_nests =
  QCheck.Test.make ~count:20 ~name:"random loop nests: answers ignore query order"
    (QCheck.make
       ~print:(fun (n, s, k, c, m) ->
         Printf.sprintf "N=%d STEP=%d K=%d C=%d M=%d" n s k c m)
       gen_params)
    (fun params ->
      match order_dependent (compile (src_of params)) with
      | [] -> true
      | bad -> QCheck.Test.fail_reportf "order-dependent: %s" (String.concat ", " bad))

(* ---------- integer ALU: constant folds agree with the VM ---------- *)

let binops =
  Isa.
    [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Sll; Srl; Sra;
      Slt; Sltu; Seq; Sne; Sle; Sge; Sgt ]

let gen_alu =
  QCheck.Gen.(
    let word =
      oneof
        [ int_range (-1000) 1000; int;
          oneofl [ min_int; max_int; -16; -1; 0; 1 ] ]
    in
    oneofl binops >>= fun op ->
    word >>= fun a ->
    (match op with
    | Isa.Sll | Isa.Srl | Isa.Sra -> int_range (-70) 130
    | _ -> frequency [ (1, return 0); (3, word) ])
    >|= fun b -> (op, a, b))

(* [li x10, a; li x11, b; op x12, x10, x11]: the value the dataflow layer
   reports for x12 must be the VM's, and must not be a constant when the VM
   traps.  Only [sltu] may stay a symbolic comparison. *)
let qcheck_alu_folds =
  QCheck.Test.make ~count:400 ~name:"dataflow constant folds = VM binops"
    (QCheck.make
       ~print:(fun (op, a, b) ->
         Isa.to_string (Isa.Bin (op, 12, 10, Isa.Reg 11))
         ^ Printf.sprintf " with x10=%d x11=%d" a b)
       gen_alu)
    (fun (op, a, b) ->
      let body =
        [ Isa.Li (10, a); Isa.Li (11, b); Isa.Bin (op, 12, 10, Isa.Reg 11); Isa.Halt ]
      in
      let prog =
        Tq_asm.Link.link
          [ Tq_asm.Asm_parse.parse
              (".func _start\n"
              ^ String.concat "" (List.map (fun i -> "  " ^ Isa.to_string i ^ "\n") body)
              ^ ".endfunc\n") ]
      in
      let r = Option.get (Symtab.by_name prog.Program.symtab "_start") in
      let df = Dataflow.analyze (Cfg.build (Rcode.of_routine prog r)) in
      let folded =
        match Dataflow.value_before df 3 12 with
        | Dataflow.Lin l when Dataflow.lin_is_const l -> Some l.Dataflow.k
        | _ -> None
      in
      let m = Machine.create prog in
      match Executor.run ~fuel:10 m with
      | () -> (
          let vm = Machine.reg m 12 in
          match folded with
          | Some v when v = vm -> true
          | None when op = Isa.Sltu -> true
          | Some v -> QCheck.Test.fail_reportf "folded %d, VM computed %d" v vm
          | None -> QCheck.Test.fail_reportf "not folded, VM computed %d" vm)
      | exception Machine.Trap _ -> (
          match folded with
          | None -> true
          | Some v -> QCheck.Test.fail_reportf "folded %d where the VM traps" v))

let suites =
  [
    ( "dataflow",
      [
        Alcotest.test_case "trips: constant bound, non-unit step" `Quick
          test_trip_const;
        Alcotest.test_case "trips: affine in a parameter" `Quick
          test_trip_affine;
        Alcotest.test_case "trips: nested loop with in-loop calls" `Quick
          test_trip_nested_and_calls;
        Alcotest.test_case "trips: geometric loop stays unknown" `Quick
          test_trip_unknown_geometric;
        Alcotest.test_case "patterns: sequential/strided/indirect" `Quick
          test_patterns;
        Alcotest.test_case "diagnostic: uninit local" `Quick test_diag_uninit;
        Alcotest.test_case "diagnostic: dead store" `Quick test_diag_dead_store;
        Alcotest.test_case "diagnostic: invariant load" `Quick
          test_diag_invariant_load;
        Alcotest.test_case "dataflow adds no errors to wfs" `Quick
          test_diag_clean_stays_clean;
        Alcotest.test_case "estimator: trip-weighted ranking" `Quick
          test_estimator_ranks_big_loop;
        Alcotest.test_case "CLI exit-code contract (0/2/3/4)" `Quick
          test_exit_codes;
        Alcotest.test_case "CLI --json manifest validates" `Quick
          test_json_manifest;
        QCheck_alcotest.to_alcotest qcheck_static_vs_dynamic;
        Alcotest.test_case "answers ignore query order (wfs, apps)" `Quick
          test_order_independent;
        QCheck_alcotest.to_alcotest qcheck_order_independent_nests;
        QCheck_alcotest.to_alcotest qcheck_alu_folds;
      ] );
  ]

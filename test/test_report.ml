open Tq_vm
open Tq_dbi
module R = Tq_report.Report
module Tq = Tq_tquad.Tquad

let pc_src =
  "int src[16]; int dst[16];\n\
   void producer() { for (int i = 0; i < 16; i++) src[i] = i; }\n\
   void consumer() { int s; s = 0; for (int i = 0; i < 16; i++) s += src[i];\n\
  \                  dst[0] = s; }\n\
   int main() { producer(); consumer(); return 0; }"

let engine () =
  let prog = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" pc_src ] in
  Engine.create (Machine.create prog)

let tquad_run () =
  let eng = engine () in
  let t = Tq.attach ~slice_interval:100 eng in
  Engine.run eng;
  t

let test_flat_profile_render () =
  let eng = engine () in
  let g = Tq_gprofsim.Gprofsim.attach ~period:100 eng in
  Engine.run eng;
  let s = R.flat_profile (Tq_gprofsim.Gprofsim.flat_profile g) in
  Alcotest.(check bool) "has header" true
    (Astring_contains.contains s "self ms/call");
  Alcotest.(check bool) "has producer row" true
    (Astring_contains.contains s "producer")

let test_quad_table_render () =
  let eng = engine () in
  let q = Tq_quad.Quad.attach eng in
  Engine.run eng;
  let s = R.quad_table (Tq_quad.Quad.rows q) in
  Alcotest.(check bool) "has UnMA columns" true
    (Astring_contains.contains s "OUT UnMA (incl)");
  Alcotest.(check bool) "thousands separated" true
    (Astring_contains.contains s "128")

let test_instrumented_profile_trends () =
  let fake name pct self calls =
    {
      Tq_gprofsim.Gprofsim.routine =
        { Symtab.id = 0; name; entry = 0; size = 4; image = "x"; is_main_image = true };
      pct_time = pct;
      self_seconds = self;
      calls;
      self_ms_per_call = 0.;
      total_ms_per_call = 0.;
      samples = 0;
    }
  in
  let base = [ fake "a" 50. 0.5 1; fake "b" 30. 0.3 1; fake "c" 20. 0.2 1 ] in
  (* c explodes under instrumentation; a collapses *)
  let adjusted = [ ("a", 0.1); ("b", 0.3); ("c", 0.9) ] in
  let s = R.instrumented_profile ~base ~adjusted in
  (* row order follows base; ranks recomputed *)
  Alcotest.(check bool) "c promoted with ^" true
    (Astring_contains.contains s "| c")
  ;
  (* c moved rank 3 -> 1: ^^ ; a moved 1 -> 3: v or vv *)
  Alcotest.(check bool) "has upward arrow" true (Astring_contains.contains s "^");
  Alcotest.(check bool) "has downward arrow" true (Astring_contains.contains s "v")

let test_phase_table_groups () =
  let t = tquad_run () in
  let s =
    R.phase_table t
      [ ("produce", [ "producer" ]); ("consume", [ "consumer" ]);
        ("ghost", [ "does_not_exist" ]) ]
  in
  Alcotest.(check bool) "producer section" true
    (Astring_contains.contains s "produce");
  Alcotest.(check bool) "consumer section" true
    (Astring_contains.contains s "consume");
  Alcotest.(check bool) "ghost skipped" true
    (not (Astring_contains.contains s "ghost"))

let test_figure_and_csv () =
  let t = tquad_run () in
  let kernels = Tq.kernels t in
  let fig = R.figure t ~metric:Tq.Read_incl ~kernels ~title:"reads" () in
  Alcotest.(check bool) "figure title" true (Astring_contains.contains fig "reads");
  let csv = R.figure_csv t ~metric:Tq.Read_incl ~kernels in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check bool) "csv header has kernels" true
    (Astring_contains.contains (List.hd lines) "producer");
  (* data rows = total slices + header + trailing newline *)
  Alcotest.(check int) "csv rows" (Tq.total_slices t + 2) (List.length lines)

let test_chrome_trace () =
  let t = tquad_run () in
  let json = R.chrome_trace t in
  Alcotest.(check bool) "array brackets" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check bool) "has complete events" true
    (Astring_contains.contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "has producer track" true
    (Astring_contains.contains json "\"name\":\"producer\"");
  Alcotest.(check bool) "has bpi args" true
    (Astring_contains.contains json "\"bpi\":");
  (* crude structural check: balanced braces *)
  let opens = String.fold_left (fun a c -> if c = '{' then a + 1 else a) 0 json in
  let closes = String.fold_left (fun a c -> if c = '}' then a + 1 else a) 0 json in
  Alcotest.(check int) "balanced JSON objects" opens closes

let test_determinism () =
  (* two identical instrumented runs must produce identical reports *)
  let s1 = R.chrome_trace (tquad_run ()) in
  let s2 = R.chrome_trace (tquad_run ()) in
  Alcotest.(check bool) "deterministic profiling" true (s1 = s2)

(* ---------- golden renders ----------

   A hand-built symbol table and a fixed synthetic event stream pin the
   renderers' exact output, independent of the MiniC compiler: any byte-level
   change to [chrome_trace] or [figure_csv] must update these goldens
   deliberately (docs/METRICS.md documents both formats). *)

let golden_tquad () =
  let rtn id name entry =
    { Symtab.id; name; entry; size = 64; image = "app"; is_main_image = true }
  in
  let symtab = Symtab.build [ rtn 0 "alpha" 0x400000; rtn 1 "beta" 0x400040 ] in
  let id name = (Option.get (Symtab.by_name symtab name)).Symtab.id in
  let alpha = id "alpha" and beta = id "beta" in
  let t =
    Tq.create
      { slice_interval = 10; policy = Track_all }
      { Program.code = [||]; entry = 0; data = []; data_end = 0; symtab }
  in
  let open Tq_trace.Event in
  let sp = 0x7eff_0000_0000 in
  (* slice 0: alpha reads 8 global + 8 stack bytes, writes 4; slice 1: beta
     reads 8; slice 2: alpha writes 8 (no reads) *)
  List.iter (Tq.consume t)
    [ Rtn_entry { icount = 0; routine = alpha; sp };
      Load { icount = 2; static = alpha; ea = 0x1000_0000; size = 8; sp };
      Store { icount = 5; static = alpha; ea = 0x1000_0010; size = 4; sp };
      Load { icount = 7; static = alpha; ea = sp; size = 8; sp };
      Rtn_entry { icount = 12; routine = beta; sp = sp - 16 };
      Load { icount = 14; static = beta; ea = 0x1000_0020; size = 8; sp = sp - 16 };
      Ret { icount = 18; sp = sp - 16 };
      Store { icount = 25; static = alpha; ea = 0x1000_0000; size = 8; sp };
      End { icount = 30 } ];
  t

let test_chrome_trace_golden () =
  let t = golden_tquad () in
  let expected =
    "[\n\
     {\"name\":\"alpha\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.010,\"args\":{\"bytes\":20,\"bpi\":2.0000}},\n\
     {\"name\":\"alpha\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.020,\"dur\":0.010,\"args\":{\"bytes\":8,\"bpi\":0.8000}},\n\
     {\"name\":\"beta\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.010,\"dur\":0.010,\"args\":{\"bytes\":8,\"bpi\":0.8000}}\n\
     ]\n"
  in
  Alcotest.(check string) "chrome trace golden" expected (R.chrome_trace t)

let test_figure_csv_golden () =
  let t = golden_tquad () in
  let kernels = Tq.kernels t in
  Alcotest.(check string) "read-inclusive csv golden"
    "slice,alpha,beta\n0,1.600000,0.000000\n1,0.000000,0.800000\n2,0.000000,0.000000\n"
    (R.figure_csv t ~metric:Tq.Read_incl ~kernels);
  (* the stack-area load in slice 0 must vanish from the exclusive series *)
  Alcotest.(check string) "read-exclusive csv golden"
    "slice,alpha,beta\n0,0.800000,0.000000\n1,0.000000,0.800000\n2,0.000000,0.000000\n"
    (R.figure_csv t ~metric:Tq.Read_excl ~kernels)

let test_profile_diff () =
  (* "revise" the program: hoist an invariant computation out of the loop *)
  let before_src =
    "int a[256];\n\
     void work() { for (int r = 0; r < 40; r++) for (int i = 0; i < 256; i++)\n\
     a[i] = a[i] + (r * r * 7) % 13; }\n\
     int main() { work(); return 0; }"
  in
  let after_src =
    "int a[256];\n\
     void work() { for (int r = 0; r < 40; r++) { int k; k = (r * r * 7) % 13;\n\
     for (int i = 0; i < 256; i++) a[i] = a[i] + k; } }\n\
     int main() { work(); return 0; }"
  in
  let profile src =
    let prog = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ] in
    let eng = Engine.create (Machine.create prog) in
    let g = Tq_gprofsim.Gprofsim.attach ~period:200 eng in
    Engine.run eng;
    Tq_gprofsim.Gprofsim.flat_profile g
  in
  let before = profile before_src and after = profile after_src in
  let s = R.profile_diff ~before ~after in
  Alcotest.(check bool) "has work row" true (Astring_contains.contains s "work");
  Alcotest.(check bool) "has delta column" true
    (Astring_contains.contains s "delta");
  (* the revision must show a negative delta for work *)
  let self rows =
    (List.find
       (fun (r : Tq_gprofsim.Gprofsim.row) -> r.routine.Symtab.name = "work")
       rows)
      .Tq_gprofsim.Gprofsim.self_seconds
  in
  Alcotest.(check bool) "revision faster" true (self after < self before);
  (* gone/new markers *)
  let only_before =
    R.profile_diff ~before ~after:(List.filter (fun _ -> false) after)
  in
  Alcotest.(check bool) "gone marker" true
    (Astring_contains.contains only_before "gone")

let suites =
  [
    ( "report",
      [
        Alcotest.test_case "flat profile render" `Quick test_flat_profile_render;
        Alcotest.test_case "quad table render" `Quick test_quad_table_render;
        Alcotest.test_case "trend arrows" `Quick test_instrumented_profile_trends;
        Alcotest.test_case "phase table groups" `Quick test_phase_table_groups;
        Alcotest.test_case "figure + csv" `Quick test_figure_and_csv;
        Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
        Alcotest.test_case "chrome trace golden" `Quick
          test_chrome_trace_golden;
        Alcotest.test_case "figure csv golden" `Quick test_figure_csv_golden;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "profile diff" `Quick test_profile_diff;
      ] );
  ]


open Tq_vm
open Tq_dbi
module Call_stack = Tq_prof.Call_stack

(* ---------- Call_stack unit tests (no engine) ---------- *)

let mk id name main =
  { Symtab.id; name; entry = 4 * id; size = 4; image = "x"; is_main_image = main }

let top cs = Option.map (fun r -> r.Symtab.name) (Call_stack.top cs)

let test_call_stack_basic () =
  let symtab = Symtab.build [ mk 0 "a" true; mk 1 "b" true ] in
  let cs = Call_stack.create symtab Call_stack.Track_all in
  Alcotest.(check (option string)) "empty" None (top cs);
  Call_stack.on_entry cs (mk 0 "a" true) ~sp:1000;
  Call_stack.on_entry cs (mk 1 "b" true) ~sp:900;
  Alcotest.(check (option string)) "top" (Some "b") (top cs);
  (* ret at non-matching sp: no pop (e.g. an untracked frame returning) *)
  Call_stack.on_ret cs ~sp:800;
  Alcotest.(check (option string)) "no pop on mismatch" (Some "b") (top cs);
  Call_stack.on_ret cs ~sp:900;
  Alcotest.(check (option string)) "popped to a" (Some "a") (top cs);
  Call_stack.on_ret cs ~sp:1000;
  Alcotest.(check (option string)) "popped to empty" None (top cs)

let test_call_stack_policy () =
  let app = mk 0 "app" true and libfn = mk 1 "libfn" false in
  let symtab = Symtab.build [ app; libfn; mk 2 "other" true ] in
  (* the kernel a one-byte load in routine [id] is charged to, if any *)
  let attribute cs id =
    let charged = ref None in
    let access () k ~write:_ ~icount:_ ~sp:_ ~ea:_ ~size:_ =
      charged := Some (Symtab.by_id symtab k).Symtab.name
    in
    Call_stack.attribute cs access ()
      (Tq_trace.Event.Load
         { icount = 0; static = id; ea = 0; size = 1; sp = 0 });
    !charged
  in
  let cs = Call_stack.create symtab Call_stack.Main_image_only in
  Alcotest.(check (option string)) "no frame, nothing to charge" None
    (attribute cs 1);
  Call_stack.on_entry cs app ~sp:1000;
  Call_stack.on_entry cs libfn ~sp:900;
  (* library frame not pushed *)
  Alcotest.(check (option string)) "library frame skipped" (Some "app") (top cs);
  (* attribution: library code charged to innermost main frame *)
  Alcotest.(check (option string)) "attribute library to caller" (Some "app")
    (attribute cs 1);
  Alcotest.(check (option string)) "main image attributed to itself"
    (Some "other") (attribute cs 2);
  let cs_all = Call_stack.create symtab Call_stack.Track_all in
  Alcotest.(check (option string)) "track_all uses static" (Some "libfn")
    (attribute cs_all 1)

(* ---------- call graph report ---------- *)

let setup src =
  let prog = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ] in
  Engine.create (Machine.create prog)

let test_call_graph_report () =
  let eng =
    setup
      "int leaf() { return 1; }\n\
       int mid() { return leaf() + leaf(); }\n\
       int main() { return mid() + leaf(); }"
  in
  let g = Tq_gprofsim.Gprofsim.attach ~period:50 eng in
  Engine.run eng;
  let report = Tq_gprofsim.Gprofsim.call_graph_report g in
  Alcotest.(check bool) "has main section" true
    (Astring_contains.contains report "[main]");
  Alcotest.(check bool) "mid called from main" true
    (Astring_contains.contains report "<- main");
  Alcotest.(check bool) "main calls mid" true
    (Astring_contains.contains report "-> mid");
  Alcotest.(check bool) "leaf arc counts" true
    (Astring_contains.contains report "2/3");
  let full = Tq_gprofsim.Gprofsim.call_graph_report ~main_image_only:false g in
  Alcotest.(check bool) "librt _start in full report" true
    (Astring_contains.contains full "[_start]")

(* ---------- instruction mix ---------- *)

let test_ins_mix () =
  let eng =
    setup
      "int a[32];\n\
       int main() { for (int i = 0; i < 32; i++) a[i] = i;\n\
       memcpy((char*) a, (char*) a, 64); float f; f = 1.5 * 2.0; \n\
       return (int) f; }"
  in
  let module M = Tq_prof.Ins_mix in
  let mix = M.attach eng in
  Engine.run eng;
  let m = Engine.machine eng in
  let per = M.per_kernel mix in
  Alcotest.(check bool) "main has per-kernel counts" true
    (List.exists (fun (r, _) -> r.Symtab.name = "main") per);
  (* one category's count over the whole run, summed over the kernels *)
  let total c =
    let i = Option.get (List.find_index (( = ) c) M.categories) in
    List.fold_left (fun acc (_, counts) -> acc + counts.(i)) 0 per
  in
  let all = List.fold_left (fun acc c -> acc + total c) 0 M.categories in
  Alcotest.(check int) "categories partition retired instructions"
    (Machine.instr_count m) all;
  Alcotest.(check int) "exactly one block move" 1 (total M.Block_move);
  Alcotest.(check bool) "loads counted" true (total M.Load > 0);
  Alcotest.(check bool) "float alu counted" true (total M.Float_alu > 0);
  (* the report's overall totals agree with the per-kernel sums *)
  let report = M.render mix in
  Alcotest.(check bool) "render has header" true
    (Astring_contains.contains report
       (Printf.sprintf "instruction mix (%d retired)" all));
  List.iter
    (fun c ->
      if total c > 0 then
        Alcotest.(check bool) (M.category_name c ^ " total rendered") true
          (Astring_contains.contains report
             (Printf.sprintf "  %-10s %10d  " (M.category_name c) (total c))))
    M.categories

let suites =
  [
    ( "prof.extra",
      [
        Alcotest.test_case "call stack basics" `Quick test_call_stack_basic;
        Alcotest.test_case "call stack policy" `Quick test_call_stack_policy;
        Alcotest.test_case "call graph report" `Quick test_call_graph_report;
        Alcotest.test_case "instruction mix" `Quick test_ins_mix;
      ] );
  ]

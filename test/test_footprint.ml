open Tq_vm
open Tq_dbi
module F = Tq_prof.Footprint

let setup src =
  let prog = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ] in
  Engine.create (Machine.create prog)

(* one kernel's footprint in one region, as [rows] lists it *)
let stats f routine region = List.assoc region (List.assoc routine (F.rows f))

let test_regions () =
  let eng =
    setup
      "int g[128];\n\
       int main() { int local[16];\n\
       for (int i = 0; i < 128; i++) g[i] = i;          // data: 1024 B\n\
       for (int i = 0; i < 16; i++) local[i] = i;       // stack\n\
       int* h; h = (int*) malloc(64 * sizeof(int));\n\
       for (int i = 0; i < 64; i++) h[i] = i;           // heap: 512 B\n\
       return g[0] + local[0] + h[0]; }"
  in
  let f = F.attach eng in
  Engine.run eng;
  let main =
    List.find
      (fun r -> r.Symtab.name = "main")
      (List.map fst (F.rows f))
  in
  let data = stats f main F.Data in
  let heap = stats f main F.Heap in
  let stack = stats f main F.Stack in
  (* 1024 B of g[] plus the allocator's 8-byte __rt_heap cell, which
     malloc (library code) touches on behalf of main *)
  Alcotest.(check int) "data footprint = g[] + allocator cell" 1032
    data.F.unique_bytes;
  Alcotest.(check int) "heap footprint = malloc'd block" 512 heap.F.unique_bytes;
  Alcotest.(check bool) "stack footprint covers locals" true
    (stack.F.unique_bytes >= 16 * 8);
  Alcotest.(check bool) "extent covers g[] and the rt cell" true
    (data.F.hi - data.F.lo + 1 >= 1024);
  Alcotest.(check bool) "page counts sane" true
    (data.F.pages >= 1 && data.F.pages <= 2)

let test_block_moves_counted () =
  let eng =
    setup
      "char a[4096]; char b[4096];\n\
       int main() { for (int i = 0; i < 4096; i++) a[i] = i & 255;\n\
       memcpy((char*) b, (char*) a, 4096); return 0; }"
  in
  let f = F.attach eng in
  Engine.run eng;
  let main =
    List.find (fun r -> r.Symtab.name = "main") (List.map fst (F.rows f))
  in
  let data = stats f main F.Data in
  (* both arrays fully touched (8 KiB), through the block move for b *)
  Alcotest.(check int) "both arrays in footprint" 8192 data.F.unique_bytes;
  Alcotest.(check int) "two pages" 2 data.F.pages

let test_kernel_separation () =
  let eng =
    setup
      "int big[2048]; int small[8];\n\
       void heavy() { for (int i = 0; i < 2048; i++) big[i] = i; }\n\
       void light() { for (int i = 0; i < 8; i++) small[i] = i; }\n\
       int main() { heavy(); light(); return 0; }"
  in
  let f = F.attach eng in
  Engine.run eng;
  let rows = F.rows f in
  (* heavy must rank first by unique bytes *)
  (match rows with
  | (r, _) :: _ -> Alcotest.(check string) "heavy first" "heavy" r.Symtab.name
  | [] -> Alcotest.fail "no rows");
  let find name = List.find (fun (r, _) -> r.Symtab.name = name) rows in
  let _, heavy_regions = find "heavy" and _, light_regions = find "light" in
  Alcotest.(check int) "heavy data bytes" (2048 * 8)
    (List.assoc F.Data heavy_regions).F.unique_bytes;
  Alcotest.(check int) "light data bytes" 64
    (List.assoc F.Data light_regions).F.unique_bytes;
  Alcotest.(check bool) "render mentions regions" true
    (Astring_contains.contains (F.render f) "data")

(* [rows] against a per-byte reference: every touched byte classified on its
   own, pages and extents taken from the byte set.  [data_end] is moved to
   four offsets within a 32-bit word so a touched word straddles it; the
   ranges also cross both bounds of the stack region and reach past
   [stack_top], which counts as heap. *)
let test_rows_match_per_byte_reference () =
  let prog =
    Tq_rt.Rt.link
      [ Tq_minic.Driver.compile_unit ~image:"app" "int main() { return 0; }" ]
  in
  let main = Option.get (Symtab.by_name prog.Program.symtab "main") in
  let stack_top = Layout.stack_top in
  let stack_lo = stack_top - 0x1000_0000 in
  let rng = Random.State.make [| 15 |] in
  List.iter
    (fun shift ->
      let data_end = (prog.Program.data_end land lnot 31) + 64 + shift in
      let f = F.create Main_image_only { prog with Program.data_end } in
      let ranges =
        [ (0x1000_0000, 40); (data_end - 5, 12); (data_end + 4000, 300);
          (stack_lo - 7, 20); (stack_lo + 4090, 9); (stack_top - 100, 130);
          (stack_top + (1 lsl 20), 8); ((1 lsl 61) + 3, 70) ]
        @ List.init 200 (fun _ ->
              (data_end - 2048 + Random.State.int rng 8192,
               1 + Random.State.int rng 3))
      in
      let module IS = Set.Make (Int) in
      let bytes = ref IS.empty in
      List.iter
        (fun (ea, size) ->
          F.consume f
            (Tq_trace.Event.Load
               { icount = 0; static = main.Symtab.id; ea; size; sp = 0 });
          for a = ea to ea + size - 1 do
            bytes := IS.add a !bytes
          done)
        ranges;
      let classify a =
        if a >= stack_lo && a < stack_top then F.Stack
        else if a >= data_end then F.Heap
        else F.Data
      in
      let expected =
        List.filter_map
          (fun r ->
            let s = IS.filter (fun a -> classify a = r) !bytes in
            if IS.is_empty s then None
            else
              let pages = IS.map (fun a -> a lsr 12) s in
              Some
                ( r,
                  { F.unique_bytes = IS.cardinal s; pages = IS.cardinal pages;
                    lo = IS.min_elt s; hi = IS.max_elt s } ))
          [ F.Data; F.Heap; F.Stack ]
      in
      let show rs =
        List.map
          (fun (r, s) ->
            Printf.sprintf "%s %d B %d pages 0x%x..0x%x" (F.region_name r)
              s.F.unique_bytes s.F.pages s.F.lo s.F.hi)
          rs
      in
      match F.rows f with
      | [ (r, got) ] ->
          Alcotest.(check string) "one kernel" "main" r.Symtab.name;
          Alcotest.(check (list string))
            (Printf.sprintf "regions, data_end offset %d" shift)
            (show expected) (show got)
      | rows -> Alcotest.failf "expected one kernel, got %d" (List.length rows))
    [ 0; 1; 13; 31 ]

(* the paper's buffer-sizing story on the case study *)
let test_wfs_buffer_sizing () =
  let scen = Tq_wfs.Scenario.tiny in
  let m =
    Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) (Tq_wfs.Harness.compile scen)
  in
  let eng = Engine.create m in
  let f = F.attach eng in
  Engine.run ~fuel:(Tq_wfs.Harness.fuel scen) eng;
  let find name =
    List.find (fun (r, _) -> r.Symtab.name = name) (F.rows f)
  in
  let _, fft = find "fft1d" in
  let _, store = find "wav_store" in
  let data r = (List.assoc F.Data r).F.unique_bytes in
  (* fft1d works on small on-chip-mappable buffers; wav_store touches the
     whole output stream (the paper's contrast) *)
  Alcotest.(check bool) "fft1d buffer is KB-scale" true (data fft < 8 * 1024);
  Alcotest.(check bool) "wav_store footprint is the output stream" true
    (data store > 4 * data fft)

let suites =
  [
    ( "footprint",
      [
        Alcotest.test_case "regions" `Quick test_regions;
        Alcotest.test_case "block moves" `Quick test_block_moves_counted;
        Alcotest.test_case "kernel separation" `Quick test_kernel_separation;
        Alcotest.test_case "wfs buffer sizing" `Quick test_wfs_buffer_sizing;
        Alcotest.test_case "rows = per-byte reference" `Quick
          test_rows_match_per_byte_reference;
      ] );
  ]

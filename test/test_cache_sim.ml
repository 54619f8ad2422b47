open Tq_vm
open Tq_dbi
module Cache = Tq_prof.Cache_sim

let setup src =
  let prog = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ] in
  Engine.create (Machine.create prog)

let test_config_validation () =
  Alcotest.(check bool) "default valid" true (Cache.validate Cache.default_l1 = Ok ());
  let bad c = Cache.validate c <> Ok () in
  Alcotest.(check bool) "bad line" true
    (bad { Cache.size_bytes = 1024; line_bytes = 48; assoc = 2 });
  Alcotest.(check bool) "bad size" true
    (bad { Cache.size_bytes = 1000; line_bytes = 64; assoc = 2 });
  Alcotest.(check bool) "bad assoc" true
    (bad { Cache.size_bytes = 1024; line_bytes = 64; assoc = 0 });
  Alcotest.(check bool) "non-pow2 sets" true
    (bad { Cache.size_bytes = 3 * 64 * 2; line_bytes = 64; assoc = 2 });
  (* line_bytes * assoc would wrap to 0 (a division by zero) or to a
     divisor of the size: refused without forming the product *)
  Alcotest.(check bool) "assoc overflowing line * assoc" true
    (bad { Cache.size_bytes = 32 * 1024; line_bytes = 64; assoc = 1 lsl 58 });
  Alcotest.(check bool) "line above the size" true
    (bad { Cache.size_bytes = 1024; line_bytes = 1 lsl 61; assoc = 2 });
  (* the whole model is allocated up front: the size is capped at 16 MiB *)
  Alcotest.(check bool) "16 MiB valid" true
    (Cache.validate
       { Cache.size_bytes = 16 * 1024 * 1024; line_bytes = 64; assoc = 8 }
    = Ok ());
  Alcotest.(check bool) "32 MiB refused" true
    (bad { Cache.size_bytes = 32 * 1024 * 1024; line_bytes = 64; assoc = 8 });
  Alcotest.(check bool) "max_int refused" true
    (bad { Cache.size_bytes = max_int; line_bytes = 64; assoc = 8 })

(* Sequential streaming through a big array: cold misses only, so the miss
   rate approaches bytes_per_access / line_bytes. *)
let test_streaming_miss_rate () =
  let eng =
    setup
      "float a[16384];\n\
       int main() { float s; s = 0.0; for (int i = 0; i < 16384; i++) \
       s += a[i]; return (int) s; }"
  in
  let c = Cache.attach eng in
  Engine.run eng;
  let rows = Cache.rows c in
  let main =
    List.find (fun r -> r.Cache.routine.Symtab.name = "main") rows
  in
  (* 16384 * 8B sequential reads: one miss per 64B line = 2048 misses from
     the array; everything else (stack) hits *)
  Alcotest.(check bool)
    (Printf.sprintf "array cold misses ~2048 (got %d)" main.Cache.misses)
    true
    (main.Cache.misses >= 2048 && main.Cache.misses < 2048 + 64);
  Alcotest.(check bool) "miss rate well below 10%" true (Cache.miss_rate c < 0.1);
  Alcotest.(check bool) "clean data: no writebacks from reads" true
    (main.Cache.writebacks < 16)

(* Re-walking a small (cache-resident) array must hit after the first pass. *)
let test_temporal_locality () =
  let eng =
    setup
      "float a[512];\n\
       int main() { float s; s = 0.0; for (int r = 0; r < 50; r++) \
       for (int i = 0; i < 512; i++) s += a[i]; return (int) s; }"
  in
  let c = Cache.attach eng in
  Engine.run eng;
  let _, misses = Cache.totals c in
  (* 512 doubles = 4 KiB resident; ~64 cold misses, everything else hits *)
  Alcotest.(check bool)
    (Printf.sprintf "only cold misses (got %d)" misses)
    true (misses < 200)

(* A working set larger than the cache, re-walked: LRU thrashing. *)
let test_capacity_misses () =
  let eng =
    setup
      "float a[8192];\n\
       int main() { float s; s = 0.0; for (int r = 0; r < 4; r++) \
       for (int i = 0; i < 8192; i++) s += a[i]; return (int) s; }"
  in
  let c = Cache.attach eng in
  Engine.run eng;
  let rows = Cache.rows c in
  let main = List.find (fun r -> r.Cache.routine.Symtab.name = "main") rows in
  (* 64 KiB working set in a 32 KiB cache with sequential LRU walks: every
     pass misses every line -> ~4 * 1024 misses *)
  Alcotest.(check bool)
    (Printf.sprintf "thrashing (%d misses >= 4000)" main.Cache.misses)
    true
    (main.Cache.misses >= 4000)

let test_writebacks () =
  let eng =
    setup
      "float a[16384];\n\
       int main() { for (int i = 0; i < 16384; i++) a[i] = 1.0; \
       for (int i = 0; i < 16384; i++) a[i] = 2.0; return 0; }"
  in
  let c = Cache.attach eng in
  Engine.run eng;
  let rows = Cache.rows c in
  let main = List.find (fun r -> r.Cache.routine.Symtab.name = "main") rows in
  (* both write passes stream 128 KiB through a 32 KiB cache: the second
     pass evicts dirty lines from the first -> thousands of writebacks *)
  Alcotest.(check bool)
    (Printf.sprintf "dirty evictions counted (%d)" main.Cache.writebacks)
    true
    (main.Cache.writebacks > 2000);
  Alcotest.(check bool) "mem traffic accounts misses+wb" true
    (main.Cache.mem_bytes = (main.Cache.misses + main.Cache.writebacks) * 64)

let test_render_and_totals () =
  let eng = setup "int main() { int x; x = 1; return x; }" in
  let c = Cache.attach eng in
  Engine.run eng;
  let acc, miss = Cache.totals c in
  Alcotest.(check bool) "accesses counted" true (acc > 0);
  Alcotest.(check bool) "misses bounded" true (miss <= acc);
  Alcotest.(check bool) "render has header" true
    (Astring_contains.contains (Cache.render c) "cache 32 KiB, 8-way")

let test_small_direct_mapped_conflicts () =
  (* 1-way, 2 sets of 64B: alternating lines 0 and 2 map to set 0 and
     conflict on every access *)
  let open Tq_asm in
  let b = Builder.create () in
  Builder.ins b (Tq_isa.Isa.Li (20, Tq_vm.Layout.data_base));
  Builder.ins b (Tq_isa.Isa.Li (10, 40));
  let loop = Builder.fresh_label b in
  let done_ = Builder.fresh_label b in
  Builder.place b loop;
  Builder.bz b 10 done_;
  Builder.ins b
    (Tq_isa.Isa.Load { width = Tq_isa.Isa.W8; dst = 11; base = 20; off = 0; pred = None });
  Builder.ins b
    (Tq_isa.Isa.Load { width = Tq_isa.Isa.W8; dst = 11; base = 20; off = 128; pred = None });
  Builder.ins b (Tq_isa.Isa.Bin (Tq_isa.Isa.Sub, 10, 10, Tq_isa.Isa.Imm 1));
  Builder.jmp b loop;
  Builder.place b done_;
  Builder.ins b (Tq_isa.Isa.Li (Tq_isa.Isa.reg_a0, 0));
  Builder.ins b (Tq_isa.Isa.Syscall Tq_vm.Sysno.exit);
  let prog =
    Link.link
      [ { Link.uname = "t"; main_image = true;
          routines = [ { Link.rname = "_start"; body = b } ];
          data = [ { Link.dname = "buf"; init = Link.Zero 256 } ] } ]
  in
  let eng = Engine.create (Machine.create prog) in
  let c =
    Cache.attach ~geometry:{ Cache.size_bytes = 128; line_bytes = 64; assoc = 1 }
      ~policy:Tq_prof.Call_stack.Track_all eng
  in
  Engine.run eng;
  let _, misses = Cache.totals c in
  (* every one of the 80 loads conflicts (plus call/ret traffic noise) *)
  Alcotest.(check bool)
    (Printf.sprintf "direct-mapped ping-pong (%d misses >= 80)" misses)
    true (misses >= 80)

let suites =
  [
    ( "cache_sim",
      [
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "streaming misses" `Quick test_streaming_miss_rate;
        Alcotest.test_case "temporal locality" `Quick test_temporal_locality;
        Alcotest.test_case "capacity misses" `Quick test_capacity_misses;
        Alcotest.test_case "writebacks" `Quick test_writebacks;
        Alcotest.test_case "render/totals" `Quick test_render_and_totals;
        Alcotest.test_case "direct-mapped conflicts" `Quick
          test_small_direct_mapped_conflicts;
      ] );
  ]

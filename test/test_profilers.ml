open Tq_vm
open Tq_dbi
open Tq_minic

(* ---------- helpers ---------- *)

let setup ?vfs src =
  let prog = Tq_rt.Rt.link [ Driver.compile_unit ~image:"app" src ] in
  let m = Machine.create ?vfs prog in
  Engine.create m

let by_name rows name f =
  match List.find_opt (fun r -> f r = name) rows with
  | Some r -> r
  | None -> Alcotest.fail ("no row for kernel " ^ name)

(* A producer/consumer program with exactly known global traffic:
   producer writes 16*8 bytes into src, consumer reads them and writes 8
   bytes into dst. *)
let pc_src =
  "int src[16]; int dst[16];\n\
   void producer() { for (int i = 0; i < 16; i++) src[i] = i; }\n\
   void consumer() { int s; s = 0; for (int i = 0; i < 16; i++) s += src[i];\n\
  \                  dst[0] = s; }\n\
   int main() { producer(); consumer(); return 0; }"

(* ---------- QUAD ---------- *)

let quad_run ?policy src =
  let eng = setup src in
  let q = Tq_quad.Quad.attach ?policy eng in
  Engine.run eng;
  q

let test_quad_producer_consumer () =
  let q = quad_run pc_src in
  let rows = Tq_quad.Quad.rows q in
  let row name = by_name rows name (fun r -> r.Tq_quad.Quad.routine.Symtab.name) in
  let p = row "producer" and c = row "consumer" in
  (* stack-excluded figures are exact *)
  Alcotest.(check int) "producer writes 128 global bytes (OUT UnMA)" 128
    p.Tq_quad.Quad.out_unma;
  Alcotest.(check int) "producer reads no global bytes" 0 p.Tq_quad.Quad.in_bytes;
  Alcotest.(check int) "producer OUT consumed = 128" 128 p.Tq_quad.Quad.out_bytes;
  Alcotest.(check int) "consumer IN = 128" 128 c.Tq_quad.Quad.in_bytes;
  Alcotest.(check int) "consumer IN UnMA = 128" 128 c.Tq_quad.Quad.in_unma;
  Alcotest.(check int) "consumer OUT UnMA = 8" 8 c.Tq_quad.Quad.out_unma;
  (* stack-included figures must dominate the excluded ones *)
  Alcotest.(check bool) "incl >= excl (IN)" true
    (c.Tq_quad.Quad.in_bytes_incl >= c.Tq_quad.Quad.in_bytes);
  Alcotest.(check bool) "producer has stack traffic" true
    (p.Tq_quad.Quad.in_bytes_incl > 0)

let test_quad_binding () =
  let q = quad_run pc_src in
  let bindings = Tq_quad.Quad.bindings q in
  let b =
    match
      List.find_opt
        (fun b ->
          b.Tq_quad.Quad.producer.Symtab.name = "producer"
          && b.Tq_quad.Quad.consumer.Symtab.name = "consumer")
        bindings
    with
    | Some b -> b
    | None -> Alcotest.fail "missing producer->consumer binding"
  in
  Alcotest.(check int) "binding bytes (excl)" 128 b.Tq_quad.Quad.bytes;
  Alcotest.(check int) "binding UnMA" 128 b.Tq_quad.Quad.unma

let test_quad_self_binding () =
  (* a kernel reading back what it wrote binds to itself *)
  let q =
    quad_run
      "int buf[8];\n\
       int main() { for (int i = 0; i < 8; i++) buf[i] = i;\n\
      \             int s; s = 0; for (int i = 0; i < 8; i++) s += buf[i];\n\
      \             return s; }"
  in
  let b =
    List.find_opt
      (fun b ->
        b.Tq_quad.Quad.producer.Symtab.name = "main"
        && b.Tq_quad.Quad.consumer.Symtab.name = "main")
      (Tq_quad.Quad.bindings q)
  in
  match b with
  | Some b -> Alcotest.(check int) "self binding bytes" 64 b.Tq_quad.Quad.bytes
  | None -> Alcotest.fail "missing self binding"

let memcpy_src =
  "char a[64]; char b[64];\n\
   int main() { for (int i = 0; i < 64; i++) a[i] = i;\n\
  \             memcpy((char*) b, (char*) a, 64); return 0; }"

let test_quad_library_attribution () =
  (* Main_image_only: memcpy's 64 global reads+writes belong to main *)
  let q = quad_run memcpy_src in
  let rows = Tq_quad.Quad.rows q in
  Alcotest.(check bool) "memcpy not listed" true
    (not (List.exists (fun r -> r.Tq_quad.Quad.routine.Symtab.name = "memcpy") rows));
  let m = by_name rows "main" (fun r -> r.Tq_quad.Quad.routine.Symtab.name) in
  Alcotest.(check int) "main reads a[] through memcpy" 64 m.Tq_quad.Quad.in_bytes;
  Alcotest.(check int) "main wrote a and b" 128 m.Tq_quad.Quad.out_unma

let test_quad_track_all () =
  let q = quad_run ~policy:Tq_prof.Call_stack.Track_all memcpy_src in
  let rows = Tq_quad.Quad.rows q in
  let mc = by_name rows "memcpy" (fun r -> r.Tq_quad.Quad.routine.Symtab.name) in
  Alcotest.(check int) "memcpy reads 64 global bytes" 64 mc.Tq_quad.Quad.in_bytes;
  (* the binding main -> memcpy carries the copied data *)
  let b =
    List.find_opt
      (fun b ->
        b.Tq_quad.Quad.producer.Symtab.name = "main"
        && b.Tq_quad.Quad.consumer.Symtab.name = "memcpy")
      (Tq_quad.Quad.bindings q)
  in
  Alcotest.(check bool) "main->memcpy binding exists" true (b <> None)

let test_quad_dot () =
  let q = quad_run pc_src in
  let dot = Tq_quad.Quad.to_dot q in
  Alcotest.(check bool) "dot has digraph" true
    (Astring_contains.contains dot "digraph QDU");
  Alcotest.(check bool) "dot has edge" true
    (Astring_contains.contains dot "\"producer\" -> \"consumer\"");
  Alcotest.(check bool) "shadow pages allocated" true (Tq_quad.Quad.shadow_pages q > 0)

(* A mid-trace pending shard merged into the analyser of the range before it
   must reproduce one sequential analyser's rows and bindings.  The reads of
   the later ranges hit bytes written only in earlier ones: a run that
   crosses 64-byte blocks and a 4 KiB page with a producer change inside, a
   read straddling the stack boundary (the stack run split), two
   consumers on one block, a byte read twice, an address above 2^61, and
   bytes nobody wrote.  The later range also overwrites a byte it already
   read, which must not steal the earlier producer's charge. *)
let test_quad_pending_merge () =
  let module Q = Tq_quad.Quad in
  let routine (id, name, entry) =
    {
      Symtab.id;
      name;
      entry;
      size = 0x100;
      image = "app";
      is_main_image = true;
    }
  in
  let symtab =
    Symtab.build
      (List.map routine
         [ (0, "main", 0x1000); (1, "producer", 0x2000); (2, "c1", 0x3000);
           (3, "c2", 0x4000) ])
  in
  let id name = (Option.get (Symtab.by_name symtab name)).Symtab.id in
  let main = id "main" and prod = id "producer" in
  let c1 = id "c1" and c2 = id "c2" in
  let sp = Layout.stack_top - 0x1_0000 in
  (* the stack boundary of a read made with [sp] is [sp - red_zone] *)
  let edge = sp - Layout.stack_red_zone in
  let big = (1 lsl 61) + 0x37 in
  let load static ea size =
    Tq_trace.Event.Load { icount = 0; static; ea; size; sp }
  and store static ea size =
    Tq_trace.Event.Store { icount = 0; static; ea; size; sp }
  in
  let first =
    [ store prod 0x1000_0FC0 0x80; store main 0x1000_1010 8;
      store prod (edge - 8) 16; store prod big 16; load c1 0x1000_0FC0 8 ]
  and second =
    [ load c1 0x1000_0FB0 0x90; load c2 0x1000_0FD0 16;
      load c1 0x1000_0FC0 8; load c2 (edge - 12) 24; load c1 big 16;
      store c2 0x1000_0FC0 8; load c1 0x1000_0FC0 8;
      load c2 (big + 8) 2 ]
  and third =
    [ load c2 0x1000_1000 0x20; load c1 big 32; store main 0x1000_0FD0 4;
      load c2 0x1000_0FCC 8 ]
  in
  let prog = { Program.code = [||]; entry = 0; data = []; data_end = 0; symtab } in
  let seq = Q.create Main_image_only prog in
  List.iter (Q.consume seq) (first @ second @ third);
  let sh = Option.get Q.shard in
  let shard evs =
    let t =
      sh.seeded Main_image_only prog
        (Tq_prof.Call_stack.create symtab Main_image_only)
    in
    List.iter (Q.consume t) evs;
    t
  in
  let a = shard first and b = shard second and c = shard third in
  let binds t =
    List.map
      (fun (x : Q.binding) ->
        Printf.sprintf "%s->%s %d/%d B, %d UnMA" x.producer.Symtab.name
          x.consumer.Symtab.name x.bytes x.bytes_incl x.unma)
      (Q.bindings t)
  in
  Alcotest.(check bool) "later shard alone misses the producer" false
    (List.exists
       (fun (x : Q.binding) -> x.producer.Symtab.name = "producer")
       (Q.bindings b));
  sh.merge_into a b;
  sh.merge_into a c;
  Alcotest.(check bool) "rows equal the sequential analyser's" true
    (Q.rows a = Q.rows seq);
  Alcotest.(check (list string))
    "bindings equal the sequential analyser's" (binds seq) (binds a);
  (* the straddling read charges its stack bytes to incl only *)
  let pc2 =
    List.find
      (fun (x : Q.binding) ->
        x.producer.Symtab.name = "producer" && x.consumer.Symtab.name = "c2")
      (Q.bindings seq)
  in
  Alcotest.(check bool) "stack bytes split incl from excl" true
    (pc2.bytes_incl > pc2.bytes)

(* ---------- shadow memory: a per-byte model ---------- *)

module Shadow = Tq_quad.Shadow

(* Two shadows [a] and [b] against two tables from address to producer.
   Addresses lie on pages whose indices are 64 apart — they share a slot of
   the translation cache — near [data_base] and on both sides of
   [stack_top]; an offset near 0 lands on either side of a page start, so
   ranges straddle pages. *)
type shadow_op =
  | Set of bool * int * int * int  (** in [b]?, address, length, producer *)
  | Read of bool * int * int  (** in [b]?, address, length *)
  | Merge  (** [merge_into a b] *)

let gen_shadow_ops =
  let open QCheck.Gen in
  let page = Shadow.page_size in
  let stride = (Tq_util.Page_table.slot_mask + 1) * page in
  let addr =
    map3
      (fun anchor j off -> anchor + (j * page) + off)
      (oneofl
         [ Layout.data_base; Layout.data_base + stride;
           Layout.data_base + (3 * stride); Layout.stack_top;
           Layout.stack_top - stride ])
      (int_range (-1) 1)
      (oneof [ int_range (-24) 24; int_bound (page - 1) ])
  in
  let len =
    frequency
      [ (6, int_range 1 16); (3, int_range 1 300); (1, int_range 1 (page + 64)) ]
  in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun (b, a) n p -> Set (b, a, n, p))
            (pair bool addr) len (int_bound 5) );
        (4, map3 (fun b a n -> Read (b, a, n)) bool addr len);
        (1, return Merge);
      ]
  in
  list_size (int_range 1 40) op

let print_shadow_op =
  let side b = if b then "b" else "a" in
  function
  | Set (b, a, n, p) -> Printf.sprintf "set %s 0x%x %d p%d" (side b) a n p
  | Read (b, a, n) -> Printf.sprintf "read %s 0x%x %d" (side b) a n
  | Merge -> "merge"

(* every op keeps both shadows equal to their models: each read byte, and
   the page count (reads allocate nothing) *)
let shadow_agrees ops =
  let a = Shadow.create () and b = Shadow.create () in
  (* a model: producer by address, and the pages written *)
  let model () = (Hashtbl.create 64, Hashtbl.create 8) in
  let ma = model () and mb = model () in
  let pick inb = if inb then (b, mb) else (a, ma) in
  let write (bytes, pages) x p =
    Hashtbl.replace bytes x p;
    Hashtbl.replace pages (x / Shadow.page_size) ()
  in
  let reads_back (t, (bytes, _)) addr len =
    let ok = ref true in
    for x = addr to addr + len - 1 do
      let page = Shadow.page_ro t x in
      let want = Option.value ~default:(-1) (Hashtbl.find_opt bytes x) in
      if page.(x land Shadow.page_mask) <> want then ok := false
    done;
    !ok
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Set (inb, addr, len, p) ->
            let t, m = pick inb in
            Shadow.set_range t addr len p;
            for x = addr to addr + len - 1 do
              write m x p
            done;
            true
        | Read (inb, addr, len) -> reads_back (pick inb) addr len
        | Merge ->
            Shadow.merge_into a b;
            Hashtbl.iter (write ma) (fst mb);
            true
      in
      ok
      && Shadow.page_count a = Hashtbl.length (snd ma)
      && Shadow.page_count b = Hashtbl.length (snd mb))
    ops
  && Hashtbl.fold (fun x _ ok -> ok && reads_back (a, ma) x 1) (fst ma) true
  && Hashtbl.fold (fun x _ ok -> ok && reads_back (b, mb) x 1) (fst mb) true

let qcheck_shadow_model =
  QCheck.Test.make
    ~name:"shadow = per-byte model (set_range, page_ro, merge_into)" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_shadow_op) gen_shadow_ops)
    shadow_agrees

(* A never-written page reads as -1 without allocating; once written it
   reads its producer, and never-written pages still read -1 — also one
   that shares the written page's cache slot. *)
let test_shadow_read_write_read () =
  let base = Layout.data_base and page = Shadow.page_size in
  let alias = base + ((Tq_util.Page_table.slot_mask + 1) * page) in
  let t = Shadow.create () in
  let at addr = (Shadow.page_ro t addr).(addr land Shadow.page_mask) in
  Alcotest.(check int) "unwritten page reads -1" (-1) (at (base + 5));
  Alcotest.(check int) "reading allocates nothing" 0 (Shadow.page_count t);
  Shadow.set_range t (base + 5) 2 3;
  Alcotest.(check int) "written byte" 3 (at (base + 5));
  Alcotest.(check int) "its unwritten neighbour" (-1) (at (base + 7));
  Alcotest.(check int) "aliasing unwritten page" (-1) (at (alias + 5));
  Alcotest.(check int) "fresh shadow" (-1)
    ((Shadow.page_ro (Shadow.create ()) (base + 5)).(5));
  Shadow.set_range t (alias + 5) 1 4;
  Alcotest.(check int) "first page after the aliasing write" 3 (at (base + 5));
  Alcotest.(check int) "the aliasing page" 4 (at (alias + 5));
  Alcotest.(check int) "pages" 2 (Shadow.page_count t)

(* ---------- gprofsim ---------- *)

let gprof_src =
  "int buf[64];\n\
   void busy() { for (int r = 0; r < 200; r++) for (int i = 0; i < 64; i++)\n\
  \   buf[i] = buf[i] + r; }\n\
   void light() { buf[0] = 1; }\n\
   int main() { light(); busy(); light(); busy(); light(); return 0; }"

let gprof_run ?period src =
  let eng = setup src in
  let g = Tq_gprofsim.Gprofsim.attach ?period eng in
  Engine.run eng;
  g

let test_gprof_flat_profile () =
  let g = gprof_run ~period:100 gprof_src in
  let rows = Tq_gprofsim.Gprofsim.flat_profile g in
  (match rows with
  | top :: _ ->
      Alcotest.(check string) "busy ranks first" "busy"
        top.Tq_gprofsim.Gprofsim.routine.Symtab.name;
      Alcotest.(check bool) "busy dominates" true
        (top.Tq_gprofsim.Gprofsim.pct_time > 50.)
  | [] -> Alcotest.fail "empty profile");
  let row name =
    by_name rows name (fun r -> r.Tq_gprofsim.Gprofsim.routine.Symtab.name)
  in
  Alcotest.(check int) "busy called twice" 2 (row "busy").Tq_gprofsim.Gprofsim.calls;
  Alcotest.(check int) "light called thrice" 3 (row "light").Tq_gprofsim.Gprofsim.calls;
  Alcotest.(check int) "main called once" 1 (row "main").Tq_gprofsim.Gprofsim.calls;
  (* main's total includes its children: total/call must exceed self/call *)
  let m = row "main" in
  Alcotest.(check bool) "main total > self" true
    (m.Tq_gprofsim.Gprofsim.total_ms_per_call
    > m.Tq_gprofsim.Gprofsim.self_ms_per_call);
  (* library routines are hidden by default but visible on demand *)
  let all = Tq_gprofsim.Gprofsim.flat_profile ~main_image_only:false g in
  Alcotest.(check bool) "librt _start visible in full profile" true
    (List.exists
       (fun r -> r.Tq_gprofsim.Gprofsim.routine.Symtab.name = "_start")
       all)

let test_gprof_arcs () =
  let g = gprof_run ~period:1000 gprof_src in
  let report = Tq_gprofsim.Gprofsim.call_graph_report ~main_image_only:false g in
  (* the a -> b arc count, read off a's section of the call graph *)
  let count a b =
    let rec section = function
      | [] -> []
      | l :: rest ->
          if String.starts_with ~prefix:("[" ^ a ^ "]") l then rest else section rest
    in
    let rec arc = function
      | [] | "" :: _ -> 0
      | l :: rest -> (
          match Scanf.sscanf l "    -> %s %d%!" (fun n c -> (n, c)) with
          | n, c when n = b -> c
          | _ | (exception _) -> arc rest)
    in
    arc (section (String.split_on_char '\n' report))
  in
  Alcotest.(check int) "main->busy arcs" 2 (count "main" "busy");
  Alcotest.(check int) "main->light arcs" 3 (count "main" "light");
  Alcotest.(check int) "_start->main arc" 1 (count "_start" "main")

let test_gprof_recursion () =
  let g =
    gprof_run ~period:50
      "int work(int n) { int a[16]; for (int i = 0; i < 16; i++) a[i] = n;\n\
      \  if (n <= 1) return a[0]; return work(n - 1) + a[1]; }\n\
       int main() { return work(200); }"
  in
  let rows = Tq_gprofsim.Gprofsim.flat_profile g in
  let w =
    by_name rows "work" (fun r -> r.Tq_gprofsim.Gprofsim.routine.Symtab.name)
  in
  Alcotest.(check int) "recursive calls counted" 200 w.Tq_gprofsim.Gprofsim.calls;
  (* cycle handling: total must be finite and >= self *)
  Alcotest.(check bool) "total finite" true
    (Float.is_finite w.Tq_gprofsim.Gprofsim.total_ms_per_call);
  let all = Tq_gprofsim.Gprofsim.flat_profile ~main_image_only:false g in
  Alcotest.(check bool) "samples recorded" true
    (List.exists (fun r -> r.Tq_gprofsim.Gprofsim.samples > 0) all);
  Alcotest.(check bool) "seconds positive" true
    (List.exists (fun r -> r.Tq_gprofsim.Gprofsim.self_seconds > 0.) all)

(* ---------- tQUAD ---------- *)

let tquad_run ?slice_interval ?policy src =
  let eng = setup src in
  let t = Tq_tquad.Tquad.attach ?slice_interval ?policy eng in
  Engine.run eng;
  t

let find_kernel t name =
  match
    List.find_opt (fun r -> r.Symtab.name = name) (Tq_tquad.Tquad.kernels t)
  with
  | Some r -> r
  | None -> Alcotest.fail ("kernel not observed: " ^ name)

let test_tquad_totals_match_quad () =
  (* same program through both tools: global byte counts must agree *)
  let t = tquad_run ~slice_interval:100 pc_src in
  let q = quad_run pc_src in
  let qrow name =
    by_name (Tq_quad.Quad.rows q) name (fun r ->
        r.Tq_quad.Quad.routine.Symtab.name)
  in
  List.iter
    (fun name ->
      let k = find_kernel t name in
      let tot = Tq_tquad.Tquad.totals t k in
      let qr = qrow name in
      Alcotest.(check int)
        (name ^ ": tquad read_excl = quad IN excl")
        qr.Tq_quad.Quad.in_bytes tot.Tq_tquad.Tquad.read_excl;
      Alcotest.(check int)
        (name ^ ": tquad write_unma-ish: write_excl >= out_unma")
        qr.Tq_quad.Quad.out_unma
        (min tot.Tq_tquad.Tquad.write_excl qr.Tq_quad.Quad.out_unma))
    [ "producer"; "consumer"; "main" ]

let test_tquad_series_sum () =
  let t = tquad_run ~slice_interval:50 pc_src in
  let k = find_kernel t "producer" in
  let tot = Tq_tquad.Tquad.totals t k in
  let sum m =
    Array.fold_left ( + ) 0 (Tq_tquad.Tquad.bytes_series t k m)
  in
  Alcotest.(check int) "series sums to total (read incl)"
    tot.Tq_tquad.Tquad.read_incl (sum Tq_tquad.Tquad.Read_incl);
  Alcotest.(check int) "series sums to total (write excl)"
    tot.Tq_tquad.Tquad.write_excl (sum Tq_tquad.Tquad.Write_excl);
  let bpi = Tq_tquad.Tquad.series t k Tq_tquad.Tquad.Write_excl in
  let raw = Tq_tquad.Tquad.bytes_series t k Tq_tquad.Tquad.Write_excl in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9))
        "bpi = bytes/interval"
        (float_of_int raw.(i) /. 50.)
        v)
    bpi

let test_tquad_interval_invariance () =
  let t1 = tquad_run ~slice_interval:50 pc_src in
  let t2 = tquad_run ~slice_interval:1000 pc_src in
  let total t name =
    (Tq_tquad.Tquad.totals t (find_kernel t name)).Tq_tquad.Tquad.read_incl
  in
  Alcotest.(check int) "totals independent of slice interval"
    (total t1 "consumer") (total t2 "consumer");
  Alcotest.(check bool) "finer interval gives more slices" true
    (Tq_tquad.Tquad.total_slices t1 > Tq_tquad.Tquad.total_slices t2)

let two_phase_src =
  "int a[256]; int b[256];\n\
   void phase_a() { for (int r = 0; r < 60; r++) for (int i = 0; i < 256; i++)\n\
  \  a[i] = a[i] + 1; }\n\
   void phase_b() { for (int r = 0; r < 60; r++) for (int i = 0; i < 256; i++)\n\
  \  b[i] = b[i] + 2; }\n\
   int main() { phase_a(); phase_b(); return 0; }"

let test_tquad_activity_spans () =
  let t = tquad_run ~slice_interval:500 two_phase_src in
  let ka = find_kernel t "phase_a" and kb = find_kernel t "phase_b" in
  let ta = Tq_tquad.Tquad.totals t ka and tb = Tq_tquad.Tquad.totals t kb in
  Alcotest.(check bool) "phase_a starts first" true
    (ta.Tq_tquad.Tquad.first_slice < tb.Tq_tquad.Tquad.first_slice);
  Alcotest.(check bool) "phase_a ends before phase_b ends" true
    (ta.Tq_tquad.Tquad.last_slice < tb.Tq_tquad.Tquad.last_slice);
  Alcotest.(check bool) "disjoint activity" true
    (ta.Tq_tquad.Tquad.last_slice <= tb.Tq_tquad.Tquad.first_slice);
  Alcotest.(check bool) "avg bpi positive" true
    (Tq_tquad.Tquad.avg_bpi t ka Tq_tquad.Tquad.Write_incl > 0.);
  Alcotest.(check bool) "max >= avg" true
    (Tq_tquad.Tquad.max_rw_bpi t ka ~incl:true
    >= Tq_tquad.Tquad.avg_bpi t ka Tq_tquad.Tquad.Write_incl)

let test_tquad_phase_detection () =
  let t = tquad_run ~slice_interval:200 two_phase_src in
  let phases =
    Tq_tquad.Phases.detect ~threshold:0.2 ~window:4 ~gap:1 ~min_len:3 t
  in
  Alcotest.(check bool) "at least 2 phases" true (List.length phases >= 2);
  let has_kernel p name =
    List.exists
      (fun k -> k.Tq_tquad.Phases.routine.Symtab.name = name)
      p.Tq_tquad.Phases.kernels
  in
  let pa =
    List.find_opt
      (fun p -> has_kernel p "phase_a" && not (has_kernel p "phase_b"))
      phases
  in
  let pb =
    List.find_opt
      (fun p -> has_kernel p "phase_b" && not (has_kernel p "phase_a"))
      phases
  in
  Alcotest.(check bool) "a-only phase found" true (pa <> None);
  Alcotest.(check bool) "b-only phase found" true (pb <> None);
  let total_pct =
    List.fold_left (fun acc p -> acc +. p.Tq_tquad.Phases.span_pct) 0. phases
  in
  Alcotest.(check (float 0.5)) "phases cover the run" 100. total_pct;
  (* contiguity *)
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
        a.Tq_tquad.Phases.end_slice + 1 = b.Tq_tquad.Phases.start_slice
        && contiguous rest
    | _ -> true
  in
  Alcotest.(check bool) "phases contiguous" true (contiguous phases);
  Alcotest.(check bool) "render mentions phase 1" true
    (Astring_contains.contains (Tq_tquad.Phases.render phases) "phase 1:")

let test_tquad_library_policy () =
  let t = tquad_run ~slice_interval:100 memcpy_src in
  (* memcpy traffic lands on main *)
  let m = find_kernel t "main" in
  let tot = Tq_tquad.Tquad.totals t m in
  Alcotest.(check bool) "main gets memcpy reads" true
    (tot.Tq_tquad.Tquad.read_excl >= 64);
  Alcotest.(check bool) "memcpy not a kernel" true
    (not
       (List.exists
          (fun r -> r.Symtab.name = "memcpy")
          (Tq_tquad.Tquad.kernels t)));
  let t2 =
    tquad_run ~slice_interval:100 ~policy:Tq_prof.Call_stack.Track_all memcpy_src
  in
  Alcotest.(check bool) "Track_all exposes memcpy" true
    (List.exists
       (fun r -> r.Symtab.name = "memcpy")
       (Tq_tquad.Tquad.kernels t2))

(* prefetch and predication via a hand-assembled program *)
let test_tquad_prefetch_predication () =
  let open Tq_isa in
  let open Tq_asm in
  let b = Builder.create () in
  Builder.la b 20 "buf";
  Builder.ins b (Isa.Prefetch { base = 20; off = 0 });
  Builder.ins b (Isa.Li (10, 7));
  Builder.ins b (Isa.Li (11, 0));
  Builder.ins b (Isa.Li (12, 1));
  (* false predicate: not executed, must not be counted *)
  Builder.ins b
    (Isa.Store { width = Isa.W8; src = 10; base = 20; off = 0; pred = Some 11 });
  (* true predicate: counted *)
  Builder.ins b
    (Isa.Store { width = Isa.W8; src = 10; base = 20; off = 8; pred = Some 12 });
  Builder.ins b (Isa.Li (Isa.reg_a0, 0));
  Builder.ins b (Isa.Syscall Tq_vm.Sysno.exit);
  let prog =
    Link.link
      [
        {
          Link.uname = "app";
          main_image = true;
          routines = [ { Link.rname = "_start"; body = b } ];
          data = [ { Link.dname = "buf"; init = Link.Zero 64 } ];
        };
      ]
  in
  let m = Machine.create prog in
  let eng = Engine.create m in
  let t = Tq_tquad.Tquad.attach ~slice_interval:10 eng in
  Engine.run eng;
  let k = find_kernel t "_start" in
  let tot = Tq_tquad.Tquad.totals t k in
  Alcotest.(check int) "prefetch not counted as read" 0
    tot.Tq_tquad.Tquad.read_incl;
  Alcotest.(check int) "only the true-predicate store counted" 8
    tot.Tq_tquad.Tquad.write_incl

(* ---------- stack split: a per-byte oracle ---------- *)

(* Random loads, stores and block copies (zero-length copies included)
   within a few hundred bytes of either end of the stack area,
   [sp - red_zone] and [stack_top], or of a global page start, fed straight
   to tQUAD and QUAD and checked against a model that classifies and
   charges every byte on its own: tQUAD's incl/excl series per kernel,
   QUAD's rows and bindings.  The global pages share slots of QUAD's
   translation caches: shadow pages 64 apart, and bitset pages (32 KiB)
   64 apart. *)

type access = {
  kind : [ `Load | `Store | `Copy ];
  kernel : int;
  sp : int;
  ea : int;  (** the source of a copy *)
  dst : int;  (** the destination of a copy *)
  size : int;
}

let gen_accesses =
  let open QCheck.Gen in
  let sp =
    oneof
      [
        map (fun r -> Layout.stack_top - r) (int_range 0 400);
        map (fun r -> Layout.stack_top - 0x1_0000 - r) (int_range 0 400);
      ]
  in
  let near sp =
    let shadow_stride = (Tq_util.Page_table.slot_mask + 1) * Shadow.page_size in
    map2
      (fun anchor off -> anchor + off)
      (oneofl
         ([ sp - Layout.stack_red_zone; Layout.stack_top ]
         @ List.map
             (fun k -> Layout.data_base + (k * shadow_stride))
             [ 0; 1; 3; 8 ]))
      (int_range (-300) 300)
  in
  let access =
    sp >>= fun sp ->
    near sp >>= fun ea ->
    near sp >>= fun dst ->
    oneofl [ `Load; `Store; `Copy ] >>= fun kind ->
    int_range 0 3 >>= fun kernel ->
    (match kind with
    | `Copy -> oneof [ return 0; int_range 1 400 ]
    | _ -> oneofl [ 1; 2; 4; 8; 16; 24 ])
    >|= fun size -> { kind; kernel; sp; ea; dst; size }
  in
  list_size (int_range 1 24) access

let print_access a =
  Printf.sprintf "%s k%d sp=top-%d ea=0x%x dst=0x%x size=%d"
    (match a.kind with `Load -> "load" | `Store -> "store" | `Copy -> "copy")
    a.kernel (Layout.stack_top - a.sp) a.ea a.dst a.size

let split_symtab =
  Symtab.build
    (List.init 4 (fun id ->
         { Symtab.id; name = Printf.sprintf "k%d" id; entry = 0x1000 * (id + 1);
           size = 0x100; image = "app"; is_main_image = true }))

let split_interval = 10

(* access [i] retires at icount [3 * i]: several accesses per slice *)
let split_events accs =
  List.concat
    (List.mapi
       (fun i a ->
         let icount = 3 * i and static = a.kernel and sp = a.sp in
         let ea = a.ea and size = a.size in
         match a.kind with
         | `Load -> [ Tq_trace.Event.Load { icount; static; ea; size; sp } ]
         | `Store -> [ Tq_trace.Event.Store { icount; static; ea; size; sp } ]
         | `Copy ->
             [ Tq_trace.Event.Block_copy
                 { icount; static; src = ea; dst = a.dst; len = size; sp } ])
       accs)

(* The model: every byte on its own, with the stack-area predicate written
   out. *)
let model_is_stack ~sp a =
  a >= sp - Layout.stack_red_zone && a < Layout.stack_top

(* tQUAD: per kernel, per slice, read/write incl/excl bytes *)
let tquad_model accs =
  let tbl = Hashtbl.create 8 in
  let max_slice = ref (-1) in
  let add k ~write slice ~sp ea size =
    if size > 0 then begin
      if slice > !max_slice then max_slice := slice;
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
      let row = ref cur in
      for b = ea to ea + size - 1 do
        let stack = model_is_stack ~sp b in
        row := (write, slice, stack) :: !row
      done;
      Hashtbl.replace tbl k !row
    end
  in
  List.iteri
    (fun i a ->
      let slice = 3 * i / split_interval in
      match a.kind with
      | `Load -> add a.kernel ~write:false slice ~sp:a.sp a.ea a.size
      | `Store -> add a.kernel ~write:true slice ~sp:a.sp a.ea a.size
      | `Copy ->
          add a.kernel ~write:false slice ~sp:a.sp a.ea a.size;
          add a.kernel ~write:true slice ~sp:a.sp a.dst a.size)
    accs;
  let n = !max_slice + 1 in
  let series bytes ~write ~incl =
    Array.init n (fun s ->
        List.length
          (List.filter
             (fun (w, sl, stack) -> w = write && sl = s && (incl || not stack))
             bytes))
  in
  Hashtbl.fold
    (fun k bytes acc ->
      ( Printf.sprintf "k%d" k,
        [ series bytes ~write:false ~incl:true;
          series bytes ~write:false ~incl:false;
          series bytes ~write:true ~incl:true;
          series bytes ~write:true ~incl:false ] )
      :: acc)
    tbl []
  |> List.sort compare

let split_prog =
  { Program.code = [||]; entry = 0; data = []; data_end = 0;
    symtab = split_symtab }

let tquad_actual accs =
  let module T = Tq_tquad.Tquad in
  let t =
    T.create
      { T.slice_interval = split_interval; policy = Main_image_only }
      split_prog
  in
  List.iter (T.consume t) (split_events accs);
  List.map
    (fun r ->
      ( r.Symtab.name,
        List.map (T.bytes_series t r)
          [ T.Read_incl; T.Read_excl; T.Write_incl; T.Write_excl ] ))
    (T.kernels t)
  |> List.sort compare

(* QUAD: a per-byte shadow, per-kernel counters and address sets, and
   per-edge byte counts and address sets *)
let quad_model accs =
  let shadow = Hashtbl.create 256 in
  let touched = Array.make 4 false in
  let in_incl = Array.make 4 0 and in_excl = Array.make 4 0 in
  let out_incl = Array.make 4 0 and out_excl = Array.make 4 0 in
  let set () = Hashtbl.create 16 in
  let sets () = Array.init 4 (fun _ -> set ()) in
  let r_incl = sets () and r_excl = sets () in
  let w_incl = sets () and w_excl = sets () in
  let edges = Hashtbl.create 16 in
  let read c ~sp ea size =
    touched.(c) <- true;
    for b = ea to ea + size - 1 do
      let stack = model_is_stack ~sp b in
      in_incl.(c) <- in_incl.(c) + 1;
      Hashtbl.replace r_incl.(c) b ();
      if not stack then begin
        in_excl.(c) <- in_excl.(c) + 1;
        Hashtbl.replace r_excl.(c) b ()
      end;
      match Hashtbl.find_opt shadow b with
      | None -> ()
      | Some p ->
          let incl, excl, addrs =
            match Hashtbl.find_opt edges (p, c) with
            | Some e -> e
            | None -> (0, 0, [])
          in
          out_incl.(p) <- out_incl.(p) + 1;
          if not stack then out_excl.(p) <- out_excl.(p) + 1;
          Hashtbl.replace edges (p, c)
            (incl + 1, (if stack then excl else excl + 1), b :: addrs)
    done
  and write c ~sp ea size =
    touched.(c) <- true;
    for b = ea to ea + size - 1 do
      Hashtbl.replace w_incl.(c) b ();
      if not (model_is_stack ~sp b) then Hashtbl.replace w_excl.(c) b ();
      Hashtbl.replace shadow b c
    done
  in
  List.iter
    (fun a ->
      match a.kind with
      | `Load -> read a.kernel ~sp:a.sp a.ea a.size
      | `Store -> write a.kernel ~sp:a.sp a.ea a.size
      | `Copy ->
          read a.kernel ~sp:a.sp a.ea a.size;
          write a.kernel ~sp:a.sp a.dst a.size)
    accs;
  let rows =
    List.filter_map
      (fun c ->
        if not touched.(c) then None
        else
          Some
            ( Printf.sprintf "k%d" c,
              [ in_excl.(c); Hashtbl.length r_excl.(c);
                out_excl.(c); Hashtbl.length w_excl.(c);
                in_incl.(c); Hashtbl.length r_incl.(c);
                out_incl.(c); Hashtbl.length w_incl.(c) ] ))
      [ 0; 1; 2; 3 ]
  in
  let bindings =
    Hashtbl.fold
      (fun (p, c) (incl, excl, addrs) acc ->
        ( Printf.sprintf "k%d" p, Printf.sprintf "k%d" c, excl, incl,
          List.length (List.sort_uniq compare addrs) )
        :: acc)
      edges []
    |> List.sort compare
  in
  (rows, bindings)

let quad_result q =
  let module Q = Tq_quad.Quad in
  let rows =
    List.map
      (fun (r : Q.krow) ->
        ( r.routine.Symtab.name,
          [ r.in_bytes; r.in_unma; r.out_bytes; r.out_unma; r.in_bytes_incl;
            r.in_unma_incl; r.out_bytes_incl; r.out_unma_incl ] ))
      (Q.rows q)
  in
  let bindings =
    List.map
      (fun (b : Q.binding) ->
        ( b.producer.Symtab.name, b.consumer.Symtab.name, b.bytes,
          b.bytes_incl, b.unma ))
      (Q.bindings q)
    |> List.sort compare
  in
  (rows, bindings)

let quad_actual accs =
  let q = Tq_quad.Quad.create Main_image_only split_prog in
  List.iter (Tq_quad.Quad.consume q) (split_events accs);
  quad_result q

(* the first [cut] accesses in one analyser, the rest in a pending-mode
   shard seeded at the cut, folded back with [merge_into] *)
let quad_two_ranges accs cut =
  let module Q = Tq_quad.Quad in
  let sh = Option.get Q.shard in
  let a = Q.create Main_image_only split_prog in
  let b =
    sh.seeded Main_image_only split_prog
      (Tq_prof.Call_stack.create split_symtab Main_image_only)
  in
  List.iteri
    (fun i ev -> Q.consume (if i < cut then a else b) ev)
    (split_events accs);
  sh.merge_into a b;
  quad_result a

(* one copy whose destination covers the whole stack area: global below
   [sp - red_zone], stack up to [stack_top], global above it *)
let test_stack_split_covering () =
  let top = Layout.stack_top in
  let accs =
    [ { kind = `Copy; kernel = 1; sp = top - 77; ea = top + 37; dst = top - 186;
        size = 346 };
      { kind = `Load; kernel = 2; sp = top - 77; ea = top - 200; size = 400;
        dst = 0 } ]
  in
  Alcotest.(check bool) "tQUAD = per-byte model" true
    (tquad_actual accs = tquad_model accs);
  Alcotest.(check bool) "QUAD = per-byte model" true
    (quad_actual accs = quad_model accs)

let qcheck_stack_split =
  QCheck.Test.make ~name:"stack split = per-byte model (tQUAD, QUAD)" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_access) gen_accesses)
    (fun accs ->
      tquad_actual accs = tquad_model accs
      && quad_actual accs = quad_model accs)

let qcheck_stack_split_two_ranges =
  QCheck.Test.make ~name:"stack split = per-byte model (QUAD in two ranges)"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list print_access) int)
       QCheck.Gen.(pair gen_accesses (int_bound 24)))
    (fun (accs, cut) -> quad_two_ranges accs cut = quad_model accs)

let suites =
  [
    ( "quad",
      [
        Alcotest.test_case "producer/consumer" `Quick test_quad_producer_consumer;
        Alcotest.test_case "binding" `Quick test_quad_binding;
        Alcotest.test_case "self binding" `Quick test_quad_self_binding;
        Alcotest.test_case "library attribution" `Quick
          test_quad_library_attribution;
        Alcotest.test_case "track all" `Quick test_quad_track_all;
        Alcotest.test_case "dot output" `Quick test_quad_dot;
        Alcotest.test_case "pending shard merge = sequential" `Quick
          test_quad_pending_merge;
      ] );
    ( "shadow",
      [
        Alcotest.test_case "read, write, read a page" `Quick
          test_shadow_read_write_read;
        QCheck_alcotest.to_alcotest qcheck_shadow_model;
      ] );
    ( "gprofsim",
      [
        Alcotest.test_case "flat profile" `Quick test_gprof_flat_profile;
        Alcotest.test_case "arcs" `Quick test_gprof_arcs;
        Alcotest.test_case "recursion" `Quick test_gprof_recursion;
      ] );
    ( "tquad",
      [
        Alcotest.test_case "totals match quad" `Quick test_tquad_totals_match_quad;
        Alcotest.test_case "series sum" `Quick test_tquad_series_sum;
        Alcotest.test_case "interval invariance" `Quick
          test_tquad_interval_invariance;
        Alcotest.test_case "activity spans" `Quick test_tquad_activity_spans;
        Alcotest.test_case "phase detection" `Quick test_tquad_phase_detection;
        Alcotest.test_case "library policy" `Quick test_tquad_library_policy;
        Alcotest.test_case "prefetch+predication" `Quick
          test_tquad_prefetch_predication;
      ] );
    ( "stack split",
      [
        Alcotest.test_case "an access covering the whole stack area" `Quick
          test_stack_split_covering;
        QCheck_alcotest.to_alcotest qcheck_stack_split;
        QCheck_alcotest.to_alcotest qcheck_stack_split_two_ranges;
      ] );
  ]

open Tq_vm
module Tq = Tq_tquad.Tquad

let run ?width ?height () =
  let prog = Tq_apps.Apps.image_pipeline_program ?width ?height () in
  let m = Machine.create prog in
  Executor.run ~fuel:100_000_000 m;
  m

let test_runs_and_compresses () =
  let m = run () in
  Alcotest.(check (option int)) "exit 0 (compression achieved)" (Some 0)
    (Machine.exit_code m);
  let out = Machine.stdout_contents m in
  Alcotest.(check bool) "prints checksums" true
    (Astring_contains.contains out "coef=");
  Alcotest.(check bool) "prints sizes" true (Astring_contains.contains out "rle=")

let test_deterministic () =
  let o1 = Machine.stdout_contents (run ()) in
  let o2 = Machine.stdout_contents (run ()) in
  Alcotest.(check string) "deterministic output" o1 o2

let test_dimension_validation () =
  Alcotest.(check bool) "rejects non-multiple-of-8" true
    (try
       ignore (Tq_apps.Apps.image_pipeline_program ~width:60 ());
       false
     with Invalid_argument _ -> true)

let test_size_scaling () =
  (* a 32x32 run must retire fewer instructions than 64x64 *)
  let small = Machine.instr_count (run ~width:32 ~height:32 ()) in
  let big = Machine.instr_count (run ()) in
  Alcotest.(check bool) "scales with image size" true (small * 2 < big)

let test_phase_ordering () =
  let prog = Tq_apps.Apps.image_pipeline_program () in
  let m = Machine.create prog in
  let eng = Tq_dbi.Engine.create m in
  let t = Tq.attach ~slice_interval:5_000 eng in
  Tq_dbi.Engine.run eng;
  let first name =
    match List.find_opt (fun r -> r.Symtab.name = name) (Tq.kernels t) with
    | Some r -> (Tq.totals t r).Tq.first_slice
    | None -> Alcotest.fail ("kernel not observed: " ^ name)
  in
  let last name =
    match List.find_opt (fun r -> r.Symtab.name = name) (Tq.kernels t) with
    | Some r -> (Tq.totals t r).Tq.last_slice
    | None -> -1
  in
  (* pipeline order: generation, then sobel, then transform, then RLE *)
  Alcotest.(check bool) "gen before sobel" true
    (last "gen_image" <= first "sobel" + 1);
  Alcotest.(check bool) "sobel before dct" true
    (last "sobel" <= first "dct_block" + 1);
  Alcotest.(check bool) "dct before rle" true
    (last "dct_block" <= first "rle_encode" + 1);
  (* dct8 dominates the transform phase *)
  let tot = Tq.totals t (List.find (fun r -> r.Symtab.name = "dct8") (Tq.kernels t)) in
  Alcotest.(check bool) "dct8 is the hot kernel" true
    (tot.Tq.activity_span > 0)


(* ---------- pointer chase ---------- *)

let chase_engine ?nodes ?rounds () =
  let prog = Tq_apps.Apps.pointer_chase_program ?nodes ?rounds () in
  Tq_dbi.Engine.create (Machine.create prog)

let test_chase_correctness () =
  let eng = chase_engine () in
  Tq_dbi.Engine.run eng;
  let m = Tq_dbi.Engine.machine eng in
  Alcotest.(check (option int)) "sums agree (exit 0)" (Some 0)
    (Machine.exit_code m);
  Alcotest.(check bool) "prints sums" true
    (Astring_contains.contains (Machine.stdout_contents m) "shuffled=")

let test_chase_locality_contrast () =
  let eng = chase_engine () in
  let cache = Tq_prof.Cache_sim.attach eng in
  Tq_dbi.Engine.run eng;
  let row name =
    List.find
      (fun (r : Tq_prof.Cache_sim.krow) -> r.routine.Symtab.name = name)
      (Tq_prof.Cache_sim.rows cache)
  in
  let seq = row "walk_seq" and rand = row "walk_shuffled" in
  (* same demand accesses (same walk), markedly more misses when shuffled *)
  Alcotest.(check bool) "same order of accesses" true
    (abs (seq.Tq_prof.Cache_sim.accesses - rand.Tq_prof.Cache_sim.accesses) < 16);
  Alcotest.(check bool)
    (Printf.sprintf "shuffled misses (%d) >> sequential (%d)"
       rand.Tq_prof.Cache_sim.misses seq.Tq_prof.Cache_sim.misses)
    true
    (rand.Tq_prof.Cache_sim.misses > 2 * seq.Tq_prof.Cache_sim.misses)

let test_chase_same_bandwidth () =
  (* the platform-independent metric must NOT distinguish the two walks *)
  let eng = chase_engine () in
  let t = Tq_tquad.Tquad.attach ~slice_interval:10_000 eng in
  Tq_dbi.Engine.run eng;
  let tot name =
    let r =
      List.find (fun r -> r.Symtab.name = name) (Tq_tquad.Tquad.kernels t)
    in
    (Tq_tquad.Tquad.totals t r).Tq_tquad.Tquad.read_excl
  in
  let s = tot "walk_seq" and r = tot "walk_shuffled" in
  Alcotest.(check bool)
    (Printf.sprintf "identical global reads (%d vs %d)" s r)
    true
    (abs (s - r) * 100 < s)

(* ---------- multi-pass averaging ---------- *)

let test_multi_pass_average () =
  let prog = Tq_apps.Apps.pointer_chase_program ~nodes:512 ~rounds:2 () in
  let passes =
    List.map
      (fun slice_interval ->
        let eng = Tq_dbi.Engine.create (Machine.create prog) in
        let t = Tq.attach ~slice_interval eng in
        Tq_dbi.Engine.run eng;
        t)
      [ 500; 2_000; 10_000 ]
  in
  let metric = Tq.Read_incl in
  let per_pass =
    List.filter_map
      (fun t ->
        let r =
          List.find (fun r -> r.Symtab.name = "walk_seq") (Tq.kernels t)
        in
        let v = Tq.avg_bpi t r metric in
        if v > 0. then Some v else None)
      passes
  in
  Alcotest.(check int) "walk_seq active in every pass" 3 (List.length per_pass);
  let mean = List.fold_left ( +. ) 0. per_pass /. 3. in
  Alcotest.(check (option (float 1e-12))) "mean of the per-pass averages"
    (Some mean)
    (Tq_tquad.Multi.avg_bpi passes ~kernel:"walk_seq" ~metric);
  let lo = List.fold_left min infinity per_pass
  and hi = List.fold_left max neg_infinity per_pass in
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "(min, max) of the per-pass averages" (Some (lo, hi))
    (Tq_tquad.Multi.spread passes ~kernel:"walk_seq" ~metric);
  Alcotest.(check bool) "slice quantization visible but bounded" true
    (hi <= 3. *. lo);
  Alcotest.(check (option (float 0.))) "unknown kernel" None
    (Tq_tquad.Multi.avg_bpi passes ~kernel:"nope" ~metric);
  Alcotest.(check (option (float 0.))) "no passes" None
    (Tq_tquad.Multi.avg_bpi [] ~kernel:"walk_seq" ~metric)

let suites =
  [
    ( "apps.image_pipeline",
      [
        Alcotest.test_case "runs and compresses" `Quick test_runs_and_compresses;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "dimension validation" `Quick test_dimension_validation;
        Alcotest.test_case "size scaling" `Quick test_size_scaling;
        Alcotest.test_case "phase ordering" `Quick test_phase_ordering;
      ] );
    ( "apps.pointer_chase",
      [
        Alcotest.test_case "correctness" `Quick test_chase_correctness;
        Alcotest.test_case "locality contrast" `Quick test_chase_locality_contrast;
        Alcotest.test_case "same bandwidth" `Quick test_chase_same_bandwidth;
        Alcotest.test_case "multi-pass averaging" `Quick test_multi_pass_average;
      ] );
  ]

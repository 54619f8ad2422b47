(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-IV, Figs. 6-7), measures the instrumentation
   slowdown (Section V-A), runs the design ablations and extensions, and
   the experiments whose numbers CI guards (replay, obs, serve, check).

   Usage:
     bench/main.exe                 run everything
     bench/main.exe table1 ... fig7 overhead ablation
                                    run selected experiments
     bench/main.exe replay --json   replay guards, also written to
                                    BENCH_replay.json
     bench/main.exe --tiny ...      every wfs experiment on the tiny
                                    scenario (CI smoke runs) *)

module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Symtab = Tq_vm.Symtab
module Scenario = Tq_wfs.Scenario
module Harness = Tq_wfs.Harness
module G = Tq_gprofsim.Gprofsim
module Q = Tq_quad.Quad
module Tq = Tq_tquad.Tquad
module Ph = Tq_tquad.Phases
module R = Tq_report.Report

(* --json: experiments that support it also write BENCH_<name>.json so the
   perf trajectory is machine-readable across PRs.  Each file is a run
   manifest (Tq_obs.Manifest, schema-versioned) whose extra top-level
   members are the experiment's own fields — a superset of the pre-manifest
   BENCH_*.json layout, so existing CI guards keep matching.  --tiny runs
   every wfs experiment on the tiny scenario (CI smoke). *)
let json_mode = ref false
let tiny_mode = ref false

let scen () = if !tiny_mode then Scenario.tiny else Scenario.default

module Obs = Tq_obs

(* Per-experiment span recorder / metrics registry; live only under --json.
   The driver re-creates both around each experiment and emits pending
   manifests after the experiment's own span has closed, so every manifest
   carries the full span tree of the experiment that produced it. *)
let obs = ref Obs.Span.disabled
let obs_metrics = ref Obs.Metrics.disabled
let bspan ?attrs name f = Obs.Span.with_span !obs ?attrs name f
let pending_manifests = ref []

let json_emit name fields =
  if !json_mode then pending_manifests := (name, fields) :: !pending_manifests

let flush_manifests () =
  List.iter
    (fun (name, fields) ->
      let path = Printf.sprintf "BENCH_%s.json" name in
      let doc =
        Obs.Manifest.make ~tool:"bench" ~subcommand:name
          ~argv:(Array.to_list Sys.argv)
          ~extra:fields !obs !obs_metrics
      in
      Obs.Manifest.write path doc;
      Printf.printf "  wrote %s\n" path)
    (List.rev !pending_manifests);
  pending_manifests := []

let jstr s = Obs.Json.Str s
let jint i = Obs.Json.Int i
let jfloat f = Obs.Json.Float f
let jbool b = Obs.Json.Bool b

let section title = Printf.printf "\n==== %s ====\n%!" title

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of timing: compact the heap, time [f], keep the result and seconds
   in [cell] if this round beat its best, and return the round's seconds.
   Sub-second wall clocks swing with machine load and GC state, so callers
   run several rounds and time every side once per round, back to back:
   drift hits all sides alike. *)
let keep_fastest cell f =
  Gc.compact ();
  let r, dt = timed f in
  (match !cell with
  | Some (_, best) when best <= dt -> ()
  | _ -> cell := Some (r, dt));
  dt

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

(* ---------- programs and the one runner ---------- *)

type target =
  | Wfs of { scen : Scenario.t; optimize : bool }  (* optimize: -O1 *)
  | Image_pipeline
  | Pointer_chase
  | Minic of string  (* a bench-local MiniC source *)

let wfs ?(optimize = false) ?(scen = scen ()) () = Wfs { scen; optimize }

let program =
  let programs = Hashtbl.create 8 in
  fun target ->
    memo programs target (fun () ->
        match target with
        | Wfs { scen; optimize } -> Harness.compile ~optimize scen
        | Image_pipeline -> Tq_apps.Apps.image_pipeline_program ()
        | Pointer_chase -> Tq_apps.Apps.pointer_chase_program ()
        | Minic src ->
            Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"bench" src ])

let fuel = function
  | Wfs { scen; _ } -> Harness.fuel scen
  | Image_pipeline | Pointer_chase | Minic _ -> 100_000_000

(* a fresh machine; a wfs scenario gets its synthesized input files *)
let machine target =
  let vfs =
    match target with
    | Wfs { scen; _ } -> Some (Harness.make_vfs scen)
    | Image_pipeline | Pointer_chase | Minic _ -> None
  in
  Machine.create ?vfs (program target)

let engine ?use_code_cache target =
  Engine.create ?use_code_cache (machine target)

(* The one way an experiment runs a program under a tool: [attach] hooks the
   tool onto a fresh engine (a tool's own [attach], as the CLI's
   [run_under] does), which runs to the target's fuel.  Returns the tool,
   the engine and the seconds spent in [Engine.run]. *)
type 'a run = { tool : 'a; eng : Engine.t; dt : float }

let run_under ?use_code_cache target attach =
  let eng = engine ?use_code_cache target in
  let tool = attach eng in
  let (), dt = timed (fun () -> Engine.run ~fuel:(fuel target) eng) in
  { tool; eng; dt }

(* ---------- profiler runs shared across experiments ----------

   Each (target, tool, config) runs once per process; the timed best-of
   rounds of replay and obs make their own runs, because repeating them is
   what they measure. *)

let gprof =
  let runs = Hashtbl.create 4 in
  fun ?(target = wfs ()) () ->
    memo runs target (fun () -> run_under target (G.attach ~period:2_000))

let quad =
  let runs = Hashtbl.create 2 in
  fun () ->
    let target = wfs () in
    memo runs target (fun () -> run_under target (fun eng -> Q.attach eng))

let tquad =
  let runs = Hashtbl.create 16 in
  fun ?(use_code_cache = true) ?(target = wfs ()) slice_interval ->
    memo runs (target, use_code_cache, slice_interval) (fun () ->
        run_under ~use_code_cache target (fun eng ->
            Tq.attach ~slice_interval eng))

let total_instr () =
  Machine.instr_count (Engine.machine (gprof ()).eng)

(* [t]'s kernels among the first (or [~last]) N routines by gprof self
   time *)
let ranked_kernels ?(last = false) n t =
  let rows = G.flat_profile (gprof ()).tool in
  let skip = if last then List.length rows - n else 0 in
  let names =
    List.filteri (fun i _ -> i >= skip && i < skip + n) rows
    |> List.map (fun (r : G.row) -> r.routine.Symtab.name)
  in
  List.filter (fun r -> List.mem r.Symtab.name names) (Tq.kernels t)

(* ---------- Table I ---------- *)

let table1 () =
  section "Table I: gprof flat profile of the wfs application";
  let { tool = g; dt; _ } = gprof () in
  Printf.printf "(%s; %s instructions; profiling run %.2fs; period %d instr)\n"
    (Scenario.describe (scen ()))
    (Tq_util.Text_table.int_cell (total_instr ()))
    dt 2_000;
  print_string (R.flat_profile (G.flat_profile g));
  Printf.printf
    "paper shape check: wav_store+fft1d share = %.1f%% (paper: ~60%%), \
     wav_store calls = 1\n"
    (match G.flat_profile g with
    | a :: b :: _ -> a.pct_time +. b.pct_time
    | _ -> 0.)

(* ---------- Table II ---------- *)

let table2 () =
  section "Table II: QUAD producer/consumer data usage (bytes and UnMA)";
  let { tool = q; dt; _ } = quad () in
  Printf.printf "(QUAD run %.2fs; shadow pages %d)\n" dt (Q.shadow_pages q);
  print_string (R.quad_table (Q.rows q));
  let rows = Q.rows q in
  let find name = List.find_opt (fun r -> r.Q.routine.Symtab.name = name) rows in
  (match (find "AudioIo_setFrames", find "zeroRealVec") with
  | Some sf, Some zr ->
      Printf.printf
        "shape checks: AudioIo_setFrames OUT/OUT-UnMA = %.2f (paper: ~1, \
         streaming distinct addresses); zeroRealVec IN incl/excl ratio = %s \
         (paper: > 300)\n"
        (float_of_int sf.Q.out_bytes_incl
        /. float_of_int (max 1 sf.Q.out_unma_incl))
        (if zr.Q.in_bytes = 0 then "inf"
         else
           Printf.sprintf "%.0f"
             (float_of_int zr.Q.in_bytes_incl /. float_of_int zr.Q.in_bytes))
  | _ -> ());
  let bindings = Q.bindings q in
  Printf.printf "\nheaviest producer->consumer bindings:\n";
  List.iteri
    (fun i (b : Q.binding) ->
      if i < 12 then
        Printf.printf "  %-24s -> %-24s %12s B (incl), %10s UnMA\n"
          b.producer.Symtab.name b.consumer.Symtab.name
          (Tq_util.Text_table.int_cell b.bytes_incl)
          (Tq_util.Text_table.int_cell b.unma))
    bindings

(* ---------- Table III ---------- *)

(* The paper profiles the QUAD-instrumented binary with gprof: every
   non-stack memory access pays the analysis-routine cost, so
   memory-streaming kernels rise in rank.  We model that cost as a fixed
   number of instrumentation instructions per global byte traced and
   recompute the flat profile. *)
let instr_cost_per_byte = 25.

let table3 () =
  section
    "Table III: flat profile of the QUAD-instrumented application (cost model)";
  let g = (gprof ()).tool and t = (tquad 2_000).tool in
  let base = G.flat_profile g in
  let adjusted =
    List.map
      (fun (r : G.row) ->
        let name = r.routine.Symtab.name in
        let extra =
          match
            List.find_opt (fun k -> k.Symtab.name = name) (Tq.kernels t)
          with
          | None -> 0.
          | Some k ->
              let tot = Tq.totals t k in
              instr_cost_per_byte
              *. float_of_int (tot.Tq.read_excl + tot.Tq.write_excl)
              /. G.clock_hz
        in
        (name, r.self_seconds +. extra))
      base
  in
  Printf.printf "(model: +%.0f instrumentation instructions per global byte)\n"
    instr_cost_per_byte;
  print_string (R.instrumented_profile ~base ~adjusted);
  Printf.printf
    "paper shape check: AudioIo_setFrames rises (paper: rank 6 -> 3, 4%% -> \
     11%%), bitrev falls (paper: rank 4 -> 11)\n"

(* ---------- Table IV ---------- *)

let wfs_phase_groups =
  [
    ("initialization", [ "ffw"; "ldint" ]);
    ("wave load", [ "wav_load" ]);
    ( "wave propagation",
      [ "vsmult2d"; "calculateGainPQ"; "PrimarySource_deriveTP";
        "PrimarySource_update" ] );
    ( "WFS main processing",
      [ "fft1d"; "DelayLine_processChunk"; "bitrev"; "zeroRealVec";
        "AudioIo_setFrames"; "perm"; "cadd"; "cmult"; "Filter_process";
        "Filter_process_pre_"; "zeroCplxVec"; "r2c"; "c2r"; "AudioIo_getFrames" ] );
    ("wave save", [ "wav_store" ]);
  ]

(* Phase detection over a tQUAD run: the window must span several periods
   of the program's outer loop (wfs: chunks) so per-period kernel rotation
   is not mistaken for a phase change; [floor] bounds it on short runs (the
   paper tables use 16, above [Phases.detect]'s own floor of 8).  The gap is
   the default's, taken from this window. *)
let phases ?(floor = 16) ~threshold t =
  let total = Tq.total_slices t in
  let window = max floor (total / 40) in
  let min_len = max (2 * floor) (total / 20) in
  Ph.detect ~threshold ~window ~min_len t

let table4 () =
  section "Table IV: phases in the execution path (slice = 2000 instr)";
  let { tool = t; dt; _ } = tquad 2_000 in
  Printf.printf "(tQUAD run %.2fs; %d slices total)\n" dt (Tq.total_slices t);
  print_string (R.phase_table t wfs_phase_groups);
  Printf.printf "\nautomatic phase identification (contiguous segments):\n";
  print_string (R.detected_phases (phases ~threshold:0.2 t));
  print_string
    "(the short initialization/load phases fall below the segmentation \
     resolution; the role-based table above recovers them)\n";
  (* the paper's multi-pass methodology: average the B/instr figures over
     several slice granularities, one pass per slice *)
  Printf.printf "\nmulti-pass averages (slices 1000/2000/5000), read incl.:\n";
  let passes = List.map (fun s -> (tquad s).tool) [ 1_000; 2_000; 5_000 ] in
  List.iter
    (fun kernel ->
      match
        ( Tq_tquad.Multi.avg_bpi passes ~kernel ~metric:Tq.Read_incl,
          Tq_tquad.Multi.spread passes ~kernel ~metric:Tq.Read_incl )
      with
      | Some avg, Some (lo, hi) ->
          Printf.printf "  %-24s %.4f B/ins (pass spread %.4f..%.4f)\n" kernel
            avg lo hi
      | _ -> ())
    [ "wav_store"; "fft1d"; "AudioIo_setFrames"; "DelayLine_processChunk" ];
  Printf.printf
    "paper shape check: 5 role phases; wave save spans the second half \
     (paper: 53%%); AudioIo_setFrames max MBW >> all others (paper: >50 vs \
     <=3 B/instr)\n"

(* ---------- Figures ---------- *)

let fig6 () =
  section "Figure 6: read bandwidth (stack incl.), top-10 kernels, 64 slices";
  let interval = max 1 (total_instr () / 64) in
  let t = (tquad interval).tool in
  let kernels = ranked_kernels 10 t in
  print_string
    (R.figure t ~metric:Tq.Read_incl ~kernels
       ~title:
         (Printf.sprintf "per-kernel read B/instr, slice = %d instructions"
            interval)
       ());
  print_string "\nCSV (first rows):\n";
  let csv = R.figure_csv t ~metric:Tq.Read_incl ~kernels in
  String.split_on_char '\n' csv
  |> List.filteri (fun i _ -> i < 4)
  |> List.iter (fun l -> Printf.printf "  %s\n" l)

let fig7 () =
  section "Figure 7: write bandwidth (stack excl.), last-10 kernels, first half";
  let interval = max 1 (total_instr () / 256) in
  let t = (tquad interval).tool in
  let kernels = ranked_kernels ~last:true 10 t in
  print_string
    (R.figure t ~metric:Tq.Write_excl ~kernels
       ~max_slice:(Tq.total_slices t / 2)
       ~title:
         (Printf.sprintf
            "per-kernel write B/instr (stack excl.), slice = %d instructions, \
             second half cut (only wav_store active there)"
            interval)
       ())

(* ---------- instrumentation overhead (Section V-A) ---------- *)

let overhead () =
  section "Instrumentation slowdown (paper Section V-A: 37.2x-68.95x)";
  (* "native" = the reference implementation compiled to host code *)
  let target = wfs () in
  let _, native_dt =
    timed (fun () -> ignore (Tq_wfs.Reference.render (scen ())))
  in
  (* the VM baseline is the engine the instrumented rows run on (closure
     compiled, chained, no tool attached); the fetch/dispatch interpreter
     is its own row.  Every row times execution only, not compilation. *)
  let interp = machine target in
  let (), interp_dt =
    timed (fun () -> Tq_vm.Executor.run ~fuel:(fuel target) interp)
  in
  let vm = run_under target ignore in
  let rows =
    [
      ("native (reference, host code)", native_dt);
      ("interpreter (Executor.run)", interp_dt);
      ("VM uninstrumented (closure engine)", vm.dt);
    ]
    @ List.map
        (fun slice ->
          (Printf.sprintf "VM + tQUAD (slice %d)" slice, (tquad slice).dt))
        [ 100_000; 2_000 ]
    @ [ ("VM + QUAD (byte-granular shadow)", (quad ()).dt) ]
  in
  Printf.printf "%d simulated instructions\n" (Machine.instr_count interp);
  List.iter
    (fun (name, dt) ->
      Printf.printf "  %-36s %8.3fs  %8.1fx native  %6.2fx VM\n" name dt
        (dt /. native_dt) (dt /. vm.dt))
    rows;
  Printf.printf
    "paper analogue: instrumented-vs-native factors; the paper reports \
     37.2x-68.95x for tQUAD on Pin depending on slice and stack options\n"

(* ---------- ablations ---------- *)

let ablation () =
  section "Ablation: code cache (instrumentation cost structure)";
  let on = tquad 100_000 and off = tquad ~use_code_cache:false 100_000 in
  List.iter
    (fun (label, r) ->
      let st = Engine.stats r.eng in
      Printf.printf
        "  cache %-3s: %6.2fs  traces compiled %9d  lookups %9d  misses %9d\n"
        label r.dt st.Engine.compiled_traces st.Engine.lookups st.Engine.misses)
    [ ("on", on); ("off", off) ];
  Printf.printf "  speedup from code cache: %.2fx\n" (off.dt /. on.dt);

  section "Ablation: time-slice interval (detail vs cost; paper 5000..1e8)";
  Printf.printf "  %-10s %10s %10s %14s\n" "slice" "slices" "runtime"
    "wav_store act";
  List.iter
    (fun slice ->
      let { tool = t; dt; _ } = tquad slice in
      let act =
        match
          List.find_opt (fun r -> r.Symtab.name = "wav_store") (Tq.kernels t)
        with
        | Some r -> (Tq.totals t r).Tq.activity_span
        | None -> 0
      in
      Printf.printf "  %-10d %10d %9.2fs %14d\n" slice (Tq.total_slices t) dt
        act)
    [ 1_000; 5_000; 50_000; 500_000; 5_000_000 ];

  section "Ablation: compiler optimization level vs profile shape";
  (* the paper's targets are compiled without aggressive optimization; this
     shows how -O1 (constant folding, strength reduction, dead-load
     removal) shifts the measured profile *)
  let profile_at optimize =
    let r = gprof ~target:(wfs ~optimize ()) () in
    (Machine.instr_count (Engine.machine r.eng), G.flat_profile r.tool)
  in
  let n0, p0 = profile_at false in
  let n1, p1 = profile_at true in
  Printf.printf "  instructions: O0 %s, O1 %s (%.1f%% saved)\n"
    (Tq_util.Text_table.int_cell n0)
    (Tq_util.Text_table.int_cell n1)
    (100. *. (1. -. (float_of_int n1 /. float_of_int n0)));
  let top p =
    p
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (r : G.row) ->
           Printf.sprintf "%s %.1f%%" r.routine.Symtab.name r.pct_time)
    |> String.concat ", "
  in
  Printf.printf "  top-5 at O0: %s\n" (top p0);
  Printf.printf "  top-5 at O1: %s\n" (top p1);

  section "Ablation: phase-detection threshold sweep";
  let t = (tquad 2_000).tool in
  List.iter
    (fun threshold ->
      let phases = phases ~threshold t in
      Printf.printf "  threshold %.2f -> %d phases (spans: %s)\n" threshold
        (List.length phases)
        (String.concat ", "
           (List.map
              (fun p -> Printf.sprintf "%d-%d" p.Ph.start_slice p.Ph.end_slice)
              phases)))
    [ 0.05; 0.15; 0.25; 0.4; 0.6 ]

(* ---------- extension: cache behaviour of the case study ---------------- *)

let cache () =
  section "Extension: per-kernel cache behaviour (vTune-style complement)";
  List.iter
    (fun (label, geometry) ->
      let { tool = c; dt; _ } =
        run_under (wfs ()) (Tq_prof.Cache_sim.attach ~geometry)
      in
      let acc, miss = Tq_prof.Cache_sim.totals c in
      Printf.printf "  %-22s %9d accesses %8d misses (%5.2f%%)  [%.1fs]\n" label
        acc miss
        (100. *. Tq_prof.Cache_sim.miss_rate c)
        dt;
      if geometry == Tq_prof.Cache_sim.default_l1 then begin
        List.iteri
          (fun i (r : Tq_prof.Cache_sim.krow) ->
            if i < 6 then
              Printf.printf "      %-24s %9d misses %10d B to mem\n"
                r.routine.Symtab.name r.misses r.mem_bytes)
          (Tq_prof.Cache_sim.rows c)
      end)
    [
      ("L1 32KiB/8way/64B", Tq_prof.Cache_sim.default_l1);
      ( "small 4KiB/2way/64B",
        { Tq_prof.Cache_sim.size_bytes = 4096; line_bytes = 64; assoc = 2 } );
      ( "large 256KiB/8way/64B",
        { Tq_prof.Cache_sim.size_bytes = 256 * 1024; line_bytes = 64; assoc = 8 } );
    ];
  Printf.printf
    "the bandwidth-heavy kernels of Table IV are also the miss-heavy ones; \
     off-chip traffic = (misses + writebacks) x line\n"

(* ---------- extension: task clustering (the paper's future work) ------- *)

let clustering () =
  section "Extension: kernel clustering for task partitioning (paper Sec. VI)";
  let module C = Tq_cluster.Cluster in
  let q = (quad ()).tool and t = (tquad 2_000).tool in
  let helpers = [ "main"; "w16"; "w32"; "PrimarySource_update" ] in
  let comm = C.of_quad ~exclude:helpers q in
  let temporal = C.of_tquad ~exclude:helpers t in
  let common =
    Array.to_list comm.C.names
    |> List.filter (fun n -> Array.exists (( = ) n) temporal.C.names)
  in
  let comm = C.restrict comm ~keep:common in
  let temporal = C.restrict temporal ~keep:common in
  let show title aff =
    let clusters = C.agglomerate aff ~target:5 in
    Printf.printf "%s (intra-cluster affinity share %.3f):\n%s\n" title
      (C.quality aff clusters) (C.render clusters)
  in
  show "communication affinity (QUAD bindings)" comm;
  show "temporal affinity (tQUAD co-activity)" temporal;
  show "combined (0.6 communication + 0.4 temporal)"
    (C.combine ~alpha:0.6 comm temporal);
  Printf.printf
    "objective (paper): maximize intra-cluster communication while \
     minimizing inter-cluster communication\n"

(* ---------- extension: buffer sizing (footprint) ------------------------ *)

let footprint () =
  section
    "Extension: per-kernel buffer footprint (the paper's on-chip mapping \
     question)";
  let f = (run_under (wfs ()) (fun eng -> Tq_prof.Footprint.attach eng)).tool in
  List.iteri
    (fun i (r, regions) ->
      if i < 10 then begin
        Printf.printf "  %s\n" r.Symtab.name;
        List.iter
          (fun (region, s) ->
            Printf.printf "    %-5s %10s B unique, %5d pages\n"
              (Tq_prof.Footprint.region_name region)
              (Tq_util.Text_table.int_cell s.Tq_prof.Footprint.unique_bytes)
              s.Tq_prof.Footprint.pages)
          regions
      end)
    (Tq_prof.Footprint.rows f);
  Printf.printf
    "paper analogue: fft1d's buffers are KB-scale (mappable on chip, Table \
     II discussion) while wav_store touches the entire output stream\n"

(* ---------- extension: static WCET vs dynamic observation --------------- *)

let wcet () =
  section
    "Extension: static WCET bound vs dynamic measurement (paper Sec. II)";
  (* The paper argues static WCET is over-pessimistic for complex targets,
     motivating dynamic analysis.  We can measure that pessimism directly:
     a sound static bound over the wfs binary vs the observed run. *)
  let tiny = Scenario.tiny in
  let target = wfs ~scen:tiny () in
  let prog = program target in
  let m = machine target in
  Tq_vm.Executor.run ~fuel:(fuel target) m;
  let actual = Machine.instr_count m in
  let generic =
    max
      (tiny.Scenario.chunks * tiny.Scenario.frame * tiny.Scenario.speakers)
      (max (Scenario.input_samples tiny) tiny.Scenario.fft_n)
    + 2
  in
  let bounds name =
    List.map (fun _ -> generic) (Tq_wcet.Wcet.loops prog name)
  in
  (* expert flow facts: per-routine loop bounds in header (source) order,
     derived from the scenario parameters *)
  let n = tiny.Scenario.fft_n and f = tiny.Scenario.frame in
  let s = tiny.Scenario.speakers and c = tiny.Scenario.chunks in
  let taps = tiny.Scenario.taps and dl = tiny.Scenario.delay_len in
  let logn = Tq_wfs.Source.log2i n in
  let input = Scenario.input_samples tiny in
  let total_out = c * f * s in
  let tight name =
    match name with
    | "bitrev" -> [ logn + 1 ]
    | "perm" -> [ n + 1 ]
    | "fft1d" -> [ logn + 1; n + 1; (n / 2) + 1; n + 1 ]
    | "zeroRealVec" -> [ max dl (max f n) + 1 ]
    | "zeroCplxVec" -> [ n + 1 ]
    | "r2c" | "c2r" | "AudioIo_getFrames" -> [ f + 1 ]
    | "vsmult2d" -> [ 3 ]
    | "ldint" -> [ 9; 9 ]
    | "wav_load" -> [ input + 1 ]
    | "ffw" -> [ taps + 1; taps + 1; taps + 1 ]
    | "PrimarySource_update" | "AudioIo_setFrames" -> [ s + 1 ]
    | "Filter_process" -> [ n + 1; f + 1; n - f + 1; f + 1 ]
    | "DelayLine_processChunk" -> [ f + 1; s + 1; f + 1 ]
    | "wav_store" -> [ total_out + 1; (c * f) + 1; s + 1 ]
    | "main" -> [ n + 1; c + 1; n + 1 ]
    | "print_str" | "strlen" -> [ 64 ]
    | "memset" -> [ 1024 ]
    | other -> List.map (fun _ -> generic) (Tq_wcet.Wcet.loops prog other)
  in
  let show label bounds =
    match Tq_wcet.Wcet.analyze prog ~bounds "_start" with
    | bound ->
        Printf.printf "  %-36s %22s instructions  (%.1fx measured)\n" label
          (Tq_util.Text_table.int_cell bound)
          (float_of_int bound /. float_of_int actual)
    | exception Tq_wcet.Wcet.Analysis_error msg ->
        Printf.printf "  %s: analysis error: %s\n" label msg
  in
  Printf.printf "  %-36s %22s instructions\n" "measured run"
    (Tq_util.Text_table.int_cell actual);
  show (Printf.sprintf "naive bound (uniform %d)" generic) bounds;
  show "expert flow facts (tight bounds)" tight;
  Printf.printf
    "the gap is the paper's argument for measurement-based analysis on \
     complex codes: uniform static loop bounds balloon the estimate\n"

(* ---------- extension: a second application (generality) ---------------- *)

let generality () =
  section
    "Extension: second application (image pipeline) — profiler generality";
  let { tool = g, t; eng; _ } =
    run_under Image_pipeline (fun eng ->
        (G.attach ~period:2_000 eng, Tq.attach ~slice_interval:5_000 eng))
  in
  let m = Engine.machine eng in
  print_string (Machine.stdout_contents m);
  Printf.printf "(%s instructions)\n"
    (Tq_util.Text_table.int_cell (Machine.instr_count m));
  print_string (R.flat_profile (G.flat_profile g));
  let phases = phases ~floor:8 ~threshold:0.2 t in
  Printf.printf "automatic phases: %d (%s)\n" (List.length phases)
    (String.concat ", "
       (List.map
          (fun p ->
            let dominant =
              List.fold_left
                (fun acc k ->
                  match acc with
                  | Some (best : Ph.kernel_stats)
                    when best.Ph.activity >= k.Ph.activity ->
                      acc
                  | _ -> Some k)
                None p.Ph.kernels
            in
            match dominant with
            | Some k ->
                Printf.sprintf "%d-%d:%s" p.Ph.start_slice p.Ph.end_slice
                  k.Ph.routine.Symtab.name
            | None -> "empty")
          phases));
  Printf.printf
    "a float-heavy transform phase (dct8) bracketed by integer phases \
     (gen/sobel/rle): a profile shape very unlike wfs, measured by the same \
     tools\n"

(* ---------- record once / replay many (lib/trace) ----------------------- *)

let replay_bench () =
  section
    "Sharded streaming replay: one traced execution drives every tool \
     (chunk-parallel decode, mergeable tool shards)";
  let target = wfs ~scen:Scenario.tiny () in
  let prog = program target and fuel = fuel target in
  (* record once ... *)
  let path = Filename.temp_file "tquad_bench" ".trc" in
  let events, record_dt =
    timed (fun () ->
        bspan "record" (fun () ->
            Tq_trace.Probe.record ~fuel (engine target) ~path))
  in
  (* A fresh reader per timed run: the reader memoizes per-chunk CRC
     verification (verify-at-most-once), so reusing one would let every
     round after the first skip the CRC work being measured. *)
  let fresh_reader () = Tq_trace.Reader.load path in
  let plain_bytes = Tq_trace.Reader.byte_size (fresh_reader ()) in
  Printf.printf "  recorded %s events in %s bytes (%.2fs)\n"
    (Tq_util.Text_table.int_cell events)
    (Tq_util.Text_table.int_cell plain_bytes)
    record_dt;
  (* ... replay every tool from the one trace, through the same job
     registry as the CLI and the daemon *)
  let jobs =
    List.map
      (fun name ->
        Result.get_ok (Tq_report.Toolset.job ~prog ~slice:2_000 ~period:2_000 name))
      Tq_report.Toolset.names
  in
  (* interleaved best-of rounds ([keep_fastest]) over the sequential oracle
     and the sharded pipeline; every round's pair is kept, so a guard that
     fails shows whether the host's noise or the code moved *)
  let seq = ref None and sharded = ref None in
  let stats = ref None in
  let rounds =
    List.init 5 (fun _ ->
        let seq_dt =
          keep_fastest seq (fun () ->
              Tq_trace.Replay.sequential (fresh_reader ()) jobs)
        in
        let sharded_dt =
          keep_fastest sharded (fun () ->
              Tq_trace.Replay.parallel
                ~stats:(fun s -> stats := Some s)
                (fresh_reader ()) jobs)
        in
        (seq_dt, sharded_dt))
  in
  let seq_results, seq_dt = Option.get !seq in
  let results, replay_dt = Option.get !sharded in
  (* CRC cost: each round times [Reader.crc_check] over a fresh reader, and
     a verified one-domain replay of every job.  On one domain every CRC
     byte adds to the wall clock, so the ratio of the medians is the share
     of the replay that verification costs. *)
  let crc_rounds = 15 in
  let crc_dts = Array.make crc_rounds 0. and one_dts = Array.make crc_rounds 0. in
  for i = 0 to crc_rounds - 1 do
    let r = fresh_reader () in
    Gc.compact ();
    crc_dts.(i) <- snd (timed (fun () -> Tq_trace.Reader.crc_check r));
    let r = fresh_reader () in
    Gc.compact ();
    one_dts.(i) <-
      snd (timed (fun () -> Tq_trace.Replay.parallel ~domains:1 r jobs))
  done;
  let median a = Tq_util.Stats.percentile a 50. in
  let crc_dt = median crc_dts and one_domain_dt = median one_dts in
  (* shard-count scaling: same pipeline, fixed shard counts *)
  let shard_table =
    List.map
      (fun shards ->
        let run = ref None in
        for _ = 1 to 2 do
          ignore
            (keep_fastest run (fun () ->
                 Tq_trace.Replay.parallel ~shards (fresh_reader ()) jobs))
        done;
        (shards, snd (Option.get !run)))
      [ 1; 2; 4; 8 ]
  in
  (* v4 redundancy suppression: record overhead, container shrink, and the
     replay effect of decoding each loop body once per repeat chunk *)
  let cpath = Filename.temp_file "tquad_bench" ".trc4" in
  let _, crecord_dt =
    timed (fun () ->
        bspan "record-compress" (fun () ->
            Tq_trace.Probe.record ~fuel ~compress:true (engine target)
              ~path:cpath))
  in
  let cr0 = Tq_trace.Reader.load cpath in
  let comp_bytes = Tq_trace.Reader.byte_size cr0 in
  let byte_ratio = float_of_int plain_bytes /. float_of_int comp_bytes in
  let event_ratio =
    float_of_int (Tq_trace.Reader.n_events cr0)
    /. float_of_int (max 1 (Tq_trace.Reader.stored_events cr0))
  in
  (* the sequential oracle expands every repeat; the two-shard pipeline
     hands each record to the tools, which take it whole (in closed form
     or by walking it) *)
  let cseq = ref None and cpar = ref None in
  for _ = 1 to 3 do
    ignore
      (keep_fastest cseq (fun () ->
           Tq_trace.Replay.sequential (Tq_trace.Reader.load cpath) jobs));
    ignore
      (keep_fastest cpar (fun () ->
           Tq_trace.Replay.parallel ~shards:2 (Tq_trace.Reader.load cpath)
             jobs))
  done;
  let cseq_results, cseq_dt = Option.get !cseq in
  let cpar_results, cpar_dt = Option.get !cpar in
  Sys.remove cpath;
  Sys.remove path;
  let report results name =
    match List.assoc_opt name results with Some (Ok r) -> Some r | _ -> None
  in
  (* the exactness bar: every job's report present and byte-identical to
     the sequential oracle's *)
  let matches_oracle results =
    List.for_all
      (fun (j : Tq_trace.Replay.job) ->
        let r = report results j.name in
        r <> None && r = report seq_results j.name)
      jobs
  in
  let all_identical = matches_oracle results in
  let compress_identical =
    matches_oracle cseq_results && matches_oracle cpar_results
  in
  let domains_used, shards_used =
    match !stats with
    | Some s -> (s.Tq_trace.Replay.rs_domains, s.rs_shards)
    | None -> (1, 1)
  in
  Printf.printf "  sequential oracle (one decode pass per tool): %.3fs\n" seq_dt;
  Printf.printf
    "  sharded replay of %d tools (%d domain(s), %d shard(s)): %.3fs (%.2fx \
     vs sequential)\n"
    (List.length jobs) domains_used shards_used replay_dt (seq_dt /. replay_dt);
  Printf.printf "  rounds, sequential/sharded s: %s\n"
    (String.concat "  "
       (List.map (fun (s, p) -> Printf.sprintf "%.3f/%.3f" s p) rounds));
  Printf.printf "  sharded reports byte-identical to sequential oracle: %b\n"
    all_identical;
  let crc_overhead_pct = crc_dt /. one_domain_dt *. 100. in
  Printf.printf
    "  CRC verification: median of %d, crc_check %.4fs vs one-domain \
     verified replay %.3fs (%.2f%% of the replay)\n"
    crc_rounds crc_dt one_domain_dt crc_overhead_pct;
  List.iter
    (fun (shards, dt) ->
      Printf.printf "  shards=%d: %.3fs (%.2fx vs sequential)\n" shards dt
        (seq_dt /. dt))
    shard_table;
  Printf.printf
    "  compression (record --compress): %s -> %s bytes (%.2fx smaller, \
     %.2fx fewer stored events)\n"
    (Tq_util.Text_table.int_cell plain_bytes)
    (Tq_util.Text_table.int_cell comp_bytes)
    byte_ratio event_ratio;
  Printf.printf
    "  compressed record %.2fs (plain %.2fs); sequential replay %.3fs \
     compressed vs %.3fs plain (%.2fx)\n"
    crecord_dt record_dt cseq_dt seq_dt (seq_dt /. cseq_dt);
  Printf.printf "  compressed two-shard replay %.3fs\n" cpar_dt;
  Printf.printf
    "  compressed replay reports (sequential and two-shard) byte-identical: \
     %b\n"
    compress_identical;
  json_emit "replay"
    [
      ("events", jint events);
      ("record_s", jfloat record_dt);
      ("replay_sequential_s", jfloat seq_dt);
      ("replay_verified_s", jfloat replay_dt);
      ("crc_check_s", jfloat crc_dt);
      ("replay_one_domain_s", jfloat one_domain_dt);
      ("crc_overhead_pct", jfloat crc_overhead_pct);
      ("sharded_vs_sequential", jfloat (seq_dt /. replay_dt));
      ( "rounds",
        Obs.Json.List
          (List.map
             (fun (s, p) ->
               Obs.Json.Obj
                 [ ("sequential_s", jfloat s); ("sharded_s", jfloat p) ])
             rounds) );
      ("domains_used", jint domains_used);
      ("shards_used", jint shards_used);
      ( "shard_table",
        Obs.Json.List
          (List.map
             (fun (shards, dt) ->
               Obs.Json.Obj
                 [ ("shards", jint shards);
                   ("wall_s", jfloat dt);
                   ("speedup_vs_sequential", jfloat (seq_dt /. dt)) ])
             shard_table) );
      ("all_identical", jbool all_identical);
      ("compress_record_s", jfloat crecord_dt);
      ("compress_bytes", jint comp_bytes);
      ("plain_bytes", jint plain_bytes);
      ("compress_byte_ratio", jfloat byte_ratio);
      ("compress_event_ratio", jfloat event_ratio);
      ("compress_replay_sequential_s", jfloat cseq_dt);
      ("compress_replay_parallel_s", jfloat cpar_dt);
      ("compress_replay_speedup", jfloat (seq_dt /. cseq_dt));
      ("compress_identical", jbool compress_identical);
    ]

(* ---------- observability: disabled-path overhead ----------------------- *)

(* The lib/obs contract is near-zero cost when no manifest is requested: a
   disabled recorder's [with_span] is the wrapped call, a dead counter's
   [add] is one load and branch.  This experiment measures both — the
   pipeline wrapped in disabled spans vs bare, and the per-op cost of dead
   instruments — and emits [disabled_overhead_pct] for the CI guard. *)
let obs_bench () =
  section "Observability: disabled-path overhead (contract: < 2%)";
  let tiny = Scenario.tiny in
  let prog = program (wfs ~scen:tiny ()) in
  let fuel = Harness.fuel tiny in
  let dis = Obs.Span.disabled in
  let dead = Obs.Metrics.counter Obs.Metrics.disabled ~unit_:"events" "bench.dead" in
  let run_bare () =
    let m = Machine.create ~vfs:(Harness.make_vfs tiny) prog in
    let eng = Engine.create m in
    Engine.run ~fuel eng
  in
  (* same pipeline wrapped the way the CLI wraps it without --metrics:
     disabled spans around the stages, a dead counter poke per stage *)
  let run_wrapped () =
    Obs.Span.with_span dis "run" (fun () ->
        Obs.Span.with_span dis "create" (fun () ->
            Obs.Metrics.add dead 1;
            let m = Machine.create ~vfs:(Harness.make_vfs tiny) prog in
            Engine.create m)
        |> fun eng ->
        Obs.Span.with_span dis "execute" (fun () ->
            Obs.Metrics.add dead 1;
            Engine.run ~fuel eng))
  in
  let bare = ref None and wrapped = ref None in
  for _ = 1 to 7 do
    ignore (keep_fastest bare run_bare);
    ignore (keep_fastest wrapped run_wrapped)
  done;
  let (), bare_dt = Option.get !bare and (), wrapped_dt = Option.get !wrapped in
  let overhead_pct = (wrapped_dt -. bare_dt) /. bare_dt *. 100. in
  Printf.printf "  bare pipeline    %8.4fs\n" bare_dt;
  Printf.printf "  disabled-obs     %8.4fs  (%+.3f%%)\n" wrapped_dt overhead_pct;
  (* per-op cost of dead instruments *)
  let ops = 10_000_000 in
  let (), span_dt =
    timed (fun () ->
        for _ = 1 to ops do
          Obs.Span.with_span dis "noop" (fun () -> ())
        done)
  in
  let (), ctr_dt =
    timed (fun () ->
        for _ = 1 to ops do
          Obs.Metrics.add dead 1
        done)
  in
  let ns dt = dt /. float_of_int ops *. 1e9 in
  Printf.printf "  disabled with_span %6.2f ns/op, disabled counter add %6.2f ns/op (%d ops)\n"
    (ns span_dt) (ns ctr_dt) ops;
  Printf.printf
    "  dead instruments stay dead: counter value = %d after %d adds\n"
    (Obs.Metrics.counter_value dead) ops;
  json_emit "obs"
    [
      ("bare_s", jfloat bare_dt);
      ("wrapped_s", jfloat wrapped_dt);
      ("disabled_overhead_pct", jfloat overhead_pct);
      ("disabled_span_ns", jfloat (ns span_dt));
      ("disabled_counter_ns", jfloat (ns ctr_dt));
      ("counter_stayed_zero", jbool (Obs.Metrics.counter_value dead = 0));
    ]

(* ---------- serve daemon: concurrent clients, cache, admission -------- *)

let serve_bench () =
  section
    "Serve daemon: concurrent clients, chunk cache, admission control";
  let module Sv = Tq_serve.Server in
  let module Cl = Tq_serve.Client in
  (* a self-terminating MiniC workload (recording has no fuel cutoff):
     [rounds] passes of a fill/reduce pair over a 512-word buffer, sized so
     the decoded trace fits the daemon's cache but spans many chunks *)
  let rounds = if !tiny_mode then 20 else 80 in
  let src =
    Printf.sprintf
      "int buf[512];\n\
       void fill(int k) { for (int i = 0; i < 512; i++) buf[i] = i + k; }\n\
       int total() { int s; s = 0;\n\
      \              for (int i = 0; i < 512; i++) s += buf[i];\n\
      \              return s; }\n\
       int main() { int t; t = 0;\n\
      \             for (int r = 0; r < %d; r++) { fill(r); t += total(); }\n\
      \             return t - t; }"
      rounds
  in
  let target = Minic src in
  (* one recording, shared (by idempotent upload) across every client *)
  let path = Filename.temp_file "tquad_serve_bench" ".trc" in
  let events = Tq_trace.Probe.record (engine target) ~path in
  let trace =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  let n_chunks = Tq_trace.Reader.n_chunks (Tq_trace.Reader.of_string trace) in
  let program = Tq_vm.Objfile.encode (program target) in
  Printf.printf "  workload: %d events, %d chunks, %d trace bytes\n" events
    n_chunks (String.length trace);
  let tmp_socket () =
    let p = Filename.temp_file "tquad_serve_bench" ".sock" in
    Sys.remove p;
    p
  in
  let start_server cfg =
    let ready_m = Mutex.create () and ready_c = Condition.create () in
    let ready = ref false in
    let th =
      Thread.create
        (fun () ->
          Sv.run ~handle_signals:false
            ~on_ready:(fun () ->
              Mutex.lock ready_m;
              ready := true;
              Condition.signal ready_c;
              Mutex.unlock ready_m)
            cfg)
        ()
    in
    Mutex.lock ready_m;
    while not !ready do
      Condition.wait ready_c ready_m
    done;
    Mutex.unlock ready_m;
    th
  in
  let num j k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Int i) -> float_of_int i
    | Some (Obs.Json.Float f) -> f
    | _ -> nan
  in
  let sub j k =
    match Obs.Json.member k j with Some o -> o | None -> Obs.Json.Obj []
  in
  (* phase 1: N clients hammer one daemon with full-toolset replays; the
     first pass decodes every chunk, later passes should hit the cache *)
  let clients = 4 and cycles = if !tiny_mode then 2 else 3 in
  let socket = tmp_socket () in
  let cfg =
    {
      (Sv.default ~socket_path:socket) with
      Sv.workers = 2;
      cache_bytes = 512 * 1024 * 1024;
      rate = 10_000.;
      burst = 10_000;
      max_traces = 4;
    }
  in
  let th = start_server cfg in
  let errs_m = Mutex.create () in
  let errs = ref [] and jobs_ok = ref 0 in
  let fail msg = Mutex.protect errs_m (fun () -> errs := msg :: !errs) in
  let client_loop i () =
    match Cl.connect socket with
    | Error e -> fail (Printf.sprintf "client %d connect: %s" i e.Cl.reason)
    | Ok c ->
        Fun.protect
          ~finally:(fun () -> Cl.close c)
          (fun () ->
            match Cl.upload ~name:"bench" ~program ~trace c with
            | Error e ->
                fail (Printf.sprintf "client %d upload: %s" i e.Cl.reason)
            | Ok id ->
                for cycle = 1 to cycles do
                  match Cl.replay ~slice:2_000 ~period:2_000 c id with
                  | Error e ->
                      fail
                        (Printf.sprintf "client %d cycle %d replay: %s" i
                           cycle e.Cl.reason)
                  | Ok jid -> (
                      match Cl.report ~wait:true c jid with
                      | Error e ->
                          fail
                            (Printf.sprintf "client %d job %d report: %s" i
                               jid e.Cl.reason)
                      | Ok r ->
                          if r.Cl.failures <> [] then
                            fail
                              (Printf.sprintf "client %d job %d tool failures"
                                 i jid)
                          else
                            Mutex.protect errs_m (fun () -> incr jobs_ok))
                done)
  in
  let (), phase1_dt =
    timed (fun () ->
        let ths =
          List.init clients (fun i -> Thread.create (client_loop i) ())
        in
        List.iter Thread.join ths)
  in
  let control = Result.get_ok (Cl.connect socket) in
  let stats = Result.get_ok (Cl.stats control) in
  ignore (Cl.shutdown control);
  Cl.close control;
  Thread.join th;
  let queue = sub stats "queue"
  and cache = sub stats "cache"
  and latency = sub stats "latency" in
  let hit_rate = num cache "hit_rate" in
  let completed = int_of_float (num queue "completed")
  and failed = int_of_float (num queue "failed_jobs") in
  Printf.printf
    "  phase 1: %d clients x %d replay cycles (all tools) in %.2fs\n" clients
    cycles phase1_dt;
  Printf.printf "  jobs: %d completed, %d failed (%d report round-trips ok)\n"
    completed failed !jobs_ok;
  Printf.printf
    "  cache: %.0f hits / %.0f misses / %.0f evictions, hit rate %.3f\n"
    (num cache "hits") (num cache "misses") (num cache "evictions") hit_rate;
  Printf.printf "  queue: depth %.0f, peak %.0f, workers %.0f\n"
    (num queue "depth") (num queue "peak") (num queue "workers");
  Printf.printf "  job latency: p50 %.4fs, p99 %.4fs, max %.4fs (n=%.0f)\n"
    (num latency "p50_s") (num latency "p99_s") (num latency "max_s")
    (num latency "count");
  List.iter (fun e -> Printf.printf "  CLIENT ERROR: %s\n" e) !errs;
  (* phase 2: a second daemon with a starved token bucket — a burst of
     replays must be refused with the typed busy error, not queued *)
  let socket2 = tmp_socket () in
  let cfg2 =
    {
      (Sv.default ~socket_path:socket2) with
      Sv.workers = 1;
      rate = 0.001;
      burst = 2;
    }
  in
  let th2 = start_server cfg2 in
  let c2 = Result.get_ok (Cl.connect socket2) in
  let id2 = Result.get_ok (Cl.upload ~program ~trace c2) in
  let burst_requests = 8 in
  let admitted = ref 0 and busy = ref 0 in
  for _ = 1 to burst_requests do
    match Cl.replay ~tools:[ "gprof" ] ~slice:2_000 ~period:2_000 c2 id2 with
    | Ok _ -> incr admitted
    | Error e when e.Cl.kind = Tq_serve.Protocol.busy -> incr busy
    | Error e -> fail ("phase 2 replay: " ^ e.Cl.reason)
  done;
  let stats2 = Result.get_ok (Cl.stats c2) in
  let busy_rejections = int_of_float (num stats2 "busy_rejections") in
  ignore (Cl.shutdown c2);
  Cl.close c2;
  Thread.join th2;
  Printf.printf
    "  phase 2: burst of %d replays at rate 0.001/s: %d admitted, %d busy \
     (server counted %d rejections)\n"
    burst_requests !admitted !busy busy_rejections;
  let ok =
    !errs = [] && failed = 0 && hit_rate > 0.5 && !busy > 0
    && !jobs_ok = clients * cycles
  in
  Printf.printf
    "  acceptance (no failures, hit rate > 0.5, busy > 0): %b\n"
    ok;
  json_emit "serve"
    [
      ("events", jint events);
      ("chunks", jint n_chunks);
      ("clients", jint clients);
      ("cycles_per_client", jint cycles);
      ("phase1_wall_s", jfloat phase1_dt);
      ("jobs_completed", jint completed);
      ("jobs_failed", jint failed);
      ("client_errors", jint (List.length !errs));
      ("cache_hits", jint (int_of_float (num cache "hits")));
      ("cache_misses", jint (int_of_float (num cache "misses")));
      ("cache_evictions", jint (int_of_float (num cache "evictions")));
      ("cache_hit_rate", jfloat hit_rate);
      ("queue_depth", jint (int_of_float (num queue "depth")));
      ("queue_peak", jint (int_of_float (num queue "peak")));
      ("latency_p50_s", jfloat (num latency "p50_s"));
      ("latency_p99_s", jfloat (num latency "p99_s"));
      ("latency_max_s", jfloat (num latency "max_s"));
      ("burst_requests", jint burst_requests);
      ("burst_admitted", jint !admitted);
      ("burst_busy", jint !busy);
      ("busy_rejections", jint busy_rejections);
      ("acceptance_ok", jbool ok);
    ]

(* ---------- static bandwidth model vs tQUAD ----------------------------- *)

(* For every application: run once under tQUAD, rank the kernels with the
   static model and report its Kendall tau against the measured per-kernel
   bytes.  CI pins every tau to the committed BENCH_check.json: the static
   analysis and the tiny runs are deterministic, so any drift is a change in
   ranking. *)
let check_bench () =
  section "Static bandwidth model: rank agreement with tQUAD";
  let apps =
    [ ("wfs", wfs ()); ("image-pipeline", Image_pipeline);
      ("pointer-chase", Pointer_chase) ]
  in
  let entries =
    List.map
      (fun (name, target) ->
        let prog = program target in
        let { tool = t; dt = run_dt; _ } =
          bspan ~attrs:(fun () -> [ ("app", 0) ]) ("run:" ^ name) (fun () ->
              tquad ~target 2_000)
        in
        let rows, dt =
          timed (fun () -> Tq_staticcheck.Estimate.per_kernel prog)
        in
        let compared = R.static_vs_measured rows t in
        let tau = R.static_tau compared and nk = List.length compared in
        Printf.printf "  %-16s %2d kernels  tau %+.2f (%.3fs)  run %.2fs\n" name
          nk tau dt run_dt;
        Obs.Json.Obj
          [
            ("app", jstr name);
            ("kernels", jint nk);
            ("tau_dataflow", jfloat tau);
            ("static_dataflow_s", jfloat dt);
            ("run_s", jfloat run_dt);
          ])
      apps
  in
  json_emit "check" [ ("apps", Obs.Json.List entries) ]

(* ---------- driver ---------- *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig6", fig6);
    ("fig7", fig7);
    ("overhead", overhead);
    ("ablation", ablation);
    ("clustering", clustering);
    ("cache", cache);
    ("wcet", wcet);
    ("generality", generality);
    ("footprint", footprint);
    ("replay", replay_bench);
    ("obs", obs_bench);
    ("serve", serve_bench);
    ("check", check_bench);
  ]

let () =
  let args =
    List.tl (Array.to_list Sys.argv)
    |> List.filter (fun a ->
           match a with
           | "--json" ->
               json_mode := true;
               false
           | "--tiny" ->
               tiny_mode := true;
               false
           | _ -> true)
  in
  let selected =
    if args = [] then List.map fst experiments
    else begin
      List.iter
        (fun a ->
          if not (List.mem_assoc a experiments) then begin
            Printf.eprintf "unknown experiment %s; available: %s\n" a
              (String.concat " " (List.map fst experiments));
            exit 2
          end)
        args;
      args
    end
  in
  Printf.printf "tQUAD reproduction benchmark harness\n";
  Printf.printf "scenario: %s\n" (Scenario.describe (scen ()));
  List.iter
    (fun name ->
      (* fresh recorder per experiment; the manifest is emitted only after
         the experiment's own span closed, so it carries the full tree *)
      if !json_mode then begin
        obs := Obs.Span.create ();
        obs_metrics := Obs.Metrics.create ()
      end;
      bspan name (List.assoc name experiments);
      flush_manifests ())
    selected

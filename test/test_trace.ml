(* The trace subsystem's contract: the codec is lossless, the container
   round-trips through disk (chunked, seekable), and replaying a recording
   through any analysis tool reproduces the live-instrumented run
   byte-for-byte. *)

open Tq_vm
open Tq_dbi
module Event = Tq_trace.Event
module Writer = Tq_trace.Writer
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe

(* ---------- generators ---------- *)

(* A stream with non-decreasing instruction counts, as the probe emits:
   several events may share an icount (one instruction can produce a routine
   entry, a load and a return). *)
let gen_events =
  let open QCheck.Gen in
  let addr = int_bound 0xFF_FFFF in
  let static = int_range (-1) 40 in
  let shape =
    frequency
      [
        (2, map2 (fun routine sp -> `Entry (routine, sp)) (int_bound 40) addr);
        (2, map (fun sp -> `Ret sp) addr);
        ( 4,
          map3
            (fun s (ea, sp) size -> `Load (s, ea, size, sp))
            static (pair addr addr) (int_bound 64) );
        ( 4,
          map3
            (fun s (ea, sp) size -> `Store (s, ea, size, sp))
            static (pair addr addr) (int_bound 64) );
        ( 1,
          map3
            (fun s (src, dst) (len, sp) -> `Copy (s, src, dst, len, sp))
            static (pair addr addr)
            (pair (int_bound 4096) addr) );
        (1, map2 (fun ea size -> `Prefetch (ea, size)) addr (int_bound 64));
        (2, map2 (fun a n -> `Exec (a, n)) addr (int_range 1 30));
      ]
  in
  list_size (int_range 0 400) (pair (int_bound 64) shape)
  |> map (fun steps ->
         let ic = ref 0 in
         List.map
           (fun (delta, sh) ->
             ic := !ic + delta;
             let icount = !ic in
             match sh with
             | `Entry (routine, sp) -> Event.Rtn_entry { icount; routine; sp }
             | `Ret sp -> Event.Ret { icount; sp }
             | `Load (static, ea, size, sp) ->
                 Event.Load { icount; static; ea; size; sp }
             | `Store (static, ea, size, sp) ->
                 Event.Store { icount; static; ea; size; sp }
             | `Copy (static, src, dst, len, sp) ->
                 Event.Block_copy { icount; static; src; dst; len; sp }
             | `Prefetch (ea, size) -> Event.Prefetch { icount; ea; size }
             | `Exec (addr, n) -> Event.Block_exec { icount; addr; n })
           steps)

let arb_events = QCheck.make ~print:(fun evs ->
    String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs))
    gen_events

(* ---------- codec ---------- *)

let qcheck_leb_roundtrip =
  QCheck.Test.make ~name:"LEB128 round-trips (unsigned and signed)" ~count:500
    QCheck.(pair (int_bound max_int) int)
    (fun (u, s) ->
      let buf = Buffer.create 16 in
      Tq_util.Leb128.write_u buf u;
      Tq_util.Leb128.write_s buf s;
      let str = Buffer.contents buf in
      let pos = ref 0 in
      let u' = Tq_util.Leb128.read_u str pos in
      let s' = Tq_util.Leb128.read_s str pos in
      u = u' && s = s' && !pos = String.length str)

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"event codec: decode o encode = id" ~count:200
    arb_events (fun evs ->
      let buf = Buffer.create 1024 in
      let st = Event.fresh_state () in
      List.iter (Event.encode st buf) evs;
      let s = Buffer.contents buf in
      let st = Event.fresh_state () in
      let pos = ref 0 in
      let out = List.map (fun _ -> Event.decode st s pos) evs in
      out = evs && !pos = String.length s)

let qcheck_file_roundtrip =
  (* tiny chunks force many chunk boundaries (state resets, index entries) *)
  QCheck.Test.make ~name:"trace file: load o write = id across chunks"
    ~count:60 arb_events (fun evs ->
      let path = Filename.temp_file "tq_trace" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Writer.with_file ~chunk_bytes:256 path (fun w ->
              List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          let out = ref [] in
          Reader.iter r (fun ev -> out := ev :: !out);
          List.rev !out = evs && Reader.n_events r = List.length evs))

(* [evs] followed by a loop: the first few of its events behind a
   [Block_exec] of a fresh block address, 32 to 40 times, every numeric
   field advancing by its own stride (the instruction count by the body's
   span), so a compressing writer commits it to repeat chunks. *)
let with_loop evs =
  let body =
    Event.Block_exec { icount = 0; addr = 0x7fff_0000; n = 1 }
    :: List.filteri (fun i _ -> i < 12) evs
  in
  let last l = List.fold_left (fun _ ev -> Event.icount ev) 0 l in
  let start = last evs + 1 and span = last body + 1 in
  (* every kind's first numeric field is its icount *)
  let shift i ev =
    let v = Array.make 5 0 in
    let n = Event.read_num_fields ev v 0 in
    v.(0) <- v.(0) + start + (i * span);
    for f = 1 to n - 1 do
      v.(f) <- v.(f) + (8 * i * f)
    done;
    Event.with_num_fields ev v 0
  in
  let iters = 32 + (List.length evs mod 9) in
  evs @ List.concat (List.init iters (fun i -> List.map (shift i) body))

(* A job sees exactly the kinds it wants: through the pipeline on one
   domain, one [~wants:[kind]] job per kind collects the events of its kind,
   in trace order.  The stream ends in a loop and is written both plain and
   compressed, so a raw job also takes repeat records. *)
let qcheck_pipeline_partition =
  QCheck.Test.make ~name:"pipeline partitions by kind" ~count:60 arb_events
    (fun evs ->
      let evs = with_loop evs in
      let path = Filename.temp_file "tq_trace" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.for_all
            (fun compress ->
              Writer.with_file ~chunk_bytes:256 ~compress path (fun w ->
                  List.iter (Writer.emit w) evs);
              let r = Reader.load path in
              let buckets = Array.make Event.n_kinds [] in
              let jobs =
                List.map
                  (fun kind ->
                    let tag = Event.kind_tag kind in
                    Replay.job ~wants:[ kind ] (string_of_int tag) (fun () ->
                        ( (fun ev -> buckets.(tag) <- ev :: buckets.(tag)),
                          fun () -> "" )))
                  Event.all_kinds
              in
              ((not compress) || Reader.repeat_chunks r > 0)
              && List.for_all
                   (fun (_, o) -> o = Ok "")
                   (Replay.parallel ~domains:1 r jobs)
              && List.for_all
                   (fun kind ->
                     let tag = Event.kind_tag kind in
                     List.rev buckets.(tag)
                     = List.filter (fun ev -> Event.tag ev = tag) evs)
                   Event.all_kinds)
            [ false; true ]))

let test_corrupt_trace () =
  let path = Filename.temp_file "tq_trace" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a trace file at all";
      close_out oc;
      match Reader.load path with
      | _ -> Alcotest.fail "corrupt file loaded"
      | exception Reader.Format_error _ -> ())

(* ---------- live / replay equivalence ---------- *)

(* Renders mirror the CLI's report sections; what matters here is that each
   covers the tool's full observable state, so string equality means the
   live and replayed analyses agree everywhere. *)
let render_tquad t =
  let kernels = Tq_tquad.Tquad.kernels t in
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      let tot = Tq_tquad.Tquad.totals t r in
      Buffer.add_string buf
        (Printf.sprintf "%s %d-%d %d %d/%d %d/%d %.4f\n" r.Symtab.name
           tot.Tq_tquad.Tquad.first_slice tot.last_slice tot.activity_span
           tot.read_incl tot.read_excl tot.write_incl tot.write_excl
           (Tq_tquad.Tquad.max_rw_bpi t r ~incl:true)))
    kernels;
  Buffer.add_string buf
    (Tq_report.Report.figure t ~metric:Tq_tquad.Tquad.Read_incl ~kernels
       ~title:"read bandwidth" ());
  Buffer.contents buf

let render_quad q =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Tq_report.Report.quad_table (Tq_quad.Quad.rows q));
  List.iter
    (fun (b : Tq_quad.Quad.binding) ->
      Buffer.add_string buf
        (Printf.sprintf "%s->%s %d %d\n" b.producer.Symtab.name
           b.consumer.Symtab.name b.bytes_incl b.unma))
    (Tq_quad.Quad.bindings q);
  Buffer.contents buf

let render_gprof g =
  Tq_report.Report.flat_profile (Tq_gprofsim.Gprofsim.flat_profile g)

let scen = Tq_wfs.Scenario.tiny
let slice = 2_000
let period = 2_000

(* One live wfs run with all six tools attached at once (each registers its
   own probe on the engine). *)
let live_reports () =
  let m =
    Machine.create
      ~vfs:(Tq_wfs.Harness.make_vfs scen)
      (Tq_wfs.Harness.compile scen)
  in
  let eng = Engine.create m in
  let tq = Tq_tquad.Tquad.attach ~slice_interval:slice eng in
  let q = Tq_quad.Quad.attach eng in
  let g = Tq_gprofsim.Gprofsim.attach ~period eng in
  let mix = Tq_prof.Ins_mix.attach eng in
  let cache = Tq_prof.Cache_sim.attach eng in
  let fp = Tq_prof.Footprint.attach eng in
  Engine.run ~fuel:(Tq_wfs.Harness.fuel scen) eng;
  [
    ("tquad", render_tquad tq);
    ("quad", render_quad q);
    ("gprof", render_gprof g);
    ("mix", Tq_prof.Ins_mix.render mix);
    ("cache", Tq_prof.Cache_sim.render cache);
    ("footprint", Tq_prof.Footprint.render fp);
  ]

let record_trace path =
  let prog = Tq_wfs.Harness.compile scen in
  let m = Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) prog in
  let eng = Engine.create m in
  let _events : int =
    Probe.record ~fuel:(Tq_wfs.Harness.fuel scen) eng ~path
  in
  prog

(* The six tools through [Tool.job], with the full-state renderers above:
   every tool but cache carries its shard spec, so the same table drives the
   sequential oracle, the live = replay check and the sharded properties. *)
let tool_jobs prog =
  let open Tq_prof in
  let policy = Call_stack.Main_image_only in
  let job = Tq_trace.Tool.job in
  [
    job (module Tq_tquad.Tquad) "tquad"
      { Tq_tquad.Tquad.slice_interval = slice; policy } prog
      ~render:render_tquad;
    job (module Tq_quad.Quad) "quad" policy prog ~render:render_quad;
    job (module Tq_gprofsim.Gprofsim) "gprof" period prog ~render:render_gprof;
    job (module Ins_mix) "mix" () prog ~render:Ins_mix.render;
    job (module Cache_sim) "cache"
      { Cache_sim.geometry = Cache_sim.default_l1; policy } prog
      ~render:Cache_sim.render;
    job (module Footprint) "footprint" policy prog ~render:Footprint.render;
  ]

(* Every job in these equivalence runs must succeed; unwrap its report. *)
let report name = function
  | Ok r -> r
  | Error f -> Alcotest.fail (name ^ " failed: " ^ Replay.failure_message f)

let test_replay_equivalence () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = live_reports () in
      let prog = record_trace path in
      let reader = Reader.load path in
      let jobs = tool_jobs prog in
      let seq = Replay.sequential reader jobs in
      let par = Replay.parallel ~domains:2 reader jobs in
      List.iter2
        (fun (name, live_report) (name', replayed) ->
          Alcotest.(check string) ("job name " ^ name) name name';
          Alcotest.(check string)
            ("sequential replay of " ^ name ^ " matches live")
            live_report (report name replayed))
        live seq;
      Alcotest.(check bool) "parallel = sequential" true (par = seq))

(* A tool that raises mid-replay must surface as its own [Error]; every
   other job in the same pass still produces its live-identical report. *)
let test_supervised_replay () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live = live_reports () in
      let prog = record_trace path in
      let reader = Reader.load path in
      let bomb =
        Replay.job "bomb" (fun () ->
            let seen = ref 0 in
            ( (fun _ ->
                incr seen;
                if !seen = 3 then failwith "synthetic tool crash"),
              fun () -> "unreachable" ))
      in
      let jobs = bomb :: tool_jobs prog in
      let check results =
        (match List.assoc "bomb" results with
        | Error f ->
            Alcotest.(check bool) "failure is the tool's exn" true
              (match f.Replay.exn with
              | Failure msg -> msg = "synthetic tool crash"
              | _ -> false);
            Alcotest.(check bool) "not classified as a trace error" false
              (Replay.is_trace_error f)
        | Ok _ -> Alcotest.fail "raising job reported success");
        List.iter
          (fun (name, live_report) ->
            Alcotest.(check string)
              ("survivor " ^ name ^ " still matches live")
              live_report
              (report name (List.assoc name results)))
          live
      in
      check (Replay.sequential reader jobs);
      (* the push-fed group, as a live probe drives it *)
      check
        (Replay.supervised
           ~iter:(fun sinks ->
             Reader.iter reader (fun ev -> sinks.(Event.tag ev) ev))
           jobs);
      check (Replay.parallel ~domains:2 reader jobs);
      (* even with every job sharing one domain's decode pass *)
      check (Replay.parallel ~domains:1 reader jobs))

(* ---------- sharded replay property ---------- *)

(* The sharded pipeline's whole contract is byte-identity with
   {!Replay.sequential} no matter where chunk boundaries fall or how many
   shards each tool is split into.  Exercise it with a real recording (the
   tools need a coherent program, stack discipline and address layout, which
   [gen_events] cannot provide) re-encoded under a randomized chunk size, so
   every iteration puts the shard/seed boundaries at different events. *)

let micro_scen = { Tq_wfs.Scenario.tiny with speakers = 2; chunks = 2 }

(* Record once, lazily; iterations only re-encode. *)
let micro_recording =
  lazy
    (let path = Filename.temp_file "tq_wfs" ".trc" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let prog = Tq_wfs.Harness.compile micro_scen in
         let m =
           Machine.create ~vfs:(Tq_wfs.Harness.make_vfs micro_scen) prog
         in
         let eng = Engine.create m in
         let _events : int =
           Probe.record ~fuel:(Tq_wfs.Harness.fuel micro_scen) eng ~path
         in
         let r = Reader.load path in
         let out = ref [] in
         Reader.iter r (fun ev -> out := ev :: !out);
         (prog, List.rev !out)))

(* Outcome lists match when every job agrees by name and payload; failures
   compare by message (backtraces are environment-dependent). *)
let outcomes_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, o1) (n2, o2) ->
         n1 = n2
         &&
         match (o1, o2) with
         | Ok r1, Ok r2 -> r1 = r2
         | Error f1, Error f2 ->
             Replay.failure_message f1 = Replay.failure_message f2
         | _ -> false)
       a b

let reencode ?compress ~chunk_bytes evs =
  let path = Filename.temp_file "tq_shard" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file ?compress ~chunk_bytes path (fun w ->
          List.iter (Writer.emit w) evs);
      In_channel.with_open_bin path In_channel.input_all)

let gen_pipeline_shape =
  QCheck.Gen.(
    triple
      (int_range 256 4096) (* chunk_bytes: boundaries land anywhere *)
      (int_range 1 8) (* shards *)
      (int_range 1 3) (* domains (capped by the machine) *))

let arb_pipeline_shape =
  QCheck.make
    ~print:(fun (cb, s, d) ->
      Printf.sprintf "chunk_bytes=%d shards=%d domains=%d" cb s d)
    gen_pipeline_shape

(* Each shape runs on a plain and a v4 encoding of the recording, and the
   pipeline's decoded chunks must stay within its declared budget. *)
let qcheck_sharded_identity =
  QCheck.Test.make
    ~name:"sharded replay = sequential for every tool (random chunks/shards)"
    ~count:12 arb_pipeline_shape
    (fun (chunk_bytes, shards, domains) ->
      let prog, evs = Lazy.force micro_recording in
      let jobs = tool_jobs prog in
      List.for_all
        (fun compress ->
          let raw = reencode ~compress ~chunk_bytes evs in
          let seq = Replay.sequential (Reader.of_string raw) jobs in
          let stats = ref None in
          let par =
            Replay.parallel ~domains ~shards
              ~stats:(fun s -> stats := Some s)
              (Reader.of_string raw) jobs
          in
          let s = Option.get !stats in
          List.for_all (fun (_, o) -> Result.is_ok o) seq
          && outcomes_equal seq par
          && s.Replay.rs_peak_live_chunks <= s.rs_batch)
        [ false; true ])

(* Same identity under salvage: corrupt the container, load what survives,
   and the pipeline must still agree with the sequential walk of the same
   salvaged reader.  A mutation that defeats salvage entirely must do so on
   both paths ([of_string] raises before any replay starts). *)
let qcheck_sharded_salvage_identity =
  QCheck.Test.make
    ~name:"sharded replay = sequential under salvage of a corrupted trace"
    ~count:16
    (QCheck.pair arb_pipeline_shape QCheck.(int_bound 10_000))
    (fun ((chunk_bytes, shards, domains), seed) ->
      let prog, evs = Lazy.force micro_recording in
      let raw = reencode ~chunk_bytes evs in
      let mutation = Tq_faultgen.Faultgen.random ~seed raw in
      let mutated = Tq_faultgen.Faultgen.apply mutation raw in
      let jobs = tool_jobs prog in
      match Reader.of_string ~mode:Reader.Salvage mutated with
      | exception Reader.Format_error _ -> (
          match Reader.of_string ~mode:Reader.Salvage mutated with
          | exception Reader.Format_error _ -> true
          | _ -> false)
      | r1 ->
          let r2 = Reader.of_string ~mode:Reader.Salvage mutated in
          outcomes_equal (Replay.sequential r1 jobs)
            (Replay.parallel ~domains ~shards r2 jobs))

(* The wfs micro recording above touches little memory per shard, so its
   shards rarely read a byte an earlier shard wrote.  A pointer chase links
   its whole node pool and then walks it, so every later shard defers reads
   of that dense working set and the merge must resolve them all against
   the earlier shards' shadows. *)
let chase_recording =
  lazy
    (let path = Filename.temp_file "tq_chase" ".trc" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let prog =
           Tq_apps.Apps.pointer_chase_program ~nodes:256 ~rounds:2 ()
         in
         let eng = Engine.create (Machine.create prog) in
         let _events : int = Probe.record eng ~path in
         let r = Reader.load path in
         let out = ref [] in
         Reader.iter r (fun ev -> out := ev :: !out);
         (prog, List.rev !out)))

let qcheck_sharded_chase_identity =
  QCheck.Test.make
    ~name:"sharded replay = sequential on a pointer chase (2-8 shards)"
    ~count:8
    (QCheck.make
       ~print:(fun (cb, s) -> Printf.sprintf "chunk_bytes=%d shards=%d" cb s)
       QCheck.Gen.(pair (int_range 256 4096) (int_range 2 8)))
    (fun (chunk_bytes, shards) ->
      let prog, evs = Lazy.force chase_recording in
      let raw = reencode ~chunk_bytes evs in
      let jobs = tool_jobs prog in
      let seq = Replay.sequential (Reader.of_string raw) jobs in
      let par =
        Replay.parallel ~domains:1 ~shards (Reader.of_string raw) jobs
      in
      List.for_all (fun (_, o) -> Result.is_ok o) seq
      && outcomes_equal seq par)

(* The chunk source is where a whole pass dies: an exception from [chunk]
   fails every job still live with that exception, while a job whose own
   sink raised earlier keeps its own failure.  A caching source changes no
   report, and a second run through it decodes nothing. *)
exception Source_died of int

let test_chunk_source () =
  let prog, evs = Lazy.force micro_recording in
  let r = Reader.of_string (reencode ~chunk_bytes:512 evs) in
  let c = Reader.n_chunks r in
  Alcotest.(check bool) "enough chunks to fail mid-trace" true (c >= 16);
  let k = c / 2 in
  let bomb =
    Replay.job "bomb" (fun () ->
        ((fun _ -> failwith "early sink crash"), fun () -> "unreachable"))
  in
  let dying i =
    if i = k then raise (Source_died i) else Reader.chunk r i
  in
  let check_dead results =
    List.iter
      (fun (name, o) ->
        match (name, o) with
        | "bomb", Error { Replay.exn = Failure msg; _ } ->
            Alcotest.(check string) "bomb keeps its own failure"
              "early sink crash" msg
        | "bomb", _ -> Alcotest.fail "bomb lost its own failure"
        | _, Error { Replay.exn = Source_died i; _ } ->
            Alcotest.(check int) (name ^ " fails at the source's chunk") k i
        | _ -> Alcotest.failf "%s: expected the chunk source's failure" name)
      results
  in
  let jobs = bomb :: tool_jobs prog in
  check_dead (Replay.parallel ~domains:1 ~chunk:dying r jobs);
  check_dead (Replay.parallel ~domains:1 ~shards:3 ~chunk:dying r jobs);
  let lock = Mutex.create () and cache = Hashtbl.create 64 in
  let decodes = ref 0 in
  let cached i =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt cache i with
        | Some evs -> evs
        | None ->
            incr decodes;
            let evs = Reader.chunk r i in
            Hashtbl.add cache i evs;
            evs)
  in
  let seq = Replay.sequential r (tool_jobs prog) in
  Alcotest.(check bool) "cached ordered walk = sequential" true
    (outcomes_equal seq
       (Replay.parallel ~domains:1 ~chunk:cached r (tool_jobs prog)));
  Alcotest.(check bool) "cached sharded run = sequential" true
    (outcomes_equal seq
       (Replay.parallel ~domains:2 ~shards:3 ~chunk:cached r
          (tool_jobs prog)));
  Alcotest.(check int) "each chunk decoded once across both runs" c !decodes

(* ---------- the tool registry ---------- *)

let interests =
  [
    ("tquad", Tq_tquad.Tquad.interest);
    ("quad", Tq_quad.Quad.interest);
    ("gprof", Tq_gprofsim.Gprofsim.interest);
    ("mix", Tq_prof.Ins_mix.interest);
    ("cache", Tq_prof.Cache_sim.interest);
    ("footprint", Tq_prof.Footprint.interest);
  ]

let registry_job prog name =
  match Tq_report.Toolset.job ~prog ~slice ~period name with
  | Ok j -> j
  | Error msg -> Alcotest.fail msg

(* Every registered tool's job is derived from its [Tool.S]: the job wants
   exactly the tool's interest, and every tool but cache can shard. *)
let test_registry () =
  let prog, _ = Lazy.force micro_recording in
  Alcotest.(check (list string))
    "the six tools, in canonical order" (List.map fst interests)
    Tq_report.Toolset.names;
  List.iter
    (fun name ->
      let j = registry_job prog name in
      Alcotest.(check string) "job name" name j.Replay.name;
      Alcotest.(check bool)
        (name ^ ": wants = interest") true
        (j.wants = List.assoc name interests);
      Alcotest.(check bool)
        (name ^ ": sharded unless cache") (name <> "cache")
        (Option.is_some j.sharded))
    Tq_report.Toolset.names;
  match Tq_report.Toolset.job ~prog ~slice ~period "nosuch" with
  | Ok _ -> Alcotest.fail "unknown tool accepted"
  | Error msg ->
      List.iter
        (fun name ->
          Alcotest.(check bool)
            ("error lists " ^ name) true
            (Astring_contains.contains msg name))
        Tq_report.Toolset.names

(* The [interest] contract: a tool does no work on the kinds it leaves out,
   so delivering every event kind changes no report — on the plain path
   and on the sharded one. *)
let test_interest_contract () =
  let prog, evs = Lazy.force micro_recording in
  let raw = reencode ~chunk_bytes:1024 evs in
  let jobs = List.map (registry_job prog) Tq_report.Toolset.names in
  let all_kinds =
    List.map (fun (j : Replay.job) -> { j with wants = Event.all_kinds }) jobs
  in
  let narrow = Replay.sequential (Reader.of_string raw) jobs in
  Alcotest.(check bool) "every tool reports" true
    (List.for_all (fun (_, o) -> Result.is_ok o) narrow);
  Alcotest.(check bool) "all kinds = interest (sequential)" true
    (outcomes_equal narrow (Replay.sequential (Reader.of_string raw) all_kinds));
  Alcotest.(check bool) "all kinds = interest (sharded)" true
    (outcomes_equal narrow
       (Replay.parallel ~domains:1 ~shards:3 (Reader.of_string raw) all_kinds))

(* --slice and --period must be positive: every subcommand taking them
   refuses 0 (or less) as a usage error, before any tool is built. *)
let test_cli_positive_args () =
  let src = Test_dataflow.write_tmp ".mc" "int main() { return 0; }\n" in
  let trc = Filename.temp_file "tq_cli" ".trc" in
  let rc args = Test_dataflow.run_cli (Printf.sprintf args src) in
  Alcotest.(check int) "record: 0" 0
    (Test_dataflow.run_cli (Printf.sprintf "record %s -o %s" src trc));
  Alcotest.(check int) "tquad --slice 1: 0" 0 (rc "tquad %s --slice 1");
  Alcotest.(check int) "tquad --slice 0: 2" 2 (rc "tquad %s --slice 0");
  Alcotest.(check int) "tquad --slice=-5: 2" 2 (rc "tquad %s --slice=-5");
  Alcotest.(check int) "gprof --period 0: 2" 2 (rc "gprof %s --period 0");
  Alcotest.(check int) "callgraph --period 0: 2" 2
    (rc "callgraph %s --period 0");
  Alcotest.(check int) "diff --period 0: 2" 2
    (Test_dataflow.run_cli (Printf.sprintf "diff %s %s --period 0" src src));
  Alcotest.(check int) "check --bandwidth --slice 0: 2" 2
    (rc "check %s --bandwidth --slice 0");
  (* cache geometry: non-positive or overflowing values, sizes above the
     model's cap and inconsistent shapes are usage errors *)
  Alcotest.(check int) "cache --size-kib 4: 0" 0 (rc "cache %s --size-kib 4");
  List.iter
    (fun arg ->
      Alcotest.(check int) (Printf.sprintf "cache %s: 2" arg) 2
        (Test_dataflow.run_cli (Printf.sprintf "cache %s %s" src arg)))
    [ "--assoc 288230376151711744"; "--assoc 0"; "--assoc=-8"; "--line 0";
      "--line 48"; "--size-kib 0"; "--size-kib 16385";
      "--size-kib 9007199254740993"; "--size-kib=-32" ];
  let replay args =
    Test_dataflow.run_cli (Printf.sprintf "replay %s %s %s" trc src args)
  in
  Alcotest.(check int) "replay --all: 0" 0 (replay "--all");
  Alcotest.(check int) "replay --all --slice 0: 2" 2 (replay "--all --slice 0");
  Alcotest.(check int) "replay --tool gprof --period 0: 2" 2
    (replay "--tool gprof --period 0");
  Alcotest.(check int) "replay --all --domains 1 --shards 2: 0" 0
    (replay "--all --domains 1 --shards 2");
  (* the v4-only faultgen kinds on a v3 container: a usage error that says
     the kind needs v4 *)
  let err = Filename.temp_file "tq_cli" ".err" in
  List.iter
    (fun kind ->
      let rc =
        Sys.command
          (Printf.sprintf "%s faultgen %s --mutation %s -o %s.bad >/dev/null 2>%s"
             (Test_dataflow.cli_path ()) trc kind trc err)
      in
      Alcotest.(check int) (Printf.sprintf "faultgen --mutation %s, v3: 2" kind)
        2 rc;
      let msg = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check bool)
        (Printf.sprintf "faultgen --mutation %s, v3: stderr names v4 (%s)" kind
           (String.trim msg))
        true
        (Astring_contains.contains msg "v4"))
    [ "flip-kind"; "corrupt-repeat" ];
  Sys.remove err;
  (* --tool runs the sequential oracle, which takes no pipeline shape *)
  Alcotest.(check int) "replay --tool tquad --domains 2: 2" 2
    (replay "--tool tquad --domains 2");
  Alcotest.(check int) "replay --tool tquad --shards 3: 2" 2
    (replay "--tool tquad --shards 3");
  (* --fail-tool must name a job of the run *)
  Alcotest.(check int) "replay --all --fail-tool quad: 4" 4
    (replay "--all --fail-tool quad");
  Alcotest.(check int) "replay --all --fail-tool nosuch: 2" 2
    (replay "--all --fail-tool nosuch");
  Alcotest.(check int) "replay --tool tquad --fail-tool quad: 2" 2
    (replay "--tool tquad --fail-tool quad");
  List.iter
    (fun arg ->
      Alcotest.(check int) (Printf.sprintf "replay --all %s: 2" arg) 2
        (replay ("--all " ^ arg)))
    [ "--domains 0"; "--domains=-3"; "--shards 0"; "--shards=-2" ];
  (* serve and client options: the socket path's parent is a regular file,
     so a value the parser wrongly accepted ends in a bind/connect failure
     (3), never in a running daemon or a hang *)
  let sock = Filename.concat (Filename.temp_file "tq_cli" ".d") "s.sock" in
  let bad ~cmd ~positive opts =
    let values =
      [ "nan"; "inf"; "-inf"; "-1" ] @ if positive then [ "0" ] else []
    in
    List.iter
      (fun opt ->
        List.iter
          (fun v ->
            let args = Printf.sprintf "%s --%s=%s" cmd opt v in
            Alcotest.(check int) (args ^ ": 2") 2 (Test_dataflow.run_cli args))
          values)
      opts
  in
  let serve = "serve --socket " ^ sock in
  bad ~cmd:serve ~positive:true
    [ "queue-limit"; "cache-mb"; "rate"; "burst"; "max-traces";
      "manifest-period" ];
  bad ~cmd:serve ~positive:false
    [ "domains"; "max-connections"; "idle-timeout"; "frame-timeout";
      "job-timeout" ];
  (* 2^43 MiB is 2^63 bytes: the byte count would wrap *)
  Alcotest.(check int) "serve --cache-mb 8796093022208: 2" 2
    (Test_dataflow.run_cli (serve ^ " --cache-mb 8796093022208"));
  bad ~cmd:("client ping --socket " ^ sock) ~positive:false
    [ "retries"; "timeout" ];
  bad ~cmd:("client ping --socket " ^ sock) ~positive:true [ "backoff" ];
  bad ~cmd:("client replay 1 --socket " ^ sock) ~positive:false [ "deadline" ];
  bad ~cmd:("client chaos --socket " ^ sock) ~positive:true [ "rounds"; "wait" ];
  bad ~cmd:("wcet " ^ src) ~positive:false [ "bound" ];
  Alcotest.(check int) "check --bandwidth: 0" 0 (rc "check %s --bandwidth");
  Alcotest.(check int) "wcet --bound 0: 0" 0 (rc "wcet %s --bound 0");
  Alcotest.(check int) "serve, zero disables the timeouts: bind fails, 3" 3
    (Test_dataflow.run_cli
       (serve ^ " --domains 0 --max-connections 0 --idle-timeout 0"
      ^ " --frame-timeout 0 --job-timeout 0"));
  List.iter Sys.remove [ src; trc; Filename.dirname sock ]

(* ---------- crash safety of the writer ---------- *)

let test_writer_atomic_rename () =
  let dir = Filename.temp_file "tq_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "out.trc" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; tmp ];
      Sys.rmdir dir)
    (fun () ->
      let w =
        Writer.with_file path (fun w ->
            Writer.emit w
              (Event.Load { icount = 1; static = 0; ea = 8; size = 4; sp = 0 });
            Alcotest.(check bool) "streams to .tmp while recording" true
              (Sys.file_exists tmp);
            Alcotest.(check bool) "final path absent until close" false
              (Sys.file_exists path);
            w)
      in
      Alcotest.(check bool) ".tmp gone after close" false (Sys.file_exists tmp);
      Alcotest.(check bool) "final path appears atomically" true
        (Sys.file_exists path);
      Alcotest.(check int) "renamed container loads" 1
        (Reader.n_events (Reader.load path));
      (* emit after close is a hard error *)
      Alcotest.check_raises "emit after close"
        (Invalid_argument "Trace.Writer.emit: closed") (fun () ->
          Writer.emit w (Event.Ret { icount = 2; sp = 0 })))

let test_v3_is_default () =
  let path = Filename.temp_file "tq_trace" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun w ->
          Writer.emit w (Event.Ret { icount = 5; sp = 0 }));
      let r = Reader.load path in
      Alcotest.(check int) "writer emits v3" 3 (Reader.version r);
      Alcotest.(check bool) "strict load reports no salvage" true
        (Reader.salvage_info r = None))

let test_record_reader_stats () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let _ = record_trace path in
      let r = Reader.load path in
      Alcotest.(check bool) "has events" true (Reader.n_events r > 0);
      Alcotest.(check bool) "chunked" true (Reader.n_chunks r > 1);
      (* the End event's icount is the run's final instruction count *)
      Alcotest.(check bool) "monotone last icount" true
        (Reader.last_icount r > 0);
      let max_ic = ref 0 and n = ref 0 in
      Reader.iter r (fun ev ->
          incr n;
          let ic = Event.icount ev in
          Alcotest.(check bool) "icount never regresses" true (ic >= !max_ic);
          max_ic := ic);
      Alcotest.(check int) "iter covers all events" (Reader.n_events r) !n;
      Alcotest.(check int) "last icount" (Reader.last_icount r) !max_ic)

let test_fingerprint_guard () =
  let path = Filename.temp_file "tq_wfs" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let prog = record_trace path in
      let r = Reader.load path in
      Alcotest.(check bool) "recorder stamped a fingerprint" true
        (Reader.fingerprint r <> 0L);
      Alcotest.(check bool) "stamp is the program's fingerprint" true
        (Reader.fingerprint r = Program.fingerprint prog);
      (match Replay.check_program r prog with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      (* same sources, different scenario constants -> different image *)
      let other = Tq_wfs.Harness.compile Tq_wfs.Scenario.default in
      (match Replay.check_program r other with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "trace accepted against the wrong program");
      (* a trace whose recorder did not know the program is accepted *)
      let anon = Filename.temp_file "tq_anon" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove anon)
        (fun () ->
          Writer.with_file anon (fun _ -> ());
          let r2 = Reader.load anon in
          Alcotest.(check bool) "unknown stamp is 0" true
            (Reader.fingerprint r2 = 0L);
          match Replay.check_program r2 prog with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg))

let suites =
  [
    ( "trace",
      [
        QCheck_alcotest.to_alcotest qcheck_leb_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_file_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_pipeline_partition;
        Alcotest.test_case "corrupt file rejected" `Quick test_corrupt_trace;
        Alcotest.test_case "record: reader stats sane" `Quick
          test_record_reader_stats;
        Alcotest.test_case "wfs: replay = live for all six tools" `Quick
          test_replay_equivalence;
        Alcotest.test_case "supervised replay isolates a raising tool" `Quick
          test_supervised_replay;
        QCheck_alcotest.to_alcotest qcheck_sharded_identity;
        QCheck_alcotest.to_alcotest qcheck_sharded_salvage_identity;
        QCheck_alcotest.to_alcotest qcheck_sharded_chase_identity;
        Alcotest.test_case "chunk source fails live jobs" `Quick
          test_chunk_source;
        Alcotest.test_case "registry: jobs derive from each tool" `Quick
          test_registry;
        Alcotest.test_case "registry: all kinds = interest for every tool"
          `Quick test_interest_contract;
        Alcotest.test_case "cli: non-positive --slice/--period exit 2" `Quick
          test_cli_positive_args;
        Alcotest.test_case "writer streams to .tmp, renames on close" `Quick
          test_writer_atomic_rename;
        Alcotest.test_case "new recordings are v3" `Quick test_v3_is_default;
        Alcotest.test_case "fingerprint binds trace to program" `Quick
          test_fingerprint_guard;
      ] );
  ]

(* The repository's benchmark: four workloads over the tQUAD stack.

   End-to-end metrics come from untraced runs ([--trace 0]); per-layer
   metrics from a separate traced run ([--trace 1]) that wraps the
   benchmark's own calls into each layer's public functions in spans.
   Every round is checked against an oracle that does not share the timed
   path, outside every timed interval.  README.md explains the workloads
   and which layer metric should move which end-to-end metric. *)

module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Program = Tq_vm.Program
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Toolset = Tq_serve.Toolset
module Sv = Tq_serve.Server
module Cl = Tq_serve.Client
module Json = Tq_obs.Json
module Scenario = Tq_wfs.Scenario
module Harness = Tq_wfs.Harness

let now = Unix.gettimeofday
let span = Spans.with_
let slice = 2_000
let period = 2_000

(* setup is repeated and its median reported: one set-up is deterministic
   work, but single samples moved by 40% between runs *)
let setup_reps = 5

(* Workload sizes, chosen so that a round takes about half a second and a
   20 s run holds 20 or more rounds; README.md gives the measured sizes. *)
let live_chunks = 6
let replay_chunks = 4
let chase_nodes = 16384
let chase_walks = 3

(* Every timed round runs on one domain.  The sharded pipeline still runs
   ([shards > 1] on one domain keeps the shard and merge path), but no
   second domain is spawned: on a 2-vCPU host, with default settings, the
   same round's median over 40-second windows moved by more than half. *)
let replay_domains = 1
let replay_shards = 2

let pct p = function
  | [] -> nan
  | l -> Tq_util.Stats.percentile (Array.of_list l) p

let median = pct 50.

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- operations and their oracle verdicts ---------- *)

let attempted = ref 0
let failed = ref 0

let op ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 10 then prerr_endline ("FAILED: " ^ what)
  end

(* [--perturb]: corrupt one report before the oracle sees it, so the
   self-test can show that the oracles catch a wrong answer *)
let perturb = ref false

let perturbed tool report =
  if !perturb then begin
    perturb := false;
    prerr_endline ("perturbing the first " ^ tool ^ " report");
    report ^ "#"
  end
  else report

(* [golden] and [got] map tools to reports or errors: the oracle's and the
   timed path's.  One operation per golden tool; an error on either side
   fails it. *)
let check_reports what golden got =
  List.iter
    (fun (tool, want) ->
      let ok =
        match (want, List.assoc_opt tool got) with
        | Ok w, Some (Ok r) -> perturbed tool r = w
        | _ -> false
      in
      op ok (Printf.sprintf "%s: %s report differs from the oracle" what tool))
    golden

(* Rounds keep their reports as digests until the oracle, which runs after
   the last round, checks them: a few bytes per report, so the heap a run
   leaves behind is the code's, not the benchmark's. *)
let digest_of results =
  List.map (fun (tool, o) -> (tool, Result.map Digest.string o)) results

let check_rounds what golden rounds =
  let golden = digest_of golden in
  List.iter (fun (_, got) -> check_reports what golden got) rounds

let outcomes results =
  List.map
    (fun (tool, o) ->
      match o with
      | Ok r -> (tool, Ok r)
      | Error f -> (tool, Error (Replay.failure_message f)))
    results

(* ---------- scratch files, host probes ---------- *)

let out_dir = "_perfbench"
let scratch = ref []
let counter = ref 0

let fresh_path ext =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  incr counter;
  let p =
    Filename.concat out_dir
      (Printf.sprintf "%d-%d.%s" (Unix.getpid ()) !counter ext)
  in
  scratch := p :: !scratch;
  p

let cleanup () =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !scratch

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Reset the peak resident set size to the current one (Linux clear_refs),
   after a [Gc.compact] has returned what it can. *)
let reset_peak_rss () =
  Gc.compact ();
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
      output_string oc "5")

(* peak resident set size of this process so far (Linux VmHWM) *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let n = String.length prefix in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > n && String.sub l 0 n = prefix ->
            Scanf.sscanf (String.sub l n (String.length l - n)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* ---------- programs ---------- *)

type app = { prog : Program.t; vfs : unit -> Tq_vm.Vfs.t option; fuel : int }

let machine app = Machine.create ?vfs:(app.vfs ()) app.prog

(* the seed picks the sample rate: same work, different input signal and
   wave-propagation delays *)
let wfs_scenario ~chunks seed =
  { Scenario.default with chunks; sample_rate = 7000 + (seed land max_int mod 2001) }

let wfs_app scen =
  {
    prog = span "minic.compile" (fun () -> Harness.compile scen);
    vfs = (fun () -> Some (Harness.make_vfs scen));
    fuel = Harness.fuel scen;
  }

let replace_first ~key ~by s =
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length s then
      failwith ("pointer_chase source has no " ^ key)
    else if String.sub s i kl = key then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + kl) (String.length s - i - kl)

(* the seed replaces the LCG's starting state, so it picks the shuffle *)
let chase_app ~nodes ~rounds seed =
  let src =
    replace_first ~key:"lcg_state = 424243;"
      ~by:(Printf.sprintf "lcg_state = %d;" (1 + (seed land 0x3fffffff)))
      (Tq_apps.Apps.pointer_chase ~nodes ~rounds ())
  in
  {
    prog =
      span "minic.compile" (fun () ->
          Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"chase" src ]);
    vfs = (fun () -> None);
    fuel = 2_000_000_000;
  }

(* what pointer_chase prints: both walks sum [i land 1023] over every node *)
let chase_console ~nodes ~rounds =
  let s = ref 0 in
  for i = 0 to nodes - 1 do
    s := !s + (i land 1023)
  done;
  Printf.sprintf "seq=%d shuffled=%d\n" (rounds * !s) (rounds * !s)

(* the uninstrumented run: the engine with no tool attached, the base of
   the paper's slowdown ratio *)
let native app =
  let m = machine app in
  span "dbi.native" (fun () -> Engine.run ~fuel:app.fuel (Engine.create m));
  m

let note_engine eng =
  let s = Engine.stats eng in
  Spans.note "dbi.chain_hit_ratio"
    (float_of_int s.Engine.chain_hits /. float_of_int (max 1 s.lookups));
  let c = Tq_vm.Memory.cache_stats (Machine.mem (Engine.machine eng)) in
  Spans.note "vm.page_hit_ratio"
    (float_of_int c.Tq_vm.Memory.hits
    /. float_of_int (max 1 (c.hits + c.misses)))

(* one live-instrumented run of [tool] ("tquad" or "quad") on a fresh
   engine, rendered as the replay path renders it *)
let live app tool =
  let eng = Engine.create (machine app) in
  let render =
    if tool = "tquad" then
      let t = Tq_tquad.Tquad.attach ~slice_interval:slice eng in
      fun () -> Toolset.render_tquad ~slice t
    else
      let q = Tq_quad.Quad.attach eng in
      fun () -> Toolset.render_quad q
  in
  span (tool ^ ".live") (fun () -> Engine.run ~fuel:app.fuel eng);
  (span "report.render" render, eng)

let record app ~compress =
  let path = fresh_path "trc" in
  let eng = Engine.create (machine app) in
  ignore
    (span "trace.probe.record" (fun () ->
         Probe.record ~fuel:app.fuel ~compress eng ~path));
  (path, Engine.machine eng)

let jobs prog tools =
  List.map
    (fun t -> Result.get_ok (Toolset.job ~prog ~slice ~period t))
    tools

(* The tools fed straight from a probe on a fresh engine: no writer,
   squasher, container or reader between the program and the tools, so
   this oracle shares none of the decoding a replay round times. *)
let live_oracle app tools =
  let eng = Engine.create (machine app) in
  Replay.supervised
    ~iter:(fun sinks ->
      let sink ev = sinks.(Tq_trace.Event.tag ev) ev in
      Probe.attach eng sink;
      Engine.run ~fuel:app.fuel eng;
      sink
        (Tq_trace.Event.End
           { icount = Machine.instr_count (Engine.machine eng) }))
    (jobs app.prog tools)
  |> outcomes

let note_replay_stats (s : Replay.run_stats) =
  Spans.note "trace.replay.decode_s" s.rs_decode_s;
  Spans.note "trace.replay.ordered_s" s.rs_ordered_s;
  Spans.note "trace.replay.shard_s" s.rs_shard_s;
  Spans.note "trace.replay.merge_s" s.rs_merge_s;
  Spans.note "trace.replay.peak_live_chunks" (float_of_int s.rs_peak_live_chunks)

let replay_parallel r jobs =
  Replay.parallel ~domains:replay_domains ~shards:replay_shards
    ~stats:note_replay_stats r jobs

(* ---------- the serve daemon, in process ---------- *)

type daemon = { socket : string; thread : Thread.t }

(* one worker domain beside the calling one, on any host (the default on
   two vCPUs); admission far above what one closed-loop client can offer,
   so a busy refusal is a real failure *)
let start_daemon ?cache_bytes ?max_traces () =
  let socket = fresh_path "sock" in
  let base = Sv.default ~socket_path:socket in
  let cfg =
    {
      base with
      Sv.workers = 1;
      rate = 1e6;
      burst = 1_000_000;
      cache_bytes = Option.value cache_bytes ~default:base.cache_bytes;
      max_traces = Option.value max_traces ~default:base.max_traces;
    }
  in
  let m = Mutex.create () and c = Condition.create () in
  let state = ref `Starting in
  let set s =
    Mutex.protect m (fun () ->
        state := s;
        Condition.broadcast c)
  in
  let thread =
    Thread.create
      (fun () ->
        match Sv.run ~handle_signals:false ~on_ready:(fun () -> set `Up) cfg with
        | () -> set `Down
        | exception e -> set (`Failed (Printexc.to_string e)))
      ()
  in
  Mutex.lock m;
  while !state = `Starting do
    Condition.wait c m
  done;
  let st = !state in
  Mutex.unlock m;
  match st with
  | `Up -> { socket; thread }
  | `Failed msg ->
      Thread.join thread;
      failwith ("serve daemon did not start: " ^ msg)
  | `Starting | `Down ->
      Thread.join thread;
      failwith "serve daemon stopped before it was ready"

let connect d =
  match Cl.connect ~timeout_s:120. d.socket with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e.Cl.reason)

let stop_daemon d =
  (match Cl.connect ~timeout_s:60. d.socket with
  | Ok c ->
      ignore (Cl.shutdown c);
      Cl.close c
  | Error _ -> ());
  Thread.join d.thread

let upload c prog trace =
  match
    span "serve.upload" (fun () ->
        Cl.upload ~program:(Tq_vm.Objfile.encode prog) ~trace c)
  with
  | Ok id -> id
  | Error e -> failwith ("upload: " ^ e.Cl.kind ^ " " ^ e.reason)

let pings c =
  for _ = 1 to 5 do
    ignore (span "serve.ping" (fun () -> Cl.ping c))
  done

(* one served replay, from send until the report is received *)
let served c id tools =
  match Cl.replay ~tools ~slice ~period c id with
  | Error e -> Error ("replay: " ^ e.Cl.kind ^ " " ^ e.reason)
  | Ok jid -> (
      match Cl.report ~wait:true c jid with
      | Error e -> Error ("report: " ^ e.Cl.kind ^ " " ^ e.reason)
      | Ok { Cl.killed = Some k; _ } -> Error ("killed: " ^ k)
      | Ok { Cl.failures = (t, msg) :: _; _ } -> Error (t ^ ": " ^ msg)
      | Ok r -> Ok r.Cl.reports)

let note_server c =
  match Cl.stats c with
  | Error _ -> ()
  | Ok j ->
      let num path =
        let rec go j = function
          | [] -> (
              match j with
              | Json.Int i -> float_of_int i
              | Json.Float f -> f
              | _ -> nan)
          | k :: rest -> (
              match Json.member k j with Some j -> go j rest | None -> nan)
        in
        go j path
      in
      Spans.note "serve.server_p50_s" (num [ "latency"; "p50_s" ]);
      Spans.note "serve.lru.hit_ratio" (num [ "cache"; "hit_rate" ]);
      Spans.note "serve.lru.evictions" (num [ "cache"; "evictions" ]);
      Spans.note "serve.queue_peak" (num [ "queue"; "peak" ]);
      Spans.note "serve.busy" (num [ "busy_rejections" ]);
      Spans.note "serve.retries" (num [ "retries_observed" ])

(* The same trace replayed by a fresh daemon, whose supervised single pass
   over its decoded-chunk cache shares no code with [Replay.parallel] or a
   live engine beyond the tools themselves. *)
let served_oracle app path tools =
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d in
      Fun.protect
        ~finally:(fun () -> Cl.close c)
        (fun () ->
          pings c;
          let id = upload c app.prog (read_file path) in
          let r, dt = timed (fun () -> served c id tools) in
          Spans.note "serve.client_s" dt;
          note_server c;
          match r with
          | Ok reports -> List.map (fun (t, r) -> (t, Ok r)) reports
          | Error msg -> List.map (fun t -> (t, Error msg)) tools))

(* ---------- measuring ---------- *)

let tracing = ref false

let gc_alloc_words (a : Gc.stat) (b : Gc.stat) =
  b.minor_words +. b.major_words -. b.promoted_words
  -. (a.minor_words +. a.major_words -. a.promoted_words)

(* A host reference sample, between compactions: the heap it runs on is
   the same whatever the code under test keeps, and its garbage is gone
   before the timed work.  The peak resident set is reset after it, so
   that the peak read after the first round is that round's. *)
let ref_sample () =
  Gc.compact ();
  ignore (Hostref.sample ());
  reset_peak_rss ()

(* One set-up after a host reference sample, timed. *)
let timed_setup f =
  ref_sample ();
  let r, dt = timed f in
  Printf.eprintf "set-up: %.4f s\n%!" dt;
  (r, dt)

(* Repeat [f] [setup_reps] times; keep the last result, [drop] the others. *)
let repeat_setup ?(drop = ignore) f =
  let rec go i times =
    let r, dt = timed_setup f in
    if i = setup_reps then (r, List.rev (dt :: times))
    else begin
      drop r;
      go (i + 1) (dt :: times)
    end
  in
  go 1 []

(* Timed rounds until [seconds] have passed (at least one; two when traced),
   after a first timed [setup] whose result every round uses.  Before each
   later round [setup] runs again, timed, and its result is [drop]ped, until
   at least [setup_reps] set-ups have run.  Set-ups timed back to back at the
   start all caught the host in one state, and their median moved by a third
   between runs; spread over the run, they see the host the rounds see.
   [after] reduces a round's result to what its check needs, outside every
   timed interval.  A traced run alternates
   traced and untraced rounds; the difference of their medians is the
   tracing overhead.  Also returns the peak RSS after the first set-up and
   round: the high-water mark creeps up with every further round, so a
   faster host, which fits more rounds in, would otherwise report more
   memory.  The traced run notes the high-water mark after the last round. *)
let run_rounds ~seconds ~setup ?(drop = ignore) round after =
  let state, s0 = timed_setup setup in
  let setups = ref [ s0 ] in
  let resetup () =
    let r, dt = timed_setup setup in
    drop r;
    setups := dt :: !setups
  in
  let deadline = now () +. seconds in
  let rss_mb = ref nan in
  let rec go i acc =
    if i > 0 then resetup ();
    let traced = !tracing && i mod 2 = 0 in
    Spans.enabled := traced;
    ref_sample ();
    let g0 = Gc.quick_stat () in
    let r, dt = timed (fun () -> round state) in
    let g1 = Gc.quick_stat () in
    if i = 0 then rss_mb := peak_rss_mb ();
    Printf.eprintf "round %d: %.4f s\n%!" i dt;
    Spans.enabled := !tracing;
    Spans.note "gc.alloc_mwords" (gc_alloc_words g0 g1 /. 1e6);
    Spans.note "gc.major_collections"
      (float_of_int (g1.major_collections - g0.major_collections));
    Spans.note
      (if traced then "bench.traced_round_s" else "bench.untraced_round_s")
      dt;
    let acc = (dt, after r) :: acc in
    (* a traced run needs an untraced round too *)
    if now () < deadline || (!tracing && i = 0) then go (i + 1) acc
    else List.rev acc
  in
  let rounds = go 0 [] in
  Spans.note "mem.peak_rss_end_mb" (peak_rss_mb ());
  while List.length !setups < setup_reps do
    resetup ()
  done;
  (state, rounds, List.rev !setups, !rss_mb)

type measured = {
  setup_s : float list;
  rounds : float list;
  jobs : float list;  (** served job latencies; empty on the round workloads *)
  jobs_per_s : float;  (** served jobs per second; nan on the round workloads *)
  trace_bytes : int;
  rss_mb : float;
}

let of_rounds ~setup_s ~rounds ~trace_bytes ~rss_mb =
  {
    setup_s;
    rounds;
    jobs = [];
    jobs_per_s = nan;
    trace_bytes;
    rss_mb;
  }

(* Traced runs only: walk the layers the rounds and the oracle did not
   already time, on this workload's own program and trace.  [golden] is the
   oracle's reports; the live, sequential and served results must match it
   too. *)
let layer_sweep ~app ~path ~tools ~golden ~with_live ~with_sequential ~with_served =
  if with_live then begin
    let m = native app in
    Spans.note "dbi.guest_minstr" (float_of_int (Machine.instr_count m) /. 1e6);
    List.iter
      (fun tool ->
        let report, eng = live app tool in
        if tool = "tquad" then note_engine eng;
        check_reports "live vs replay" (List.filter (fun (t, _) -> t = tool) golden)
          [ (tool, Ok report) ])
      [ "tquad"; "quad" ]
  end;
  let r = span "trace.reader.load" (fun () -> Reader.load path) in
  Spans.note "trace.events" (float_of_int (Reader.n_events r));
  Spans.note "trace.chunks" (float_of_int (Reader.n_chunks r));
  Spans.note "trace.squash.event_ratio"
    (float_of_int (Reader.n_events r) /. float_of_int (max 1 (Reader.stored_events r)));
  Spans.note "trace.squash.repeat_chunks" (float_of_int (Reader.repeat_chunks r));
  ignore (span "trace.reader.crc" (fun () -> Reader.crc_check r));
  (* the reader is verified now: what follows decodes without CRC work *)
  span "trace.reader.decode" (fun () ->
      for i = 0 to Reader.n_chunks r - 1 do
        ignore (Sys.opaque_identity (Reader.chunk_events r i))
      done);
  if with_sequential then
    check_reports "sequential replay" golden
      (outcomes
         (span "trace.replay.sequential" (fun () ->
              Replay.sequential r (jobs app.prog tools))));
  (* a tool's self time: its single-job replay minus a replay with a job
     that takes every event and does nothing *)
  let empty = Replay.job "empty" (fun () -> (ignore, fun () -> "")) in
  ignore (span "trace.replay.empty" (fun () -> Replay.sequential r [ empty ]));
  List.iter
    (fun tool ->
      ignore
        (span ("consume." ^ tool) (fun () ->
             Replay.sequential r (jobs app.prog [ tool ]))))
    Toolset.names;
  if with_served then
    check_reports "served replay" golden (served_oracle app path tools)

(* ---------- workloads ---------- *)

(* The paper's case study, live: a fresh engine running tQUAD, then a fresh
   engine running QUAD, both reports rendered. *)
let wfs_live ~seed ~seconds =
  let scen = wfs_scenario ~chunks:live_chunks seed in
  let expected_wav = fst (Tq_wfs.Reference.render scen) in
  let wav_ok m =
    Machine.exit_code m = Some 0 && Harness.output_bytes m = expected_wav
  in
  let (app, m), rounds, setup_s, rss_mb =
    run_rounds ~seconds
      ~setup:(fun () ->
        let app = wfs_app scen in
        (app, native app))
      (fun (app, _) ->
        let tq, tq_eng = live app "tquad" in
        let q, q_eng = live app "quad" in
        (tq, tq_eng, q, q_eng))
      (fun (tq, tq_eng, q, q_eng) ->
        note_engine tq_eng;
        (* DBI transparency: instrumented runs still produce the reference *)
        op (wav_ok (Engine.machine tq_eng)) "tQUAD-instrumented output.wav";
        op (wav_ok (Engine.machine q_eng)) "QUAD-instrumented output.wav";
        digest_of [ ("tquad", Ok tq); ("quad", Ok q) ])
  in
  op (wav_ok m) "native wfs output.wav differs from Tq_wfs.Reference";
  Spans.note "dbi.guest_minstr" (float_of_int (Machine.instr_count m) /. 1e6);
  (* the oracle: live ≡ replay of a recording of the same run *)
  let path, rm = record app ~compress:true in
  op (wav_ok rm) "recorded wfs output.wav differs from Tq_wfs.Reference";
  let tools = [ "tquad"; "quad" ] in
  let golden =
    span "trace.replay.parallel" (fun () ->
        replay_parallel (Reader.load path) (jobs app.prog tools))
    |> outcomes
  in
  check_rounds "wfs-live round" golden rounds;
  if !tracing then
    layer_sweep ~app ~path ~tools ~golden ~with_live:false ~with_sequential:true
      ~with_served:true;
  of_rounds ~setup_s ~rounds:(List.map fst rounds)
    ~trace_bytes:(Unix.stat path).st_size ~rss_mb

(* Record once in setup; a round loads the container and replays it through
   all six tools on the sharded pipeline. *)
let replay_workload ~seconds ~make ~compress ~run_ok =
  let (app, path, m, _), rounds, setup_s, rss_mb =
    run_rounds ~seconds
      ~setup:(fun () ->
        let app = make () in
        let path, m = record app ~compress in
        (app, path, m, jobs app.prog Toolset.names))
      ~drop:(fun (_, p, _, _) -> Sys.remove p)
      (fun (_, path, _, all) ->
        let r = span "trace.reader.load" (fun () -> Reader.load path) in
        span "trace.replay.parallel" (fun () -> replay_parallel r all))
      (fun got -> digest_of (outcomes got))
  in
  run_ok m;
  let golden = live_oracle app Toolset.names in
  check_rounds "replay round" golden rounds;
  if !tracing then
    layer_sweep ~app ~path ~tools:Toolset.names ~golden ~with_live:true
      ~with_sequential:true ~with_served:true;
  of_rounds ~setup_s ~rounds:(List.map fst rounds)
    ~trace_bytes:(Unix.stat path).st_size ~rss_mb

let wfs_replay ~seed ~seconds =
  let scen = wfs_scenario ~chunks:replay_chunks seed in
  let expected_wav = fst (Tq_wfs.Reference.render scen) in
  replay_workload ~seconds ~compress:true
    ~make:(fun () -> wfs_app scen)
    ~run_ok:(fun m ->
      op
        (Machine.exit_code m = Some 0 && Harness.output_bytes m = expected_wav)
        "recorded wfs output.wav differs from Tq_wfs.Reference")

let chase_replay ~seed ~seconds =
  let nodes = chase_nodes and rounds = chase_walks in
  replay_workload ~seconds ~compress:false
    ~make:(fun () -> chase_app ~nodes ~rounds seed)
    ~run_ok:(fun m ->
      op
        (Machine.exit_code m = Some 0
        && Machine.stdout_contents m = chase_console ~nodes ~rounds)
        "recorded pointer_chase console output")

(* serve-mix sizing: [serve_k] resident traces whose decoded chunks
   together exceed the daemon's chunk cache, so the mix sees hits, misses
   and evictions, and a pool of small traces the daemon has not seen,
   uploaded during the mix.  Uploads cost about 0.15 s/MB, so the traces
   stay small and the cache is sized to them.  No observed or documented
   request mix exists for the daemon, so the mix is synthetic: half
   full-toolset replays, a quarter gprof replays, a quarter uploads, each
   replay on a resident trace drawn at random.  The chunk cache holds less
   than two traces, so a replay hits it about when its trace is the last
   one replayed.  With four traces, or with equal shares of the three
   kinds, the median job fell on the edge between two latency modes
   (full-toolset hits and misses, or gprof and full-toolset replays), and
   its IQR/median over five seeds reached 0.55.  With two traces it falls
   in the middle of the full-toolset hits.  The pool holds more uploads
   than a run can make. *)
let serve_k = 2
let serve_nodes = 1024
let serve_walks = 4
let serve_pool_per_s = 20
let serve_block = [| `Full; `Full; `Gprof; `Upload |]

(* the daemon keeps every finished job's reports, so its peak RSS grows
   with the jobs served; it is read once this many requests are done, so
   that a faster host, which serves more of them in a run, does not report
   more memory *)
let serve_rss_jobs = 100
let serve_cache_bytes = 16 * 1024 * 1024

type served_trace = { sapp : app; spath : string; bytes : string; id : string }

type mix_op =
  | Job of {
      full : bool;
      trace : int;
      traced : bool;
      latency : float;
      verdict : (unit, string) result;
    }
  | Upload of { fresh : int; id : string option }

let serve_mix ~seed ~seconds =
  let prepare ~nodes ~walks i =
    let app = chase_app ~nodes ~rounds:walks ((seed * 131) + i) in
    let path, m = record app ~compress:false in
    (app, path, m, read_file path)
  in
  (* the uploads' inputs, made once and untimed: the daemon sees none of
     them until the mix uploads it.  Only the trace bytes are kept and
     sent: a linked program is ~0.4 MiB in memory, and hundreds of them
     would make the benchmark's own pool the largest part of the peak RSS. *)
  let fresh =
    Array.init
      (serve_pool_per_s * int_of_float (Float.ceil seconds))
      (fun i ->
        let _, path, _, bytes = prepare ~nodes:16 ~walks:1 (100_000 + i) in
        Sys.remove path;
        bytes)
  in
  let max_traces = serve_k + Array.length fresh in
  let setup () =
    let base =
      List.init serve_k (prepare ~nodes:serve_nodes ~walks:serve_walks)
    in
    let d = start_daemon ~cache_bytes:serve_cache_bytes ~max_traces () in
    let c = connect d in
    let base =
      List.map
        (fun (sapp, spath, m, bytes) ->
          ({ sapp; spath; bytes; id = upload c sapp.prog bytes }, m))
        base
    in
    pings c;
    (d, c, base)
  in
  let (d, control, base), setup_s =
    repeat_setup
      ~drop:(fun (d, c, _) ->
        Cl.close c;
        stop_daemon d)
      setup
  in
  List.iter
    (fun (_, m) ->
      op
        (Machine.exit_code m = Some 0
        && Machine.stdout_contents m
           = chase_console ~nodes:serve_nodes ~rounds:serve_walks)
        "recorded pointer_chase console output")
    base;
  let base = Array.of_list (List.map fst base) in
  let next_fresh = ref 0 and log = ref [] and logged = ref 0 in
  let rss_mb = ref nan in
  let take_fresh () =
    if !next_fresh < Array.length fresh then begin
      incr next_fresh;
      Some (!next_fresh - 1)
    end
    else None
  in
  (* the oracle: the tools fed live from the traces' programs.  A served
     job is compared as soon as its timer stops and only the verdict is
     kept: holding every job's reports until the mix ends made the peak RSS
     grow with the number of jobs.  The comparison is a string equality, far
     below 1% of a job, inside the mix's wall time. *)
  let golden = Array.map (fun t -> live_oracle t.sapp Toolset.names) base in
  (* neither the dropped set-ups' daemons nor the oracle's live runs are
     part of the mix's memory *)
  reset_peak_rss ();
  let judge ~full ~trace result =
    let want =
      if full then golden.(trace)
      else List.filter (fun (t, _) -> t = "gprof") golden.(trace)
    in
    match result with
    | Error e -> Error e
    | Ok got ->
        let same (t, w) =
          match (w, List.assoc_opt t got) with
          | Ok w, Some r -> perturbed t r = w
          | _ -> false
        in
        if List.length got = List.length want && List.for_all same want then
          Ok ()
        else Error "reports differ from the live oracle"
  in
  let deadline = now () +. seconds in
  (* host reference samples, one per block, taken out of the mix's time *)
  let ref_s = ref 0. in
  (* one closed-loop client on the calling domain: it sends its next
     request once the last one completed.  Two clients on domains of their
     own, beside the daemon's two, put four domains on two vCPUs, and the
     mix's medians moved by a quarter between runs.  The requests come in
     blocks of [serve_block], each block a seeded shuffle, so every run
     has the same shares.  A traced run traces every other job, for the
     tracing overhead. *)
  let client () =
    let rng = Random.State.make [| seed |] in
    let block = Array.copy serve_block and pos = ref (Array.length serve_block) in
    let next_kind () =
      if !pos = Array.length block then begin
        ref_s := !ref_s +. Hostref.sample ();
        for i = Array.length block - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = block.(i) in
          block.(i) <- block.(j);
          block.(j) <- t
        done;
        pos := 0
      end;
      incr pos;
      block.(!pos - 1)
    in
    let c = connect d in
    let n = ref 0 in
    Fun.protect
      ~finally:(fun () -> Cl.close c)
      (fun () ->
        while now () < deadline do
          incr n;
          let kind = next_kind () in
          let up = if kind = `Upload then take_fresh () else None in
          let entry =
            match up with
            | Some f ->
                let id =
                  match
                    span "serve.upload" (fun () -> Cl.upload ~trace:fresh.(f) c)
                  with
                  | Ok id -> Some id
                  | Error _ -> None
                in
                Upload { fresh = f; id }
            | None ->
                let full = kind <> `Gprof in
                let trace = Random.State.int rng serve_k in
                let tools = if full then Toolset.names else [ "gprof" ] in
                let traced = !tracing && !n mod 2 = 0 in
                let job () = served c base.(trace).id tools in
                let r, latency =
                  timed (fun () -> if traced then span "serve.job" job else job ())
                in
                Job
                  { full; trace; traced; latency; verdict = judge ~full ~trace r }
          in
          log := entry :: !log;
          incr logged;
          if !logged = serve_rss_jobs then rss_mb := peak_rss_mb ()
        done)
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let (), mix_s = timed client in
  let g1 = Gc.quick_stat () in
  let rss_end = peak_rss_mb () in
  if Float.is_nan !rss_mb then rss_mb := rss_end;
  Spans.note "mem.peak_rss_end_mb" rss_end;
  note_server control;
  let log = List.rev !log in
  (* an upload must come back under the content id and describe the same
     trace *)
  let lat = ref [] and full_lat = ref [] in
  List.iter
    (function
      | Job { full; trace; traced; latency; verdict } ->
          lat := latency :: !lat;
          if full then begin
            full_lat := latency :: !full_lat;
            Spans.note
              (if traced then "bench.traced_round_s" else "bench.untraced_round_s")
              latency
          end;
          op (verdict = Ok ())
            (Printf.sprintf "served job on trace %d: %s" trace
               (match verdict with Ok () -> "ok" | Error e -> e))
      | Upload { fresh = f; id } ->
          let bytes = fresh.(f) in
          let verdict =
            match id with
            | None -> Error "refused"
            | Some id when id <> Tq_serve.Protocol.trace_id bytes ->
                Error ("unexpected id " ^ id)
            | Some id -> (
                match Cl.trace_info control id with
                | Error e -> Error ("trace-info: " ^ e.Cl.reason)
                | Ok j -> (
                    match Json.member "events" j with
                    | Some (Json.Int n) when n = Reader.n_events (Reader.of_string bytes) ->
                        Ok ()
                    | _ -> Error "trace-info describes another trace"))
          in
          op (verdict = Ok ())
            (Printf.sprintf "upload of fresh trace %d: %s" f
               (match verdict with Ok () -> "ok" | Error e -> e)))
    log;
  Spans.note "serve.client_s" (median !lat);
  let jobs_done = float_of_int (max 1 (List.length !lat)) in
  Spans.note "gc.alloc_mwords" (gc_alloc_words g0 g1 /. 1e6 /. jobs_done);
  Spans.note "gc.major_collections"
    (float_of_int (g1.major_collections - g0.major_collections) /. jobs_done);
  if !tracing then begin
    let t = base.(0) in
    check_reports "sharded replay" golden.(0)
      (span "trace.replay.parallel" (fun () ->
           replay_parallel (Reader.load t.spath) (jobs t.sapp.prog Toolset.names))
      |> outcomes);
    layer_sweep ~app:t.sapp ~path:t.spath ~tools:Toolset.names ~golden:golden.(0)
      ~with_live:true ~with_sequential:true ~with_served:false
  end;
  Cl.close control;
  stop_daemon d;
  {
    setup_s;
    rounds = !full_lat;
    jobs = !lat;
    jobs_per_s = float_of_int (List.length !lat) /. (mix_s -. !ref_s);
    trace_bytes = Array.fold_left (fun a t -> a + String.length t.bytes) 0 base;
    rss_mb = !rss_mb;
  }

let workloads =
  [ ("wfs-live", wfs_live);
    ("wfs-replay", wfs_replay);
    ("chase-replay", chase_replay);
    ("serve-mix", serve_mix) ]

(* ---------- metrics ---------- *)

(* job_p50_s, job_p90_s and jobs_per_s describe served jobs, on serve-mix.
   The result line carries every end-to-end metric on every workload, so on
   the round workloads they restate the median round (as 1 / round_s for
   the rate): they add nothing to a verdict on round_s and claim no
   percentile the rounds do not support.

   Times and rates are in seconds of the reference host (hostref.ml):
   [scale] is 1 on a host where a reference sample takes
   [Hostref.nominal_s].  [end_to_end ~scale:1.] gives them as measured. *)
let end_to_end ~scale m =
  let n l = List.length l in
  let round = median m.rounds in
  let p50, p90, rate, jobs =
    match m.jobs with
    | [] -> (round, round, 1. /. round, n m.rounds)
    | l -> (pct 50. l, pct 90. l, m.jobs_per_s, n l)
  in
  [ ("setup_s", "s", scale *. median m.setup_s, n m.setup_s);
    ("round_s", "s", scale *. round, n m.rounds);
    ("peak_rss_mb", "MiB", m.rss_mb, 1);
    ("trace_mb", "MiB", float_of_int m.trace_bytes /. 1048576., 1);
    ("job_p50_s", "s", scale *. p50, jobs);
    ("job_p90_s", "s", scale *. p90, jobs);
    ("jobs_per_s", "1/s", rate /. scale, jobs) ]

let host_scale () = Hostref.nominal_s /. median !Hostref.samples

let per_layer () =
  let d name = median (Spans.durations name) in
  let v name = median (Spans.noted name) in
  let native = d "dbi.native" and decode = d "trace.reader.decode" in
  let server_p50 = v "serve.server_p50_s" in
  [ ("minic.compile_s", "s", d "minic.compile");
    ("dbi.native_s", "s", native);
    ("dbi.guest_minstr", "Minstr", v "dbi.guest_minstr");
    ("dbi.native_mips", "Minstr/s", v "dbi.guest_minstr" /. native);
    ("dbi.chain_hit_ratio", "ratio", v "dbi.chain_hit_ratio");
    ("vm.page_hit_ratio", "ratio", v "vm.page_hit_ratio");
    ("tquad.live_s", "s", d "tquad.live");
    ("quad.live_s", "s", d "quad.live");
    ("dbi.slowdown_tquad", "x", d "tquad.live" /. native);
    ("dbi.slowdown_quad", "x", d "quad.live" /. native);
    ("report.render_s", "s", d "report.render");
    ("trace.probe.record_s", "s", d "trace.probe.record");
    ("trace.events", "count", v "trace.events");
    ("trace.chunks", "count", v "trace.chunks");
    ("trace.squash.event_ratio", "x", v "trace.squash.event_ratio");
    ("trace.squash.repeat_chunks", "count", v "trace.squash.repeat_chunks");
    ("trace.reader.load_s", "s", d "trace.reader.load");
    ("trace.reader.crc_s", "s", d "trace.reader.crc");
    ("trace.reader.decode_s", "s", decode);
    ("trace.reader.decode_mev_s", "Mevents/s", v "trace.events" /. decode /. 1e6);
    ("trace.replay.sequential_s", "s", d "trace.replay.sequential");
    ("trace.replay.decode_s", "s", v "trace.replay.decode_s");
    ("trace.replay.ordered_s", "s", v "trace.replay.ordered_s");
    ("trace.replay.shard_s", "s", v "trace.replay.shard_s");
    ("trace.replay.merge_s", "s", v "trace.replay.merge_s");
    ("trace.replay.peak_live_chunks", "count", v "trace.replay.peak_live_chunks") ]
  @ List.map
      (fun t ->
        ("consume." ^ t ^ "_s", "s", d ("consume." ^ t) -. d "trace.replay.empty"))
      Toolset.names
  @ [ ("gc.alloc_mwords", "Mwords", v "gc.alloc_mwords");
      ("gc.major_collections", "count", v "gc.major_collections");
      ("mem.peak_rss_end_mb", "MiB", v "mem.peak_rss_end_mb");
      ("serve.upload_s", "s", d "serve.upload");
      ("serve.ping_s", "s", d "serve.ping");
      ("serve.server_p50_s", "s", server_p50);
      ("serve.wire_s", "s", v "serve.client_s" -. server_p50);
      ("serve.lru.hit_ratio", "ratio", v "serve.lru.hit_ratio");
      ("serve.lru.evictions", "count", v "serve.lru.evictions");
      ("serve.queue_peak", "count", v "serve.queue_peak");
      ("serve.busy", "count", v "serve.busy");
      ("serve.retries", "count", v "serve.retries");
      ("host.calib_s", "s", median !Hostref.samples);
      ( "bench.span_overhead_s",
        "s",
        v "bench.traced_round_s" -. v "bench.untraced_round_s" ) ]

let json_number v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

(* ---------- self-test ---------- *)

(* Run every workload briefly in a child process: untraced and traced
   results must carry exactly the metrics BENCHMARK.json names, with their
   units, and pass every oracle; a run with a perturbed report must fail. *)
let self_test () =
  let spec = Json.of_string (read_file "BENCHMARK.json") in
  let field key m =
    match Json.member key m with Some (Json.Str s) -> s | _ -> ""
  in
  let entries key =
    match Json.member key spec with Some (Json.List l) -> l | _ -> []
  in
  let named key =
    List.map (fun m -> (field "name" m, field "unit" m)) (entries key)
  in
  let e2e = named "end_to_end" and layer = named "per_layer" in
  let wl =
    List.filter
      (fun n -> List.mem_assoc n workloads)
      (List.map (field "name") (entries "workloads"))
  in
  let problems = ref 0 in
  let expect ok what =
    Printf.printf "  %s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr problems
  in
  let run args =
    let out = fresh_path "out" in
    let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin fd Unix.stderr
    in
    Unix.close fd;
    let _, status = Unix.waitpid [] pid in
    let last =
      String.split_on_char '\n' (String.trim (read_file out))
      |> List.rev |> function l :: _ -> l | [] -> ""
    in
    (status = Unix.WEXITED 0, try Some (Json.of_string last) with _ -> None)
  in
  List.iter
    (fun w ->
      Printf.printf "%s\n%!" w;
      let base = [ "--workload"; w; "--seed"; "7"; "--seconds"; "1" ] in
      let check label want j =
        let metrics =
          match Json.member "metrics" j with Some (Json.Obj l) -> l | _ -> []
        in
        expect
          (List.sort compare (List.map fst metrics)
          = List.sort compare (List.map fst want))
          (label ^ ": exactly the named metrics");
        expect
          (List.for_all
             (fun (n, u) ->
               match List.assoc_opt n metrics with
               | Some m -> (
                   Json.member "unit" m = Some (Json.Str u)
                   &&
                   match Json.member "value" m with
                   | Some (Json.Float f) -> Float.is_finite f
                   | Some (Json.Int _) -> true
                   | _ -> false)
               | None -> false)
             want)
          (label ^ ": finite values with their units");
        expect
          (Json.member "correct" j = Some (Json.Bool true)
          && Json.member "failed" j = Some (Json.Int 0))
          (label ^ ": every oracle passes")
      in
      (match run (base @ [ "--trace"; "0" ]) with
      | true, Some j -> check "untraced" e2e j
      | _ -> expect false "untraced run exits 0 with a result line");
      (match run (base @ [ "--trace"; "1" ]) with
      | true, Some j -> check "traced" layer j
      | _ -> expect false "traced run exits 0 with a result line");
      match run (base @ [ "--trace"; "0"; "--perturb" ]) with
      | true, Some j ->
          expect
            (Json.member "correct" j = Some (Json.Bool false)
            && match Json.member "failed" j with Some (Json.Int n) -> n > 0 | _ -> false)
            "a perturbed report fails its oracle"
      | _ -> expect false "perturbed run exits 0 with a result line")
    wl;
  expect (List.length wl = List.length workloads) "BENCHMARK.json names every workload";
  cleanup ();
  if !problems = 0 then (print_endline "self-test passed"; 0)
  else (Printf.printf "self-test: %d problems\n" !problems; 1)

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let self = ref false in
  let usage = "tqbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S how long the rounds run");
      ("--trace", Arg.Int (fun t -> tracing := t = 1), "0|1 per-layer traced run");
      ("--perturb", Arg.Set perturb, " corrupt one report (self-test)");
      ("--self-test", Arg.Set self, " run every workload briefly and check it") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self then exit (self_test ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  Spans.enabled := !tracing;
  let m =
    Fun.protect ~finally:cleanup (fun () ->
        run ~seed:!seed ~seconds:!seconds)
  in
  Printf.printf "workload %s, seed %d: %d operations, %d failed\n" !workload
    !seed !attempted !failed;
  let scale = host_scale () in
  Printf.printf "host reference: median %.4f s over %d samples, scale %.4f\n"
    (median !Hostref.samples) (List.length !Hostref.samples) scale;
  Printf.printf "  %-14s %14s %14s\n" "" "reported" "as measured";
  List.iter2
    (fun (name, unit, v, n) (_, _, raw, _) ->
      Printf.printf "  %-14s %14.6f %14.6f %-4s (n=%d)\n" name v raw unit n)
    (end_to_end ~scale m) (end_to_end ~scale:1. m);
  let metrics =
    if !tracing then begin
      let path =
        Filename.concat out_dir
          (Printf.sprintf "spans-%s-%d.json" !workload !seed)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Spans.to_json ())));
      Printf.printf "spans written to %s\n" path;
      per_layer ()
    end
    else List.map (fun (name, unit, v, _) -> (name, unit, v)) (end_to_end ~scale m)
  in
  print_endline (result_line ~correct:(!failed = 0) metrics)

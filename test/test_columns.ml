(* Plain chunks as columns: every tool's [consume_plain] and every prefix
   tracker's [on_plain] must leave exactly what the event path leaves over
   the chunk's boxed events; a tool raising partway through a chunk fails
   alone; and the pipeline walks a v3 trace without allocating per event. *)

open Tq_vm
module Event = Tq_trace.Event
module Cols = Tq_trace.Cols
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Engine = Tq_dbi.Engine
module Call_stack = Tq_prof.Call_stack

(* ---------- column entry = event entry ---------- *)

(* A program's live event stream, ended by [End] as a recording is.  A
   trap or running out of fuel ends the stream where it stopped. *)
let events_of prog =
  let eng = Engine.create (Machine.create prog) in
  let out = ref [] in
  Probe.attach eng (fun ev -> out := ev :: !out);
  (try Engine.run ~fuel:2_000_000 eng with
  | Executor.Out_of_fuel _ | Machine.Trap _ | Invalid_argument _ -> ());
  let icount = Machine.instr_count (Engine.machine eng) in
  List.rev (Event.End { icount } :: !out)

(* No compiled program prefetches: after every third load, a prefetch of
   the next line at the same instruction count, so the cache simulator's
   prefetch hook and the other tools' discarding of prefetches are both
   exercised. *)
let with_prefetches evs =
  let n = ref 0 in
  List.concat_map
    (fun (ev : Event.t) ->
      match ev with
      | Load { icount; ea; _ } ->
          incr n;
          if !n mod 3 = 0 then
            [ ev; Event.Prefetch { icount; ea = ea + 64; size = 64 } ]
          else [ ev ]
      | _ -> [ ev ])
    evs

type source = Minic of string | Chase of int

let gen_source =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Minic s) Test_differential.gen_minic);
        (1, map (fun n -> Chase n) (int_range 8 96));
      ])

let print_source = function
  | Minic src -> src
  | Chase nodes -> Printf.sprintf "pointer chase, %d nodes" nodes

let program = function
  | Minic src -> Test_differential.compile src
  | Chase nodes -> Tq_apps.Apps.pointer_chase_program ~nodes ~rounds:2 ()

(* One buffer for every chunk of every case, so a cell a kind leaves
   unused holds some earlier chunk's value, not a fresh zero. *)
let buf = Cols.create 0

(* [f] over each chunk of a v3 reader, decoded into [buf]. *)
let each_chunk r f =
  for i = 0 to Reader.n_chunks r - 1 do
    match Reader.chunk_into r buf i with
    | Plain c -> f i c
    | Record _ -> QCheck.Test.fail_report "a v3 trace held a repeat chunk"
  done

(* One tool, two instances over the same chunks: one takes each chunk's
   boxed events through [consume], the other its columns through
   [consume_plain].  Both render the same report. *)
let check_tool (type c t)
    (module T : Tq_trace.Tool.S with type config = c and type t = t) name
    (config : c) prog ~render r =
  let by_event = T.create config prog and by_cols = T.create config prog in
  each_chunk r (fun _ c ->
      Cols.iter c (T.consume by_event);
      T.consume_plain by_cols c);
  let e = render by_event and c = render by_cols in
  if e <> c then
    QCheck.Test.fail_reportf "%s: consume_plain\n%s\n<> consume\n%s" name c e

(* A prefix tracker, two instances: their seeds agree after every chunk. *)
let check_prefix name (make : unit -> Replay.sink * (unit -> 's)) r =
  let ev_sink, ev_seed = make () and col_sink, col_seed = make () in
  each_chunk r (fun i c ->
      Cols.iter c ev_sink.on_event;
      col_sink.on_plain c;
      if compare (ev_seed ()) (col_seed ()) <> 0 then
        QCheck.Test.fail_reportf "%s: seeds differ after chunk %d" name i)

let qcheck_tools_take_columns =
  QCheck.Test.make ~count:20
    ~name:"every tool: consume_plain = consume over the boxed events"
    (QCheck.make
       ~print:(fun (src, cb) ->
         Printf.sprintf "chunk_bytes %d\n%s" cb (print_source src))
       QCheck.Gen.(pair gen_source (int_range 64 2048)))
    (fun (src, chunk_bytes) ->
      let prog = program src in
      let evs = with_prefetches (events_of prog) in
      let r = Reader.of_string (Test_trace.reencode ~chunk_bytes evs) in
      List.iter
        (fun policy ->
          let what name =
            Printf.sprintf "%s (%s)" name
              (match policy with
              | Call_stack.Track_all -> "track all"
              | Main_image_only -> "main image only")
          in
          check_tool
            (module Tq_tquad.Tquad)
            (what "tquad")
            { Tq_tquad.Tquad.slice_interval = 97; policy }
            prog ~render:Test_compress.render_tquad_series r;
          check_tool (module Tq_quad.Quad) (what "quad") policy prog
            ~render:Test_trace.render_quad r;
          check_tool
            (module Tq_prof.Cache_sim)
            (what "cache")
            { Tq_prof.Cache_sim.geometry = Tq_prof.Cache_sim.default_l1; policy }
            prog ~render:Tq_prof.Cache_sim.render r;
          check_tool (module Tq_prof.Footprint) (what "footprint") policy prog
            ~render:Tq_prof.Footprint.render r;
          check_prefix (what "call-stack prefix") (fun () ->
              Call_stack.prefix prog.Program.symtab policy)
            r)
        Call_stack.[ Track_all; Main_image_only ];
      check_tool (module Tq_gprofsim.Gprofsim) "gprof" 53 prog
        ~render:Test_compress.render_gprof_full r;
      check_tool (module Tq_prof.Ins_mix) "mix" () prog
        ~render:Test_compress.render_mix_full r;
      check_prefix "gprofsim prefix"
        (fun () -> (Option.get Tq_gprofsim.Gprofsim.shard).prefix 53 prog)
        r;
      true)

(* ---------- a tool raising partway through a plain chunk ---------- *)

exception Chunk_bomb

(* [sink], raising on the [k]-th event of the second plain chunk it takes
   with more than [k] events, after the events before it. *)
let bomb_sink ~k (sink : Replay.sink) =
  let chunks = ref 0 in
  let on_plain c =
    if Cols.length c > k then incr chunks;
    if !chunks = 2 && Cols.length c > k then begin
      for i = 0 to k - 1 do
        sink.on_event (Cols.get c i)
      done;
      raise Chunk_bomb
    end
    else sink.on_plain c
  in
  { sink with on_plain }

(* The job raising in the pipeline's ordered stage (its plain path), or in
   its range items (its shards). *)
let bombed ~k ~in_range (j : Replay.job) =
  if not in_range then
    {
      j with
      make =
        (fun () ->
          let sink, fin = j.make () in
          (bomb_sink ~k sink, fin));
    }
  else
    match j.sharded with
    | None -> invalid_arg "bombed: not sharded"
    | Some (Sharded spec) ->
        let shard seed =
          let sink, fin = spec.shard seed in
          (bomb_sink ~k sink, fin)
        in
        { j with sharded = Some (Sharded { spec with shard }) }

let test_chunk_failure () =
  let prog, evs = Lazy.force Test_trace.micro_recording in
  let raw = Test_trace.reencode ~chunk_bytes:512 evs in
  let seq = Replay.sequential (Reader.of_string raw) (Test_trace.tool_jobs prog) in
  List.iter
    (fun (victim, in_range, k) ->
      let jobs =
        List.map
          (fun (j : Replay.job) ->
            if j.name = victim then bombed ~k ~in_range j else j)
          (Test_trace.tool_jobs prog)
      in
      List.iter
        (fun domains ->
          let what =
            Printf.sprintf "%s raising at event %d of a chunk in %s, %d domain(s)"
              victim k
              (if in_range then "a range item" else "the ordered stage")
              domains
          in
          let par =
            Replay.parallel ~domains ~shards:3 (Reader.of_string raw) jobs
          in
          (match List.assoc victim par with
          | Error { Replay.exn = Chunk_bomb; _ } -> ()
          | Error f ->
              Alcotest.failf "%s: wrong failure %s" what
                (Replay.failure_message f)
          | Ok _ -> Alcotest.failf "%s: reported success" what);
          Alcotest.(check bool)
            (what ^ ": the other five = sequential")
            true
            (Test_trace.outcomes_equal
               (List.remove_assoc victim seq)
               (List.remove_assoc victim par)))
        [ 1; 2 ])
    [ ("cache", false, 0); ("cache", false, 7); ("tquad", true, 5) ]

(* ---------- the plain walk allocates nothing per event ---------- *)

(* One domain, one job that takes each chunk and does nothing: decode into
   the pooled column buffers and the hand-over allocate a few words per
   chunk, none per event.  The buffers themselves, too large for the minor
   heap, are allocated in the major heap, at most one per chunk the window
   lets live at once. *)
let test_plain_walk_allocation () =
  let path = Filename.temp_file "tq_alloc" ".trc" in
  let raw =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let prog =
          Tq_apps.Apps.pointer_chase_program ~nodes:1024 ~rounds:4 ()
        in
        let _events : int =
          Probe.record (Engine.create (Machine.create prog)) ~path
        in
        In_channel.with_open_bin path In_channel.input_all)
  in
  let r = Reader.of_string raw in
  Alcotest.(check int) "a v3 recording" 3 (Reader.version r);
  let idle =
    {
      Replay.name = "idle";
      wants = Event.all_kinds;
      sharded = None;
      make =
        (fun () ->
          ( { Replay.on_event = ignore; on_plain = ignore; on_repeat = ignore },
            fun () -> "" ));
    }
  in
  let stats = ref None in
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let out =
    Replay.parallel ~domains:1 ~stats:(fun s -> stats := Some s) r [ idle ]
  in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check bool) "the job ran" true (out = [ ("idle", Ok "") ]);
  let events = Reader.n_events r in
  let per_event = (minor1 -. minor0) /. float_of_int events in
  if per_event >= 0.1 then
    Alcotest.failf "%.0f minor words over %d events: %.3f per event"
      (minor1 -. minor0) events per_event;
  (* a buffer: six int columns and a byte column *)
  let buffer_words = 7 * (Reader.max_plain_events r + 2) in
  let window = (Option.get !stats).Replay.rs_batch in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  Alcotest.(check bool) "more chunks than the window" true
    (Reader.n_chunks r > window);
  if direct > float_of_int (window * buffer_words) then
    Alcotest.failf "%.0f words allocated in the major heap: over %d buffers"
      direct window

let suites =
  [
    ( "columns",
      [
        QCheck_alcotest.to_alcotest qcheck_tools_take_columns;
        Alcotest.test_case "a tool raising mid-chunk fails alone" `Quick
          test_chunk_failure;
        Alcotest.test_case "the plain walk allocates < 0.1 words per event"
          `Quick test_plain_walk_allocation;
      ] );
  ]

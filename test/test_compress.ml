(* v4 redundancy suppression: the compressed container must decode to the
   byte-identical event stream (and therefore byte-identical reports) while
   actually shrinking loop-dominated recordings.  These tests pin the whole
   contract: stream identity on wfs and on random MiniC programs, report
   identity through sequential / sharded / salvage replay, the wire format
   itself via a hand-assembled golden v4 fixture, and the reader's
   raw-vs-stored accounting. *)

module Event = Tq_trace.Event
module Writer = Tq_trace.Writer
module Reader = Tq_trace.Reader
module Squash = Tq_trace.Squash
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Program = Tq_vm.Program

let read_all path = In_channel.with_open_bin path In_channel.input_all

let events_of r =
  let out = ref [] in
  Reader.iter r (fun ev -> out := ev :: !out);
  List.rev !out

(* Record one scenario twice — plain v3 and compressed v4 — and return
   both raw container images.  Fresh machines, same program: the event
   streams are deterministic, so any divergence is the compressor's. *)
let record_both scen =
  let record ~compress =
    let path = Filename.temp_file "tq_cmp" ".trc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let prog = Tq_wfs.Harness.compile scen in
        let m = Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) prog in
        let eng = Engine.create m in
        let _n : int =
          Probe.record ~fuel:(Tq_wfs.Harness.fuel scen) ~compress eng ~path
        in
        (prog, read_all path))
  in
  let prog, plain = record ~compress:false in
  let _, compressed = record ~compress:true in
  (prog, plain, compressed)

let wfs_recording = lazy (record_both Tq_wfs.Scenario.tiny)

(* ---------- stream identity + compression ratio on wfs ---------- *)

let test_wfs_identity_and_ratio () =
  let _, plain, compressed = Lazy.force wfs_recording in
  let rp = Reader.of_string plain and rc = Reader.of_string compressed in
  Alcotest.(check int) "plain is v3" 3 (Reader.version rp);
  Alcotest.(check int) "compressed is v4" 4 (Reader.version rc);
  Alcotest.(check int) "same raw event count" (Reader.n_events rp)
    (Reader.n_events rc);
  Alcotest.(check bool) "decoded streams identical" true
    (events_of rp = events_of rc);
  Alcotest.(check bool) "repeat chunks present" true
    (Reader.repeat_chunks rc > 0);
  Alcotest.(check bool) "stored < raw" true
    (Reader.stored_events rc < Reader.n_events rc);
  Alcotest.(check int) "v3 stores everything" (Reader.n_events rp)
    (Reader.stored_events rp);
  let ratio =
    float_of_int (String.length plain) /. float_of_int (String.length compressed)
  in
  if ratio < 4.0 then
    Alcotest.failf "wfs compression ratio %.2fx < 4x (%d -> %d bytes)" ratio
      (String.length plain) (String.length compressed)

let test_reader_stats () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  Alcotest.(check int) "plain + repeat + body = chunks"
    (Reader.n_chunks r)
    (Reader.plain_chunks r + Reader.repeat_chunks r + Reader.body_chunks r);
  Alcotest.(check bool) "body defs present" true (Reader.body_chunks r > 0);
  Alcotest.(check bool) "bodies interned: fewer defs than repeats" true
    (Reader.body_chunks r < Reader.repeat_chunks r);
  (* chunk_event_count must report raw (expanded) counts and sum to n_events *)
  let sum = ref 0 in
  for i = 0 to Reader.n_chunks r - 1 do
    let n = Reader.chunk_event_count r i in
    Alcotest.(check int)
      (Printf.sprintf "chunk %d decode matches index" i)
      n
      (Array.length (Reader.chunk_events r i));
    sum := !sum + n
  done;
  Alcotest.(check int) "index counts are raw" (Reader.n_events r) !sum;
  Alcotest.(check int) "crc_check covers every chunk" (Reader.n_chunks r)
    (Reader.crc_check r)

(* ---------- report identity: live vs sequential vs sharded ----------

   The jobs, renderers and outcome comparator are [Test_trace]'s own — the
   exact full-state render functions the replay-equivalence tests use, so
   string equality here is full-tool-state equality. *)

let replay_jobs = Test_trace.tool_jobs
let outcomes_equal = Test_trace.outcomes_equal

let test_report_identity () =
  let prog, plain, compressed = Lazy.force wfs_recording in
  let baseline = Replay.sequential (Reader.of_string plain) (replay_jobs prog) in
  List.iter (fun (name, o) ->
      if Result.is_error o then Alcotest.failf "baseline job %s failed" name)
    baseline;
  let check what outcomes =
    Alcotest.(check bool) (what ^ " reports byte-identical to v3") true
      (outcomes_equal baseline outcomes)
  in
  let rc () = Reader.of_string compressed in
  check "sequential" (Replay.sequential (rc ()) (replay_jobs prog));
  check "sharded x1"
    (Replay.parallel ~domains:1 ~shards:1 (rc ()) (replay_jobs prog));
  check "sharded x4"
    (Replay.parallel ~domains:2 ~shards:4 (rc ()) (replay_jobs prog))

(* ---------- a sharded job failing in one mid-trace range ----------

   A hand-made shard spec whose prefix tracker numbers its snapshots, so
   shard [k] is seeded with [k]; in every shard [>= 1] it raises [at] one
   place: building the shard, per event, on the first repeat record it
   takes, or finishing the shard.  The job must fail alone: the six
   tools (five of them sharded over the same ranges) still equal the
   sequential oracle. *)

exception Range_bomb of int

let range_bomb ~at =
  (* counts the events, a record's by its size *)
  let count () =
    let n = ref 0 in
    ( { Replay.on_event = (fun _ -> incr n);
        on_repeat = (fun r -> n := !n + (r.Squash.iters * Array.length r.body)) },
      n )
  in
  let bomb k place = if k >= 1 && at = place then raise (Range_bomb k) in
  let shard k =
    bomb k `Start;
    let sink, n = count () in
    let on_event ev =
      bomb k `Event;
      sink.on_event ev
    in
    let on_repeat r =
      bomb k `Repeat;
      sink.on_repeat r
    in
    ( { Replay.on_event; on_repeat },
      fun () ->
        bomb k `Finish;
        n )
  in
  let spec =
    {
      Replay.prefix_wants = [];
      prefix =
        (fun () ->
          let snaps = ref 0 in
          ( { Replay.on_event = ignore; on_repeat = ignore },
            fun () ->
              let k = !snaps in
              incr snaps;
              k ));
      shard;
      merge = (fun a b -> a := !a + !b);
      render = (fun n -> string_of_int !n);
    }
  in
  {
    Replay.name = "range-bomb";
    wants = Event.all_kinds;
    make =
      (fun () ->
        let sink, n = count () in
        (sink, fun () -> string_of_int !n));
    sharded = Some (Replay.Sharded spec);
  }

let test_range_failure at () =
  let prog, _, compressed = Lazy.force wfs_recording in
  let rc () = Reader.of_string compressed in
  (* first in the job list, so its raise is mid-way through each fused
     event delivery of its range *)
  let jobs () = range_bomb ~at :: replay_jobs prog in
  let seq = Replay.sequential (rc ()) (replay_jobs prog) in
  List.iter
    (fun (domains, shards) ->
      let what = Printf.sprintf "domains %d, shards %d" domains shards in
      let par = Replay.parallel ~domains ~shards (rc ()) (jobs ()) in
      (match List.assoc "range-bomb" par with
      | Error { Replay.exn = Range_bomb k; _ } ->
          Alcotest.(check bool) (what ^ ": failed in a later range") true
            (k >= 1)
      | Error f ->
          Alcotest.failf "%s: wrong failure %s" what (Replay.failure_message f)
      | Ok _ -> Alcotest.failf "%s: the range bomb reported success" what);
      Alcotest.(check bool) (what ^ ": every other job = sequential") true
        (outcomes_equal seq (List.remove_assoc "range-bomb" par)))
    [ (1, 2); (1, 3); (2, 2); (2, 3) ]

(* ---------- repeat deliveries: conserved and shard-invariant ----------

   Every repeat chunk goes whole to every job once (a prefix tracker does
   not count), wherever the chunk's range falls: the deliveries equal
   repeat chunks x jobs at every shard and domain count.  The jobs are the
   CLI's (tool defaults), so the count is the one `replay --all --metrics`
   reports for this trace. *)
let test_repeat_conservation () =
  let prog, _, compressed = Lazy.force wfs_recording in
  let jobs =
    List.map
      (fun name ->
        Result.get_ok
          (Tq_report.Toolset.job ~prog
             ~slice:Tq_tquad.Tquad.default_slice_interval
             ~period:Tq_gprofsim.Gprofsim.default_period name))
      Tq_report.Toolset.names
  in
  let repeat_chunks = Reader.repeat_chunks (Reader.of_string compressed) in
  Alcotest.(check int) "repeat chunks in wfs tiny v4" 4675 repeat_chunks;
  List.iter
    (fun (domains, shards) ->
      let what = Printf.sprintf "domains %d, shards %d" domains shards in
      let st = ref None in
      let out =
        Replay.parallel ~domains ~shards
          ~stats:(fun s -> st := Some s)
          (Reader.of_string compressed) jobs
      in
      List.iter
        (fun (name, o) ->
          if Result.is_error o then Alcotest.failf "%s: %s failed" what name)
        out;
      let s = Option.get !st in
      Alcotest.(check int) (what ^ ": deliveries = chunks x jobs")
        (repeat_chunks * 6) s.Replay.rs_repeats)
    (List.concat_map
       (fun shards -> [ (1, shards); (2, shards) ])
       [ 1; 2; 3; 5 ])

(* ---------- round-trip property on arbitrary event streams ---------- *)

(* [Writer ~compress] must round-trip any event stream — including ones
   with no loop structure at all, adversarial key collisions, and streams
   that end mid-run (flush of an uncommitted or partially-matched run). *)
let qcheck_compress_roundtrip =
  QCheck.Test.make ~name:"compressed writer round-trips any event stream"
    ~count:120
    (QCheck.pair Test_trace.arb_events (QCheck.int_range 128 2048))
    (fun (evs, chunk_bytes) ->
      let path = Filename.temp_file "tq_cmp" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Writer.with_file ~chunk_bytes ~compress:true path (fun w ->
              List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          Reader.version r = 4
          && events_of r = evs
          && Reader.n_events r = List.length evs))

(* A synthetic perfectly-affine loop must actually commit to repeat chunks
   and reach a high event-level ratio — guards against the suppressor
   silently degrading to pass-through. *)
let test_affine_loop_compresses () =
  let evs = ref [] in
  for i = 0 to 999 do
    let icount = i * 10 in
    evs :=
      Event.Ret { icount = icount + 3; sp = 4096 - (i * 16) }
      :: Event.Store
           { icount = icount + 2; static = 7; ea = 8192 + (i * 8); size = 8;
             sp = 4096 - (i * 16) }
      :: Event.Load
           { icount = icount + 1; static = 7; ea = 4096 + (i * 8); size = 8;
             sp = 4096 - (i * 16) }
      :: Event.Block_exec { icount; addr = 0x400; n = 10 }
      :: !evs
  done;
  let evs = List.rev !evs in
  let path = Filename.temp_file "tq_cmp" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file ~compress:true path (fun w ->
          List.iter (Writer.emit w) evs);
      let plain = Filename.temp_file "tq_cmp" ".trc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove plain)
        (fun () ->
          Writer.with_file plain (fun w -> List.iter (Writer.emit w) evs);
          let r = Reader.load path in
          Alcotest.(check bool) "stream survives" true (events_of r = evs);
          Alcotest.(check bool) "repeat chunks" true
            (Reader.repeat_chunks r > 0);
          let stored = Reader.stored_events r and raw = Reader.n_events r in
          if stored * 20 > raw then
            Alcotest.failf "affine loop barely compressed: %d stored of %d raw"
              stored raw;
          let ratio =
            float_of_int (Reader.byte_size (Reader.load plain))
            /. float_of_int (Reader.byte_size r)
          in
          if ratio < 10.0 then
            Alcotest.failf "affine loop ratio %.1fx < 10x" ratio))

(* ---------- random MiniC programs: compressed record = plain record ----- *)

(* Record [src] plain (v3) and compressed (v4); both raw container
   images. *)
let record_minic src =
  let prog = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"gen" src ] in
  let record ~compress =
    let path = Filename.temp_file "tq_cmp" ".trc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let eng = Engine.create (Machine.create prog) in
        (* a generated program may exhaust the fuel budget — the probe
           still finalizes the container, and execution is deterministic,
           so both recordings truncate at the same event *)
        (try ignore (Probe.record ~fuel:200_000 ~compress eng ~path : int)
         with Tq_vm.Executor.Out_of_fuel _ -> ());
        read_all path)
  in
  (record ~compress:false, record ~compress:true)

let qcheck_minic_record_identity =
  QCheck.Test.make
    ~name:"record --compress = record on random MiniC programs" ~count:20
    (QCheck.make ~print:Fun.id Test_fuzz.gen_minic_valid)
    (fun src ->
      let plain, compressed = record_minic src in
      let rp = Reader.of_string plain and rc = Reader.of_string compressed in
      Reader.version rc = 4
      && events_of rp = events_of rc
      && String.length compressed <= String.length plain)

(* A generated program whose 83-event trace holds one short committed
   loop run (3 iterations of 11 events).  As a repeat — its chunk, a new
   body def and the split of the open plain chunk — it costs more than the
   events it elides (430 B against 427 B plain), so the writer must keep it
   plain. *)
let short_run_src =
  "int f(int a0) { int a; int b; int c; a = 0; b = 1; c = 2; if (a) { \
    return b; } else { c = (c + (47 + 82)); if (4) { return a; c = 57; \
    for (c = 0; c < 4; c = c + 1) { b = (a * (81 == b)); c = c; } } \
    else { return c; if (4) { c = b; } else { return b; } if (b) { b = \
    ((7 * 77) - (75 - 85)); c = 14; } else { c = ((93 * 14) - 18); b = \
    17; return b; } a = c; } c = ((99 < a) + (34 + 66)); for (c = 0; c \
    < 3; c = c + 1) { for (c = 0; c < 3; c = c + 1) { continue; } if \
    (c) { break; b = ((a - b) - b); b = 56; } else { c = (95 + 67); b \
    = (a - (63 + b)); b = (b * (c - c)); break; } } } return (c - c); \
    if (b) { if ((85 + 7)) { b = 36; a = ((84 + b) == b); } else { if \
    ((97 + 56)) { c = ((53 * c) - a); return ((b < c) + (68 + 55)); b \
    = 20; c = a; } else { b = a; c = c; } for (c = 0; c < 8; c = c + \
    1) { a = (a + (38 - c)); return (96 == (a + 95)); continue; } c = \
    ((44 - c) - (b - c)); } if (16) { if (95) { return ((c > c) > 27); \
    c = (c > 48); a = (52 == c); c = ((b * b) - (b * c)); } else { a = \
    b; } a = ((33 == a) > (b + c)); for (c = 0; c < 6; c = c + 1) { \
    continue; b = (14 * 38); } for (c = 0; c < 4; c = c + 1) { b = (c \
    < b); } } else { c = ((a * a) - (c - c)); } c = (c - b); } else { \
    if ((79 - 48)) { a = a; c = a; } else { for (c = 0; c < 9; c = c + \
    1) { break; } a = c; } b = 70; } return (c + (94 < 59)); return a; \
    }\n\
    int g() { int a; int b; int c; a = 0; b = 1; c = 2; for (c = 0; c \
    < 3; c = c + 1) { a = ((c > b) > (a - 85)); b = c; } return b; if \
    ((64 == 10)) { a = ((b > b) + c); b = ((c + 33) - (1 * c)); b = b; \
    } else { for (c = 0; c < 7; c = c + 1) { if ((a + a)) { continue; \
    break; c = ((b - 4) - (63 - 74)); } else { b = b; break; return \
    (44 - 48); } c = (c + 10); c = a; if (b) { a = ((28 * c) - (b * \
    a)); } else { a = a; } } } for (c = 0; c < 9; c = c + 1) { for (c \
    = 0; c < 9; c = c + 1) { c = (36 == (28 == a)); if ((a < a)) { \
    continue; } else { b = 17; break; continue; } } b = b; return c; } \
    return a; }\n\
    int main() { int a; int b; int c; a = f(3); b = g(); c = 0; if ((a \
    * 25)) { b = ((a < c) > (76 < a)); for (c = 0; c < 7; c = c + 1) { \
    if (c) { c = a; } else { a = ((b < 50) * (a + b)); break; break; } \
    } } else { if (75) { return 30; return a; if ((b - 37)) { c = ((0 \
    + b) - (88 - c)); } else { c = 49; return c; } } else { for (c = \
    0; c < 3; c = c + 1) { break; b = ((b == b) > b); c = (68 - 80); \
    return ((c * 52) < 74); } if (b) { b = (65 + (79 - 49)); } else { \
    a = a; } } if (6) { if (b) { a = (c - a); return a; } else { \
    return 13; } for (c = 0; c < 1; c = c + 1) { b = ((a - 50) * (c - \
    c)); } a = 61; b = a; } else { if (a) { b = (c * b); a = (2 - c); \
    } else { a = 79; return ((c == a) == 6); a = (a == 44); } c = b; a \
    = (a - (29 * b)); a = (b + (42 * 60)); } for (c = 0; c < 5; c = c \
    + 1) { b = (a == a); b = (46 * (c - 35)); break; } } if ((2 + b)) \
    { if ((b * a)) { for (c = 0; c < 6; c = c + 1) { break; } b = a; \
    for (c = 0; c < 2; c = c + 1) { c = (0 - a); } } else { a = 82; } \
    b = 56; for (c = 0; c < 7; c = c + 1) { continue; a = 48; b = c; \
    continue; } } else { return 44; if ((98 == c)) { if ((a + 73)) { a \
    = b; a = (59 > (c * a)); a = b; } else { b = (c + a); a = 46; \
    return ((21 == a) * (66 + b)); } for (c = 0; c < 9; c = c + 1) { b \
    = 63; a = a; } for (c = 0; c < 3; c = c + 1) { return ((c > c) - \
    a); break; a = (b * (b + c)); return 49; } b = (c + (b - a)); } \
    else { for (c = 0; c < 2; c = c + 1) { b = b; } b = (57 + (b * \
    45)); for (c = 0; c < 6; c = c + 1) { return (b - (11 + b)); } } \
    if (c) { for (c = 0; c < 6; c = c + 1) { continue; } c = ((20 - c) \
    - (51 + 44)); return c; if ((a + c)) { return 99; b = 49; b = (a + \
    (46 - b)); b = (a == (83 + 87)); } else { b = b; c = c; } } else { \
    if (b) { a = ((c * c) < (13 - b)); b = (2 - (a * c)); b = (a - \
    19); a = (76 == (94 < c)); } else { a = 16; c = ((49 * 96) * (b - \
    64)); b = c; } a = a; b = 55; } c = a; } for (c = 0; c < 3; c = c \
    + 1) { for (c = 0; c < 7; c = c + 1) { c = a; for (c = 0; c < 9; c \
    = c + 1) { continue; return 73; c = 95; c = b; } return b; } \
    continue; b = 50; } return a + b; }"

let test_short_run_stays_plain () =
  let plain, compressed = record_minic short_run_src in
  let rp = Reader.of_string plain and rc = Reader.of_string compressed in
  Alcotest.(check int) "v4" 4 (Reader.version rc);
  Alcotest.(check bool) "same events" true (events_of rp = events_of rc);
  if String.length compressed > String.length plain then
    Alcotest.failf "compressed %d B > plain %d B" (String.length compressed)
      (String.length plain)

(* ---------- salvage of corrupted v4 containers ---------- *)

let qcheck_v4_salvage_identity =
  QCheck.Test.make
    ~name:"sharded = sequential under salvage of a corrupted v4 trace"
    ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let prog, _, compressed = Lazy.force wfs_recording in
      let mutation = Tq_faultgen.Faultgen.random ~seed compressed in
      let mutated = Tq_faultgen.Faultgen.apply mutation compressed in
      match Reader.of_string ~mode:Reader.Salvage mutated with
      | exception Reader.Format_error _ -> (
          (* both paths must refuse identically *)
          match Reader.of_string ~mode:Reader.Salvage mutated with
          | exception Reader.Format_error _ -> true
          | _ -> false)
      | r1 ->
          let r2 = Reader.of_string ~mode:Reader.Salvage mutated in
          outcomes_equal
            (Replay.sequential r1 (replay_jobs prog))
            (Replay.parallel ~domains:2 ~shards:3 r2 (replay_jobs prog)))

(* Walk the chunk region with the self-delimiting headers and return the
   payload span (start, end) of the first chunk of [want]ed kind — the
   tests' own minimal scanner, so a mutation lands inside a real chunk and
   never accidentally in some lookalike payload byte. *)
let find_payload_span raw want =
  let pos = ref 15 (* header_bytes *) in
  let span = ref None in
  while !span = None do
    let kind = raw.[!pos] in
    incr pos;
    let _n = Tq_util.Leb128.read_u raw pos in
    let _fic = Tq_util.Leb128.read_u raw pos in
    let plen = Tq_util.Leb128.read_u raw pos in
    let pstart = !pos + 4 in
    if kind = want then span := Some (pstart, pstart + plen)
    else pos := pstart + plen
  done;
  Option.get !span

let flip_byte raw pos =
  let b = Bytes.of_string raw in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Bytes.to_string b

(* Tearing a byte out of a repeat chunk must drop that chunk and resync on
   the next one — salvage keeps everything else. *)
let test_torn_repeat_chunk_salvage () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  Alcotest.(check bool) "fixture has repeat chunks" true
    (Reader.repeat_chunks r > 0);
  (* corrupt the last payload byte (a field-table byte — the header fields
     stay structurally valid, only the CRC can catch it) *)
  let _, pend = find_payload_span compressed Writer.repeat_magic in
  let mutated = flip_byte compressed (pend - 1) in
  (match
     let r = Reader.of_string mutated in
     ignore (Reader.crc_check r : int)
   with
  | () -> Alcotest.fail "strict reader accepted a torn repeat chunk"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage mutated in
  let info =
    match Reader.salvage_info s with
    | Some i -> i
    | None -> Alcotest.fail "salvage reader has no scan info"
  in
  Alcotest.(check bool) "dropped at least one chunk" true
    (info.Reader.dropped_chunks >= 1);
  Alcotest.(check bool) "kept most chunks" true
    (info.Reader.salvaged_chunks >= Reader.n_chunks r - 2);
  Alcotest.(check bool) "salvaged events shrink" true
    (Reader.n_events s < Reader.n_events r)

(* Tearing a body-def chunk is worse than tearing a repeat: every repeat
   chunk referencing it becomes unexpandable.  Salvage must drop the def
   AND its dependents, never expand a repeat against wrong body bytes. *)
let test_torn_body_def_salvage () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  Alcotest.(check bool) "fixture has body defs" true
    (Reader.body_chunks r > 0);
  (* corrupt a blob byte (past the leading body-length ULEB): the strict
     loader catches the reference/def CRC mismatch at load time *)
  let pstart, _ = find_payload_span compressed Writer.body_magic in
  let mutated = flip_byte compressed (pstart + 1) in
  (match Reader.of_string mutated with
  | _ -> Alcotest.fail "strict load accepted a torn body def"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage mutated in
  let info = Option.get (Reader.salvage_info s) in
  (* the def plus at least one dependent repeat are gone *)
  Alcotest.(check bool) "dropped def and dependents" true
    (info.Reader.dropped_chunks >= 2);
  Alcotest.(check bool) "salvaged events shrink" true
    (Reader.n_events s < Reader.n_events r);
  Alcotest.(check bool) "no dangling repeats survive: stream decodes" true
    (List.length (events_of s) = Reader.n_events s)

(* A flipped chunk-kind byte (plain <-> repeat) must fail the CRC — v4
   checksums cover the kind byte precisely so mislabeled chunks cannot
   decode as the wrong kind. *)
let test_kind_flip_detected () =
  let _, _, compressed = Lazy.force wfs_recording in
  let r = Reader.of_string compressed in
  let mutated =
    Tq_faultgen.Faultgen.apply
      (Tq_faultgen.Faultgen.Flip_kind { index = 0 })
      compressed
  in
  (match Reader.of_string mutated with
  | _ -> Alcotest.fail "strict load accepted a flipped chunk kind"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage mutated in
  Alcotest.(check bool) "salvage drops only the flipped chunk" true
    (Reader.n_chunks s >= Reader.n_chunks r - 1)

(* ---------- golden fixtures: the wire format is pinned ---------- *)

(* Hand-assemble a container straight from docs/TRACE.md: header, the
   chunks [build] adds through [add_chunk] (which returns the chunk's file
   offset), index and trailer.  v4 CRCs cover the kind byte, v3's do not. *)
let assemble ~v4 build =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (if v4 then "TQTRC4\n" else "TQTRC3\n");
  Buffer.add_int64_le buf 0L (* fingerprint *);
  let chunks = ref [] in
  let add_chunk ~kind ~n ~first_icount payload =
    let off = Buffer.length buf in
    let meta = Buffer.create 16 in
    Tq_util.Leb128.write_u meta n;
    Tq_util.Leb128.write_u meta first_icount;
    Tq_util.Leb128.write_u meta (String.length payload);
    let meta = Buffer.contents meta in
    let crc = if v4 then Tq_util.Crc32.digest (String.make 1 kind) else 0 in
    let crc = Tq_util.Crc32.digest ~crc meta in
    let crc = Tq_util.Crc32.digest ~crc payload in
    Buffer.add_char buf kind;
    Buffer.add_string buf meta;
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int crc);
    Buffer.add_bytes buf b;
    Buffer.add_string buf payload;
    chunks := (off, first_icount, n) :: !chunks;
    off
  in
  build add_chunk;
  let chunks = List.rev !chunks in
  let index_offset = Buffer.length buf in
  Tq_util.Leb128.write_u buf (List.length chunks);
  let prev_off = ref 0 and prev_ic = ref 0 in
  List.iter
    (fun (off, ic, n) ->
      Tq_util.Leb128.write_u buf (off - !prev_off);
      Tq_util.Leb128.write_u buf (ic - !prev_ic);
      Tq_util.Leb128.write_u buf n;
      prev_off := off;
      prev_ic := ic)
    chunks;
  Buffer.add_int64_le buf (Int64.of_int index_offset);
  Buffer.add_string buf "TQTRIX1\n";
  Buffer.contents buf

let encode_events ~icount evs =
  let buf = Buffer.create 32 in
  let st = Event.fresh_state ~icount () in
  List.iter (Event.encode st buf) evs;
  Buffer.contents buf

(* A v4 container with one plain chunk, one body-def chunk and one repeat
   chunk referencing it.  If this fixture stops decoding, the wire format
   changed — which is a compatibility break, not a refactor. *)
let build_v4_golden () =
  assemble ~v4:true (fun add_chunk ->
      (* plain chunk: two events *)
      ignore
        (add_chunk ~kind:'\xA7' ~n:2 ~first_icount:100
           (encode_events ~icount:100
              [
                Event.Rtn_entry { icount = 100; routine = 1; sp = 4096 };
                Event.Load { icount = 101; static = 1; ea = 64; size = 8; sp = 4096 };
              ]));
      (* body-def chunk: the loop body [Load; Store] stored once, encoded
         relative to its own first icount (110), prefixed by its event
         count *)
      let body = Buffer.create 32 in
      Tq_util.Leb128.write_u body 2 (* body length B *);
      Buffer.add_string body
        (encode_events ~icount:110
           [
             Event.Load { icount = 110; static = 2; ea = 200; size = 4; sp = 4096 };
             Event.Store { icount = 111; static = 2; ea = 999; size = 4; sp = 4096 };
           ]);
      let body = Buffer.contents body in
      let def_off = add_chunk ~kind:'\xA9' ~n:0 ~first_icount:110 body in
      (* repeat chunk: 3 iterations of the def's body.
         Loads at ea 200,208,216 (affine +8); stores at 999,1000,900 (literal).
         icounts advance by 10 per iteration; sp fixed (affine 0). *)
      let payload = Buffer.create 64 in
      Tq_util.Leb128.write_u payload 2 (* body length B *);
      Tq_util.Leb128.write_u payload 3 (* iters *);
      Tq_util.Leb128.write_u payload def_off (* bref: the def's file offset *);
      Tq_util.Leb128.write_u payload (Tq_util.Crc32.digest body) (* bcrc *);
      (* field tables, canonical order: Load.icount, Load.ea, Load.sp,
         Store.icount, Store.ea, Store.sp.  Mode bitmap first: 6 fields, one
         byte, bit 4 (Store.ea) set = literal. *)
      Buffer.add_uint8 payload 0b0001_0000;
      Tq_util.Leb128.write_s payload 10;  (* Load.icount +10 *)
      Tq_util.Leb128.write_s payload 8;   (* Load.ea +8 *)
      Tq_util.Leb128.write_s payload 0;   (* Load.sp +0 *)
      Tq_util.Leb128.write_s payload 10;  (* Store.icount +10 *)
      Tq_util.Leb128.write_s payload 1; Tq_util.Leb128.write_s payload (-100);
                                          (* Store.ea literal: +1, -100 *)
      Tq_util.Leb128.write_s payload 0;   (* Store.sp +0 *)
      ignore
        (add_chunk ~kind:'\xA8' ~n:6 ~first_icount:110 (Buffer.contents payload)))

let test_v4_golden_fixture () =
  let raw = build_v4_golden () in
  let r = Reader.of_string raw in
  Alcotest.(check int) "version" 4 (Reader.version r);
  Alcotest.(check int) "n_events (raw)" 8 (Reader.n_events r);
  Alcotest.(check int) "stored events" 4 (Reader.stored_events r);
  Alcotest.(check int) "plain chunks" 1 (Reader.plain_chunks r);
  Alcotest.(check int) "body-def chunks" 1 (Reader.body_chunks r);
  Alcotest.(check int) "repeat chunks" 1 (Reader.repeat_chunks r);
  let expect =
    [
      Event.Rtn_entry { icount = 100; routine = 1; sp = 4096 };
      Event.Load { icount = 101; static = 1; ea = 64; size = 8; sp = 4096 };
      Event.Load { icount = 110; static = 2; ea = 200; size = 4; sp = 4096 };
      Event.Store { icount = 111; static = 2; ea = 999; size = 4; sp = 4096 };
      Event.Load { icount = 120; static = 2; ea = 208; size = 4; sp = 4096 };
      Event.Store { icount = 121; static = 2; ea = 1000; size = 4; sp = 4096 };
      Event.Load { icount = 130; static = 2; ea = 216; size = 4; sp = 4096 };
      Event.Store { icount = 131; static = 2; ea = 900; size = 4; sp = 4096 };
    ]
  in
  Alcotest.(check bool) "golden stream decodes exactly" true
    (events_of r = expect);
  (* the def decodes to nothing of its own; the repeat decodes in
     isolation (chunk cache path) by resolving it *)
  Alcotest.(check int) "body def decodes to no events" 0
    (Array.length (Reader.chunk_events r 1));
  Alcotest.(check int) "repeat chunk decodes standalone" 6
    (Array.length (Reader.chunk_events r 2));
  (* and salvage of the same image finds all three chunks *)
  let s = Reader.of_string ~mode:Reader.Salvage raw in
  Alcotest.(check int) "salvage keeps all chunks" 3 (Reader.n_chunks s);
  Alcotest.(check bool) "salvage stream identical" true (events_of s = expect)

(* ---------- crafted containers: a chunk claiming more than it holds ------

   Each container has valid CRCs, a valid index and a valid last chunk, so
   only the reader's per-chunk bounds stand between it and a decoder asked
   for more events than the file holds. *)

(* A v3 plain chunk claiming 2^61 events over a 2-byte payload (one [Ret]),
   then a plain [End]. *)
let build_overclaiming_plain () =
  assemble ~v4:false (fun add_chunk ->
      ignore
        (add_chunk ~kind:'\xA7' ~n:(1 lsl 61) ~first_icount:0
           (encode_events ~icount:0 [ Event.Ret { icount = 0; sp = 0 } ]));
      ignore
        (add_chunk ~kind:'\xA7' ~n:1 ~first_icount:10
           (encode_events ~icount:10 [ Event.End { icount = 10 } ])))

(* A v4 repeat of a one-event body for 2^40 iterations (all fields affine),
   its body def, then a plain [End]. *)
let build_overcapped_repeat () =
  let iters = 1 lsl 40 in
  assemble ~v4:true (fun add_chunk ->
      let body = Buffer.create 16 in
      Tq_util.Leb128.write_u body 1;
      Buffer.add_string body
        (encode_events ~icount:0
           [ Event.Load { icount = 0; static = 0; ea = 0; size = 4; sp = 0 } ]);
      let body = Buffer.contents body in
      let def_off = add_chunk ~kind:'\xA9' ~n:0 ~first_icount:0 body in
      let payload = Buffer.create 32 in
      List.iter (Tq_util.Leb128.write_u payload)
        [ 1; iters; def_off; Tq_util.Crc32.digest body ];
      Buffer.add_uint8 payload 0 (* 3 fields, all affine *);
      List.iter (Tq_util.Leb128.write_s payload) [ 1; 4; 0 ];
      ignore
        (add_chunk ~kind:'\xA8' ~n:iters ~first_icount:0
           (Buffer.contents payload));
      ignore
        (add_chunk ~kind:'\xA7' ~n:1 ~first_icount:iters
           (encode_events ~icount:iters [ Event.End { icount = iters } ])))

(* A strict load refuses the container; a salvage load drops the chunk and
   keeps the [End] (salvage answers every container with a whole header);
   strict replay exits 3 for every tool. *)
let check_crafted_refused raw () =
  (match Reader.of_string raw with
  | _ -> Alcotest.fail "strict load accepted the crafted chunk"
  | exception Reader.Format_error _ -> ());
  let s = Reader.of_string ~mode:Reader.Salvage raw in
  Alcotest.(check int) "salvage keeps only the End" 1 (Reader.n_events s);
  Alcotest.(check bool) "salvage reports the drop" true
    ((Option.get (Reader.salvage_info s)).Reader.dropped_chunks >= 1);
  let src = Test_dataflow.write_tmp ".mc" "int main() { return 0; }\n" in
  let trc = Test_dataflow.write_tmp ".trc" raw in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; trc ])
    (fun () ->
      List.iter
        (fun args ->
          Alcotest.(check int) ("replay " ^ args ^ ": 3") 3
            (Test_dataflow.run_cli
               (Printf.sprintf "replay %s %s %s" trc src args)))
        ("--all"
        :: List.map (( ^ ) "--tool ")
             [ "tquad"; "quad"; "gprof"; "mix"; "cache"; "footprint" ]))

(* The v4 writer's own output for a fixed stream is pinned byte-for-byte
   against the same hand-assembly — writer drift breaks old readers. *)
let test_v4_writer_matches_golden () =
  (* feed the writer the exact stream the golden fixture encodes; force the
     repeat record through emit_repeat-equivalent squash output by using a
     Squash instance directly *)
  let w_chunks = ref [] in
  let out =
    {
      Squash.out_plain = (fun ev -> w_chunks := `P ev :: !w_chunks);
      Squash.out_repeat = (fun r -> w_chunks := `R r :: !w_chunks);
    }
  in
  let sq = Squash.create out in
  (* 16 iterations of [Block_exec; Load] with affine ea: 32 raw events, the
     fewest a run commits with *)
  for i = 0 to 15 do
    Squash.feed sq
      (Event.Block_exec { icount = i * 10; addr = 0x40; n = 5 });
    Squash.feed sq
      (Event.Load
         { icount = (i * 10) + 1; static = 3; ea = 100 + (i * 8); size = 4;
           sp = 256 })
  done;
  Squash.flush sq;
  let repeats =
    List.filter_map (function `R r -> Some r | `P _ -> None) !w_chunks
  in
  match repeats with
  | [ (r : Squash.repeat) ] ->
      Alcotest.(check int) "body length" 2 (Array.length r.body);
      Alcotest.(check int) "iterations" 16 r.iters;
      (* fields: Block_exec.icount, Load.icount, Load.ea, Load.sp *)
      Alcotest.(check int) "field count" 4 (Array.length r.literal);
      Alcotest.(check bool) "all affine" true
        (Array.for_all not r.literal);
      Alcotest.(check int) "ea stride" 8 r.stride.(2)
  | l -> Alcotest.failf "expected exactly one repeat record, got %d" (List.length l)

(* ---------- a v4 container is a function of its event stream ----------

   The recorder keys repeated loop bodies on nothing but the events it is
   fed: re-encoding a recording's decoded stream through a fresh
   compressing writer must reproduce the recorded file byte for byte.  Any
   engine state leaking into the writer (a compiled-trace id, a cache
   generation) would break this. *)

let reencode r =
  let path = Filename.temp_file "tq_reenc" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file ~compress:true ~fingerprint:(Reader.fingerprint r) path
        (fun w -> Reader.iter r (Writer.emit w));
      read_all path)

let test_container_is_function_of_stream () =
  let check what recorded =
    let r = Reader.of_string recorded in
    Alcotest.(check int) (what ^ ": recorded as v4") 4 (Reader.version r);
    Alcotest.(check bool) (what ^ ": repeat chunks present") true
      (Reader.repeat_chunks r > 0);
    Alcotest.(check bool) (what ^ ": re-encode is byte-identical") true
      (String.equal recorded (reencode r))
  in
  let _, _, wfs = Lazy.force wfs_recording in
  check "wfs tiny" wfs;
  let chase =
    let path = Filename.temp_file "tq_chase" ".trc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let prog = Tq_apps.Apps.pointer_chase_program () in
        let _n : int =
          Probe.record ~compress:true (Engine.create (Machine.create prog))
            ~path
        in
        read_all path)
  in
  check "pointer-chase" chase

(* ---------- closed-form repeat records vs expansion ----------

   Every tool takes every v4 repeat record ([Tool.S.consume_repeat]):
   tQUAD, the footprint tool, gprofsim and the instruction mix in closed
   form where they can, QUAD and the cache simulator by walking it in
   order.  Taking a record must leave a tool exactly as [consume] over the
   expanded events would: after the same prefix and suffix events, both
   render the same report.  Random records cover negative and zero
   strides, slice and sampling-period boundaries inside a body (small
   intervals), address runs crossing [sp - stack_red_zone] and
   [stack_top], zero-length block copies, and bodies off the closed forms:
   a call or return, a literal field, a block copy whose length moves,
   blocks that do not tile their iteration. *)

module Layout = Tq_vm.Layout
module Symtab = Tq_vm.Symtab

let oracle_prog = lazy (Tq_wfs.Harness.compile Test_trace.micro_scen)

type repeat_case = {
  rc_repeat : Squash.repeat;
  rc_prefix : Event.t list;
  rc_suffix : Event.t list;
  rc_slice : int;
  rc_period : int;
  rc_policy : Tq_prof.Call_stack.policy;
  rc_calls : bool;  (* the body holds a Rtn_entry or a Ret *)
  rc_access_walked : bool;
      (* an access field is literal, or a block copy's length moves *)
}

(* One random case, from a seed: the generator builds whole records with
   their field tables, which QCheck's combinators would only obscure. *)
let repeat_case seed =
  let prog = Lazy.force oracle_prog in
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let pick l = List.nth l (int (List.length l)) in
  let n_code = Array.length prog.Program.code in
  let n_sym = Symtab.count prog.symtab in
  let main_id =
    let rec go i =
      if i >= n_sym then 0
      else if (Symtab.by_id prog.symtab i).Symtab.is_main_image then i
      else go (i + 1)
    in
    go 0
  in
  let code_addr n = Layout.text_base + (4 * int (n_code - n)) in
  let iters = 2 + int 39 in
  let base = int 300 in
  let top = Layout.stack_top and red = Layout.stack_red_zone in
  (* body events with their per-field strides, in field order *)
  let body = ref [] in
  let push ev strides = body := (ev, strides) :: !body in
  (* an address with its stride: global data, a run across the red-zone
     edge of a moving stack pointer, or a run across [stack_top] *)
  let address ~size =
    match int 3 with
    | 0 ->
        let sp = top - 0x1000 - int 0x1000 in
        let d =
          pick [ 0; size; -size; size / 2; 4096; (-3 * size) - 1; int 33 - 16 ]
        in
        (0x1000_0000 + int 0x10000, d, sp, pick [ 0; 0; 8; -8 ])
    | 1 ->
        let sp = top - 0x10000 - int 0x1000 in
        (sp - red + int 81 - 40, int 33 - 16, sp, pick [ 0; 8; -8; 16 ])
    | _ -> (top + int 81 - 40, int 33 - 16, top - 0x100000, 0)
  in
  let cur = ref base and blocks = ref [] in
  for _ = 0 to int 4 do
    let n = 1 + int 12 in
    let addr = code_addr n in
    push (Event.Block_exec { icount = !cur; addr; n }) [ `Ic ];
    blocks := n :: !blocks;
    for _ = 1 to int 4 do
      let icount = !cur + int n in
      let static = int (n_sym + 1) - 1 in
      match int 5 with
      | 0 | 1 ->
          let size = pick [ 0; 1; 2; 4; 8; 16 ] in
          let ea, dea, sp, dsp = address ~size in
          push
            (Event.Load { icount; static; ea; size; sp })
            [ `Ic; `V dea; `V dsp ]
      | 2 | 3 ->
          let size = pick [ 0; 1; 2; 4; 8; 16 ] in
          let ea, dea, sp, dsp = address ~size in
          push
            (Event.Store { icount; static; ea; size; sp })
            [ `Ic; `V dea; `V dsp ]
      | _ ->
          let len = if int 3 = 0 then 0 else int 64 in
          let src, dsrc, sp, dsp = address ~size:len in
          let dst, ddst, _, _ = address ~size:len in
          let dlen = if int 8 = 0 then 1 + int 3 else 0 in
          push
            (Event.Block_copy { icount; static; src; dst; len; sp })
            [ `Ic; `V dsrc; `V ddst; `V dlen; `V dsp ]
    done;
    cur := !cur + n
  done;
  let d = !cur - base in
  let calls = int 6 = 0 in
  if calls then begin
    let icount = base + int d and sp = top - 0x2000 in
    if int 2 = 0 then
      push (Event.Rtn_entry { icount; routine = int n_sym; sp }) [ `Ic; `V 0 ]
    else push (Event.Ret { icount; sp }) [ `Ic; `V 0 ]
  end;
  let body_l = List.rev !body in
  let body = Array.of_list (List.map fst body_l) in
  let strides =
    Array.of_list
      (List.concat_map
         (fun (_, st) -> List.map (function `Ic -> d | `V v -> v) st)
         body_l)
  in
  let nf = Array.length strides in
  let foff = Array.make (Array.length body + 1) 0 in
  Array.iteri
    (fun k ev -> foff.(k + 1) <- foff.(k) + Event.num_fields ev)
    body;
  (* which body event owns field [f] *)
  let owner f =
    let k = ref 0 in
    while foff.(!k + 1) <= f do incr k done;
    body.(!k)
  in
  let is_access = function
    | Event.Load _ | Event.Store _ | Event.Block_copy _ -> true
    | _ -> false
  in
  let is_exec = function Event.Block_exec _ -> true | _ -> false in
  let literal = Array.make nf false and lits = Array.make nf [||] in
  let lit_access = ref false in
  if int 5 = 0 then begin
    let f = int nf in
    literal.(f) <- true;
    lits.(f) <- Array.init (iters - 1) (fun _ -> max 0 strides.(f) + int 5);
    if is_access (owner f) then lit_access := true
  end;
  (* blocks that stop tiling: one block's icount stride off by one *)
  let untiled = int 8 = 0 in
  if untiled then begin
    let k = ref (int (Array.length body)) in
    while not (is_exec body.(!k)) do k := (!k + 1) mod Array.length body done;
    strides.(foff.(!k)) <- d + 1
  end;
  let moving_len =
    Array.exists Fun.id
      (Array.mapi
         (fun k ev ->
           match ev with
           | Event.Block_copy _ -> strides.(foff.(k) + 3) <> 0
           | _ -> false)
         body)
  in
  let stop = base + (iters * d) in
  let prefix =
    Event.Rtn_entry { icount = 0; routine = main_id; sp = top - 8 }
    :: (if base > 0 then [ Event.Block_exec { icount = 0; addr = code_addr base; n = base } ]
        else [])
  in
  let period = 3 + int 50 in
  let suffix =
    let n = 1 + int (2 * period) in
    [ Event.Block_exec { icount = stop; addr = code_addr n; n };
      Event.Load
        { icount = stop; static = main_id; ea = 0x1000_0000; size = 4; sp = top - 8 } ]
  in
  {
    rc_repeat = { Squash.body; iters; literal; stride = strides; lits };
    rc_prefix = prefix;
    rc_suffix = suffix;
    rc_slice = 5 + int 60;
    rc_period = period;
    rc_policy = pick Tq_prof.Call_stack.[ Track_all; Main_image_only ];
    rc_calls = calls;
    rc_access_walked = !lit_access || moving_len;
  }

let print_repeat_case seed =
  let c = repeat_case seed in
  let r = c.rc_repeat in
  Printf.sprintf "seed %d: iters %d, slice %d, period %d\nbody: %s\nstrides: %s\nliteral: %s"
    seed r.iters c.rc_slice c.rc_period
    (String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Event.pp) r.body)))
    (String.concat " " (Array.to_list (Array.map string_of_int r.stride)))
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun f l -> if l then string_of_int f else "") r.literal)))

(* The tool's report after prefix, record and suffix: the record taken
   whole when [closed], else expanded into [consume]. *)
let through (type c t)
    (module T : Tq_trace.Tool.S with type config = c and type t = t)
    (config : c) ~render c ~closed =
  let t = T.create config (Lazy.force oracle_prog) in
  List.iter (T.consume t) c.rc_prefix;
  if closed then T.consume_repeat t c.rc_repeat
  else Squash.expand c.rc_repeat (T.consume t);
  List.iter (T.consume t) c.rc_suffix;
  render t

(* every per-slice byte count, beyond the rendered totals *)
let render_tquad_series t =
  Test_trace.render_tquad t
  ^ String.concat ""
      (List.map
         (fun r ->
           String.concat ""
             (List.map
                (fun m ->
                  String.concat " "
                    (Array.to_list
                       (Array.map string_of_int (Tq_tquad.Tquad.bytes_series t r m)))
                  ^ "\n")
                Tq_tquad.Tquad.[ Read_incl; Read_excl; Write_incl; Write_excl ]))
         (Tq_tquad.Tquad.kernels t))

let render_gprof_full g =
  String.concat ""
    (List.map
       (fun (row : Tq_gprofsim.Gprofsim.row) ->
         Printf.sprintf "%s %d %d\n" row.routine.Symtab.name row.samples row.calls)
       (Tq_gprofsim.Gprofsim.flat_profile ~main_image_only:false g))
  ^ Tq_gprofsim.Gprofsim.call_graph_report ~main_image_only:false g

let render_mix_full m =
  Tq_prof.Ins_mix.render m
  ^ String.concat ""
      (List.map
         (fun ((r : Symtab.routine), counts) ->
           r.name ^ ":"
           ^ String.concat " " (Array.to_list (Array.map string_of_int counts))
           ^ "\n")
         (Tq_prof.Ins_mix.per_kernel m))

(* Cases through each of tQUAD's and the footprint tool's two branches in
   one run: the closed form, and the in-order walk a call, a return or a
   non-affine access field sends a record to. *)
let closed_cases = ref 0
let walked_cases = ref 0

let qcheck_repeat_closed_form =
  QCheck.Test.make ~count:400
    ~name:"closed-form repeat records report as their expansion"
    (QCheck.make ~print:print_repeat_case QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let c = repeat_case seed in
      if c.rc_calls || c.rc_access_walked then incr walked_cases
      else incr closed_cases;
      let check name run =
        let closed = run ~closed:true and expanded = run ~closed:false in
        if closed <> expanded then
          QCheck.Test.fail_reportf "%s: record taken whole\n%s\n<> expansion\n%s"
            name closed expanded
      in
      check "tquad"
        (through
           (module Tq_tquad.Tquad)
           { Tq_tquad.Tquad.slice_interval = c.rc_slice; policy = c.rc_policy }
           ~render:render_tquad_series c);
      check "footprint"
        (through (module Tq_prof.Footprint) c.rc_policy
           ~render:Tq_prof.Footprint.render c);
      check "gprof"
        (through (module Tq_gprofsim.Gprofsim) c.rc_period
           ~render:render_gprof_full c);
      check "mix" (through (module Tq_prof.Ins_mix) () ~render:render_mix_full c);
      check "quad"
        (through (module Tq_quad.Quad) c.rc_policy
           ~render:Test_trace.render_quad c);
      check "cache"
        (through
           (module Tq_prof.Cache_sim)
           { Tq_prof.Cache_sim.geometry = Tq_prof.Cache_sim.default_l1;
             policy = c.rc_policy }
           ~render:Tq_prof.Cache_sim.render c);
      true)

let test_repeat_closed_form =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_repeat_closed_form in
  ( name,
    speed,
    fun () ->
      closed_cases := 0;
      walked_cases := 0;
      run ();
      if !closed_cases = 0 || !walked_cases = 0 then
        Alcotest.failf "tQUAD/footprint branches: %d closed-form, %d walked cases"
          !closed_cases !walked_cases )

(* ---------- the in-order record walk vs expansion ----------

   QUAD, the cache simulator and the shard prefix trackers take every
   record by walking its fields in order ([Squash.fields]/[advance])
   instead of expanding it.  The walk must yield, event for event, what
   [Squash.expand] yields and what the record means by definition (field
   [f] of iteration [i] is the body's value plus the first [i] deltas);
   [Call_stack.attribute_record] must hand [access] and [prefetch] exactly
   what [attribute] and a prefetch arm would over the expanded events, in
   order, and leave the same stack; and each prefix tracker must snapshot
   the seed its event path would.  Random records mix every event kind,
   affine and literal fields, calls and returns that pop or miss. *)

module Call_stack = Tq_prof.Call_stack

let random_record seed =
  let prog = Lazy.force oracle_prog in
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let pick l = List.nth l (int (List.length l)) in
  let n_sym = Symtab.count prog.Program.symtab in
  let top = Layout.stack_top in
  let icount = ref (int 1000) in
  let body =
    Array.init
      (1 + int 12)
      (fun _ ->
        icount := !icount + int 5;
        let icount = !icount and sp = top - (8 * (1 + int 4)) in
        let ea = 0x1000_0000 + int 0x100 and static = int (n_sym + 1) - 1 in
        match int 8 with
        | 0 -> Event.Rtn_entry { icount; routine = int n_sym; sp }
        | 1 -> Event.Ret { icount; sp }
        | 2 -> Event.Load { icount; static; ea; size = int 9; sp }
        | 3 -> Event.Store { icount; static; ea; size = int 9; sp }
        | 4 ->
            Event.Block_copy
              { icount; static; src = ea; dst = ea + int 64; len = int 64; sp }
        | 5 -> Event.Prefetch { icount; ea; size = 1 + int 64 }
        | 6 ->
            Event.Block_exec
              { icount; addr = Layout.text_base + (4 * int 64); n = int 9 }
        | _ -> Event.End { icount })
  in
  let nf = Array.fold_left (fun n ev -> n + Event.num_fields ev) 0 body in
  let iters = 1 + int 20 in
  let delta () = pick [ 0; 0; 8; -8; 16; int 17 - 8 ] in
  let literal = Array.init nf (fun _ -> int 3 = 0) in
  {
    Squash.body;
    iters;
    literal;
    stride = Array.map (fun l -> if l then 0 else delta ()) literal;
    lits =
      Array.map
        (fun l -> if l then Array.init (iters - 1) (fun _ -> delta ()) else [||])
        literal;
  }

let print_record seed =
  let r = random_record seed in
  Printf.sprintf "seed %d: iters %d\nbody: %s\nstrides: %s\nliteral: %s" seed
    r.iters
    (String.concat "; "
       (Array.to_list (Array.map (Format.asprintf "%a" Event.pp) r.body)))
    (String.concat " " (Array.to_list (Array.map string_of_int r.stride)))
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun f l -> if l then string_of_int f else "") r.literal)))

(* The record's events by definition, from nothing but its tables. *)
let spec_events (r : Squash.repeat) =
  let b = Array.length r.body in
  let foff = Array.make (b + 1) 0 in
  Array.iteri (fun k ev -> foff.(k + 1) <- foff.(k) + Event.num_fields ev) r.body;
  let v0 = Array.make foff.(b) 0 in
  Array.iteri (fun k ev -> ignore (Event.read_num_fields ev v0 foff.(k))) r.body;
  List.concat
    (List.init r.iters (fun i ->
         let v =
           Array.mapi
             (fun f x ->
               if r.literal.(f) then
                 Array.fold_left ( + ) x (Array.sub r.lits.(f) 0 i)
               else x + (i * r.stride.(f)))
             v0
         in
         List.mapi
           (fun k ev -> Event.with_num_fields ev v foff.(k))
           (Array.to_list r.body)))

let walked_events (r : Squash.repeat) =
  let foff, vals = Squash.fields r in
  let out = ref [] in
  for i = 0 to r.iters - 1 do
    if i > 0 then Squash.advance r vals i;
    Array.iteri
      (fun k ev -> out := Event.with_num_fields ev vals foff.(k) :: !out)
      r.body
  done;
  List.rev !out

let expanded_events r =
  let out = ref [] in
  Squash.expand r (fun ev -> out := ev :: !out);
  List.rev !out

type logged =
  | Access of int * bool * int * int * int * int
  | Prefetched of int * int

(* Everything the call-stack front end hands on for [r], after a prefix
   that enters a main-image routine: by the walk, or over the expansion. *)
let front_end policy (r : Squash.repeat) ~walk =
  let prog = Lazy.force oracle_prog in
  let st = Call_stack.create prog.Program.symtab policy in
  let log = ref [] in
  let access () k ~write ~icount ~sp ~ea ~size =
    log := Access (k, write, icount, sp, ea, size) :: !log
  in
  let prefetch () ~ea ~size = log := Prefetched (ea, size) :: !log in
  let consume (ev : Event.t) =
    match ev with
    | Prefetch { ea; size; _ } -> prefetch () ~ea ~size
    | _ -> Call_stack.attribute st access () ev
  in
  let main =
    List.find
      (fun id -> (Symtab.by_id prog.symtab id).Symtab.is_main_image)
      (List.init (Symtab.count prog.symtab) Fun.id)
  in
  consume (Event.Rtn_entry { icount = 0; routine = main; sp = Layout.stack_top });
  if walk then Call_stack.attribute_record st access prefetch () r
  else Squash.expand r consume;
  (List.rev !log, st)

(* A prefix tracker's seed after [r]: handed the record, or fed its
   expansion. *)
let seed_after (make : unit -> Replay.sink * (unit -> 's)) r ~walk : 's =
  let sink, snapshot = make () in
  if walk then sink.on_repeat r else Squash.expand r sink.on_event;
  snapshot ()

let qcheck_record_walk =
  QCheck.Test.make ~count:300 ~name:"the in-order record walk equals expansion"
    (QCheck.make ~print:print_record QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let r = random_record seed in
      let spec = spec_events r in
      if walked_events r <> spec then
        QCheck.Test.fail_report "the field walk differs from the definition";
      if expanded_events r <> spec then
        QCheck.Test.fail_report "expand differs from the definition";
      List.iter
        (fun policy ->
          let wl, ws = front_end policy r ~walk:true in
          let el, es = front_end policy r ~walk:false in
          if wl <> el then
            QCheck.Test.fail_report "attribute_record: accesses differ";
          if compare ws es <> 0 then
            QCheck.Test.fail_report "attribute_record: stacks differ")
        Call_stack.[ Track_all; Main_image_only ];
      let prog = Lazy.force oracle_prog in
      let stack () = Call_stack.prefix prog.Program.symtab Main_image_only in
      if compare (seed_after stack r ~walk:true) (seed_after stack r ~walk:false)
         <> 0
      then QCheck.Test.fail_report "call-stack prefix: seeds differ";
      let gprof () =
        (Option.get Tq_gprofsim.Gprofsim.shard).prefix 7 prog
      in
      if compare (seed_after gprof r ~walk:true) (seed_after gprof r ~walk:false)
         <> 0
      then QCheck.Test.fail_report "gprofsim prefix: seeds differ";
      true)

(* QUAD and the cache simulator walk every record of wfs tiny v4, on every
   shape of the pipeline, and report what the expanding sequential oracle
   does. *)
let test_record_walk_reports () =
  let prog, _, compressed = Lazy.force wfs_recording in
  let jobs () =
    List.map
      (fun name ->
        Result.get_ok
          (Tq_report.Toolset.job ~prog
             ~slice:Tq_tquad.Tquad.default_slice_interval
             ~period:Tq_gprofsim.Gprofsim.default_period name))
      [ "quad"; "cache" ]
  in
  let rc () = Reader.of_string compressed in
  let seq = Replay.sequential (rc ()) (jobs ()) in
  let repeat_chunks = Reader.repeat_chunks (rc ()) in
  List.iter
    (fun (domains, shards) ->
      let what = Printf.sprintf "domains %d, shards %d" domains shards in
      let st = ref None in
      let par =
        Replay.parallel ~domains ~shards ~stats:(fun s -> st := Some s) (rc ())
          (jobs ())
      in
      Alcotest.(check bool) (what ^ ": reports = sequential") true
        (outcomes_equal seq par);
      let s = Option.get !st in
      Alcotest.(check int) (what ^ ": every record walked")
        (2 * repeat_chunks) s.Replay.rs_repeats)
    (List.concat_map (fun shards -> [ (1, shards); (2, shards) ]) [ 1; 2; 3 ])

let suites =
  [
    ( "compress",
      [
        Alcotest.test_case "wfs: stream identity + >=4x ratio" `Quick
          test_wfs_identity_and_ratio;
        Alcotest.test_case "reader raw/stored accounting" `Quick
          test_reader_stats;
        Alcotest.test_case "reports byte-identical (seq + sharded)" `Quick
          test_report_identity;
        Alcotest.test_case "a range failing in on_event fails its job alone"
          `Quick
          (test_range_failure `Event);
        Alcotest.test_case "a range failing in on_repeat fails its job alone"
          `Quick
          (test_range_failure `Repeat);
        Alcotest.test_case "a range failing to start fails its job alone"
          `Quick
          (test_range_failure `Start);
        Alcotest.test_case "a range failing to finish fails its job alone"
          `Quick
          (test_range_failure `Finish);
        Alcotest.test_case "repeat deliveries conserved across shards" `Quick
          test_repeat_conservation;
        QCheck_alcotest.to_alcotest qcheck_compress_roundtrip;
        test_repeat_closed_form;
        QCheck_alcotest.to_alcotest qcheck_record_walk;
        Alcotest.test_case "QUAD and cache_sim walk records: = sequential"
          `Quick test_record_walk_reports;
        Alcotest.test_case "affine loop commits repeat chunks" `Quick
          test_affine_loop_compresses;
        QCheck_alcotest.to_alcotest qcheck_minic_record_identity;
        Alcotest.test_case "a short loop run costing more as a repeat stays plain"
          `Quick test_short_run_stays_plain;
        QCheck_alcotest.to_alcotest qcheck_v4_salvage_identity;
        Alcotest.test_case "torn repeat chunk: salvage resyncs" `Quick
          test_torn_repeat_chunk_salvage;
        Alcotest.test_case "torn body def: salvage drops dependents" `Quick
          test_torn_body_def_salvage;
        Alcotest.test_case "flipped chunk kind fails CRC" `Quick
          test_kind_flip_detected;
        Alcotest.test_case "golden v4 fixture decodes" `Quick
          test_v4_golden_fixture;
        Alcotest.test_case "squash emits expected repeat record" `Quick
          test_v4_writer_matches_golden;
        Alcotest.test_case "v4 container is a function of its event stream"
          `Quick test_container_is_function_of_stream;
        Alcotest.test_case "crafted: plain chunk over-claiming its payload"
          `Quick (check_crafted_refused (build_overclaiming_plain ()));
        Alcotest.test_case "crafted: repeat beyond the squasher's caps" `Quick
          (check_crafted_refused (build_overcapped_repeat ()));
      ] );
  ]

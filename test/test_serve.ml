(* The serve layer's contracts: the chunk cache evicts in LRU order with
   honest accounting, the token bucket refills on its injected clock, the
   job queue refuses (never grows) past its bound, chunks CRC-verify at most
   once per process, protocol frames round-trip, and a real client/server
   conversation over a Unix socket produces reports byte-identical to a
   direct replay. *)

open Tq_vm
open Tq_dbi
module Event = Tq_trace.Event
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Lru = Tq_serve.Lru
module Limiter = Tq_serve.Limiter
module Protocol = Tq_serve.Protocol
module Toolset = Tq_report.Toolset
module Jobs = Tq_serve.Jobs
module Server = Tq_serve.Server
module Client = Tq_serve.Client
module Json = Tq_obs.Json

let load_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

(* ---------- fixture: a small multi-chunk recording ---------- *)

let src =
  "int buf[256];\n\
   void fill(int k) { for (int i = 0; i < 256; i++) buf[i] = i + k; }\n\
   int total() { int s; s = 0; for (int i = 0; i < 256; i++) s += buf[i];\n\
  \              return s; }\n\
   int main() { int t; t = 0;\n\
  \             for (int r = 0; r < 40; r++) { fill(r); t += total(); }\n\
  \             return t - t; }"

(* One recording shared by every test in the file (recorded once, lazily):
   the serve layer treats readers and programs as immutable, so sharing is
   exactly the aliasing the daemon itself does. *)
let fixture =
  lazy
    (let prog =
       Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ]
     in
     let m = Machine.create prog in
     let eng = Engine.create m in
     let path = Filename.temp_file "tq_serve_test" ".trc" in
     let _events : int = Probe.record eng ~path in
     (* re-chunked at 4 KiB, so the chunk cache sees many chunks *)
     let r = Reader.load path in
     Tq_trace.Writer.with_file ~chunk_bytes:4096
       ~fingerprint:(Reader.fingerprint r) path (fun w ->
         Reader.iter r (Tq_trace.Writer.emit w));
     let ic = open_in_bin path in
     let bytes =
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     in
     Sys.remove path;
     (prog, bytes))

let fresh_reader () =
  let _, bytes = Lazy.force fixture in
  Reader.of_string bytes

(* ---------- the chunk cache's per-event budget ---------- *)

(* Every decoded chunk's cache weight covers its reachable heap bytes, so
   the cache's capacity bounds what its entries hold: over wfs tiny, plain
   (v3) and compressed (v4, where a repeat chunk is its record alone), and
   a 1024-node, 4-round pointer chase. *)
let test_chunk_weight_covers_heap () =
  let chase =
    let path = Filename.temp_file "tq_serve_test" ".trc" in
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
  let _, plain, compressed = Lazy.force Test_compress.wfs_recording in
  let records = ref 0 in
  List.iter
    (fun (name, raw) ->
      let r = Reader.of_string raw in
      for i = 0 to Reader.n_chunks r - 1 do
        let dc = Reader.chunk r i in
        (match dc with Reader.Record _ -> incr records | Plain _ -> ());
        let bytes = Obj.reachable_words (Obj.repr dc) * (Sys.word_size / 8) in
        if Jobs.chunk_weight dc < bytes then
          Alcotest.failf "%s, chunk %d: weight %d < %d reachable bytes" name i
            (Jobs.chunk_weight dc) bytes
      done)
    [ ("wfs tiny v3", plain); ("wfs tiny v4", compressed);
      ("pointer-chase", chase) ];
  Alcotest.(check bool) "repeat chunks weighed" true (!records > 0)

(* ---------- LRU ---------- *)

let k i : Lru.key = (Int64.of_int 7, i)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:100 in
  Lru.add c (k 1) ~weight:40 "a";
  Lru.add c (k 2) ~weight:40 "b";
  (* touch 1 so 2 becomes least-recently-used *)
  Alcotest.(check (option string)) "hit on 1" (Some "a") (Lru.find c (k 1));
  Lru.add c (k 3) ~weight:40 "c";
  Alcotest.(check (option string)) "2 was evicted" None (Lru.find c (k 2));
  Alcotest.(check (option string)) "1 survived" (Some "a") (Lru.find c (k 1));
  Alcotest.(check (option string)) "3 resident" (Some "c") (Lru.find c (k 3));
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 3 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "entries" 2 s.Lru.entries;
  Alcotest.(check int) "weight" 80 s.Lru.weight;
  Alcotest.(check (float 1e-9)) "hit rate" 0.75 (Lru.hit_rate s)

let test_lru_oversized_entry () =
  let c = Lru.create ~capacity:100 in
  Lru.add c (k 1) ~weight:40 "a";
  (* heavier than the whole budget: not cached, evicts nothing *)
  Lru.add c (k 2) ~weight:200 "big";
  Alcotest.(check (option string)) "oversized absent" None (Lru.find c (k 2));
  Alcotest.(check (option string)) "resident survived" (Some "a")
    (Lru.find c (k 1));
  let s = Lru.stats c in
  Alcotest.(check int) "no evictions" 0 s.Lru.evictions;
  Alcotest.(check int) "one entry" 1 s.Lru.entries;
  Alcotest.(check int) "weight unchanged" 40 s.Lru.weight

let test_lru_readd_touches () =
  let c = Lru.create ~capacity:100 in
  Lru.add c (k 1) ~weight:40 "a";
  Lru.add c (k 2) ~weight:40 "b";
  (* re-adding 1 must touch it (and keep the resident value), not duplicate *)
  Lru.add c (k 1) ~weight:40 "ignored";
  Lru.add c (k 3) ~weight:40 "c";
  Alcotest.(check (option string)) "2 evicted as LRU" None (Lru.find c (k 2));
  Alcotest.(check (option string)) "1 keeps its original value" (Some "a")
    (Lru.find c (k 1));
  Alcotest.(check int) "weight accounts once" 80 (Lru.stats c).Lru.weight

(* ---------- token bucket ---------- *)

let test_limiter_burst_and_refill () =
  let now = ref 0. in
  let l = Limiter.create ~now:(fun () -> !now) ~rate:2. ~burst:2 () in
  Alcotest.(check bool) "burst 1" true (Limiter.try_take l);
  Alcotest.(check bool) "burst 2" true (Limiter.try_take l);
  Alcotest.(check bool) "empty" false (Limiter.try_take l);
  Alcotest.(check (float 1e-9)) "retry hint" 0.5 (Limiter.retry_after l);
  (* half a second at 2 tokens/s accrues exactly one token *)
  now := 0.5;
  Alcotest.(check bool) "refilled one" true (Limiter.try_take l);
  Alcotest.(check bool) "only one" false (Limiter.try_take l);
  (* a long idle caps at the burst depth, not rate * dt *)
  now := 100.;
  Alcotest.(check bool) "cap 1" true (Limiter.try_take l);
  Alcotest.(check bool) "cap 2" true (Limiter.try_take l);
  Alcotest.(check bool) "cap is burst" false (Limiter.try_take l);
  Alcotest.(check int) "allowed" 5 (Limiter.allowed l);
  Alcotest.(check int) "rejected" 3 (Limiter.rejected l)

let test_limiter_no_wait_when_full () =
  let l = Limiter.create ~now:(fun () -> 0.) ~rate:10. ~burst:3 () in
  Alcotest.(check (float 1e-9)) "full bucket retries now" 0.
    (Limiter.retry_after l)

(* ---------- job manager (deterministic, workers:0 + step) ---------- *)

let spec_of ?(tools = [ "gprof" ]) reader prog =
  Jobs.
    {
      trace_key = 42L;
      reader;
      prog;
      tools;
      slice = 2_000;
      period = 2_000;
    }

let test_jobs_bounded_queue () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j = Jobs.create ~workers:0 ~queue_limit:2 ~cache () in
  let id1 =
    match Jobs.submit j (spec_of reader prog) with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submit 1 refused"
  in
  let id2 =
    match Jobs.submit j (spec_of reader prog) with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submit 2 refused"
  in
  (match Jobs.submit j (spec_of reader prog) with
  | Error (`Queue_full depth) -> Alcotest.(check int) "full at bound" 2 depth
  | Ok _ -> Alcotest.fail "third submit must be refused");
  Alcotest.(check bool) "job 1 pending" true (Jobs.status j id1 = Jobs.Pending);
  Alcotest.(check bool) "step 1" true (Jobs.step j);
  Alcotest.(check bool) "step 2" true (Jobs.step j);
  Alcotest.(check bool) "queue dry" false (Jobs.step j);
  (match Jobs.status j id2 with
  | Jobs.Done [ ("gprof", Ok _) ] -> ()
  | _ -> Alcotest.fail "job 2 should be done with an Ok gprof report");
  let s = Jobs.stats j in
  Alcotest.(check int) "submitted" 2 s.Jobs.submitted;
  Alcotest.(check int) "completed" 2 s.Jobs.completed;
  Alcotest.(check int) "rejected" 1 s.Jobs.rejected;
  Alcotest.(check int) "peak depth" 2 s.Jobs.peak_depth;
  Alcotest.(check int) "latency samples" 2 (Array.length s.Jobs.latency);
  Jobs.drain j;
  match Jobs.submit j (spec_of reader prog) with
  | Error (`Queue_full _) -> ()
  | Ok _ -> Alcotest.fail "submit after drain must be refused"

(* The pool caps its workers at one per core, as replay caps its domains. *)
let test_jobs_worker_cap () =
  let cache = Lru.create ~capacity:(1024 * 1024) in
  let hw = Domain.recommended_domain_count () in
  let j = Jobs.create ~workers:(hw + 2) ~queue_limit:1 ~cache () in
  let workers = (Jobs.stats j).Jobs.workers in
  Jobs.drain j;
  Alcotest.(check bool)
    (Printf.sprintf "%d workers <= %d recommended" workers hw)
    true (workers <= hw)

let test_jobs_results_match_direct_replay () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j = Jobs.create ~workers:0 ~queue_limit:4 ~cache () in
  let tools = Toolset.names in
  let id =
    match Jobs.submit j (spec_of ~tools reader prog) with
    | Ok id -> id
    | Error _ -> Alcotest.fail "submit refused"
  in
  ignore (Jobs.step j);
  let direct =
    Replay.sequential (fresh_reader ())
      (List.map
         (fun name ->
           Result.get_ok (Toolset.job ~prog ~slice:2_000 ~period:2_000 name))
         tools)
  in
  (match Jobs.status j id with
  | Jobs.Done results ->
      List.iter2
        (fun (name, served) (name', direct) ->
          Alcotest.(check string) "tool order" name name';
          match (served, direct) with
          | Ok a, Ok b ->
              Alcotest.(check string) (name ^ " report identical") b a
          | _ -> Alcotest.fail (name ^ ": expected Ok outcomes"))
        results direct
  | _ -> Alcotest.fail "job should be done");
  Jobs.drain j

let test_jobs_cache_hits_on_repeat () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j = Jobs.create ~workers:0 ~queue_limit:4 ~cache () in
  ignore (Jobs.submit j (spec_of reader prog));
  ignore (Jobs.submit j (spec_of reader prog));
  ignore (Jobs.submit j (spec_of reader prog));
  ignore (Jobs.step j);
  let first = Lru.stats cache in
  Alcotest.(check int) "first pass decodes every chunk"
    (Reader.n_chunks reader) first.Lru.misses;
  ignore (Jobs.step j);
  ignore (Jobs.step j);
  let after = Lru.stats cache in
  Alcotest.(check int) "repeat passes hit every chunk"
    (2 * Reader.n_chunks reader) after.Lru.hits;
  Alcotest.(check int) "no further misses" first.Lru.misses after.Lru.misses;
  Alcotest.(check bool) "hit rate over 0.5" true (Lru.hit_rate after > 0.5);
  Jobs.drain j

let test_jobs_unknown_tool_is_isolated () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j = Jobs.create ~workers:0 ~queue_limit:4 ~cache () in
  let id =
    Result.get_ok
      (Jobs.submit j (spec_of ~tools:[ "gprof"; "nosuch" ] reader prog))
  in
  ignore (Jobs.step j);
  (match Jobs.status j id with
  | Jobs.Done [ ("gprof", Ok _); ("nosuch", Error _) ] -> ()
  | _ -> Alcotest.fail "gprof must succeed while nosuch fails");
  Alcotest.(check int) "counted as a failed job" 1
    (Jobs.stats j).Jobs.failed_jobs;
  Jobs.drain j

(* ---------- verified-at-most-once chunk reads ---------- *)

let test_verified_bits () =
  let r = fresh_reader () in
  let n = Reader.n_chunks r in
  Alcotest.(check bool) "multi-chunk fixture" true (n > 4);
  (* loading decodes (and verifies) only the last chunk *)
  Alcotest.(check int) "one chunk verified at load" 1 (Reader.verified_chunks r);
  let evs0 = Reader.chunk_events r 0 in
  Alcotest.(check int) "chunk 0 verified" 2 (Reader.verified_chunks r);
  let evs0' = Reader.chunk_events r 0 in
  Alcotest.(check bool) "re-read decodes identically" true (evs0 = evs0');
  Alcotest.(check int) "re-read does not re-verify" 2
    (Reader.verified_chunks r);
  Alcotest.(check int) "crc_check digests the rest" n (Reader.crc_check r);
  Alcotest.(check int) "all verified" n (Reader.verified_chunks r);
  (* chunk-granular reads concatenate to exactly the iteration order *)
  let whole = ref [] in
  Reader.iter r (fun ev -> whole := ev :: !whole);
  let concat =
    List.concat_map
      (fun i -> Array.to_list (Reader.chunk_events r i))
      (List.init n Fun.id)
  in
  Alcotest.(check bool) "chunk reads tile the trace" true
    (List.rev !whole = concat)

let test_chunk_events_detects_corruption () =
  let _, bytes = Lazy.force fixture in
  (* flip one payload byte inside the first chunk (just past the file
     header): the load itself succeeds — only the last chunk decodes — but
     the chunk-granular read must fail its CRC *)
  let b = Bytes.of_string bytes in
  let off = Tq_trace.Writer.header_bytes + 24 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  let r = Reader.of_string (Bytes.to_string b) in
  (match Reader.chunk_events r 0 with
  | _ -> Alcotest.fail "corrupt chunk must not decode"
  | exception Reader.Format_error _ -> ());
  match Reader.chunk_events r (-1) with
  | _ -> Alcotest.fail "negative index must be refused"
  | exception Invalid_argument _ -> ()

(* ---------- protocol frames ---------- *)

let test_frame_roundtrip () =
  let rd, wr = Unix.pipe () in
  let payloads =
    [ Json.Obj [ ("op", Json.Str "ping") ];
      Json.Obj
        [ ("bytes", Json.Str "\x00\x01\xff binary \n ok");
          ("n", Json.Int 42) ];
      Json.List [ Json.Bool true; Json.Null ] ]
  in
  List.iter (Protocol.write_frame wr) payloads;
  List.iter
    (fun expect ->
      match Protocol.read_frame rd with
      | Some got ->
          Alcotest.(check string) "frame round-trips"
            (Json.to_string expect) (Json.to_string got)
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close wr;
  Alcotest.(check bool) "clean EOF is None" true (Protocol.read_frame rd = None);
  Unix.close rd

let test_frame_oversized_rejected () =
  let rd, wr = Unix.pipe () in
  (* an adversarial length prefix must be refused before any allocation *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 0x7fff_ffffl;
  ignore (Unix.write wr hdr 0 4);
  (match Protocol.read_frame rd with
  | _ -> Alcotest.fail "oversized frame accepted"
  | exception Protocol.Frame_error _ -> ());
  Unix.close rd;
  Unix.close wr

let test_trace_id () =
  let id = Protocol.trace_id "hello" in
  Alcotest.(check int) "16 hex digits" 16 (String.length id);
  Alcotest.(check string) "deterministic" id (Protocol.trace_id "hello");
  Alcotest.(check bool) "content-sensitive" true
    (Protocol.trace_id "hello!" <> id)

(* ---------- client/server over a real socket ---------- *)

let tmp_socket () =
  let path = Filename.temp_file "tq_serve" ".sock" in
  Sys.remove path;
  path

let start_server cfg =
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let th =
    Thread.create
      (fun () ->
        Server.run ~handle_signals:false
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

let test_socket_roundtrip () =
  let prog, bytes = Lazy.force fixture in
  let socket = tmp_socket () in
  let mdir = Filename.temp_file "tq_serve_mdir" "" in
  Sys.remove mdir;
  Sys.mkdir mdir 0o755;
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      cache_bytes = 256 * 1024 * 1024;
      manifest_dir = Some mdir;
      manifest_period_s = 60.;
    }
  in
  let th = start_server cfg in
  let c = Result.get_ok (Client.connect socket) in
  Alcotest.(check bool) "ping" true (Client.ping c = Ok ());
  let id =
    match
      Client.upload ~name:"fixture"
        ~program:(Objfile.encode prog) ~trace:bytes c
    with
    | Ok id -> id
    | Error e -> Alcotest.fail ("upload: " ^ e.Client.reason)
  in
  Alcotest.(check string) "id is the container digest"
    (Protocol.trace_id bytes) id;
  (* second upload of the same bytes is a dedup, not a second store *)
  Alcotest.(check string) "idempotent upload" id
    (Result.get_ok (Client.upload ~trace:bytes c));
  (match Client.trace_info c id with
  | Ok info ->
      let reader = Reader.of_string bytes in
      (match Json.member "events" info with
      | Some (Json.Int n) ->
          Alcotest.(check int) "event count" (Reader.n_events reader) n
      | _ -> Alcotest.fail "trace-info carries no event count");
      (* the daemon and the CLI share one codec: the served section is
         exactly the local rendering of the same bytes *)
      Alcotest.(check string) "served trace = Toolset.trace_section"
        (Json.to_string (Toolset.trace_section reader))
        (Json.to_string info)
  | Error e -> Alcotest.fail ("trace-info: " ^ e.Client.reason));
  (* replay through every tool; reports must match a direct replay *)
  let jid =
    match Client.replay ~slice:2_000 ~period:2_000 c id with
    | Ok jid -> jid
    | Error e -> Alcotest.fail ("replay: " ^ e.Client.reason)
  in
  let rep =
    match Client.report ~wait:true c jid with
    | Ok r -> r
    | Error e -> Alcotest.fail ("report: " ^ e.Client.reason)
  in
  Alcotest.(check bool) "job done" true rep.Client.done_;
  Alcotest.(check (list string)) "no failures" []
    (List.map fst rep.Client.failures);
  let direct =
    Replay.sequential (Reader.of_string bytes)
      (List.map
         (fun name ->
           Result.get_ok (Toolset.job ~prog ~slice:2_000 ~period:2_000 name))
         Toolset.names)
  in
  List.iter
    (fun (name, outcome) ->
      match (outcome, List.assoc_opt name rep.Client.reports) with
      | Ok want, Some got ->
          Alcotest.(check string) (name ^ " served = direct") want got
      | _ -> Alcotest.fail (name ^ ": missing served report"))
    direct;
  (* repeat replays of the same trace run hot from the chunk cache (three
     passes total: hit rate 2/3) *)
  let jid2 = Result.get_ok (Client.replay ~slice:2_000 ~period:2_000 c id) in
  ignore (Result.get_ok (Client.report ~wait:true c jid2));
  let jid3 = Result.get_ok (Client.replay ~slice:2_000 ~period:2_000 c id) in
  ignore (Result.get_ok (Client.report ~wait:true c jid3));
  (match Client.stats c with
  | Ok (Json.Obj _ as server) ->
      let cache = Option.get (Json.member "cache" server) in
      (match Json.member "hit_rate" cache with
      | Some (Json.Float rate) ->
          Alcotest.(check bool) "cache hit rate > 0.5 on repeat" true
            (rate > 0.5)
      | _ -> Alcotest.fail "no cache hit_rate in stats");
      (match Json.member "queue" server with
      | Some q ->
          (match Json.member "failed_jobs" q with
          | Some (Json.Int f) -> Alcotest.(check int) "no failed jobs" 0 f
          | _ -> Alcotest.fail "no failed_jobs counter")
      | None -> Alcotest.fail "no queue section")
  | Ok _ | Error _ -> Alcotest.fail "stats refused");
  (* unknown ids get typed not-found refusals *)
  (match Client.trace_info c "0000000000000000" with
  | Error e ->
      Alcotest.(check string) "not-found kind" Protocol.not_found e.Client.kind
  | Ok _ -> Alcotest.fail "unknown trace accepted");
  (* graceful drain: server thread exits, socket gone, manifest valid *)
  Alcotest.(check bool) "shutdown accepted" true (Client.shutdown c = Ok ());
  Client.close c;
  Thread.join th;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
  let manifest = load_json (Filename.concat mdir "server.json") in
  (match Tq_obs.Manifest.validate manifest with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("server manifest invalid: " ^ msg));
  Alcotest.(check bool) "job manifest written" true
    (Sys.file_exists (Filename.concat mdir "job-1.json"))

(* A served job's manifest carries the same ["replay"] section as
   [tquad replay --all --metrics], and it validates. *)
let test_job_manifest_replay_section () =
  let prog, bytes = Lazy.force fixture in
  let socket = tmp_socket () in
  let mdir = Filename.temp_file "tq_serve_mdir" "" in
  Sys.remove mdir;
  Sys.mkdir mdir 0o755;
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      manifest_dir = Some mdir;
      manifest_period_s = 60.;
    }
  in
  let th = start_server cfg in
  let c = Result.get_ok (Client.connect socket) in
  let id =
    Result.get_ok (Client.upload ~program:(Objfile.encode prog) ~trace:bytes c)
  in
  let jid = Result.get_ok (Client.replay ~tools:[ "gprof"; "cache" ] c id) in
  ignore (Result.get_ok (Client.report ~wait:true c jid));
  Alcotest.(check bool) "shutdown" true (Client.shutdown c = Ok ());
  Client.close c;
  Thread.join th;
  let doc = load_json (Filename.concat mdir "job-1.json") in
  (match Tq_obs.Manifest.validate doc with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("job manifest invalid: " ^ msg));
  let replay =
    match Json.member "replay" doc with
    | Some r -> r
    | None -> Alcotest.fail "job manifest has no replay section"
  in
  let int k =
    match Json.member k replay with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "replay.%s missing" k
  in
  Alcotest.(check int) "replay.chunks = the trace's chunks"
    (Reader.n_chunks (Reader.of_string bytes))
    (int "chunks");
  Alcotest.(check int) "served jobs run on one domain" 1 (int "domains");
  Alcotest.(check bool) "peak_live_chunks reported" true
    (int "peak_live_chunks" >= 1);
  Alcotest.(check bool) "stage times reported" true
    (Json.member "stage_s" replay <> None);
  Alcotest.(check bool) "repeat deliveries reported" true
    (Json.member "repeats" replay <> None)

let test_socket_rate_limit_busy () =
  let prog, bytes = Lazy.force fixture in
  let socket = tmp_socket () in
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      rate = 0.001;
      burst = 1;
    }
  in
  let th = start_server cfg in
  let c = Result.get_ok (Client.connect socket) in
  let id =
    Result.get_ok (Client.upload ~program:(Objfile.encode prog) ~trace:bytes c)
  in
  (* the single token admits one replay; the burst's second is refused with
     a typed busy response carrying a retry hint *)
  let _jid = Result.get_ok (Client.replay ~tools:[ "gprof" ] c id) in
  (match Client.replay ~tools:[ "gprof" ] c id with
  | Error e ->
      Alcotest.(check string) "busy kind" Protocol.busy e.Client.kind;
      Alcotest.(check bool) "retry hint present" true
        (e.Client.retry_after_s <> None)
  | Ok _ -> Alcotest.fail "over-budget replay admitted");
  Alcotest.(check bool) "shutdown" true (Client.shutdown c = Ok ());
  Client.close c;
  Thread.join th

let suites =
  [ ( "serve",
      [ Alcotest.test_case "lru: eviction order and accounting" `Quick
          test_lru_eviction_order;
        Alcotest.test_case "lru: oversized entries are not cached" `Quick
          test_lru_oversized_entry;
        Alcotest.test_case "lru: re-adding a resident key touches" `Quick
          test_lru_readd_touches;
        Alcotest.test_case "lru: a chunk's weight covers its heap bytes"
          `Quick test_chunk_weight_covers_heap;
        Alcotest.test_case "limiter: burst drains, clock refills, cap holds"
          `Quick test_limiter_burst_and_refill;
        Alcotest.test_case "limiter: full bucket needs no wait" `Quick
          test_limiter_no_wait_when_full;
        Alcotest.test_case "jobs: bounded queue refuses past its limit" `Quick
          test_jobs_bounded_queue;
        Alcotest.test_case "jobs: workers capped at one per core" `Quick
          test_jobs_worker_cap;
        Alcotest.test_case "jobs: served results match a direct replay" `Quick
          test_jobs_results_match_direct_replay;
        Alcotest.test_case "jobs: repeat replays hit the chunk cache" `Quick
          test_jobs_cache_hits_on_repeat;
        Alcotest.test_case "jobs: an unknown tool fails alone" `Quick
          test_jobs_unknown_tool_is_isolated;
        Alcotest.test_case "reader: chunks verify at most once" `Quick
          test_verified_bits;
        Alcotest.test_case "reader: chunk reads catch corruption" `Quick
          test_chunk_events_detects_corruption;
        Alcotest.test_case "protocol: frames round-trip binary payloads"
          `Quick test_frame_roundtrip;
        Alcotest.test_case "protocol: oversized frames are refused" `Quick
          test_frame_oversized_rejected;
        Alcotest.test_case "protocol: trace ids are stable digests" `Quick
          test_trace_id;
        Alcotest.test_case "socket: upload/replay/report round-trip" `Quick
          test_socket_roundtrip;
        Alcotest.test_case "socket: job manifests carry the replay section"
          `Quick test_job_manifest_replay_section;
        Alcotest.test_case "socket: rate limiter refuses bursts with busy"
          `Quick test_socket_rate_limit_busy ] ) ]

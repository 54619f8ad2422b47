(* The serve path's fault-tolerance contracts: the frame codec refuses every
   truncation and every out-of-bounds length at the exact max_frame boundary,
   deadlines turn stalled peers into typed timeouts, the job watchdog and
   cancellation token kill whole jobs with typed failures and free their
   slots, the client retry policy backs off exactly as specified, and — the
   headline qcheck property — a server under a storm of malformed wire bytes
   never dies and keeps serving healthy clients byte-identical reports. *)

open Tq_vm
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Probe = Tq_trace.Probe
module Lru = Tq_serve.Lru
module Protocol = Tq_serve.Protocol
module Toolset = Tq_report.Toolset
module Jobs = Tq_serve.Jobs
module Server = Tq_serve.Server
module Client = Tq_serve.Client
module Wire = Tq_serve.Wire
module Json = Tq_obs.Json

(* ---------- fixture: test_serve's recording ---------- *)

let fixture = Test_serve.fixture

let fresh_reader () =
  let _, bytes = Lazy.force fixture in
  Reader.of_string bytes

(* ---------- frame matrix: lengths at the boundary ---------- *)

(* A hand-framed message: 4-byte big-endian length prefix + payload.  Built
   without Protocol on purpose — the matrix attacks read_frame, so the
   attacking bytes must not come from the code under test. *)
let raw_frame ?claim payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int (Option.value claim ~default:len));
  Bytes.blit_string payload 0 b 4 len;
  b

let feed bytes =
  let rd, wr = Unix.pipe () in
  ignore (Unix.write wr bytes 0 (Bytes.length bytes));
  Unix.close wr;
  rd

let test_frame_boundary_exact () =
  (* a payload of exactly max_frame bytes passes; one byte more is refused
     on both the read and the write side.  max_frame:64 keeps the test from
     allocating 256 MiB. *)
  let payload = "\"" ^ String.make 62 'x' ^ "\"" in
  Alcotest.(check int) "payload is exactly the cap" 64 (String.length payload);
  let rd = feed (raw_frame payload) in
  (match Protocol.read_frame ~max_frame:64 rd with
  | Some (Json.Str s) -> Alcotest.(check int) "payload intact" 62 (String.length s)
  | _ -> Alcotest.fail "exact-boundary frame must decode");
  Unix.close rd;
  (* one below: still fine *)
  let small = "\"" ^ String.make 61 'x' ^ "\"" in
  let rd = feed (raw_frame small) in
  (match Protocol.read_frame ~max_frame:64 rd with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "below-boundary frame must decode");
  Unix.close rd;
  (* one above: refused before any payload read *)
  let rd = feed (raw_frame ~claim:65 payload) in
  (match Protocol.read_frame ~max_frame:64 rd with
  | _ -> Alcotest.fail "over-boundary length accepted"
  | exception Protocol.Frame_error _ -> ());
  Unix.close rd

let test_frame_negative_length () =
  List.iter
    (fun claim ->
      let rd = feed (raw_frame ~claim "x") in
      (match Protocol.read_frame rd with
      | _ -> Alcotest.fail "negative length accepted"
      | exception Protocol.Frame_error _ -> ());
      Unix.close rd)
    [ -1; 0x80000000 (* truncates to the 32-bit sign bit *) ]

let test_frame_garbage_payload () =
  let rd = feed (raw_frame "\x00not json at all") in
  (match Protocol.read_frame rd with
  | _ -> Alcotest.fail "garbage payload accepted"
  | exception Protocol.Frame_error _ -> ());
  Unix.close rd

let test_frame_truncation_matrix () =
  (* every proper prefix of a valid frame: length 0 is a clean EOF (None),
     every other truncation point must raise End_of_file — never hang,
     never mis-decode.  Exhaustive over all split points. *)
  let whole = raw_frame {|{"op":"ping"}|} in
  let total = Bytes.length whole in
  for keep = 0 to total - 1 do
    let rd = feed (Bytes.sub whole 0 keep) in
    (match Protocol.read_frame rd with
    | None when keep = 0 -> ()
    | None -> Alcotest.failf "prefix %d: reported clean EOF" keep
    | Some _ -> Alcotest.failf "prefix %d: decoded a truncated frame" keep
    | exception End_of_file ->
        if keep = 0 then Alcotest.fail "empty stream must be None, not EOF");
    Unix.close rd
  done;
  (* the whole frame, for contrast, decodes *)
  let rd = feed whole in
  (match Protocol.read_frame rd with
  | Some _ -> ()
  | None -> Alcotest.fail "whole frame must decode");
  Unix.close rd

let test_write_oversized_refused () =
  let rd, wr = Unix.pipe () in
  (match Protocol.write_frame ~max_frame:8 wr (Json.Str (String.make 32 'x')) with
  | _ -> Alcotest.fail "oversized write accepted"
  | exception Protocol.Frame_error _ -> ());
  Unix.close rd;
  Unix.close wr

(* ---------- deadlines on the socket ---------- *)

let test_idle_timeout_fires () =
  let rd, wr = Unix.pipe () in
  let t0 = Unix.gettimeofday () in
  (match Protocol.read_frame ~idle_timeout_s:0.05 ~frame_timeout_s:30. rd with
  | _ -> Alcotest.fail "idle read must time out"
  | exception Protocol.Timeout _ -> ());
  Alcotest.(check bool) "fired promptly" true
    (Unix.gettimeofday () -. t0 < 5.);
  Unix.close rd;
  Unix.close wr

let test_frame_timeout_fires_after_first_byte () =
  (* one header byte arrives, then nothing: the (long) idle budget no longer
     applies, the (short) frame budget does — the slow-loris defense *)
  let rd, wr = Unix.pipe () in
  ignore (Unix.write wr (Bytes.make 1 '\x00') 0 1);
  (match Protocol.read_frame ~idle_timeout_s:30. ~frame_timeout_s:0.05 rd with
  | _ -> Alcotest.fail "stalled frame must time out"
  | exception Protocol.Timeout _ -> ());
  Unix.close rd;
  Unix.close wr

let test_dribbled_frame_completes () =
  (* a slow but live peer inside its frame budget is not a fault: a frame
     dribbled byte-by-byte decodes normally *)
  let rd, wr = Unix.pipe () in
  let whole = raw_frame {|{"op":"ping"}|} in
  let writer =
    Thread.create
      (fun () ->
        Bytes.iter
          (fun c ->
            ignore (Unix.write wr (Bytes.make 1 c) 0 1);
            Thread.delay 0.002)
          whole;
        Unix.close wr)
      ()
  in
  (match Protocol.read_frame ~idle_timeout_s:10. ~frame_timeout_s:10. rd with
  | Some j -> (
      match Json.member "op" j with
      | Some (Json.Str "ping") -> ()
      | _ -> Alcotest.fail "dribbled frame decoded wrong")
  | None -> Alcotest.fail "dribbled frame lost");
  Thread.join writer;
  Unix.close rd

let test_write_timeout_on_stuffed_pipe () =
  (* a peer that stops reading cannot pin the writer: the pipe's buffer
     fills and the deadline fires *)
  let rd, wr = Unix.pipe () in
  let big = Json.Str (String.make (4 * 1024 * 1024) 'x') in
  (match Protocol.write_frame ~timeout_s:0.05 wr big with
  | _ -> Alcotest.fail "write into a full pipe must time out"
  | exception Protocol.Timeout _ -> ());
  Unix.close rd;
  Unix.close wr

(* ---------- job watchdog and cancellation (deterministic) ---------- *)

let spec_of ?(tools = [ "gprof" ]) reader prog =
  Jobs.{ trace_key = 42L; reader; prog; tools; slice = 2_000; period = 2_000 }

let test_jobs_cancel_queued () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j = Jobs.create ~workers:0 ~queue_limit:4 ~cache () in
  let id =
    Result.get_ok
      (Jobs.submit j (spec_of ~tools:[ "gprof"; "tquad" ] reader prog))
  in
  Alcotest.(check bool) "unknown id refuses" false (Jobs.cancel j 999);
  Alcotest.(check bool) "cancel accepted" true
    (Jobs.cancel ~reason:"test pulled the plug" j id);
  Alcotest.(check bool) "idempotent while live" true (Jobs.cancel j id);
  Alcotest.(check bool) "step runs it" true (Jobs.step j);
  (match Jobs.status j id with
  | Jobs.Done results ->
      Alcotest.(check bool) "verdict is cancelled" true
        (Jobs.killed results = Some `Cancelled);
      List.iter
        (fun (name, o) ->
          match o with
          | Error f ->
              (* the registered printer renders the typed exception with
                 the caller's reason *)
              let msg = Replay.failure_message f in
              let has_reason =
                let needle = "test pulled the plug" in
                let nl = String.length needle and ml = String.length msg in
                let rec scan i =
                  i + nl <= ml
                  && (String.sub msg i nl = needle || scan (i + 1))
                in
                scan 0
              in
              Alcotest.(check bool) (name ^ " carries the reason") true
                has_reason
          | Ok _ -> Alcotest.fail (name ^ ": cancelled job produced a report"))
        results
  | _ -> Alcotest.fail "cancelled job must still finish Done");
  Alcotest.(check bool) "finished job refuses cancel" false (Jobs.cancel j id);
  let s = Jobs.stats j in
  Alcotest.(check int) "cancelled_jobs" 1 s.Jobs.cancelled_jobs;
  Alcotest.(check int) "counted failed" 1 s.Jobs.failed_jobs;
  Alcotest.(check int) "queue empty" 0 s.Jobs.depth;
  Alcotest.(check int) "nothing running" 0 s.Jobs.running;
  Jobs.drain j

let test_jobs_deadline_exceeded () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j = Jobs.create ~workers:0 ~queue_limit:4 ~cache () in
  let id = Result.get_ok (Jobs.submit ~deadline_s:1e-9 j (spec_of reader prog)) in
  (* the budget covers queue wait, so by the time the job is popped it is
     already over it and fails fast *)
  Thread.delay 0.002;
  Alcotest.(check bool) "step runs it" true (Jobs.step j);
  (match Jobs.status j id with
  | Jobs.Done results ->
      Alcotest.(check bool) "verdict is deadline-exceeded" true
        (Jobs.killed results = Some `Deadline_exceeded)
  | _ -> Alcotest.fail "timed-out job must still finish Done");
  let s = Jobs.stats j in
  Alcotest.(check int) "timed_out_jobs" 1 s.Jobs.timed_out_jobs;
  Alcotest.(check int) "slot freed" 0 s.Jobs.running;
  (* the pool still works: an unbudgeted job on the same pool completes *)
  let id2 = Result.get_ok (Jobs.submit j (spec_of reader prog)) in
  ignore (Jobs.step j);
  (match Jobs.status j id2 with
  | Jobs.Done [ ("gprof", Ok _) ] -> ()
  | _ -> Alcotest.fail "pool must keep serving after a timeout");
  Jobs.drain j

let test_jobs_default_deadline () =
  let prog, _ = Lazy.force fixture in
  let reader = fresh_reader () in
  let cache = Lru.create ~capacity:(256 * 1024 * 1024) in
  let j =
    Jobs.create ~workers:0 ~default_deadline_s:1e-9 ~queue_limit:4 ~cache ()
  in
  let id = Result.get_ok (Jobs.submit j (spec_of reader prog)) in
  Thread.delay 0.002;
  ignore (Jobs.step j);
  (match Jobs.status j id with
  | Jobs.Done results ->
      Alcotest.(check bool) "pool default applies" true
        (Jobs.killed results = Some `Deadline_exceeded)
  | _ -> Alcotest.fail "job must finish");
  Jobs.drain j

(* ---------- client retry policy (pure, injected clock) ---------- *)

let busy_err after =
  Client.
    { kind = "busy"; reason = "queue full"; retry_after_s = Some after }

let test_retry_backoff_honours_hint () =
  let sleeps = ref [] in
  let calls = ref 0 in
  let policy =
    Client.{ retries = 5; base_s = 0.1; factor = 2.; max_s = 5.; jitter = 0. }
  in
  let result =
    Client.with_retry ~policy
      ~sleep:(fun d -> sleeps := d :: !sleeps)
      (fun ~attempt ->
        incr calls;
        Alcotest.(check int) "attempt numbering" !calls attempt;
        if attempt < 3 then Error (busy_err 0.5) else Ok attempt)
  in
  Alcotest.(check int) "succeeded on attempt 3" 3 (Result.get_ok result);
  (* both delays floor at the server's 0.5s hint (backoff would be 0.1/0.2) *)
  Alcotest.(check (list (float 1e-9))) "hint floors the backoff" [ 0.5; 0.5 ]
    (List.rev !sleeps)

let test_retry_exponential_when_no_hint () =
  let sleeps = ref [] in
  let policy =
    Client.{ retries = 4; base_s = 0.1; factor = 2.; max_s = 0.35; jitter = 0. }
  in
  let result =
    Client.with_retry ~policy
      ~sleep:(fun d -> sleeps := d :: !sleeps)
      (fun ~attempt:_ ->
        Error Client.{ kind = "transport"; reason = "gone"; retry_after_s = None })
  in
  (match result with
  | Error e -> Alcotest.(check string) "last error surfaces" "transport" e.Client.kind
  | Ok _ -> Alcotest.fail "must exhaust the budget");
  Alcotest.(check (list (float 1e-9))) "doubles then caps"
    [ 0.1; 0.2; 0.35; 0.35 ] (List.rev !sleeps)

let test_retry_terminal_kinds_fail_fast () =
  List.iter
    (fun kind ->
      let calls = ref 0 in
      let result =
        Client.with_retry
          ~policy:Client.{ default_policy with retries = 5 }
          ~sleep:(fun _ -> Alcotest.fail "terminal errors must not sleep")
          (fun ~attempt:_ ->
            incr calls;
            Error Client.{ kind; reason = "no"; retry_after_s = None })
      in
      Alcotest.(check bool) (kind ^ " is terminal") true (Result.is_error result);
      Alcotest.(check int) (kind ^ " tried once") 1 !calls)
    [ Protocol.bad_request; Protocol.not_found; Protocol.bad_trace;
      Protocol.shutting_down; Protocol.server_error ]

let test_backoff_jitter_bounds () =
  let policy =
    Client.{ retries = 1; base_s = 1.; factor = 2.; max_s = 4.; jitter = 0.5 }
  in
  (* the sleep before each of [retries] retries of an always-failing call *)
  let sleeps ~retries rand =
    let sleeps = ref [] in
    ignore
      (Client.with_retry ~policy:{ policy with retries } ~rand
         ~sleep:(fun d -> sleeps := d :: !sleeps)
         (fun ~attempt:_ ->
           Error Client.{ kind = "transport"; reason = "gone"; retry_after_s = None }));
    List.rev !sleeps
  in
  (* rand pinned high: the full jitter fraction is shaved off *)
  Alcotest.(check (float 1e-9)) "max jitter shaves half" 0.5
    (List.hd (sleeps ~retries:1 (fun _ -> 1.0)));
  (* rand pinned low: the undithered exponential *)
  Alcotest.(check (float 1e-9)) "zero jitter keeps the exponential" 2.
    (List.nth (sleeps ~retries:2 (fun _ -> 0.)) 1);
  (* deep attempts cap at max_s before jitter *)
  Alcotest.(check (float 1e-9)) "cap holds" 4.
    (List.nth (sleeps ~retries:10 (fun _ -> 0.)) 9)

(* ---------- server under fire ---------- *)

let tmp_socket () =
  let path = Filename.temp_file "tq_chaos" ".sock" in
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

let stop_server socket th =
  (* under a connection cap the shutdown connect can race a just-closed
     client's deregistration and be refused busy — retry until the server
     actually accepts the drain, or joining [th] would hang forever *)
  let result =
    Client.with_retry
      ~policy:
        Client.
          { retries = 20; base_s = 0.02; factor = 1.5; max_s = 0.2; jitter = 0. }
      ~sleep:Thread.delay
      ~rand:(fun _ -> 0.)
      (fun ~attempt:_ ->
        match Client.connect socket with
        | Error e -> Error e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> Client.shutdown c))
  in
  (match result with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("server refused to drain: " ^ e.Client.reason));
  Thread.join th

let stat_int server path =
  let rec walk j = function
    | [] -> ( match j with Json.Int n -> Some n | _ -> None)
    | k :: rest -> (
        match Json.member k j with Some j' -> walk j' rest | None -> None)
  in
  walk server path

let test_server_reaps_slow_loris () =
  let socket = tmp_socket () in
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      idle_timeout_s = 5.;
      frame_timeout_s = 0.15;
    }
  in
  let th = start_server cfg in
  (* a peer that sends one header byte and stalls: reaped with a typed
     timeout frame once the frame budget elapses *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  ignore (Unix.write fd (Bytes.make 1 '\x00') 0 1);
  (match Protocol.read_frame ~idle_timeout_s:5. fd with
  | Some resp ->
      Alcotest.(check bool) "refusal is not ok" true
        (Protocol.get_bool "ok" resp = Some false);
      Alcotest.(check (option string)) "typed timeout kind"
        (Some Protocol.timeout)
        (Protocol.get_str "error" resp)
  | None -> Alcotest.fail "server closed without the typed timeout frame");
  Unix.close fd;
  (* the server is unharmed and counts the reap *)
  let c = Result.get_ok (Client.connect socket) in
  Alcotest.(check bool) "healthy after reap" true (Client.ping c = Ok ());
  let server = Result.get_ok (Client.stats c) in
  Alcotest.(check (option int)) "reap counted" (Some 1)
    (stat_int server [ "reaped_connections" ]);
  Client.close c;
  stop_server socket th

let test_server_connection_cap () =
  let socket = tmp_socket () in
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      max_connections = 1;
    }
  in
  let th = start_server cfg in
  let c1 = Result.get_ok (Client.connect socket) in
  (* ping's response proves the server registered c1 before we probe the cap *)
  Alcotest.(check bool) "first connection serves" true (Client.ping c1 = Ok ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (match Protocol.read_frame ~idle_timeout_s:5. fd with
  | Some resp ->
      Alcotest.(check (option string)) "typed busy refusal"
        (Some Protocol.busy)
        (Protocol.get_str "error" resp);
      Alcotest.(check bool) "carries a retry hint" true
        (Protocol.get_num "retry_after_s" resp <> None)
  | None -> Alcotest.fail "over-cap peer got no refusal frame");
  (* ... and the refused socket is closed server-side *)
  Alcotest.(check bool) "refused connection closes" true
    (Protocol.read_frame ~idle_timeout_s:5. fd = None);
  Unix.close fd;
  (* the resident connection still works; freeing it reopens the door *)
  Alcotest.(check bool) "resident unaffected" true (Client.ping c1 = Ok ());
  let server = Result.get_ok (Client.stats c1) in
  Alcotest.(check (option int)) "refusal counted" (Some 1)
    (stat_int server [ "refused_connections" ]);
  Client.close c1;
  let rec reconnect tries =
    (* the server notices c1's close asynchronously *)
    let c = Result.get_ok (Client.connect socket) in
    match Client.ping c with
    | Ok () -> Client.close c
    | Error _ when tries > 0 ->
        Client.close c;
        Thread.delay 0.02;
        reconnect (tries - 1)
    | Error e -> Alcotest.fail ("slot never freed: " ^ e.Client.reason)
  in
  reconnect 100;
  stop_server socket th

let test_server_job_deadline_typed_and_slot_freed () =
  let prog, bytes = Lazy.force fixture in
  let socket = tmp_socket () in
  let cfg =
    { (Server.default ~socket_path:socket) with Server.workers = 1 }
  in
  let th = start_server cfg in
  let c = Result.get_ok (Client.connect socket) in
  let id =
    Result.get_ok (Client.upload ~program:(Objfile.encode prog) ~trace:bytes c)
  in
  (* a client-supplied deadline far below the server default: the watchdog
     kills the job with a typed verdict before (or between) chunks *)
  let jid = Result.get_ok (Client.replay ~deadline_s:1e-9 c id) in
  let rep = Result.get_ok (Client.report ~wait:true c jid) in
  Alcotest.(check bool) "job completed" true rep.Client.done_;
  Alcotest.(check (option string)) "typed verdict"
    (Some "deadline-exceeded") rep.Client.killed;
  Alcotest.(check bool) "every tool failed typed" true
    (rep.Client.reports = [] && rep.Client.failures <> []);
  (* the worker slot is free: a healthy replay on the same pool matches a
     direct replay byte-for-byte *)
  let jid2 = Result.get_ok (Client.replay ~slice:2_000 ~period:2_000 c id) in
  let rep2 = Result.get_ok (Client.report ~wait:true c jid2) in
  Alcotest.(check (option string)) "healthy job has no verdict" None
    rep2.Client.killed;
  let direct =
    Replay.sequential (fresh_reader ())
      (List.map
         (fun name ->
           Result.get_ok (Toolset.job ~prog ~slice:2_000 ~period:2_000 name))
         Toolset.names)
  in
  List.iter
    (fun (name, outcome) ->
      match (outcome, List.assoc_opt name rep2.Client.reports) with
      | Ok want, Some got ->
          Alcotest.(check string) (name ^ " identical after timeout") want got
      | _ -> Alcotest.fail (name ^ ": missing report"))
    direct;
  let server = Result.get_ok (Client.stats c) in
  Alcotest.(check (option int)) "timeout counted" (Some 1)
    (stat_int server [ "queue"; "timed_out_jobs" ]);
  Alcotest.(check (option int)) "accounting back to zero" (Some 0)
    (stat_int server [ "queue"; "running" ]);
  Alcotest.(check (option int)) "queue drained" (Some 0)
    (stat_int server [ "queue"; "depth" ]);
  Client.close c;
  stop_server socket th

let test_server_attach_cancels_on_disconnect () =
  let prog, bytes = Lazy.force fixture in
  let socket = tmp_socket () in
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      rate = 1000.;
      burst = 1000;
    }
  in
  let th = start_server cfg in
  let c1 = Result.get_ok (Client.connect socket) in
  let id =
    Result.get_ok (Client.upload ~program:(Objfile.encode prog) ~trace:bytes c1)
  in
  (* keep the single worker busy so the attached job sits in the queue long
     enough for the disconnect to land first *)
  let backlog =
    List.init 4 (fun _ -> Result.get_ok (Client.replay c1 id))
  in
  let c2 = Result.get_ok (Client.connect socket) in
  let jid = Result.get_ok (Client.replay ~attach:true c2 id) in
  Client.close c2 (* hang up: the server owes this job a cancellation *);
  List.iter (fun j -> ignore (Result.get_ok (Client.report ~wait:true c1 j))) backlog;
  let rep = Result.get_ok (Client.report ~wait:true c1 jid) in
  (* timing-tolerant: the job may have squeaked through if the worker got to
     it before the disconnect, but the normal path is a typed cancellation —
     and in either case the server must stay consistent *)
  (match rep.Client.killed with
  | Some "cancelled" ->
      Alcotest.(check bool) "cancelled job reports nothing" true
        (rep.Client.reports = [])
  | Some other -> Alcotest.fail ("unexpected verdict: " ^ other)
  | None -> ());
  let server = Result.get_ok (Client.stats c1) in
  Alcotest.(check (option int)) "accounting back to zero" (Some 0)
    (stat_int server [ "queue"; "running" ]);
  Alcotest.(check (option int)) "queue drained" (Some 0)
    (stat_int server [ "queue"; "depth" ]);
  Client.close c1;
  stop_server socket th

let test_cli_retry_reaches_server_counter () =
  (* end-to-end: a retried request (attempt > 1) bumps retries_observed *)
  let socket = tmp_socket () in
  let cfg = { (Server.default ~socket_path:socket) with Server.workers = 1 } in
  let th = start_server cfg in
  let result =
    Client.with_retry
      ~policy:Client.{ default_policy with retries = 2; base_s = 0.001 }
      (fun ~attempt ->
        match Client.connect ~attempt socket with
        | Error e -> Error e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                (* fail the first attempt artificially to force a retry *)
                if attempt = 1 then
                  Error
                    Client.
                      { kind = "transport"; reason = "injected"; retry_after_s = None }
                else Result.map (fun () -> attempt) (Client.ping c)))
  in
  Alcotest.(check int) "second attempt won" 2 (Result.get_ok result);
  let c = Result.get_ok (Client.connect socket) in
  let server = Result.get_ok (Client.stats c) in
  Alcotest.(check (option int)) "server saw the retry" (Some 1)
    (stat_int server [ "retries_observed" ]);
  Client.close c;
  stop_server socket th

(* ---------- the qcheck chaos property ---------- *)

(* For ANY storm of malformed wire bytes: the server never dies, answers
   every strike with a typed refusal / reap / clean close (never silence,
   never a crash), stays reachable for a healthy hand-rolled ping after each
   strike, and its accounting returns to zero. *)
let qcheck_wire_storm_never_kills_server =
  let socket = tmp_socket () in
  let cfg =
    {
      (Server.default ~socket_path:socket) with
      Server.workers = 1;
      idle_timeout_s = 5.;
      frame_timeout_s = 0.1;
      max_connections = 32;
    }
  in
  let th = ref None in
  let ensure_server () =
    match !th with
    | Some _ -> ()
    | None -> th := Some (start_server cfg)
  in
  let teardown () =
    match !th with
    | Some t ->
        stop_server socket t;
        th := None
    | None -> ()
  in
  let test =
    QCheck.Test.make ~name:"wire storm: server survives any byte stream"
      ~count:40 QCheck.small_int (fun seed ->
        ensure_server ();
        let mut, verdict =
          match Wire.storm ~wait_s:5. ~socket ~seed ~rounds:1 () with
          | [ { Wire.mutation; verdict } ] -> (Wire.slug mutation, verdict)
          | evs -> QCheck.Test.fail_reportf "one round, %d strikes" (List.length evs)
        in
        (match verdict with
        | Wire.Unreachable why ->
            QCheck.Test.fail_reportf "server unreachable after %s (seed %d): %s"
              mut seed why
        | Wire.Silent ->
            QCheck.Test.fail_reportf "server went silent on %s (seed %d)" mut seed
        | Wire.Rejected _ | Wire.Accepted | Wire.Closed -> ());
        (* the next healthy client must still be served *)
        match Wire.ping ~socket () with
        | Ok () -> true
        | Error why ->
            QCheck.Test.fail_reportf "health probe failed after %s (seed %d): %s"
              mut seed why)
  in
  (* wrap so the server is torn down (and the byte-identical final check
     runs) whatever order alcotest executes in *)
  let final () =
    ensure_server ();
    let prog, bytes = Lazy.force fixture in
    let c = Result.get_ok (Client.connect socket) in
    let id =
      Result.get_ok (Client.upload ~program:(Objfile.encode prog) ~trace:bytes c)
    in
    let jid = Result.get_ok (Client.replay ~slice:2_000 ~period:2_000 c id) in
    let rep = Result.get_ok (Client.report ~wait:true c jid) in
    Alcotest.(check (list string)) "no failures after the storm" []
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
            Alcotest.(check string)
              (name ^ " byte-identical after the storm") want got
        | _ -> Alcotest.fail (name ^ ": missing report"))
      direct;
    let server = Result.get_ok (Client.stats c) in
    Alcotest.(check (option int)) "nothing left running" (Some 0)
      (stat_int server [ "queue"; "running" ]);
    Alcotest.(check (option int)) "queue empty" (Some 0)
      (stat_int server [ "queue"; "depth" ]);
    Client.close c;
    teardown ()
  in
  (QCheck_alcotest.to_alcotest test, final)

(* ---------- CLI exit-code contract for the serve path ---------- *)

let test_cli_exit_codes () =
  let run_cli = Test_dataflow.run_cli in
  let prog, bytes = Lazy.force fixture in
  let socket = tmp_socket () in
  let cfg = { (Server.default ~socket_path:socket) with Server.workers = 1 } in
  let th = start_server cfg in
  let c = Result.get_ok (Client.connect socket) in
  let id =
    Result.get_ok (Client.upload ~program:(Objfile.encode prog) ~trace:bytes c)
  in
  (* 0: healthy operations *)
  Alcotest.(check int) "ping: 0" 0
    (run_cli (Printf.sprintf "client ping --socket %s" socket));
  Alcotest.(check int) "replay+wait: 0" 0
    (run_cli
       (Printf.sprintf "client replay --socket %s %s --wait --tool gprof"
          socket id));
  Alcotest.(check int) "chaos storm: 0" 0
    (run_cli
       (Printf.sprintf "client chaos --socket %s --seed 7 --rounds 6" socket));
  (* 2: usage errors, client-side and server-refused alike *)
  Alcotest.(check int) "negative deadline: 2" 2
    (run_cli
       (Printf.sprintf "client replay --socket %s %s --deadline=-1" socket id));
  Alcotest.(check int) "negative retries: 2" 2
    (run_cli (Printf.sprintf "client ping --socket %s --retries=-1" socket));
  Alcotest.(check int) "unknown tool is the server's bad-request: 2" 2
    (run_cli
       (Printf.sprintf "client replay --socket %s %s --tool nosuch" socket id));
  (* 3: the analysis never ran *)
  Alcotest.(check int) "unreachable socket: 3" 3
    (run_cli "client ping --socket /nonexistent/tq.sock");
  Alcotest.(check int) "unknown job id: 3" 3
    (run_cli (Printf.sprintf "client report --socket %s 9999" socket));
  Alcotest.(check int) "unknown trace id: 3" 3
    (run_cli
       (Printf.sprintf "client replay --socket %s 0000000000000000" socket));
  (* 4: the job ran and was killed by its deadline *)
  Alcotest.(check int) "deadline-killed job: 4" 4
    (run_cli
       (Printf.sprintf "client replay --socket %s %s --wait --deadline 1e-9"
          socket id));
  Client.close c;
  stop_server socket th

let qcheck_storm_test, qcheck_storm_final = qcheck_wire_storm_never_kills_server

let suites =
  [ ( "chaos",
      [ Alcotest.test_case "frames: max_frame boundary exact/below/above"
          `Quick test_frame_boundary_exact;
        Alcotest.test_case "frames: negative lengths refused" `Quick
          test_frame_negative_length;
        Alcotest.test_case "frames: garbage payloads refused" `Quick
          test_frame_garbage_payload;
        Alcotest.test_case "frames: every truncation point is typed" `Quick
          test_frame_truncation_matrix;
        Alcotest.test_case "frames: oversized writes refused" `Quick
          test_write_oversized_refused;
        Alcotest.test_case "deadlines: idle timeout fires" `Quick
          test_idle_timeout_fires;
        Alcotest.test_case "deadlines: slow-loris frame timeout fires" `Quick
          test_frame_timeout_fires_after_first_byte;
        Alcotest.test_case "deadlines: dribbled-but-live frames complete"
          `Quick test_dribbled_frame_completes;
        Alcotest.test_case "deadlines: stuffed-pipe writes time out" `Quick
          test_write_timeout_on_stuffed_pipe;
        Alcotest.test_case "jobs: cancellation is typed and accounted" `Quick
          test_jobs_cancel_queued;
        Alcotest.test_case "jobs: deadline kills typed, slot freed" `Quick
          test_jobs_deadline_exceeded;
        Alcotest.test_case "jobs: pool default deadline applies" `Quick
          test_jobs_default_deadline;
        Alcotest.test_case "retry: backoff floors at the server hint" `Quick
          test_retry_backoff_honours_hint;
        Alcotest.test_case "retry: exponential growth capped" `Quick
          test_retry_exponential_when_no_hint;
        Alcotest.test_case "retry: terminal kinds fail fast" `Quick
          test_retry_terminal_kinds_fail_fast;
        Alcotest.test_case "retry: jitter bounds" `Quick
          test_backoff_jitter_bounds;
        Alcotest.test_case "server: slow loris reaped with typed timeout"
          `Quick test_server_reaps_slow_loris;
        Alcotest.test_case "server: connection cap refuses typed busy" `Quick
          test_server_connection_cap;
        Alcotest.test_case "server: job deadline typed, slot freed" `Quick
          test_server_job_deadline_typed_and_slot_freed;
        Alcotest.test_case "server: attached jobs cancel on disconnect"
          `Quick test_server_attach_cancels_on_disconnect;
        Alcotest.test_case "server: retried requests reach the counter"
          `Quick test_cli_retry_reaches_server_counter;
        qcheck_storm_test;
        Alcotest.test_case "storm aftermath: byte-identical reports" `Quick
          qcheck_storm_final;
        Alcotest.test_case "cli: serve-path exit codes 0/2/3/4" `Quick
          test_cli_exit_codes ] ) ]

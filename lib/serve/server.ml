module Json = Tq_obs.Json
module Obs = Tq_obs
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay
module Event = Tq_trace.Event
module Toolset = Tq_report.Toolset

type config = {
  socket_path : string;
  workers : int;
  queue_limit : int;
  cache_bytes : int;
  rate : float;
  burst : int;
  max_traces : int;
  max_connections : int;
  idle_timeout_s : float;
  frame_timeout_s : float;
  job_timeout_s : float;
  manifest_dir : string option;
  manifest_period_s : float;
}

let default ~socket_path =
  {
    socket_path;
    workers = 0;
    queue_limit = 32;
    cache_bytes = 64 * 1024 * 1024;
    rate = 50.;
    burst = 100;
    max_traces = 64;
    max_connections = 64;
    idle_timeout_s = 300.;
    frame_timeout_s = 10.;
    job_timeout_s = 120.;
    manifest_dir = None;
    manifest_period_s = 5.;
  }

type trace_entry = {
  id : string;
  key : int64;
  name : string;
  reader : Reader.t;
  prog : Tq_vm.Program.t option;
}

(* One live connection, registered so the listener-side reaper can see it.
   [last_active] is written by the owning thread and read by the reaper —
   a torn float read at worst mis-times one reap, so no lock on the fast
   path.  [attached] collects job ids this connection asked to own
   (replay with [attach]); they are cancelled when it closes. *)
type conn = {
  c_fd : Unix.file_descr;
  c_id : int;
  mutable last_active : float;
  mutable attached : int list;  (* guarded by the server lock *)
}

type t = {
  cfg : config;
  cache : Tq_trace.Reader.decoded Lru.t;
  jobs : Jobs.t;
  limiter : Limiter.t;
  lock : Mutex.t;  (* guards traces, requests, conns, connection counters *)
  traces : (string, trace_entry) Hashtbl.t;
  requests : (string, int ref) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  mutable connections : int;
  mutable active : int;
  mutable busy_rejections : int;
  mutable reaped_connections : int;
  mutable refused_connections : int;
  mutable retries_observed : int;
  start : float;
  mutable stop : bool;
  pipe_w : Unix.file_descr;
}

let trigger_stop s =
  s.stop <- true;
  (* self-pipe wakes the select loop; a full pipe means it is awake already *)
  try ignore (Unix.write s.pipe_w (Bytes.make 1 'x') 0 1)
  with Unix.Unix_error _ -> ()

let count_req s op =
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.requests op with
      | Some r -> incr r
      | None -> Hashtbl.add s.requests op (ref 1))

(* ---------- manifests ---------- *)

let server_section s =
  let js = Jobs.stats s.jobs in
  let cs = Lru.stats s.cache in
  let lat = js.Jobs.latency in
  let pct p = if Array.length lat = 0 then 0. else Tq_util.Stats.percentile lat p in
  let lat_max = Array.fold_left Float.max 0. lat in
  let connections, active, busy, reaped, refused, retries, requests =
    Mutex.protect s.lock (fun () ->
        let reqs =
          Hashtbl.fold (fun op r acc -> (op, Json.Int !r) :: acc) s.requests []
        in
        ( s.connections,
          s.active,
          s.busy_rejections,
          s.reaped_connections,
          s.refused_connections,
          s.retries_observed,
          List.sort (fun (a, _) (b, _) -> compare a b) reqs ))
  in
  Json.Obj
    [ ("uptime_s", Json.Float (Unix.gettimeofday () -. s.start));
      ("connections", Json.Int connections);
      ("active_connections", Json.Int active);
      ("requests", Json.Obj requests);
      ("busy_rejections", Json.Int busy);
      ("reaped_connections", Json.Int reaped);
      ("refused_connections", Json.Int refused);
      ("retries_observed", Json.Int retries);
      ( "rate",
        Json.Obj
          [ ("allowed", Json.Int (Limiter.allowed s.limiter));
            ("rejected", Json.Int (Limiter.rejected s.limiter)) ] );
      ( "queue",
        Json.Obj
          [ ("depth", Json.Int js.Jobs.depth);
            ("limit", Json.Int js.queue_limit);
            ("peak", Json.Int js.peak_depth);
            ("running", Json.Int js.running);
            ("workers", Json.Int js.workers);
            ("submitted", Json.Int js.submitted);
            ("completed", Json.Int js.completed);
            ("failed_jobs", Json.Int js.failed_jobs);
            ("timed_out_jobs", Json.Int js.timed_out_jobs);
            ("cancelled_jobs", Json.Int js.cancelled_jobs);
            ("rejected", Json.Int js.rejected) ] );
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int cs.Lru.hits);
            ("misses", Json.Int cs.misses);
            ("evictions", Json.Int cs.evictions);
            ("entries", Json.Int cs.entries);
            ("weight", Json.Int cs.weight);
            ("capacity", Json.Int cs.capacity);
            ("hit_rate", Json.Float (Lru.hit_rate cs)) ] );
      ( "latency",
        Json.Obj
          [ ("count", Json.Int (Array.length lat));
            ("p50_s", Json.Float (pct 50.));
            ("p99_s", Json.Float (pct 99.));
            ("max_s", Json.Float lat_max) ] ) ]

let write_server_manifest s =
  match s.cfg.manifest_dir with
  | None -> ()
  | Some dir ->
      let doc =
        Obs.Manifest.make ~tool:"tquad-serve" ~subcommand:"server"
          ~extra:[ ("server", server_section s) ]
          Obs.Span.disabled Obs.Metrics.disabled
      in
      (try Obs.Manifest.write (Filename.concat dir "server.json") doc
       with Sys_error _ -> ())

let write_job_manifest s id =
  match s.cfg.manifest_dir with
  | None -> ()
  | Some dir -> (
      match Jobs.status s.jobs id with
      | Jobs.Done results ->
          let tools =
            List.map
              (fun (name, o) ->
                ( name,
                  match o with
                  | Ok report ->
                      Json.Obj
                        [ ("ok", Json.Bool true);
                          ("bytes", Json.Int (String.length report)) ]
                  | Error f ->
                      Json.Obj
                        [ ("ok", Json.Bool false);
                          ("error", Json.Str (Replay.failure_message f)) ] ))
              results
          in
          let replay =
            match Jobs.replay_stats s.jobs id with
            | Some st -> [ ("replay", Toolset.replay_section st) ]
            | None -> []
          in
          let doc =
            Obs.Manifest.make ~tool:"tquad-serve" ~subcommand:"job"
              ~extra:
                (( "job",
                   Json.Obj [ ("id", Json.Int id); ("tools", Json.Obj tools) ] )
                :: replay)
              Obs.Span.disabled Obs.Metrics.disabled
          in
          (try
             Obs.Manifest.write
               (Filename.concat dir (Printf.sprintf "job-%d.json" id))
               doc
           with Sys_error _ -> ())
      | _ -> ())

(* ---------- request handlers ---------- *)

let busy_response s ?(extra = []) reason =
  Mutex.protect s.lock (fun () ->
      s.busy_rejections <- s.busy_rejections + 1);
  Protocol.error ~extra Protocol.busy reason

let handle_upload s req =
  match Protocol.get_str "trace" req with
  | None -> Protocol.error Protocol.bad_request "upload: missing trace bytes"
  | Some bytes -> (
      let name =
        Option.value (Protocol.get_str "name" req) ~default:"trace"
      in
      let id = Protocol.trace_id bytes in
      let existing =
        Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.traces id)
      in
      match existing with
      | Some e ->
          Protocol.ok
            [ ("id", Json.Str id);
              ("known", Json.Bool true);
              ("trace", Toolset.trace_section e.reader) ]
      | None -> (
          match Reader.of_string bytes with
          | exception Reader.Format_error msg ->
              Protocol.error Protocol.bad_trace ("trace: " ^ msg)
          | reader -> (
              let prog =
                match Protocol.get_str "program" req with
                | None -> Ok None
                | Some pb -> (
                    match Tq_vm.Objfile.decode pb with
                    | p -> (
                        match Replay.check_program reader p with
                        | Ok () -> Ok (Some p)
                        | Error msg -> Error msg)
                    | exception _ ->
                        Error "program bytes are not a valid object file")
              in
              match prog with
              | Error msg -> Protocol.error Protocol.bad_trace msg
              | Ok prog ->
                  let entry =
                    { id; key = Protocol.trace_key bytes; name; reader; prog }
                  in
                  let stored =
                    Mutex.protect s.lock (fun () ->
                        if Hashtbl.mem s.traces id then true
                        else if Hashtbl.length s.traces >= s.cfg.max_traces
                        then false
                        else begin
                          Hashtbl.add s.traces id entry;
                          true
                        end)
                  in
                  if not stored then
                    busy_response s
                      (Printf.sprintf "trace store full (%d resident)"
                         s.cfg.max_traces)
                  else
                    Protocol.ok
                      [ ("id", Json.Str id);
                        ("known", Json.Bool false);
                        ("trace", Toolset.trace_section reader) ])))

let handle_trace_info s req =
  match Protocol.get_str "id" req with
  | None -> Protocol.error Protocol.bad_request "trace-info: missing id"
  | Some id -> (
      match Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.traces id) with
      | None -> Protocol.error Protocol.not_found ("unknown trace " ^ id)
      | Some e ->
          Protocol.ok
            [ ("id", Json.Str id);
              ("name", Json.Str e.name);
              ("trace", Toolset.trace_section e.reader) ])

let handle_replay s conn req =
  if s.stop then Protocol.error Protocol.shutting_down "server is draining"
  else
    match Protocol.get_str "id" req with
    | None -> Protocol.error Protocol.bad_request "replay: missing id"
    | Some id -> (
        let tools =
          match Json.member "tools" req with
          | None -> Ok Toolset.names
          | Some (Json.List l) ->
              let rec collect acc = function
                | [] -> Ok (List.rev acc)
                | Json.Str t :: rest ->
                    if not (List.mem t Toolset.names) then
                      Error (Printf.sprintf "unknown tool %s" t)
                    else if List.mem t acc then
                      Error (Printf.sprintf "duplicate tool %s" t)
                    else collect (t :: acc) rest
                | _ -> Error "tools must be a list of strings"
              in
              if l = [] then Error "tools must not be empty"
              else collect [] l
          | Some _ -> Error "tools must be a list of strings"
        in
        let slice =
          Option.value (Protocol.get_int "slice" req)
            ~default:Tq_tquad.Tquad.default_slice_interval
        in
        let period =
          Option.value (Protocol.get_int "period" req)
            ~default:Tq_gprofsim.Gprofsim.default_period
        in
        (* a client may ask for a tighter budget than the server default,
           never a looser one; [job_timeout_s <= 0] disables the server
           default *)
        let server_budget =
          if s.cfg.job_timeout_s > 0. then Some s.cfg.job_timeout_s else None
        in
        let deadline_s =
          match (Protocol.get_num "deadline_s" req, server_budget) with
          | Some d, Some b -> Some (Float.min d b)
          | Some d, None -> Some d
          | None, b -> b
        in
        let attach =
          Option.value (Protocol.get_bool "attach" req) ~default:false
        in
        match tools with
        | Error msg -> Protocol.error Protocol.bad_request ("replay: " ^ msg)
        | Ok _ when slice < 1 || period < 1 ->
            Protocol.error Protocol.bad_request
              "replay: slice and period must be positive"
        | Ok _ when (match deadline_s with Some d -> d < 0. | None -> false)
          ->
            Protocol.error Protocol.bad_request
              "replay: deadline_s must be non-negative"
        | Ok tools -> (
            match
              Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.traces id)
            with
            | None -> Protocol.error Protocol.not_found ("unknown trace " ^ id)
            | Some { prog = None; _ } ->
                Protocol.error Protocol.bad_request
                  "replay: trace has no program attached; upload it with \
                   program bytes"
            | Some { prog = Some prog; key; reader; _ } ->
                if not (Limiter.try_take s.limiter) then
                  busy_response s
                    ~extra:
                      [ ( "retry_after_s",
                          Json.Float (Limiter.retry_after s.limiter) ) ]
                    "rate limit exceeded"
                else
                  let spec =
                    Jobs.
                      { trace_key = key; reader; prog; tools; slice; period }
                  in
                  (match Jobs.submit ?deadline_s s.jobs spec with
                  | Ok jid ->
                      if attach then
                        Mutex.protect s.lock (fun () ->
                            conn.attached <- jid :: conn.attached);
                      Protocol.ok [ ("job", Json.Int jid) ]
                  | Error (`Queue_full depth) ->
                      busy_response s
                        ~extra:
                          [ ("retry_after_s", Json.Float 0.1);
                            ("queue_depth", Json.Int depth) ]
                        "job queue full")))

let render_results jid results =
  let reports, failures =
    List.partition_map
      (fun (name, o) ->
        match o with
        | Ok report -> Either.Left (name, Json.Str report)
        | Error f ->
            Either.Right (name, Json.Str (Replay.failure_message f)))
      results
  in
  let killed =
    match Jobs.killed results with
    | Some `Deadline_exceeded -> [ ("killed", Json.Str "deadline-exceeded") ]
    | Some `Cancelled -> [ ("killed", Json.Str "cancelled") ]
    | None -> []
  in
  Protocol.ok
    ([ ("job", Json.Int jid);
       ("done", Json.Bool true);
       ("reports", Json.Obj reports);
       ("failures", Json.Obj failures) ]
    @ killed)

let handle_report s req =
  match Protocol.get_int "job" req with
  | None -> Protocol.error Protocol.bad_request "report: missing job id"
  | Some jid -> (
      let wait = Option.value (Protocol.get_bool "wait" req) ~default:false in
      if wait then
        match Jobs.wait s.jobs jid with
        | None -> Protocol.error Protocol.not_found "unknown job"
        | Some results -> render_results jid results
      else
        match Jobs.status s.jobs jid with
        | Jobs.Unknown -> Protocol.error Protocol.not_found "unknown job"
        | Jobs.Pending ->
            Protocol.ok [ ("job", Json.Int jid); ("done", Json.Bool false) ]
        | Jobs.Done results -> render_results jid results)

let handle_request s conn op req =
  match op with
  | "ping" -> Protocol.ok [ ("pong", Json.Bool true) ]
  | "upload" -> handle_upload s req
  | "trace-info" -> handle_trace_info s req
  | "replay" -> handle_replay s conn req
  | "report" -> handle_report s req
  | "stats" -> Protocol.ok [ ("server", server_section s) ]
  | "shutdown" ->
      trigger_stop s;
      Protocol.ok [ ("draining", Json.Bool true) ]
  | "" -> Protocol.error Protocol.bad_request "missing op member"
  | other -> Protocol.error Protocol.bad_request ("unknown op " ^ other)

(* ---------- connections ---------- *)

(* Positive timeouts only: a non-positive configured timeout disables the
   bound (blocking reads, the pre-deadline behaviour). *)
let pos t = if t > 0. then Some t else None

let handle_conn s conn =
  let fd = conn.c_fd in
  let reaped reason =
    Mutex.protect s.lock (fun () ->
        s.reaped_connections <- s.reaped_connections + 1);
    (* best-effort typed goodbye; the peer may be gone or not reading *)
    try
      Protocol.write_frame ~timeout_s:1. fd
        (Protocol.error Protocol.timeout reason)
    with _ -> ()
  in
  let finally () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let attached =
      Mutex.protect s.lock (fun () ->
          s.active <- s.active - 1;
          Hashtbl.remove s.conns conn.c_id;
          conn.attached)
    in
    (* in-flight jobs whose owner hung up release their worker slots *)
    List.iter
      (fun jid ->
        ignore (Jobs.cancel ~reason:"client disconnected" s.jobs jid))
      attached
  in
  Fun.protect ~finally (fun () ->
      let rec loop () =
        match
          Protocol.read_frame
            ?idle_timeout_s:(pos s.cfg.idle_timeout_s)
            ?frame_timeout_s:(pos s.cfg.frame_timeout_s)
            fd
        with
        | None -> ()
        | Some req ->
            conn.last_active <- Unix.gettimeofday ();
            let op =
              Option.value (Protocol.get_str "op" req) ~default:""
            in
            count_req s (if op = "" then "invalid" else op);
            (match Protocol.get_int "attempt" req with
            | Some a when a > 1 ->
                Mutex.protect s.lock (fun () ->
                    s.retries_observed <- s.retries_observed + 1)
            | _ -> ());
            let resp =
              try handle_request s conn op req
              with exn ->
                Protocol.error Protocol.server_error
                  ("internal error: " ^ Printexc.to_string exn)
            in
            Protocol.write_frame ?timeout_s:(pos s.cfg.frame_timeout_s) fd
              resp;
            conn.last_active <- Unix.gettimeofday ();
            loop ()
      in
      try loop () with
      | End_of_file -> ()
      | Protocol.Timeout what -> reaped what
      | Protocol.Frame_error msg -> (
          try
            Protocol.write_frame ~timeout_s:1. fd
              (Protocol.error Protocol.bad_request msg)
          with _ -> ())
      | Unix.Unix_error _ -> ())

(* ---------- main loop ---------- *)

let run ?(on_ready = fun () -> ()) ?(handle_signals = true) cfg =
  let cache = Lru.create ~capacity:cfg.cache_bytes in
  let state_ref = ref None in
  let jobs =
    Jobs.create
      ?workers:(if cfg.workers > 0 then Some cfg.workers else None)
      ~on_done:(fun id ->
        match !state_ref with Some s -> write_job_manifest s id | None -> ())
      ~queue_limit:cfg.queue_limit ~cache ()
  in
  let limiter = Limiter.create ~rate:cfg.rate ~burst:cfg.burst () in
  let pipe_r, pipe_w = Unix.pipe () in
  let s =
    {
      cfg;
      cache;
      jobs;
      limiter;
      lock = Mutex.create ();
      traces = Hashtbl.create 16;
      requests = Hashtbl.create 16;
      conns = Hashtbl.create 16;
      next_conn_id = 0;
      connections = 0;
      active = 0;
      busy_rejections = 0;
      reaped_connections = 0;
      refused_connections = 0;
      retries_observed = 0;
      start = Unix.gettimeofday ();
      stop = false;
      pipe_w;
    }
  in
  state_ref := Some s;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  (* a peer that hangs up mid-write must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if handle_signals then begin
    let h = Sys.Signal_handle (fun _ -> trigger_stop s) in
    Sys.set_signal Sys.sigterm h;
    Sys.set_signal Sys.sigint h
  end;
  on_ready ();
  write_server_manifest s;
  (* connection-thread timeouts are the first line of defense; this listener-
     side backstop shuts down sockets whose owning thread has been silent for
     twice the idle budget (e.g. wedged mid-write on a dead peer).  shutdown,
     not close: the owning thread still holds the fd and will close it when
     its read fails. *)
  let reap_stale () =
    match pos s.cfg.idle_timeout_s with
    | None -> ()
    | Some idle ->
        let now = Unix.gettimeofday () in
        let stale =
          Mutex.protect s.lock (fun () ->
              Hashtbl.fold
                (fun _ c acc ->
                  if now -. c.last_active > 2. *. idle then c :: acc else acc)
                s.conns [])
        in
        List.iter
          (fun c ->
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          stale
  in
  let accept_conn fd =
    let over, conn =
      Mutex.protect s.lock (fun () ->
          s.connections <- s.connections + 1;
          if
            s.cfg.max_connections > 0
            && s.active >= s.cfg.max_connections
          then begin
            s.refused_connections <- s.refused_connections + 1;
            (true, None)
          end
          else begin
            s.active <- s.active + 1;
            let c =
              {
                c_fd = fd;
                c_id = s.next_conn_id;
                last_active = Unix.gettimeofday ();
                attached = [];
              }
            in
            s.next_conn_id <- s.next_conn_id + 1;
            Hashtbl.add s.conns c.c_id c;
            (false, Some c)
          end)
    in
    if over then begin
      (* typed refusal so a well-behaved client backs off instead of
         retrying immediately *)
      (try
         Protocol.write_frame ~timeout_s:1. fd
           (Protocol.error
              ~extra:[ ("retry_after_s", Json.Float 0.5) ]
              Protocol.busy "connection limit reached")
       with _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else
      match conn with
      | Some c -> ignore (Thread.create (fun () -> handle_conn s c) ())
      | None -> ()
  in
  let deadline = ref (Unix.gettimeofday () +. cfg.manifest_period_s) in
  let rec loop () =
    if not s.stop then begin
      let timeout =
        Float.min 0.5
          (Float.max 0.05 (!deadline -. Unix.gettimeofday ()))
      in
      (match Unix.select [ listen_fd; pipe_r ] [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          if List.mem listen_fd ready then begin
            match Unix.accept listen_fd with
            | exception Unix.Unix_error _ -> ()
            | fd, _ -> accept_conn fd
          end;
          if List.mem pipe_r ready then begin
            let b = Bytes.create 16 in
            try ignore (Unix.read pipe_r b 0 16)
            with Unix.Unix_error _ -> ()
          end);
      reap_stale ();
      if Unix.gettimeofday () >= !deadline then begin
        write_server_manifest s;
        deadline := Unix.gettimeofday () +. cfg.manifest_period_s
      end;
      loop ()
    end
  in
  loop ();
  (* graceful drain: stop listening, run the queue dry, give open
     connections a moment to finish their in-flight request, then write the
     final manifest and remove the socket *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Jobs.drain jobs;
  let grace_until = Unix.gettimeofday () +. 2.0 in
  while
    Mutex.protect s.lock (fun () -> s.active) > 0
    && Unix.gettimeofday () < grace_until
  do
    Thread.delay 0.02
  done;
  write_server_manifest s;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  try Unix.close pipe_w with Unix.Unix_error _ -> ()

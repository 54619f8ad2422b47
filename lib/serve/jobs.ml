module Reader = Tq_trace.Reader
module Event = Tq_trace.Event
module Replay = Tq_trace.Replay
module Toolset = Tq_report.Toolset

type spec = {
  trace_key : int64;
  reader : Reader.t;
  prog : Tq_vm.Program.t;
  tools : string list;
  slice : int;
  period : int;
}

type outcome = (string * Replay.outcome) list

type status = Unknown | Pending | Done of outcome

type state = Queued | Running | Finished of outcome

exception Cancelled of string
exception Deadline_exceeded of float

let () =
  Printexc.register_printer (function
    | Cancelled reason -> Some ("job cancelled: " ^ reason)
    | Deadline_exceeded budget ->
        Some (Printf.sprintf "job deadline exceeded (budget %.3gs)" budget)
    | _ -> None)

type jrec = {
  spec : spec;
  mutable state : state;
  mutable replay_stats : Replay.run_stats option;  (* set with [Finished] *)
  cancelled : string option Atomic.t;  (* Some reason once cancelled *)
  deadline : float option;  (* absolute, measured from submission *)
  budget_s : float option;  (* the relative budget, for the error text *)
}

type stats = {
  submitted : int;
  completed : int;
  failed_jobs : int;
  timed_out_jobs : int;
  cancelled_jobs : int;
  rejected : int;
  depth : int;
  running : int;
  peak_depth : int;
  queue_limit : int;
  workers : int;
  latency : float array;
}

let lat_cap = 4096

type t = {
  lock : Mutex.t;
  cond : Condition.t;  (* broadcast on every state change; waiters recheck *)
  queue : int Queue.t;
  jobs : (int, jrec) Hashtbl.t;
  queue_limit : int;
  cache : Reader.decoded Lru.t;
  on_done : int -> unit;
  default_deadline_s : float option;
  mutable next_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable failed_jobs : int;
  mutable timed_out_jobs : int;
  mutable cancelled_jobs : int;
  mutable rejected : int;
  mutable running : int;
  mutable peak_depth : int;
  mutable draining : bool;
  mutable joined : bool;
  lat : float array;
  mutable lat_n : int;  (* samples recorded, ever *)
  mutable domains : unit Domain.t array;
}

(* ---------- execution ---------- *)

(* The watchdog's cooperative checkpoint: runs before each chunk the replay
   pipeline fetches (chunk granularity keeps the hot dispatch loop
   untouched).  Raising here fails every tool still live in the job — the
   job comes back as a typed failure and the worker domain moves on, so a
   pathological trace can occupy its domain-pool slot for at most one chunk
   past its budget. *)
let checkpoint jr =
  (match Atomic.get jr.cancelled with
  | Some reason -> raise (Cancelled reason)
  | None -> ());
  match jr.deadline with
  | Some d when Unix.gettimeofday () > d ->
      raise (Deadline_exceeded (Option.value jr.budget_s ~default:0.))
  | _ -> ()

(* A decoded event is a boxed record of at most seven words (Block_copy)
   plus its array slot, 64 bytes at most; real traces average about 54
   bytes per event.  A repeat chunk holds its record alone: its body's
   events at that price, and its field tables at four words per field
   (literal flag, stride, delta-table slot, a table's header) plus one
   per literal delta.  So this weight is never below a chunk's reachable
   size, and a repeat chunk weighs what it holds, not its expansion. *)
let chunk_weight (dc : Reader.decoded) =
  256
  +
  match dc with
  | Events evs -> 64 * Array.length evs
  | Record r ->
      (64 * Array.length r.body)
      + (8 * Array.fold_left (fun n l -> n + 4 + Array.length l) 0 r.lits)
      + 256

let run_spec ~check cache spec =
  (* an unknown tool is a job whose factory fails: supervision reports it
     alone, in request order *)
  let jobs =
    List.map
      (fun name ->
        match
          Toolset.job ~prog:spec.prog ~slice:spec.slice ~period:spec.period
            name
        with
        | Ok j -> j
        | Error msg -> Replay.job name (fun () -> failwith msg))
      spec.tools
  in
  (* The pipeline's chunk source: checkpoint, then decode-or-hit in the
     shared cache. *)
  let chunk i =
    check ();
    match Lru.find cache (spec.trace_key, i) with
    | Some dc -> dc
    | None ->
        let dc = Reader.chunk spec.reader i in
        Lru.add cache (spec.trace_key, i) ~weight:(chunk_weight dc) dc;
        dc
  in
  (* served jobs stay on their worker's domain: one ordered walk *)
  let stats = ref None in
  let results =
    Replay.parallel ~domains:1 ~chunk
      ~stats:(fun s -> stats := Some s)
      spec.reader jobs
  in
  (results, !stats)

(* The job-level verdict a finished outcome carries: the pipeline fails
   every live tool with the killing exception, so one probe suffices. *)
let killed outcome =
  List.find_map
    (fun (_, o) ->
      match o with
      | Error { Replay.exn = Deadline_exceeded _; _ } ->
          Some `Deadline_exceeded
      | Error { Replay.exn = Cancelled _; _ } -> Some `Cancelled
      | _ -> None)
    outcome

(* Run job [id] (already popped and marked Running) outside the lock, then
   publish its results.  A job already cancelled or past its deadline when
   popped fails fast — its checkpoint raises before the first chunk. *)
let execute t id jr =
  let t0 = Unix.gettimeofday () in
  let results, replay_stats =
    try run_spec ~check:(fun () -> checkpoint jr) t.cache jr.spec
    with exn ->
      (* run_spec is not supposed to raise (supervision happens inside), but
         a job must never take a worker domain down with it *)
      let f = Replay.{ exn; backtrace = "" } in
      (List.map (fun name -> (name, Error f)) jr.spec.tools, None)
  in
  let wall = Unix.gettimeofday () -. t0 in
  Mutex.lock t.lock;
  jr.state <- Finished results;
  jr.replay_stats <- replay_stats;
  t.running <- t.running - 1;
  t.completed <- t.completed + 1;
  (match killed results with
  | Some `Deadline_exceeded -> t.timed_out_jobs <- t.timed_out_jobs + 1
  | Some `Cancelled -> t.cancelled_jobs <- t.cancelled_jobs + 1
  | None -> ());
  if List.exists (fun (_, o) -> Result.is_error o) results then
    t.failed_jobs <- t.failed_jobs + 1;
  t.lat.(t.lat_n mod lat_cap) <- wall;
  t.lat_n <- t.lat_n + 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  try t.on_done id with _ -> ()

(* Pop one queued job while holding the lock; caller releases and executes. *)
let pop_locked t =
  let id = Queue.pop t.queue in
  let jr = Hashtbl.find t.jobs id in
  jr.state <- Running;
  t.running <- t.running + 1;
  (id, jr)

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.draining do
    Condition.wait t.cond t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* draining, queue dry *)
  else begin
    let id, jr = pop_locked t in
    Mutex.unlock t.lock;
    execute t id jr;
    worker_loop t
  end

(* ---------- api ---------- *)

let create ?workers ?(on_done = fun _ -> ()) ?default_deadline_s ~queue_limit
    ~cache () =
  if queue_limit < 1 then invalid_arg "Jobs.create: queue_limit must be >= 1";
  (match default_deadline_s with
  | Some d when d <= 0. ->
      invalid_arg "Jobs.create: default_deadline_s must be positive"
  | _ -> ());
  let workers =
    match workers with
    | Some n when n >= 0 -> min n (Domain.recommended_domain_count ())
    | Some _ -> invalid_arg "Jobs.create: negative workers"
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      queue_limit;
      cache;
      on_done;
      default_deadline_s;
      next_id = 1;
      submitted = 0;
      completed = 0;
      failed_jobs = 0;
      timed_out_jobs = 0;
      cancelled_jobs = 0;
      rejected = 0;
      running = 0;
      peak_depth = 0;
      draining = false;
      joined = false;
      lat = Array.make lat_cap 0.;
      lat_n = 0;
      domains = [||];
    }
  in
  t.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit ?deadline_s t spec =
  (match deadline_s with
  | Some d when d < 0. -> invalid_arg "Jobs.submit: negative deadline_s"
  | _ -> ());
  let budget_s =
    match deadline_s with Some _ -> deadline_s | None -> t.default_deadline_s
  in
  Mutex.protect t.lock (fun () ->
      let depth = Queue.length t.queue in
      if t.draining || depth >= t.queue_limit then begin
        t.rejected <- t.rejected + 1;
        Error (`Queue_full depth)
      end
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        Hashtbl.add t.jobs id
          {
            spec;
            state = Queued;
            replay_stats = None;
            cancelled = Atomic.make None;
            (* the budget covers queue wait too: a job that sat past its
               deadline fails fast when popped instead of occupying a slot *)
            deadline =
              Option.map (fun d -> Unix.gettimeofday () +. d) budget_s;
            budget_s;
          };
        Queue.push id t.queue;
        t.submitted <- t.submitted + 1;
        t.peak_depth <- max t.peak_depth (depth + 1);
        Condition.broadcast t.cond;
        Ok id
      end)

let cancel ?(reason = "cancelled by client") t id =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None | Some { state = Finished _; _ } -> false
      | Some jr ->
          (* first cancellation wins; the running checkpoint (or the pop
             fast-path) turns the token into a typed failure *)
          Atomic.compare_and_set jr.cancelled None (Some reason) |> ignore;
          true)

let status t id =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> Unknown
      | Some { state = Finished r; _ } -> Done r
      | Some _ -> Pending)

let replay_stats t id =
  Mutex.protect t.lock (fun () ->
      Option.bind (Hashtbl.find_opt t.jobs id) (fun jr -> jr.replay_stats))

let wait t id =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.jobs id with
  | None ->
      Mutex.unlock t.lock;
      None
  | Some jr ->
      let rec settle () =
        match jr.state with
        | Finished r -> r
        | Queued | Running ->
            Condition.wait t.cond t.lock;
            settle ()
      in
      let r = settle () in
      Mutex.unlock t.lock;
      Some r

let step t =
  Mutex.lock t.lock;
  if Queue.is_empty t.queue then begin
    Mutex.unlock t.lock;
    false
  end
  else begin
    let id, jr = pop_locked t in
    Mutex.unlock t.lock;
    execute t id jr;
    true
  end

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        submitted = t.submitted;
        completed = t.completed;
        failed_jobs = t.failed_jobs;
        timed_out_jobs = t.timed_out_jobs;
        cancelled_jobs = t.cancelled_jobs;
        rejected = t.rejected;
        depth = Queue.length t.queue;
        running = t.running;
        peak_depth = t.peak_depth;
        queue_limit = t.queue_limit;
        workers = Array.length t.domains;
        latency = Array.sub t.lat 0 (min t.lat_n lat_cap);
      })

let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  (* a worker-less pool has nobody to run the backlog dry — do it here *)
  if Array.length t.domains = 0 then while step t do () done;
  Mutex.lock t.lock;
  while not (Queue.is_empty t.queue) || t.running > 0 do
    Condition.wait t.cond t.lock
  done;
  let join_now = not t.joined in
  t.joined <- true;
  Mutex.unlock t.lock;
  if join_now then Array.iter Domain.join t.domains

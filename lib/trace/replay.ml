(* Replay: the sequential oracle, supervised job groups, and the sharded
   streaming pipeline behind [parallel].

   The pipeline (see DESIGN.md §8) decodes + CRC-verifies every chunk exactly
   once into pooled event arrays, walks the chunks in order exactly once for
   the order-sensitive work (non-sharded tools and the shard-seed prefix
   trackers), and fans trace ranges of sharded tools out across domains, with
   per-range partial states merged left-to-right at the end. *)

type sink = { on_event : Event.t -> unit; on_repeat : Squash.repeat -> bool }

let events_only on_event = { on_event; on_repeat = (fun _ -> false) }

type ('state, 'seed) shard_spec = {
  prefix_wants : Event.kind list;
  prefix : unit -> (Event.t -> unit) * (unit -> 'seed);
  shard : 'seed -> sink * (unit -> 'state);
  merge : 'state -> 'state -> unit;
  render : 'state -> string;
}

type sharded = Sharded : ('state, 'seed) shard_spec -> sharded

type job = {
  name : string;
  wants : Event.kind list;
  make : unit -> sink * (unit -> string);
  sharded : sharded option;
}

type failure = { exn : exn; backtrace : string }
type outcome = (string, failure) result
type domain_timing = { domain : int; jobs : string list; wall_s : float }

type run_stats = {
  rs_domains : int;
  rs_shards : int;
  rs_batch : int;
  rs_chunks : int;
  rs_events : int;
  rs_decode_s : float;
  rs_ordered_s : float;
  rs_shard_s : float;
  rs_merge_s : float;
  rs_peak_live_chunks : int;
  rs_repeat_closed : int;
  rs_repeat_expanded : int;
  rs_timings : domain_timing list;
}

let job ?(wants = Event.all_kinds) ?sharded name make =
  let make () =
    let on_event, finish = make () in
    (events_only on_event, finish)
  in
  { name; wants; make; sharded }

let capture exn = { exn; backtrace = Printexc.get_backtrace () }

let failure_message f =
  match f.exn with
  | Reader.Format_error msg -> "trace unreadable: " ^ msg
  | e -> Printexc.to_string e

let is_trace_error f =
  match f.exn with Reader.Format_error _ -> true | _ -> false

let wanted_tags_of kinds =
  let w = Array.make Event.n_kinds false in
  List.iter (fun k -> w.(Event.kind_tag k) <- true) kinds;
  w

let wanted_tags j = wanted_tags_of j.wants

(* Unrolled fan-out for the common arities: the dispatch runs once per event
   tag occurrence, and binding each sink directly beats an Array.iter per
   event. *)
let fuse = function
  | [||] -> fun (_ : Event.t) -> ()
  | [| s0 |] -> s0
  | [| s0; s1 |] -> fun ev -> s0 ev; s1 ev
  | [| s0; s1; s2 |] -> fun ev -> s0 ev; s1 ev; s2 ev
  | [| s0; s1; s2; s3 |] ->
      fun ev ->
        s0 ev;
        s1 ev;
        s2 ev;
        s3 ev
  | [| s0; s1; s2; s3; s4 |] ->
      fun ev ->
        s0 ev;
        s1 ev;
        s2 ev;
        s3 ev;
        s4 ev
  | [| s0; s1; s2; s3; s4; s5 |] ->
      fun ev ->
        s0 ev;
        s1 ev;
        s2 ev;
        s3 ev;
        s4 ev;
        s5 ev
  | sinks -> fun ev -> Array.iter (fun s -> s ev) sinks

(* One job, one decode pass, every exception captured: a raising tool (or a
   trace that fails its CRC check mid-iteration) becomes this job's [Error],
   not an abort of the caller. *)
let run_job reader j =
  match
    let { on_event = sink; _ }, finish = j.make () in
    let wanted = wanted_tags j in
    if Array.for_all Fun.id wanted then Reader.iter reader sink
    else Reader.iter reader (fun ev -> if wanted.(Event.tag ev) then sink ev);
    finish ()
  with
  | report -> Ok report
  | exception e -> Error (capture e)

let sequential ?timings reader jobs =
  match timings with
  | None -> List.map (fun j -> (j.name, run_job reader j)) jobs
  | Some report ->
      let timed = ref [] in
      let results =
        List.map
          (fun j ->
            let t0 = Unix.gettimeofday () in
            let out = run_job reader j in
            let wall_s = Unix.gettimeofday () -. t0 in
            timed := { domain = 0; jobs = [ j.name ]; wall_s } :: !timed;
            (j.name, out))
          jobs
      in
      report (List.rev !timed);
      results

(* One supervised job group — the routine behind both [supervised] and the
   pipeline's ordered stage.  A member is the event tags its sink wants, a
   factory, and whether it is a job (a sharded job's prefix tracker is not,
   and is left out of the repeat-delivery counts).  Building the group runs
   every factory under capture and fuses one sink per event tag over the
   members that want it, so a tool never sees (and never pays a call for)
   events it would discard.  Each sink is guarded: a raising tool is retired
   from the rest of the pass (its sink becomes a no-op) and comes back as
   its own [Error] instead of poisoning the group.  [retire] records a
   member's first failure under [lock], then calls [on_fail]: the pipeline
   passes its own mutex and a wake-up, since its shard items retire jobs
   from other domains. *)
type member = {
  m_wants : bool array;
  m_make : unit -> sink * (unit -> string);
  m_job : bool;
}

type group = {
  alive : bool array;  (* written under the lock; guards read it unlocked *)
  retire : int -> failure -> unit;
  per_tag : (Event.t -> unit) array;  (* one fused sink per event tag *)
  n_sinks : int;  (* member sinks fused across all tags *)
  offer_repeat : Squash.repeat -> (Event.t -> unit) array option * int * int;
      (* offer a record to every live member: the fused per-tag sinks of the
         members that declined it ([None] if none did), then how many job
         members took it in closed form and how many declined *)
  finish : failure option -> outcome array;
      (* every live member's finish, under capture; [Some f] (the pass
         feeding the group died) fails every live member with [f] instead *)
}

let make_group ?(lock = Mutex.create ()) ?(on_fail = ignore) members =
  let made =
    Array.map
      (fun m -> match m.m_make () with m -> Ok m | exception e -> Error (capture e))
      members
  in
  let failed = Array.map (function Ok _ -> None | Error f -> Some f) made in
  let alive = Array.map Result.is_ok made in
  let retire i f =
    Mutex.lock lock;
    if failed.(i) = None then failed.(i) <- Some f;
    alive.(i) <- false;
    on_fail ();
    Mutex.unlock lock
  in
  let guard i sink ev =
    if alive.(i) then try sink ev with e -> retire i (capture e)
  in
  let wants_any = Array.map (fun m -> Array.exists Fun.id m.m_wants) members in
  (* the fused per-tag sinks over the members [keep] selects *)
  let fused keep =
    let n = ref 0 in
    let per_tag =
      Array.init Event.n_kinds (fun tag ->
          let sinks = ref [] in
          for i = Array.length members - 1 downto 0 do
            match made.(i) with
            | Ok (sink, _) when keep i && members.(i).m_wants.(tag) ->
                incr n;
                sinks := guard i sink.on_event :: !sinks
            | _ -> ()
          done;
          fuse (Array.of_list !sinks))
    in
    (per_tag, !n)
  in
  let per_tag, n_sinks = fused (fun _ -> true) in
  (* A record is offered to each live member; those that decline get its
     events through sinks fused over just them, built once per set of
     decliners. *)
  let by_decliners = Hashtbl.create 4 in
  let offer_repeat r =
    let decl = Array.make (Array.length members) false in
    let closed = ref 0 and expanded = ref 0 in
    Array.iteri
      (fun i m ->
        match made.(i) with
        | Ok (sink, _) when alive.(i) && wants_any.(i) ->
            let took =
              try sink.on_repeat r
              with e ->
                retire i (capture e);
                true
            in
            if not took then decl.(i) <- true;
            if m.m_job && alive.(i) then
              if took then incr closed else incr expanded
        | _ -> ())
      members;
    let sinks =
      if not (Array.exists Fun.id decl) then None
      else
        match Hashtbl.find_opt by_decliners decl with
        | Some p -> Some p
        | None ->
            let p, _ = fused (fun i -> decl.(i)) in
            Hashtbl.add by_decliners decl p;
            Some p
    in
    (sinks, !closed, !expanded)
  in
  let finish fatal =
    Array.mapi
      (fun i m ->
        match (failed.(i), fatal, m) with
        | Some f, _, _ | None, Some f, _ | None, None, Error f -> Error f
        | None, None, Ok (_, fin) -> (
            match fin () with r -> Ok r | exception e -> Error (capture e)))
      made
  in
  { alive; retire; per_tag; n_sinks; offer_repeat; finish }

let job_member j = { m_wants = wanted_tags j; m_make = j.make; m_job = true }

let supervised ~iter jobs =
  let g = make_group (Array.of_list (List.map job_member jobs)) in
  let fatal =
    match iter g.per_tag with () -> None | exception e -> Some (capture e)
  in
  List.map2 (fun j o -> (j.name, o)) jobs (Array.to_list (g.finish fatal))

(* ------------------------------------------------------------------ *)
(* Sharded streaming pipeline                                          *)
(* ------------------------------------------------------------------ *)

(* Monomorphic view of one sharded job, the existential unpacked once into
   closures so the ['state]/['seed] types never escape.  The prefix sink and
   [snapshot] only ever run under the ordered token (serialized, handed off
   through the pipeline mutex); [start]'s returned sink/fin run on whichever
   domain holds the shard item, one at a time. *)
type shard_runner = {
  r_prefix_sink : Event.t -> unit;
  r_snapshot : int -> unit;  (* capture the seed for shard [k] *)
  r_start : int -> sink * (unit -> unit);
  r_finish : unit -> string;  (* fold-merge the shard states, render *)
}

let make_runner n_shards (Sharded spec) =
  let psink, psnap = spec.prefix () in
  let seeds = Array.make n_shards None in
  let states = Array.make n_shards None in
  let snapshot k = seeds.(k) <- Some (psnap ()) in
  let start k =
    let seed =
      match seeds.(k) with Some s -> s | None -> assert false
      (* claim waits for [ordered_pos] to pass the shard's lower boundary *)
    in
    let sink, fin = spec.shard seed in
    (sink, fun () -> states.(k) <- Some (fin ()))
  in
  let finish () =
    let root = match states.(0) with Some s -> s | None -> assert false in
    for k = 1 to n_shards - 1 do
      match states.(k) with
      | Some s -> spec.merge root s
      | None -> assert false
    done;
    spec.render root
  in
  {
    r_prefix_sink = psink;
    r_snapshot = snapshot;
    r_start = start;
    r_finish = finish;
  }

(* One trace range of one sharded job.  [i_run] holds the shard's sink/fin
   once started, so a stalled item can be released and resumed by any
   domain. *)
type item = {
  i_job : int;
  i_shard : int;
  i_lo : int;
  i_hi : int;  (* chunk range [i_lo, i_hi) *)
  mutable i_pos : int;
  mutable i_busy : bool;
  mutable i_done : bool;
  mutable i_run : (sink * (unit -> unit)) option;
}

(* Event-balanced shard boundaries over the chunk index: boundary [k] is the
   first chunk index at which the running event count reaches k/S of the
   total.  Straight from the chunk index — no chunk is decoded. *)
let shard_bounds reader n_chunks n_shards =
  let total = ref 0 in
  for i = 0 to n_chunks - 1 do
    total := !total + Reader.chunk_event_count reader i
  done;
  let bounds = Array.make (n_shards + 1) n_chunks in
  bounds.(0) <- 0;
  let cum = ref 0 and k = ref 1 in
  for i = 0 to n_chunks - 1 do
    cum := !cum + Reader.chunk_event_count reader i;
    while !k < n_shards && !cum * n_shards >= !total * !k do
      bounds.(!k) <- i + 1;
      incr k
    done
  done;
  bounds

type action =
  | Exit
  | Ordered of int * Reader.decoded
  | Work of item * Reader.decoded option
  | Decode of int

let run_pipeline ~domains ~n_shards ~window ~chunk reader jobs =
  let n = Array.length jobs in
  let c = Reader.n_chunks reader in
  let mu = Mutex.create () and cv = Condition.create () in
  let bounds = shard_bounds reader c n_shards in
  (* with one shard every job takes its plain [make] path in the ordered
     stage: no prefix tracker, no merge *)
  let sharded =
    Array.map (fun j -> if n_shards > 1 then j.sharded else None) jobs
  in
  (* The ordered stage is one supervised group: non-sharded jobs' factories,
     and for sharded ones a runner (prefix tracker + seed/state stores) whose
     finish merges and renders.  A raising factory is that job's failure;
     its shard items still run, as refcount-draining no-ops. *)
  let runners = Array.make n None in
  let merge_wall = ref 0. in
  let member jx j =
    match sharded.(jx) with
    | None -> job_member j
    | Some (Sharded spec as sh) ->
        {
          m_wants = wanted_tags_of spec.prefix_wants;
          m_job = false;
          m_make =
            (fun () ->
            let r = make_runner n_shards sh in
            (* seed shard 0 (trace start) and any empty leading shards now,
               before any event flows *)
            r.r_snapshot 0;
            for k = 1 to n_shards - 1 do
              if bounds.(k) = 0 then r.r_snapshot k
            done;
            runners.(jx) <- Some r;
            let finish () =
              let t0 = Unix.gettimeofday () in
              Fun.protect r.r_finish ~finally:(fun () ->
                  merge_wall := !merge_wall +. (Unix.gettimeofday () -. t0))
            in
            (events_only r.r_prefix_sink, finish));
        }
  in
  let g =
    make_group ~lock:mu
      ~on_fail:(fun () -> Condition.broadcast cv)
      (Array.mapi member jobs)
  in
  let alive = g.alive and per_tag = g.per_tag in
  let fail_job jx e = g.retire jx (capture e) in
  let wants = Array.map wanted_tags jobs in
  let items =
    let l = ref [] in
    for jx = n - 1 downto 0 do
      if Option.is_some sharded.(jx) then
        for k = n_shards - 1 downto 0 do
          l :=
            {
              i_job = jx;
              i_shard = k;
              i_lo = bounds.(k);
              i_hi = bounds.(k + 1);
              i_pos = bounds.(k);
              i_busy = false;
              i_done = false;
              i_run = None;
            }
            :: !l
        done
    done;
    Array.of_list !l
  in
  let n_items = Array.length items in
  let n_sharded =
    Array.fold_left
      (fun acc s -> if Option.is_some s then acc + 1 else acc)
      0 sharded
  in
  (* Shared pipeline state, all under [mu].  A chunk slot holds the decoded
     event array until every consumer — the ordered pass plus one shard item
     per sharded job — has walked it, then is freed so live decoded chunks
     stay bounded by the window. *)
  let slots = Array.make c None in
  let refcnt = Array.make c (1 + n_sharded) in
  let next_decode = ref 0 in
  let ordered_pos = ref 0 in
  let ordered_busy = ref false in
  let next_snap = ref 1 in
  while !next_snap < n_shards && bounds.(!next_snap) = 0 do
    incr next_snap
  done;
  let done_items = ref 0 in
  let live_slots = ref 0 in
  let peak_live = ref 0 in
  let fatal = ref None in
  let release_chunk i =
    refcnt.(i) <- refcnt.(i) - 1;
    if refcnt.(i) = 0 then begin
      slots.(i) <- None;
      decr live_slots
    end
  in
  let min_needed () =
    let mn = ref !ordered_pos in
    Array.iter
      (fun it -> if (not it.i_done) && it.i_pos < !mn then mn := it.i_pos)
      items;
    !mn
  in
  let finished () = !ordered_pos >= c && !done_items = n_items in
  let claim_item () =
    let found = ref None in
    (try
       Array.iter
         (fun it ->
           if (not it.i_busy) && not it.i_done then begin
             let ready_chunk =
               it.i_pos >= it.i_hi || slots.(it.i_pos) <> None
             in
             let seed_ready =
               (* a dead job's items are pure refcount drains, no seed *)
               (not alive.(it.i_job))
               || bounds.(it.i_shard) = 0
               || !ordered_pos >= bounds.(it.i_shard)
             in
             if ready_chunk && seed_ready then begin
               found := Some it;
               raise Exit
             end
           end)
         items
     with Exit -> ());
    match !found with
    | None -> None
    | Some it ->
        it.i_busy <- true;
        let evs = if it.i_pos < it.i_hi then slots.(it.i_pos) else None in
        Some (Work (it, evs))
  in
  (* per-domain stage clocks: written only by their own worker *)
  let wall = Array.make domains 0. in
  let decode_s = Array.make domains 0. in
  let ordered_s = Array.make domains 0. in
  let shard_s = Array.make domains 0. in
  (* repeat deliveries (repeat chunk x job), per domain *)
  let closed = Array.make domains 0 and expanded = Array.make domains 0 in
  let do_ordered d i (dc : Reader.decoded) =
    let t0 = Unix.gettimeofday () in
    let sinks =
      match dc.repeat with
      | Some r when g.n_sinks > 0 ->
          let sinks, c, x = g.offer_repeat r in
          closed.(d) <- closed.(d) + c;
          expanded.(d) <- expanded.(d) + x;
          sinks
      | _ -> if g.n_sinks > 0 then Some per_tag else None
    in
    Option.iter
      (fun per_tag ->
        let evs = dc.events in
        for e = 0 to Array.length evs - 1 do
          let ev = Array.unsafe_get evs e in
          (Array.unsafe_get per_tag (Event.tag ev)) ev
        done)
      sinks;
    (* shard boundaries landing right after this chunk: snapshot every live
       runner's prefix state before publishing the advance, so a shard can
       only start once its seed exists.  Only the token holder touches
       [next_snap]. *)
    while !next_snap < n_shards && bounds.(!next_snap) = i + 1 do
      let k = !next_snap in
      Array.iteri
        (fun jx r ->
          match r with
          | Some r when alive.(jx) -> (
              try r.r_snapshot k with e -> fail_job jx e)
          | _ -> ())
        runners;
      incr next_snap
    done;
    Mutex.lock mu;
    release_chunk i;
    ordered_pos := i + 1;
    ordered_busy := false;
    Condition.broadcast cv;
    Mutex.unlock mu;
    ordered_s.(d) <- ordered_s.(d) +. (Unix.gettimeofday () -. t0)
  in
  let do_work d it first =
    let t0 = Unix.gettimeofday () in
    let jx = it.i_job in
    if it.i_run = None && alive.(jx) then begin
      match runners.(jx) with
      | Some r -> (
          match r.r_start it.i_shard with
          | run -> it.i_run <- Some run
          | exception e -> fail_job jx e)
      | None -> ()
    end;
    let current = ref first in
    let stop = ref false in
    while not !stop do
      match !current with
      | Some (dc : Reader.decoded) when it.i_pos < it.i_hi ->
          (if alive.(jx) then
             match it.i_run with
             | Some (sink, _) -> (
                 let w = wants.(jx) in
                 try
                   let took =
                     match dc.repeat with
                     | None -> false
                     | Some r ->
                         let took = sink.on_repeat r in
                         if took then closed.(d) <- closed.(d) + 1
                         else expanded.(d) <- expanded.(d) + 1;
                         took
                   in
                   if not took then begin
                     let evs = dc.events in
                     let sink = sink.on_event in
                     for i = 0 to Array.length evs - 1 do
                       let ev = Array.unsafe_get evs i in
                       if Array.unsafe_get w (Event.tag ev) then sink ev
                     done
                   end
                 with e -> fail_job jx e)
             | None -> ());
          Mutex.lock mu;
          release_chunk it.i_pos;
          it.i_pos <- it.i_pos + 1;
          if it.i_pos < it.i_hi then begin
            current := slots.(it.i_pos);
            if !current = None then begin
              (* next chunk not decoded yet: release the item so this domain
                 can decode instead of blocking on it *)
              it.i_busy <- false;
              stop := true
            end
          end
          else current := None;
          Condition.broadcast cv;
          Mutex.unlock mu
      | _ ->
          (if alive.(jx) then
             match it.i_run with
             | Some (_, fin) -> ( try fin () with e -> fail_job jx e)
             | None -> ());
          Mutex.lock mu;
          it.i_done <- true;
          it.i_busy <- false;
          incr done_items;
          Condition.broadcast cv;
          Mutex.unlock mu;
          stop := true
    done;
    shard_s.(d) <- shard_s.(d) +. (Unix.gettimeofday () -. t0)
  in
  let do_decode d i =
    let t0 = Unix.gettimeofday () in
    match chunk i with
    | evs ->
        Mutex.lock mu;
        slots.(i) <- Some evs;
        incr live_slots;
        if !live_slots > !peak_live then peak_live := !live_slots;
        Condition.broadcast cv;
        Mutex.unlock mu;
        decode_s.(d) <- decode_s.(d) +. (Unix.gettimeofday () -. t0)
    | exception e ->
        Mutex.lock mu;
        if !fatal = None then fatal := Some (capture e);
        Condition.broadcast cv;
        Mutex.unlock mu
  in
  let worker d () =
    let t0 = Unix.gettimeofday () in
    (try
       let rec loop () =
         Mutex.lock mu;
         let rec decide () =
           if !fatal <> None || finished () then Exit
           else if
             (not !ordered_busy)
             && !ordered_pos < c
             && slots.(!ordered_pos) <> None
           then begin
             ordered_busy := true;
             match slots.(!ordered_pos) with
             | Some evs -> Ordered (!ordered_pos, evs)
             | None -> assert false
           end
           else
             match claim_item () with
             | Some w -> w
             | None ->
                 if !next_decode < c && !next_decode < min_needed () + window
                 then begin
                   let i = !next_decode in
                   incr next_decode;
                   Decode i
                 end
                 else begin
                   Condition.wait cv mu;
                   decide ()
                 end
         in
         let action = decide () in
         Mutex.unlock mu;
         match action with
         | Exit -> ()
         | Ordered (i, evs) ->
             do_ordered d i evs;
             loop ()
         | Work (it, evs) ->
             do_work d it evs;
             loop ()
         | Decode i ->
             do_decode d i;
             loop ()
       in
       loop ()
     with e ->
       (* backstop: no exception crosses a domain boundary un-accounted *)
       Mutex.lock mu;
       if !fatal = None then fatal := Some (capture e);
       Condition.broadcast cv;
       Mutex.unlock mu);
    wall.(d) <- Unix.gettimeofday () -. t0
  in
  let spawned =
    List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  Fun.protect ~finally:(fun () -> List.iter Domain.join spawned) (worker 0);
  (* finishes (merges + renders) run here, after the join, so partial
     states are safely owned by the caller again *)
  let results = g.finish !fatal in
  let sum a = Array.fold_left ( +. ) 0. a in
  let stats =
    {
      rs_domains = domains;
      rs_shards = n_shards;
      rs_batch = window;
      rs_chunks = c;
      rs_events = Reader.n_events reader;
      rs_decode_s = sum decode_s;
      rs_ordered_s = sum ordered_s;
      rs_shard_s = sum shard_s;
      rs_merge_s = !merge_wall;
      rs_peak_live_chunks = !peak_live;
      rs_repeat_closed = Array.fold_left ( + ) 0 closed;
      rs_repeat_expanded = Array.fold_left ( + ) 0 expanded;
      rs_timings =
        List.init domains (fun d ->
            {
              domain = d;
              (* the pipeline shares every job across workers; list them
                 once, on the caller's row *)
              jobs =
                (if d = 0 then Array.to_list (Array.map (fun j -> j.name) jobs)
                 else []);
              wall_s = wall.(d);
            });
    }
  in
  (results, stats)

let parallel ?domains ?shards ?batch ?chunk ?stats reader jobs_l =
  match jobs_l with
  | [] -> []
  | _ ->
      let jobs = Array.of_list jobs_l in
      let hw = Domain.recommended_domain_count () in
      let c = Reader.n_chunks reader in
      (* one shared pool for decode + analysis: never oversubscribe the
         machine — extra domains beyond the hardware only add contention *)
      let d =
        match domains with Some d -> max 1 (min d hw) | None -> max 1 hw
      in
      let n_shards =
        match shards with
        | Some s -> max 1 (min s (max 1 c))
        | None -> max 1 (min d (max 1 c))
      in
      let window =
        match batch with Some b -> max 1 b | None -> max 4 (2 * d)
      in
      let chunk = Option.value chunk ~default:(Reader.chunk reader) in
      let results, st =
        run_pipeline ~domains:d ~n_shards ~window ~chunk reader jobs
      in
      Option.iter (fun report -> report st) stats;
      List.mapi (fun i j -> (j.name, results.(i))) jobs_l

let check_program reader prog =
  let recorded = Reader.fingerprint reader in
  if Int64.equal recorded 0L then Ok () (* recorder did not know the program *)
  else
    let actual = Tq_vm.Program.fingerprint prog in
    if Int64.equal recorded actual then Ok ()
    else
      Error
        (Printf.sprintf
           "trace was recorded from a different program (trace fingerprint \
            %016Lx, program fingerprint %016Lx); re-record or replay against \
            the original binary"
           recorded actual)

(* Replay: the sequential oracle, supervised job groups, and the sharded
   streaming pipeline behind [parallel].

   The pipeline (see DESIGN.md §8) decodes + CRC-verifies every chunk exactly
   once into pooled slots (a plain chunk's columns, or a repeat chunk's
   record), walks the chunks in order exactly once for the order-sensitive
   work (non-sharded tools and the shard-seed prefix trackers), and walks
   each trace range once for all sharded tools, the ranges spread across
   domains and their partial states merged left-to-right at the end.  Both
   walks hand a whole chunk to each member of a supervised job group in one
   guarded call. *)

type sink = {
  on_event : Event.t -> unit;
  on_plain : Cols.t -> unit;
  on_repeat : Squash.repeat -> unit;
}

type ('state, 'seed) shard_spec = {
  prefix_wants : Event.kind list;
  prefix : unit -> sink * (unit -> 'seed);
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
  rs_repeats : int;
}

let wanted_tags_of kinds =
  let w = Array.make Event.n_kinds false in
  List.iter (fun k -> w.(Event.kind_tag k) <- true) kinds;
  w

let wanted_tags j = wanted_tags_of j.wants

(* A plain event sink takes a chunk's columns and a record by their boxed
   events, filtered to the kinds it wants. *)
let job ?(wants = Event.all_kinds) name make =
  let wanted = wanted_tags_of wants in
  let make () =
    let on_event, finish = make () in
    let on_plain c =
      for i = 0 to Cols.length c - 1 do
        if wanted.(Cols.tag c i) then on_event (Cols.get c i)
      done
    in
    let on_repeat r =
      Squash.expand r (fun ev -> if wanted.(Event.tag ev) then on_event ev)
    in
    ({ on_event; on_plain; on_repeat }, finish)
  in
  { name; wants; make; sharded = None }

let capture exn = { exn; backtrace = Printexc.get_backtrace () }

let failure_message f =
  match f.exn with
  | Reader.Format_error msg -> "trace unreadable: " ^ msg
  | e -> Printexc.to_string e

let is_trace_error f =
  match f.exn with Reader.Format_error _ -> true | _ -> false

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

let sequential reader jobs =
  List.map (fun j -> (j.name, run_job reader j)) jobs

(* Job liveness and first failures, shared by every group over the same
   jobs: the pipeline's ordered group and each of its range groups retire a
   job for all of them at once.  [retire] records a job's first failure
   under [lock], then calls [on_fail]: the pipeline passes its own mutex and
   a wake-up, since its range groups retire jobs from other domains. *)
type supervisor = {
  alive : bool array;  (* written under the lock; guards read it unlocked *)
  failed : failure option array;
  retire : int -> failure -> unit;
}

let supervisor ?(lock = Mutex.create ()) ?(on_fail = ignore) n =
  let alive = Array.make n true and failed = Array.make n None in
  let retire j f =
    Mutex.lock lock;
    if failed.(j) = None then failed.(j) <- Some f;
    alive.(j) <- false;
    on_fail ();
    Mutex.unlock lock
  in
  { alive; failed; retire }

(* One supervised job group — the routine behind [supervised], the
   pipeline's ordered stage and its range items.  A member is a job index,
   the event tags its sink wants, a factory, and whether its repeat
   deliveries count (a sharded job's prefix tracker's do not).  Building the
   group runs every live job's factory under capture; every member that
   wants any event takes each delivery whole, a plain chunk's columns or a
   repeat record, in one guarded call: a raising tool is retired (its
   sinks in every group become no-ops) and comes back as its own [Error]
   instead of poisoning the group, and the other members still take the
   whole chunk. *)
type member = {
  m_job : int;
  m_wants : bool array;
  m_make : unit -> sink * (unit -> string);
  m_counted : bool;
}

type taker = { member : member; sink : sink }

type group = {
  takers : taker array;  (* the members with a sink that want any event *)
  finish : failure option -> string option array;
      (* every live member's finish, under capture: its report, or [None]
         for a retired job; [Some f] (the pass feeding the group died)
         retires every live member with [f] instead *)
}

let make_group sup members =
  let { alive; retire; _ } = sup in
  let made =
    Array.map
      (fun m ->
        if not alive.(m.m_job) then None
        else
          match m.m_make () with
          | made -> Some made
          | exception e ->
              retire m.m_job (capture e);
              None)
      members
  in
  let takers =
    Array.to_list members
    |> List.mapi (fun i member ->
           match made.(i) with
           | Some (sink, _) when Array.exists Fun.id member.m_wants ->
               Some { member; sink }
           | _ -> None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  let finish fatal =
    Array.mapi
      (fun i m ->
        let j = m.m_job in
        match (made.(i), fatal) with
        | Some (_, fin), None when alive.(j) -> (
            match fin () with
            | report -> Some report
            | exception e ->
                retire j (capture e);
                None)
        | _ ->
            Option.iter (retire j) fatal;
            None)
      members
  in
  { takers; finish }

(* Hand [x] to a live member's entry point [f]; a raise retires it. *)
let guard sup { member = { m_job = j; _ }; _ } f x =
  if sup.alive.(j) then try f x with e -> sup.retire j (capture e)

(* Hand a whole chunk to every live member; how many counted members took
   a repeat record. *)
let deliver sup g (dc : Reader.decoded) =
  match dc with
  | Plain cols ->
      Array.iter (fun tk -> guard sup tk tk.sink.on_plain cols) g.takers;
      0
  | Record r ->
      Array.fold_left
        (fun n tk ->
          guard sup tk tk.sink.on_repeat r;
          if tk.member.m_counted && sup.alive.(tk.member.m_job) then n + 1
          else n)
        0 g.takers

(* A group's reports as job outcomes, for a group whose member [j] is job
   [j]: a job without a report was retired with its first failure. *)
let outcomes sup reports =
  Array.mapi
    (fun j -> function
      | Some report -> Ok report
      | None -> Error (Option.get sup.failed.(j)))
    reports

let job_member j job =
  { m_job = j; m_wants = wanted_tags job; m_make = job.make; m_counted = true }

(* The live oracle's per-event delivery: one sink per event tag, over the
   members that want it. *)
let supervised ~iter jobs =
  let sup = supervisor (List.length jobs) in
  let g = make_group sup (Array.of_list (List.mapi job_member jobs)) in
  let per_tag =
    Array.init Event.n_kinds (fun tag ->
        let takers =
          List.filter
            (fun tk -> tk.member.m_wants.(tag))
            (Array.to_list g.takers)
        in
        fun ev -> List.iter (fun tk -> guard sup tk tk.sink.on_event ev) takers)
  in
  let fatal =
    match iter per_tag with () -> None | exception e -> Some (capture e)
  in
  List.map2
    (fun j o -> (j.name, o))
    jobs
    (Array.to_list (outcomes sup (g.finish fatal)))

(* ------------------------------------------------------------------ *)
(* Sharded streaming pipeline                                          *)
(* ------------------------------------------------------------------ *)

(* One trace range, walked once for every sharded job through the range's
   own group, built when the item first runs.  The item can be released
   when its next chunk is not decoded yet and resumed by any domain. *)
type item = {
  i_shard : int;
  i_hi : int;  (* chunk range [bounds.(i_shard), i_hi) *)
  mutable i_pos : int;
  mutable i_busy : bool;
  mutable i_done : bool;
  mutable i_group : group option;
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
  | Decode of int * Cols.t option

let run_pipeline ~domains ~n_shards ~chunk reader jobs =
  let n = Array.length jobs in
  let c = Reader.n_chunks reader in
  let mu = Mutex.create () and cv = Condition.create () in
  let bounds = shard_bounds reader c n_shards in
  (* with one shard every job takes its plain [make] path in the ordered
     stage: no prefix tracker, no merge *)
  let sharded =
    Array.map (fun j -> if n_shards > 1 then j.sharded else None) jobs
  in
  let sup =
    supervisor ~lock:mu ~on_fail:(fun () -> Condition.broadcast cv) n
  in
  (* The ordered stage is one supervised group: non-sharded jobs' factories,
     and for each sharded job a factory that unpacks its spec (so the
     ['state]/['seed] types never escape) into a prefix tracker and two
     closures: [snapshot.(jx) k] captures range [k]'s seed, under the
     ordered token, and [start.(jx) k] builds range [k]'s shard, on the
     domain holding the range's item; the shard's finish stores the range's
     state and reports nothing.  The member's finish merges the range states
     left to right and renders.  A raising factory is that job's
     failure, and the range groups leave it out. *)
  let snapshot = Array.make n ignore in
  let start = Array.make n (fun _ -> assert false) in
  let merge_wall = ref 0. in
  let ordered_member jx j =
    match sharded.(jx) with
    | None -> job_member jx j
    | Some (Sharded spec) ->
        let make () =
          let prefix_sink, seed = spec.prefix () in
          let seeds = Array.make n_shards None in
          let states = Array.make n_shards None in
          snapshot.(jx) <- (fun k -> seeds.(k) <- Some (seed ()));
          (* a range's item waits for the ordered token to pass its lower
             boundary, so its seed exists *)
          start.(jx) <-
            (fun k ->
              let sink, fin = spec.shard (Option.get seeds.(k)) in
              ( sink,
                fun () ->
                  states.(k) <- Some (fin ());
                  "" ));
          (* seed range 0 (trace start) and any empty leading ranges now,
             before any event flows *)
          for k = 0 to n_shards - 1 do
            if bounds.(k) = 0 then snapshot.(jx) k
          done;
          let finish () =
            let t0 = Unix.gettimeofday () in
            Fun.protect
              ~finally:(fun () ->
                merge_wall := !merge_wall +. (Unix.gettimeofday () -. t0))
              (fun () ->
                let root = Option.get states.(0) in
                for k = 1 to n_shards - 1 do
                  spec.merge root (Option.get states.(k))
                done;
                spec.render root)
          in
          (prefix_sink, finish)
        in
        {
          m_job = jx;
          m_wants = wanted_tags_of spec.prefix_wants;
          m_counted = false;
          m_make = make;
        }
  in
  let g = make_group sup (Array.mapi ordered_member jobs) in
  (* range [k]'s group: the shard of every sharded job *)
  let sharded_jobs =
    List.filter (fun jx -> Option.is_some sharded.(jx)) (List.init n Fun.id)
  in
  let range_members k =
    Array.of_list
      (List.map
         (fun jx ->
           { (job_member jx jobs.(jx)) with m_make = (fun () -> start.(jx) k) })
         sharded_jobs)
  in
  let items =
    if sharded_jobs = [] then [||]
    else
      Array.init n_shards (fun k ->
          {
            i_shard = k;
            i_hi = bounds.(k + 1);
            i_pos = bounds.(k);
            i_busy = false;
            i_done = false;
            i_group = None;
          })
  in
  let n_items = Array.length items in
  (* Shared pipeline state, all under [mu].  A chunk slot holds the decoded
     chunk until both its consumers — the ordered pass and, if any job is
     sharded, its range's item — have walked it, then is freed.  Decode
     runs at most [window] chunks past the slowest consumer, so the live
     chunks all lie in that window: it is their budget.  Without a
     caller's [chunk], a slot's chunk is decoded into a column buffer
     ([bufs]) that goes back to the [free] pool when the slot is freed, so
     at most [window] buffers ever exist, each sized for the largest plain
     chunk. *)
  let window = max 4 (2 * domains) in
  let slots = Array.make c None in
  let bufs = Array.make c None in
  let free = ref [] in
  let refcnt = Array.make c (if n_items = 0 then 1 else 2) in
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
      Option.iter (fun b -> free := b :: !free) bufs.(i);
      bufs.(i) <- None;
      decr live_slots
    end
  in
  let min_needed () =
    Array.fold_left
      (fun mn it -> if it.i_done then mn else min mn it.i_pos)
      !ordered_pos items
  in
  let finished () = !ordered_pos >= c && !done_items = n_items in
  (* an item runs once the ordered token has passed its lower boundary (so
     every live sharded job has its seed) and its next chunk is decoded *)
  let claim_item () =
    Array.find_opt
      (fun it ->
        (not (it.i_busy || it.i_done))
        && !ordered_pos >= bounds.(it.i_shard)
        && (it.i_pos >= it.i_hi || slots.(it.i_pos) <> None))
      items
    |> Option.map (fun it ->
           it.i_busy <- true;
           Work (it, if it.i_pos < it.i_hi then slots.(it.i_pos) else None))
  in
  (* per-domain stage clocks: written only by their own worker *)
  let decode_s = Array.make domains 0. in
  let ordered_s = Array.make domains 0. in
  let shard_s = Array.make domains 0. in
  (* repeat deliveries (repeat chunk x job), per domain *)
  let repeats = Array.make domains 0 in
  let do_ordered d i dc =
    let t0 = Unix.gettimeofday () in
    repeats.(d) <- repeats.(d) + deliver sup g dc;
    (* shard boundaries landing right after this chunk: snapshot every live
       sharded job's prefix state before publishing the advance, so a range can
       only start once its seeds exist.  Only the token holder touches
       [next_snap]. *)
    while !next_snap < n_shards && bounds.(!next_snap) = i + 1 do
      let k = !next_snap in
      List.iter
        (fun jx ->
          if sup.alive.(jx) then
            try snapshot.(jx) k with e -> sup.retire jx (capture e))
        sharded_jobs;
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
  let do_range d it first =
    let t0 = Unix.gettimeofday () in
    let grp =
      match it.i_group with
      | Some grp -> grp
      | None ->
          let grp = make_group sup (range_members it.i_shard) in
          it.i_group <- Some grp;
          grp
    in
    let rec walk = function
      | Some dc when it.i_pos < it.i_hi ->
          repeats.(d) <- repeats.(d) + deliver sup grp dc;
          Mutex.lock mu;
          release_chunk it.i_pos;
          it.i_pos <- it.i_pos + 1;
          let next = if it.i_pos < it.i_hi then slots.(it.i_pos) else None in
          (* next chunk not decoded yet: release the item so this domain can
             decode instead of blocking on it *)
          let stalled = it.i_pos < it.i_hi && Option.is_none next in
          if stalled then it.i_busy <- false;
          Condition.broadcast cv;
          Mutex.unlock mu;
          if not stalled then walk next
      | _ ->
          ignore (grp.finish None : string option array);
          Mutex.lock mu;
          it.i_done <- true;
          it.i_busy <- false;
          incr done_items;
          Condition.broadcast cv;
          Mutex.unlock mu
    in
    walk first;
    shard_s.(d) <- shard_s.(d) +. (Unix.gettimeofday () -. t0)
  in
  let plain_cap = Reader.max_plain_events reader in
  let do_decode d i buf =
    let t0 = Unix.gettimeofday () in
    match
      match chunk with
      | Some chunk -> (chunk i, None)
      | None ->
          let b = match buf with Some b -> b | None -> Cols.create plain_cap in
          (Reader.chunk_into reader b i, Some b)
    with
    | dc, b ->
        Mutex.lock mu;
        slots.(i) <- Some dc;
        bufs.(i) <- b;
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
    try
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
            | Some dc -> Ordered (!ordered_pos, dc)
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
                  (* a pooled buffer, if one is free *)
                  match !free with
                  | b :: rest ->
                      free := rest;
                      Decode (i, Some b)
                  | [] -> Decode (i, None)
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
        | Ordered (i, dc) ->
            do_ordered d i dc;
            loop ()
        | Work (it, dc) ->
            do_range d it dc;
            loop ()
        | Decode (i, buf) ->
            do_decode d i buf;
            loop ()
      in
      loop ()
    with e ->
      (* backstop: no exception crosses a domain boundary un-accounted *)
      Mutex.lock mu;
      if !fatal = None then fatal := Some (capture e);
      Condition.broadcast cv;
      Mutex.unlock mu
  in
  let spawned =
    List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  Fun.protect ~finally:(fun () -> List.iter Domain.join spawned) (worker 0);
  (* finishes (merges + renders) run here, after the join, so partial
     states are safely owned by the caller again *)
  let results = outcomes sup (g.finish !fatal) in
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
      rs_repeats = Array.fold_left ( + ) 0 repeats;
    }
  in
  (results, stats)

let parallel ?domains ?shards ?chunk ?stats reader jobs_l =
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
      let results, st =
        run_pipeline ~domains:d ~n_shards ~chunk reader jobs
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

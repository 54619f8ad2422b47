module Dyn_array = Tq_util.Dyn_array

(* Record-time redundancy suppression (container v4).

   The event stream of a looping program is dominated by repeated loop-body
   sequences: the same basic blocks, the same loads and stores, only the
   numeric operands (instruction counts, addresses) advancing — usually by a
   constant stride per iteration.  This module sits between the probe and
   the chunk writer and rewrites such runs into one {e repeat record}: the
   body's events once, an iteration count, and per numeric field either a
   single stride (affine) or the explicit per-iteration deltas (literal).

   Detection is keyed on the block address of each [Block_exec]: a
   "segment" here is one dispatched basic block plus the events its
   instructions emitted, and a candidate loop body is the segment window
   between two dispatches of the same address.  The address is the engine's
   name for the compiled trace — its code cache is keyed by it and never
   evicts — so this module alone decides what a loop body is, from the
   event stream alone: a recording and a re-encode of its events produce
   the same container.

   The state machine:

   - {b Idle}: closed segments accumulate in a bounded [pending] window.
     When a segment's key recurs, everything before its previous occurrence
     is flushed as plain events and the tail of the window becomes the
     candidate body of a {b Matching} run.
   - {b Matching}: incoming events are compared structurally
     ({!Event.struct_same}) against the body, position by position.  Each
     completed iteration folds its numeric fields into the per-field
     stride/literal tracker.  A structural mismatch ends the run: if it
     covered enough iterations it is emitted as a repeat record, otherwise
     the buffered raw events are replayed as plain events; either way the
     partial iteration's segments are requeued so an adjacent loop can
     still be detected.

   Everything is bounded: the pending window, the body length, and the raw
   events one record may cover — a run at the cap is flushed and detection
   restarts, costing one uncompressed iteration per cap hit. *)

(* A run commits once it covers [min_iters] iterations and [min_raw] raw
   events.  [max_body] caps a body (and the pending window); [max_raw] caps
   the raw events of one record.  The two caps are wire rules: the reader
   refuses a chunk that exceeds them. *)
let min_iters = 2
let min_raw = 32
let max_body = 512
let max_raw = 65536

type repeat = {
  body : Event.t array;
  iters : int;
  literal : bool array;
  stride : int array;
  lits : int array array;
}

let field_offsets body =
  let b = Array.length body in
  let foff = Array.make (b + 1) 0 in
  for k = 0 to b - 1 do
    foff.(k + 1) <- foff.(k) + Event.num_fields body.(k)
  done;
  foff

(* The one walk over a record's fields, shared by the expander and by
   every consumer that walks a record in order without building events:
   [fields] gives iteration 0's numeric fields, [advance] moves them to the
   next iteration — one add per field, its stride or its next literal
   delta.  This loop is where compressed replay spends its time. *)
let fields r =
  let foff = field_offsets r.body in
  let vals = Array.make foff.(Array.length r.body) 0 in
  Array.iteri
    (fun k ev -> ignore (Event.read_num_fields ev vals foff.(k)))
    r.body;
  (foff, vals)

let advance { literal; stride; lits; _ } vals i =
  for f = 0 to Array.length vals - 1 do
    vals.(f) <-
      vals.(f) + if literal.(f) then lits.(f).(i - 1) else stride.(f)
  done

(* Iteration 0 is the body itself; each later one rebuilds every body
   event from its slice of the advanced fields. *)
let expand r sink =
  let foff, vals = fields r in
  let body = r.body in
  Array.iter sink body;
  for i = 1 to r.iters - 1 do
    advance r vals i;
    for k = 0 to Array.length body - 1 do
      sink (Event.with_num_fields body.(k) vals foff.(k))
    done
  done

type out = {
  out_plain : Event.t -> unit;
  out_repeat : repeat -> unit;
}

(* One closed segment: a boundary event (dictionary key [s_key]) plus the
   events that followed it, reversed. *)
type seg = { s_key : int; s_evs : Event.t list; s_n : int }

type field = {
  mutable f_prev : int;  (* value in the latest completed iteration *)
  mutable f_stride : int;  (* meaningful once iters >= 2 *)
  mutable f_lits : int Dyn_array.t option;  (* [Some] = literal mode *)
}

type run = {
  r_body : Event.t array;  (* iteration 0 *)
  r_key : int array;  (* r_key.(k): segment key if body.(k) opens one, else 0 *)
  r_bound : bool array;  (* r_bound.(k): body.(k) is a segment boundary *)
  r_foff : int array;  (* field offset of body event k; r_foff.(B) = total *)
  r_fields : field array;
  r_stage : int array;  (* numeric fields of the in-progress iteration *)
  mutable r_iters : int;  (* completed iterations, body included *)
  mutable r_pos : int;  (* next body position expected *)
  mutable r_committed : bool;
  mutable r_raw : Event.t list;  (* reversed raw copies until commitment *)
  mutable r_cur : Event.t list;  (* reversed events of the open iteration *)
}

type state = Idle | Matching of run

type t = {
  o : out;
  mutable pending : seg list;  (* reversed: newest segment first *)
  mutable pending_events : int;
  mutable cur : (int * Event.t list * int) option;  (* key, rev events, count *)
  mutable st : state;
}

let create o = { o; pending = []; pending_events = 0; cur = None; st = Idle }

let emit_seg_plain t s = List.iter t.o.out_plain (List.rev s.s_evs)

(* Flush the oldest half of the pending window as plain events.  Called when
   the window overflows; halving (instead of popping one) keeps the
   amortized cost per segment constant. *)
let shrink_pending t =
  let segs = List.rev t.pending in  (* oldest first *)
  let n = List.length segs in
  let drop = max 1 ((n + 1) / 2) in
  let rec go i = function
    | s :: rest when i < drop ->
        emit_seg_plain t s;
        t.pending_events <- t.pending_events - s.s_n;
        go (i + 1) rest
    | rest -> rest
  in
  let kept = go 0 segs in
  t.pending <- List.rev kept

let push_seg t s =
  t.pending <- s :: t.pending;
  t.pending_events <- t.pending_events + s.s_n;
  while t.pending_events > max_body do
    shrink_pending t
  done

let close_cur t =
  match t.cur with
  | None -> ()
  | Some (key, evs, n) ->
      t.cur <- None;
      push_seg t { s_key = key; s_evs = evs; s_n = n }

(* ---------- run construction ---------- *)

let make_run body_segs =
  (* [body_segs] oldest first *)
  let body =
    Array.of_list (List.concat_map (fun s -> List.rev s.s_evs) body_segs)
  in
  let b = Array.length body in
  let key = Array.make b 0 and bound = Array.make b false in
  let k = ref 0 in
  List.iter
    (fun s ->
      key.(!k) <- s.s_key;
      bound.(!k) <- true;
      k := !k + s.s_n)
    body_segs;
  let foff = field_offsets body in
  let nf = foff.(b) in
  let vals = Array.make (max nf 1) 0 in
  for i = 0 to b - 1 do
    ignore (Event.read_num_fields body.(i) vals foff.(i))
  done;
  {
    r_body = body;
    r_key = key;
    r_bound = bound;
    r_foff = foff;
    r_fields =
      Array.init nf (fun f ->
          { f_prev = vals.(f); f_stride = 0; f_lits = None });
    r_stage = Array.make (max nf 1) 0;
    r_iters = 1;
    r_pos = 0;
    r_committed = false;
    r_raw = [];
    r_cur = [];
  }

(* ---------- run teardown ---------- *)

let flush_run t run =
  if run.r_committed then begin
    let literal = Array.map (fun f -> f.f_lits <> None) run.r_fields in
    t.o.out_repeat
      {
        body = run.r_body;
        iters = run.r_iters;
        literal;
        stride =
          Array.map
            (fun f -> if f.f_lits = None then f.f_stride else 0)
            run.r_fields;
        lits =
          Array.map
            (fun f ->
              match f.f_lits with
              | Some d -> Dyn_array.to_array d
              | None -> [||])
            run.r_fields;
      }
  end
  else begin
    Array.iter t.o.out_plain run.r_body;
    List.iter t.o.out_plain (List.rev run.r_raw)
  end

(* Requeue the open iteration's events (they matched the body structurally
   up to [r_pos], so their segment boundaries and keys are the body's own)
   back into the pending window: the events after a broken run are live
   material for detecting the next loop. *)
let requeue_partial t run =
  let evs = Array.of_list (List.rev run.r_cur) in
  let n = Array.length evs in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    incr i;
    while !i < n && not run.r_bound.(!i) do
      incr i
    done;
    let seg_evs = ref [] in
    for j = start to !i - 1 do
      seg_evs := evs.(j) :: !seg_evs
    done;
    if run.r_bound.(start) then begin
      if !i < n then
        push_seg t
          { s_key = run.r_key.(start); s_evs = !seg_evs; s_n = !i - start }
      else
        (* the last, still-open segment: subsequent events belong to it *)
        t.cur <- Some (run.r_key.(start), !seg_evs, !i - start)
    end
    else
      (* events before the first boundary can only exist if the body itself
         started mid-segment — it cannot (bodies start at a boundary) — but
         degrade gracefully rather than assert *)
      List.iter t.o.out_plain (List.rev !seg_evs)
  done

let do_break t run =
  flush_run t run;
  t.st <- Idle;
  t.pending <- [];
  t.pending_events <- 0;
  t.cur <- None;
  requeue_partial t run

(* ---------- matching ---------- *)

let complete_iteration t run =
  let nf = run.r_foff.(Array.length run.r_body) in
  if run.r_iters = 1 then
    for f = 0 to nf - 1 do
      let fld = run.r_fields.(f) in
      fld.f_stride <- run.r_stage.(f) - fld.f_prev;
      fld.f_prev <- run.r_stage.(f)
    done
  else
    for f = 0 to nf - 1 do
      let fld = run.r_fields.(f) in
      let v = run.r_stage.(f) in
      (match fld.f_lits with
      | None ->
          if v <> fld.f_prev + fld.f_stride then begin
            (* the field just went irregular: materialize the deltas of the
               earlier iterations (all equal to the stride) and escape to
               literal mode *)
            let d = Dyn_array.create ~dummy:0 () in
            for _ = 1 to run.r_iters - 1 do
              Dyn_array.push d fld.f_stride
            done;
            Dyn_array.push d (v - fld.f_prev);
            fld.f_lits <- Some d
          end
      | Some d -> Dyn_array.push d (v - fld.f_prev));
      fld.f_prev <- v
    done;
  run.r_iters <- run.r_iters + 1;
  run.r_pos <- 0;
  let b = Array.length run.r_body in
  if not run.r_committed then begin
    run.r_raw <- List.rev_append (List.rev run.r_cur) run.r_raw;
    if run.r_iters >= min_iters && run.r_iters * b >= min_raw then begin
      run.r_committed <- true;
      run.r_raw <- []
    end
  end;
  run.r_cur <- [];
  if (run.r_iters + 1) * b > max_raw then begin
    (* the next iteration would overflow the record: flush and restart
       detection (costs one plain iteration per cap hit) *)
    flush_run t run;
    t.st <- Idle
  end

(* Try to advance the run with [ev]; false = structural mismatch (the caller
   breaks the run and re-dispatches [ev] through the idle path). *)
let match_ev t run ev =
  let k = run.r_pos in
  let tmpl = run.r_body.(k) in
  if Event.struct_same tmpl ev then begin
    ignore (Event.read_num_fields ev run.r_stage run.r_foff.(k));
    run.r_cur <- ev :: run.r_cur;
    run.r_pos <- k + 1;
    if run.r_pos = Array.length run.r_body then complete_iteration t run;
    true
  end
  else false

(* ---------- idle-path dispatch ---------- *)

let idle_plain t ev =
  match t.cur with
  | Some (key, evs, n) -> t.cur <- Some (key, ev :: evs, n + 1)
  | None ->
      (* events before the first boundary never join a body *)
      t.o.out_plain ev

let find_key pending key =
  (* [pending] is newest-first; the first hit is the latest occurrence.
     Walking newest-to-oldest while consing means [s :: acc] comes out
     oldest-first — exactly the body order [make_run] wants. *)
  let rec go acc = function
    | [] -> None
    | s :: rest ->
        if s.s_key = key then Some (s :: acc, rest)
        else go (s :: acc) rest
  in
  go [] pending

let idle_boundary t key ev =
  close_cur t;
  match find_key t.pending key with
  | Some (body_segs, older)
    when Event.struct_same (List.hd (List.rev (List.hd body_segs).s_evs)) ev ->
      (* flush everything older than the candidate body, keep the body *)
      List.iter (emit_seg_plain t) (List.rev older);
      t.pending <- [];
      t.pending_events <- 0;
      let run = make_run body_segs in
      t.st <- Matching run;
      (* [ev] is the first event of iteration 1; its structural match was
         just checked, so this cannot break *)
      ignore (match_ev t run ev)
  | _ -> t.cur <- Some (key, [ ev ], 1)

(* ---------- public entry points ---------- *)

let rec feed t ev =
  match t.st with
  | Matching run ->
      if not (match_ev t run ev) then begin
        (* leaves the suppressor Idle: [ev] is re-dispatched exactly once *)
        do_break t run;
        feed t ev
      end
  | Idle -> (
      match ev with
      | Event.Block_exec { addr; _ } -> idle_boundary t addr ev
      | _ -> idle_plain t ev)

let flush t =
  (match t.st with
  | Matching run ->
      flush_run t run;
      t.st <- Idle;
      List.iter t.o.out_plain (List.rev run.r_cur)
  | Idle -> ());
  List.iter (emit_seg_plain t) (List.rev t.pending);
  t.pending <- [];
  t.pending_events <- 0;
  (match t.cur with
  | Some (_, evs, _) -> List.iter t.o.out_plain (List.rev evs)
  | None -> ());
  t.cur <- None

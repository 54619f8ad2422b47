module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Call_stack = Tq_prof.Call_stack
module Dyn = Tq_util.Dyn_array

(* Per-kernel per-slice counters, grown on demand.  Four interleaved streams
   would save allocations; four arrays keep the metric accessors trivial. *)
type kdata = {
  kr_incl : int Dyn.t;
  kr_excl : int Dyn.t;
  kw_incl : int Dyn.t;
  kw_excl : int Dyn.t;
}

type t = {
  symtab : Symtab.t;
  interval : int;
  stack : Call_stack.t;
  data : kdata option array;  (** per routine id; the kernel-to-bandwidth map *)
  mutable max_slice : int;  (** highest slice index with traffic *)
  mutable any : bool;
}

let kdata_get t id =
  match t.data.(id) with
  | Some k -> k
  | None ->
      let k =
        {
          kr_incl = Dyn.create ~dummy:0 ();
          kr_excl = Dyn.create ~dummy:0 ();
          kw_incl = Dyn.create ~dummy:0 ();
          kw_excl = Dyn.create ~dummy:0 ();
        }
      in
      t.data.(id) <- Some k;
      k

(* The tool's access function (see [Call_stack.attribute]): excl counts the
   access's global bytes only, byte-exact when it straddles the stack
   boundary, consistently with QUAD. *)
let record t id ~write ~icount ~sp ~ea ~size =
  if size > 0 then begin
    let slice = icount / t.interval in
    if slice > t.max_slice then t.max_slice <- slice;
    t.any <- true;
    let k = kdata_get t id in
    let global_bytes =
      size - (Layout.stack_hi ~sp ea size - Layout.stack_lo ~sp ea size)
    in
    Dyn.add_at ( + ) (if write then k.kw_incl else k.kr_incl) slice size;
    if global_bytes > 0 then
      Dyn.add_at ( + )
        (if write then k.kw_excl else k.kr_excl)
        slice global_bytes
  end

(* [n] iterations' bytes in one slice *)
let add_slice t incl excl ~size ~global slice n =
  if slice > t.max_slice then t.max_slice <- slice;
  t.any <- true;
  Dyn.add_at ( + ) incl slice (n * size);
  if global > 0 then Dyn.add_at ( + ) excl slice (n * global)

(* The bytes of [n] iterations at icounts [v0 + i * dv], all non-negative:
   floor arithmetic per slice, one step per slice the run spans, not per
   iteration. *)
let add_iters t incl excl ~size ~global ~v0 ~dv ~n =
  let width = t.interval in
  if dv = 0 then add_slice t incl excl ~size ~global (v0 / width) n
  else begin
    (* walk the icounts in increasing order *)
    let v0 = if dv > 0 then v0 else v0 + ((n - 1) * dv) and dv = abs dv in
    let i = ref 0 in
    while !i < n do
      let slice = (v0 + (!i * dv)) / width in
      (* the first iteration whose icount reaches the next slice *)
      let next = min n ((((slice + 1) * width) - v0 + dv - 1) / dv) in
      add_slice t incl excl ~size ~global slice (next - !i);
      i := next
    done
  end

(* The global bytes of iterations [lo..hi] of a run when they are all the
   same — the accesses all lie wholly outside the stack area (below
   [sp - stack_red_zone], or at or above [stack_top]), or wholly inside —
   else [-1].  Each bound is linear in the iteration, so checking both end
   iterations checks every one between. *)
let uniform_global ~sp ~d_sp ~ea ~d_ea ~size lo hi =
  let sp_lo = sp + (lo * d_sp) and sp_hi = sp + (hi * d_sp) in
  let ea_lo = ea + (lo * d_ea) and ea_hi = ea + (hi * d_ea) in
  let red = Layout.stack_red_zone and top = Layout.stack_top in
  if
    (ea_lo + size <= sp_lo - red && ea_hi + size <= sp_hi - red)
    || (ea_lo >= top && ea_hi >= top)
  then size
  else if
    ea_lo >= sp_lo - red && ea_hi >= sp_hi - red
    && ea_lo + size <= top && ea_hi + size <= top
  then 0
  else -1

(* Iterations [lo..hi] of a run: where the stack classification changes
   along them, they are split in halves until each part is uniform or a
   single access, which goes to [record]. *)
let rec record_iters t id ~write ~incl ~excl ~icount ~d_icount ~sp ~d_sp ~ea
    ~d_ea ~size lo hi =
  let global = uniform_global ~sp ~d_sp ~ea ~d_ea ~size lo hi in
  if global >= 0 then
    add_iters t incl excl ~size ~global
      ~v0:(icount + (lo * d_icount))
      ~dv:d_icount ~n:(hi - lo + 1)
  else if lo = hi then
    record t id ~write
      ~icount:(icount + (lo * d_icount))
      ~sp:(sp + (lo * d_sp))
      ~ea:(ea + (lo * d_ea))
      ~size
  else begin
    let mid = (lo + hi) / 2 in
    record_iters t id ~write ~incl ~excl ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea
      ~size lo mid;
    record_iters t id ~write ~incl ~excl ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea
      ~size (mid + 1) hi
  end

(* The tool's run function (see [Call_stack.attribute_repeat]): the bytes
   [record] would add over the run's iterations, slice by slice. *)
let record_run t id ~write ~iters ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea ~size
    =
  if size > 0 then begin
    let k = kdata_get t id in
    let incl = if write then k.kw_incl else k.kr_incl in
    let excl = if write then k.kw_excl else k.kr_excl in
    record_iters t id ~write ~incl ~excl ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea
      ~size 0 (iters - 1)
  end

type config = { slice_interval : int; policy : Call_stack.policy }
type seed = Call_stack.t

let seeded config (prog : Tq_vm.Program.t) stack =
  if config.slice_interval <= 0 then
    invalid_arg "Tquad.create: slice_interval must be positive";
  {
    symtab = prog.symtab;
    interval = config.slice_interval;
    stack;
    data = Array.make (Symtab.count prog.symtab) None;
    max_slice = -1;
    any = false;
  }

let create config prog =
  seeded config prog (Call_stack.create prog.symtab config.policy)

(* EnterFC analogue on [Rtn_entry]; IncreaseRead/IncreaseWrite return
   immediately on prefetches, so [Prefetch] events are not read. *)
let consume t ev = Call_stack.attribute t.stack record t ev
let interest = Call_stack.interest
let consume_repeat t r = Call_stack.attribute_repeat t.stack record_run t r

(* Per-slice byte counts are pure sums, so a later trace range's state folds
   into an earlier one by elementwise addition; a kernel's presence (its
   [kdata] allocation) happens only on traffic, so the merged kernel set is
   exactly the union. *)
let merge_into a b =
  if b.any then a.any <- true;
  if b.max_slice > a.max_slice then a.max_slice <- b.max_slice;
  Array.iteri
    (fun id kb ->
      match kb with
      | None -> ()
      | Some kb ->
          let ka = kdata_get a id in
          let add da db =
            Dyn.iteri (fun i v -> if v <> 0 then Dyn.add_at ( + ) da i v) db
          in
          add ka.kr_incl kb.kr_incl;
          add ka.kr_excl kb.kr_excl;
          add ka.kw_incl kb.kw_incl;
          add ka.kw_excl kb.kw_excl)
    b.data

let shard = Call_stack.shard (fun c -> c.policy) ~seeded ~merge_into

let default_slice_interval = 10_000

let attach ?(slice_interval = default_slice_interval)
    ?(policy = Call_stack.Main_image_only) =
  Tq_trace.Tool.attach (create { slice_interval; policy }) consume

type metric = Read_incl | Read_excl | Write_incl | Write_excl

let slice_interval t = t.interval
let total_slices t = t.max_slice + 1

let kernels t =
  let out = ref [] in
  Array.iteri
    (fun id d -> if d <> None then out := Symtab.by_id t.symtab id :: !out)
    t.data;
  List.rev !out

let stream k = function
  | Read_incl -> k.kr_incl
  | Read_excl -> k.kr_excl
  | Write_incl -> k.kw_incl
  | Write_excl -> k.kw_excl

let bytes_series t routine metric =
  let n = total_slices t in
  match t.data.(routine.Symtab.id) with
  | None -> Array.make n 0
  | Some k ->
      let d = stream k metric in
      Array.init n (fun i -> Dyn.get_or d i 0)

let series t routine metric =
  let interval = float_of_int t.interval in
  Array.map (fun b -> float_of_int b /. interval) (bytes_series t routine metric)

type totals = {
  read_incl : int;
  read_excl : int;
  write_incl : int;
  write_excl : int;
  first_slice : int;
  last_slice : int;
  activity_span : int;
}

let slice_active k i =
  Dyn.get_or k.kr_incl i 0 + Dyn.get_or k.kw_incl i 0 > 0

let totals t routine =
  match t.data.(routine.Symtab.id) with
  | None ->
      {
        read_incl = 0;
        read_excl = 0;
        write_incl = 0;
        write_excl = 0;
        first_slice = -1;
        last_slice = -1;
        activity_span = 0;
      }
  | Some k ->
      let sum d = Dyn.fold ( + ) 0 d in
      let n = max (Dyn.length k.kr_incl) (Dyn.length k.kw_incl) in
      let first = ref (-1) and last = ref (-1) and act = ref 0 in
      for i = 0 to n - 1 do
        if slice_active k i then begin
          if !first = -1 then first := i;
          last := i;
          incr act
        end
      done;
      {
        read_incl = sum k.kr_incl;
        read_excl = sum k.kr_excl;
        write_incl = sum k.kw_incl;
        write_excl = sum k.kw_excl;
        first_slice = !first;
        last_slice = !last;
        activity_span = !act;
      }

let avg_bpi t routine metric =
  let tot = totals t routine in
  if tot.activity_span = 0 then 0.
  else begin
    let bytes =
      match metric with
      | Read_incl -> tot.read_incl
      | Read_excl -> tot.read_excl
      | Write_incl -> tot.write_incl
      | Write_excl -> tot.write_excl
    in
    float_of_int bytes /. float_of_int (tot.activity_span * t.interval)
  end

let max_rw_in t routine ~incl ~lo ~hi =
  match t.data.(routine.Symtab.id) with
  | None -> 0.
  | Some k ->
      let best = ref 0 in
      for i = max 0 lo to hi do
        let v =
          if incl then Dyn.get_or k.kr_incl i 0 + Dyn.get_or k.kw_incl i 0
          else Dyn.get_or k.kr_excl i 0 + Dyn.get_or k.kw_excl i 0
        in
        if v > !best then best := v
      done;
      float_of_int !best /. float_of_int t.interval

let max_rw_bpi t routine ~incl =
  max_rw_in t routine ~incl ~lo:0 ~hi:(total_slices t - 1)

let active_in t routine ~lo ~hi =
  match t.data.(routine.Symtab.id) with
  | None -> 0
  | Some k ->
      let n = ref 0 in
      for i = max 0 lo to hi do
        if slice_active k i then incr n
      done;
      !n

let range_bytes t routine metric ~lo ~hi =
  match t.data.(routine.Symtab.id) with
  | None -> 0
  | Some k ->
      let d = stream k metric in
      let acc = ref 0 in
      for i = max 0 lo to hi do
        acc := !acc + Dyn.get_or d i 0
      done;
      !acc

module Isa = Tq_isa.Isa
module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Call_stack = Tq_prof.Call_stack

type metric = Read_incl | Read_excl | Write_incl | Write_excl

(* A kernel's per-slice byte counters are one int array, grown on demand:
   slot [4 * slice + slot_of m] holds metric [m]'s bytes in that slice, so
   an access adds to two adjacent int slots (incl, then excl). *)
let slot_of = function
  | Read_incl -> 0
  | Read_excl -> 1
  | Write_incl -> 2
  | Write_excl -> 3

type t = {
  symtab : Symtab.t;
  interval : int;
  stack : Call_stack.t;
  data : int array array;
      (** per routine id: the kernel-to-bandwidth map, [[||]] until the
          kernel's first traffic *)
  mutable max_slice : int;  (** highest slice index with traffic *)
  mutable any : bool;
}

(* Kernel [id]'s counters, grown (by doubling) to hold slot [i]. *)
let counters t id i =
  let a = t.data.(id) in
  if i < Array.length a then a
  else begin
    let n = ref (max 64 (Array.length a)) in
    while !n <= i do
      n := 2 * !n
    done;
    let b = Array.make !n 0 in
    Array.blit a 0 b 0 (Array.length a);
    t.data.(id) <- b;
    b
  end

(* Add [incl] and [excl] bytes to the slot pair at [i] (see [pair]). *)
let add_pair t id i incl excl =
  let a = counters t id (i + 1) in
  a.(i) <- a.(i) + incl;
  a.(i + 1) <- a.(i + 1) + excl

(* the incl slot of a slice's reads or writes; its excl slot follows *)
let pair ~write slice = (4 * slice) + if write then 2 else 0

(* The tool's access function (see [Call_stack.attribute]): excl counts the
   access's global bytes only, byte-exact when it straddles the stack
   boundary, consistently with QUAD. *)
let record t id ~write ~icount ~sp ~ea ~size =
  if size > 0 then begin
    let slice = icount / t.interval in
    if slice > t.max_slice then t.max_slice <- slice;
    t.any <- true;
    let global_bytes =
      size - (Layout.stack_hi ~sp ea size - Layout.stack_lo ~sp ea size)
    in
    add_pair t id (pair ~write slice) size global_bytes
  end

(* [n] iterations' bytes in one slice *)
let add_slice t id ~write ~size ~global slice n =
  if slice > t.max_slice then t.max_slice <- slice;
  t.any <- true;
  add_pair t id (pair ~write slice) (n * size) (n * global)

(* The bytes of [n] iterations at icounts [v0 + i * dv], all non-negative:
   floor arithmetic per slice, one step per slice the run spans, not per
   iteration. *)
let add_iters t id ~write ~size ~global ~v0 ~dv ~n =
  let width = t.interval in
  if dv = 0 then add_slice t id ~write ~size ~global (v0 / width) n
  else begin
    (* walk the icounts in increasing order *)
    let v0 = if dv > 0 then v0 else v0 + ((n - 1) * dv) and dv = abs dv in
    let i = ref 0 in
    while !i < n do
      let slice = (v0 + (!i * dv)) / width in
      (* the first iteration whose icount reaches the next slice *)
      let next = min n ((((slice + 1) * width) - v0 + dv - 1) / dv) in
      add_slice t id ~write ~size ~global slice (next - !i);
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
let rec record_iters t id ~write ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea ~size
    lo hi =
  let global = uniform_global ~sp ~d_sp ~ea ~d_ea ~size lo hi in
  if global >= 0 then
    add_iters t id ~write ~size ~global
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
    record_iters t id ~write ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea ~size lo mid;
    record_iters t id ~write ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea ~size
      (mid + 1) hi
  end

(* The tool's run function (see [Call_stack.attribute_repeat]): the bytes
   [record] would add over the run's iterations, slice by slice. *)
let record_run t id ~write ~iters ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea ~size
    =
  if size > 0 then
    record_iters t id ~write ~icount ~d_icount ~sp ~d_sp ~ea ~d_ea ~size 0
      (iters - 1)

type config = { slice_interval : int; policy : Call_stack.policy }
type seed = Call_stack.t

let seeded config (prog : Tq_vm.Program.t) stack =
  if config.slice_interval <= 0 then
    invalid_arg "Tquad.create: slice_interval must be positive";
  {
    symtab = prog.symtab;
    interval = config.slice_interval;
    stack;
    data = Array.make (Symtab.count prog.symtab) [||];
    max_slice = -1;
    any = false;
  }

let create config prog =
  seeded config prog (Call_stack.create prog.symtab config.policy)

(* EnterFC analogue on [Rtn_entry]; IncreaseRead/IncreaseWrite return
   immediately on prefetches, so [Prefetch] events are not read. *)
let consume t ev = Call_stack.attribute t.stack record t ev
let interest = Call_stack.interest

let consume_plain t c =
  Call_stack.attribute_plain t.stack record Call_stack.no_prefetch t c

let consume_repeat t r =
  Call_stack.attribute_repeat t.stack record record_run t r

(* Per-slice byte counts are pure sums, so a later trace range's state folds
   into an earlier one by elementwise addition; a kernel's presence (its
   counters' allocation) happens only on traffic, so the merged kernel set
   is exactly the union. *)
let merge_into a b =
  if b.any then a.any <- true;
  if b.max_slice > a.max_slice then a.max_slice <- b.max_slice;
  Array.iteri
    (fun id cb ->
      let n = Array.length cb in
      if n > 0 then begin
        let ca = counters a id (n - 1) in
        Array.iteri (fun i v -> if v <> 0 then ca.(i) <- ca.(i) + v) cb
      end)
    b.data

let shard = Call_stack.shard (fun c -> c.policy) ~seeded ~merge_into

let default_slice_interval = 10_000

(* ---------- live block summary ---------- *)

(* Live, a block's frame accesses are summed once per block compile and
   charged by one action on the block's last slot, instead of one probe
   event each.  A frame access is a non-predicated load or store addressed
   off [sp] or [fp] in a routine whose accesses are charged to itself (a
   main-image routine, or any under [Track_all]), in a block where no slot
   before the last writes [sp] or [fp]: at the last slot both still hold
   their block-entry values, so every frame access's address and stack
   pointer can be read there, and its icount is the slot's offset from the
   block's start. *)

let frame_reg r = r = Isa.reg_sp || r = Isa.reg_fp

let writes_frame : Isa.ins -> bool = function
  | Li (r, _) | Mov (r, _) | Bin (_, r, _, _) | Fcmp (_, r, _, _) | F2i (r, _)
  | Load { dst = r; _ } | Loads { dst = r; _ } ->
      frame_reg r
  | Call _ | Callr _ | Ret -> true
  | _ -> false

(* Offsets beyond this stay per access: with a base register between 0 and
   [stack_top], the fast path's bound arithmetic then cannot overflow. *)
let max_frame_off = 1 lsl 40

(* the base register and offset of a frame load or store *)
let frame_operand : Isa.ins -> (int * int) option = function
  | Load { base; off; pred = None; _ }
  | Loads { base; off; _ }
  | Fload { base; off; pred = None; _ }
  | Store { base; off; pred = None; _ }
  | Fstore { base; off; pred = None; _ }
    when frame_reg base && abs off <= max_frame_off ->
      Some (base, off)
  | _ -> None

type frame_access = {
  slot : int;
  kernel : int;
  write : bool;
  base : int;
  off : int;
  size : int;
}

let frame_accesses policy views =
  List.concat
    (List.mapi
       (fun slot v ->
         let ins = Engine.Ins_view.ins v in
         match (frame_operand ins, Engine.Ins_view.routine v) with
         | Some (base, off), Some r
           when policy = Call_stack.Track_all || r.Symtab.is_main_image ->
             let rd = Isa.mem_read_bytes ins in
             let write = rd = 0 in
             let size = if write then Isa.mem_write_bytes ins else rd in
             [ { slot; kernel = r.Symtab.id; write; base; off; size } ]
         | _ -> [])
       (Array.to_list views))

(* The lowest offset and highest end of the accesses off [reg]
   ([max_int, min_int] when there are none). *)
let extent accs reg =
  List.fold_left
    (fun (lo, hi) a ->
      if a.base = reg then (min lo a.off, max hi (a.off + a.size)) else (lo, hi))
    (max_int, min_int) accs

(* Every access off base value [b] within [off_lo, off_hi) lies in the
   stack area [\[lo, stack_top\]] (vacuous when there are none). *)
let in_frame b ~lo off_lo off_hi =
  off_lo > off_hi
  || b >= 0 && b <= Layout.stack_top
     && b + off_lo >= lo
     && b + off_hi <= Layout.stack_top

(* The claim: the block's frame accesses and the one action that charges
   them.  When all of them lie in the stack area and in one slice (the fast
   path), the block's bytes per kernel and direction go in as incl with
   excl 0 — what [record] would add; otherwise each access goes through
   [record] with its own icount and address. *)
let summarize m policy t views : Tq_trace.Probe.claim =
  let n = Array.length views in
  let moves v = writes_frame (Engine.Ins_view.ins v) in
  match
    if Array.exists moves (Array.sub views 0 (n - 1)) then []
    else frame_accesses policy views
  with
  | [] -> { slots = []; actions = [] }
  | accs ->
      let slots = List.map (fun a -> a.slot) accs in
      let first = List.hd slots and last = List.fold_left max 0 slots in
      let sp_lo, sp_hi = extent accs Isa.reg_sp in
      let fp_lo, fp_hi = extent accs Isa.reg_fp in
      (* the block's bytes per (kernel, pair offset) *)
      let groups =
        List.fold_left
          (fun acc a ->
            let key = (a.kernel, if a.write then 2 else 0) in
            match List.assoc_opt key acc with
            | Some b -> (key, b + a.size) :: List.remove_assoc key acc
            | None -> (key, a.size) :: acc)
          [] accs
      in
      let charge () =
        let ic0 = Machine.instr_count m - (n - 1) in
        let sp = Machine.sp m in
        let lo = sp - Layout.stack_red_zone in
        let slice = (ic0 + first) / t.interval in
        if
          in_frame sp ~lo sp_lo sp_hi
          && in_frame (Machine.reg m Isa.reg_fp) ~lo fp_lo fp_hi
          && (ic0 + last) / t.interval = slice
        then begin
          if slice > t.max_slice then t.max_slice <- slice;
          t.any <- true;
          List.iter
            (fun ((kernel, pair), bytes) ->
              add_pair t kernel ((4 * slice) + pair) bytes 0)
            groups
        end
        else
          List.iter
            (fun a ->
              record t a.kernel ~write:a.write ~icount:(ic0 + a.slot) ~sp
                ~ea:(Machine.reg m a.base + a.off)
                ~size:a.size)
            accs
      in
      { slots; actions = [ (n - 1, charge) ] }

let attach ?(slice_interval = default_slice_interval)
    ?(policy = Call_stack.Main_image_only) engine =
  Tq_trace.Tool.attach
    ~claim:(summarize (Engine.machine engine) policy)
    ~wants:interest
    (create { slice_interval; policy })
    consume engine

let slice_interval t = t.interval
let total_slices t = t.max_slice + 1

let kernels t =
  let out = ref [] in
  Array.iteri
    (fun id c -> if Array.length c > 0 then out := Symtab.by_id t.symtab id :: !out)
    t.data;
  List.rev !out

(* metric [m]'s bytes in slice [i] of counters [c] *)
let get c i m =
  let j = (4 * i) + slot_of m in
  if j < Array.length c then c.(j) else 0

let bytes_series t routine metric =
  let c = t.data.(routine.Symtab.id) in
  Array.init (total_slices t) (fun i -> get c i metric)

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

let slice_active c i = get c i Read_incl + get c i Write_incl > 0

let totals t routine =
  let c = t.data.(routine.Symtab.id) in
  let sum = Array.make 4 0 in
  Array.iteri (fun j v -> sum.(j land 3) <- sum.(j land 3) + v) c;
  let first = ref (-1) and last = ref (-1) and act = ref 0 in
  for i = 0 to (Array.length c / 4) - 1 do
    if slice_active c i then begin
      if !first = -1 then first := i;
      last := i;
      incr act
    end
  done;
  {
    read_incl = sum.(slot_of Read_incl);
    read_excl = sum.(slot_of Read_excl);
    write_incl = sum.(slot_of Write_incl);
    write_excl = sum.(slot_of Write_excl);
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
  let c = t.data.(routine.Symtab.id) in
  let r, w = if incl then (Read_incl, Write_incl) else (Read_excl, Write_excl) in
  let best = ref 0 in
  for i = max 0 lo to hi do
    let v = get c i r + get c i w in
    if v > !best then best := v
  done;
  float_of_int !best /. float_of_int t.interval

let max_rw_bpi t routine ~incl =
  max_rw_in t routine ~incl ~lo:0 ~hi:(total_slices t - 1)

let active_in t routine ~lo ~hi =
  let c = t.data.(routine.Symtab.id) in
  let n = ref 0 in
  for i = max 0 lo to hi do
    if slice_active c i then incr n
  done;
  !n

let range_bytes t routine metric ~lo ~hi =
  let c = t.data.(routine.Symtab.id) in
  let acc = ref 0 in
  for i = max 0 lo to hi do
    acc := !acc + get c i metric
  done;
  !acc

module Symtab = Tq_vm.Symtab
module Event = Tq_trace.Event

type geometry = { size_bytes : int; line_bytes : int; assoc : int }

let default_l1 = { size_bytes = 32 * 1024; line_bytes = 64; assoc = 8 }

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* the model is allocated up front (see [validate]); 16 MiB covers any cache
   level of the paper's era *)
let max_size_bytes = 16 * 1024 * 1024

let validate c =
  if not (is_pow2 c.line_bytes) then Error "line_bytes must be a power of two"
  else if c.assoc <= 0 then Error "assoc must be positive"
  else if c.size_bytes <= 0 || c.size_bytes > max_size_bytes then
    Error (Printf.sprintf "size must be between 1 and %d bytes" max_size_bytes)
  else if
    (* [line_bytes * assoc] is only formed once it is known not to exceed
       the size, so it cannot overflow *)
    c.assoc > c.size_bytes / c.line_bytes
    || c.size_bytes mod (c.line_bytes * c.assoc) <> 0
  then Error "size must be a multiple of line_bytes * assoc"
  else if not (is_pow2 (c.size_bytes / (c.line_bytes * c.assoc))) then
    Error "number of sets must be a power of two"
  else Ok ()

(* One set: parallel arrays of tags (-1 = invalid), dirty flags and ages. *)
type t = {
  geometry : geometry;
  sets : int;
  line_shift : int;  (** log2 line_bytes; [validate] guarantees a power of 2 *)
  tags : int array;  (** sets * assoc *)
  dirty : bool array;
  age : int array;
  mutable clock : int;
  (* per routine id *)
  k_accesses : int array;
  k_misses : int array;
  k_writebacks : int array;
  symtab : Symtab.t;
  stack : Call_stack.t;
}

(* [find_way] returns the way in [w, stop) holding [tag], or -1.  It and
   [swap] are top-level so a line access builds no closure. *)
let rec find_way (tags : int array) tag w stop =
  if w >= stop then -1
  else if tags.(w) = tag then w
  else find_way tags tag (w + 1) stop

let swap (a : int array) i j =
  let v = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- v

(* Access one line; returns a bitmask (bit 0 = missed, bit 1 = caused a
   writeback) rather than a tuple — this runs per line of every access, and
   the tuple allocation is measurable. *)
let touch_line t line_addr ~write ~demand:_ =
  let set = line_addr land (t.sets - 1) in
  (* "tags" store the full line address, making comparisons exact *)
  let tag = line_addr in
  let base = set * t.geometry.assoc in
  t.clock <- t.clock + 1;
  (* a tag appears at most once per set, so stop at the first hit;
     move-to-front (below) makes way 0 the overwhelmingly common hit, so
     probe it before entering the scan *)
  let found =
    if t.tags.(base) = tag then base
    else find_way t.tags tag (base + 1) (base + t.geometry.assoc)
  in
  if found >= 0 then begin
    (* move-to-front: a set is an unordered (tag, dirty, age) collection —
       ages drive LRU, not slot order — so swapping entries changes nothing
       observable, and temporal locality then hits way 0 on the next probe *)
    let w =
      if found = base then found
      else begin
        swap t.tags found base;
        swap t.age found base;
        let d = t.dirty.(found) in
        t.dirty.(found) <- t.dirty.(base);
        t.dirty.(base) <- d;
        base
      end
    in
    t.age.(w) <- t.clock;
    if write then t.dirty.(w) <- true;
    0
  end
  else begin
    (* miss: evict LRU way *)
    let victim = ref base in
    for w = base to base + t.geometry.assoc - 1 do
      if t.tags.(w) = -1 then victim := w
      else if t.tags.(!victim) <> -1 && t.age.(w) < t.age.(!victim) then
        victim := w
    done;
    let wb = t.tags.(!victim) <> -1 && t.dirty.(!victim) in
    t.tags.(!victim) <- tag;
    t.dirty.(!victim) <- write;
    t.age.(!victim) <- t.clock;
    if wb then 3 else 1
  end

let on_access t kernel_id addr size ~write ~demand =
  if size > 0 then begin
    let first = addr lsr t.line_shift
    and last = (addr + size - 1) lsr t.line_shift in
    for l = first to last do
      let r = touch_line t l ~write ~demand in
      if demand then begin
        t.k_accesses.(kernel_id) <- t.k_accesses.(kernel_id) + 1;
        if r land 1 <> 0 then t.k_misses.(kernel_id) <- t.k_misses.(kernel_id) + 1;
        if r land 2 <> 0 then
          t.k_writebacks.(kernel_id) <- t.k_writebacks.(kernel_id) + 1
      end
    done
  end

type config = { geometry : geometry; policy : Call_stack.policy }
type seed = unit

let create { geometry; policy } (prog : Tq_vm.Program.t) =
  (match validate geometry with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cache_sim.create: " ^ msg));
  let n = Symtab.count prog.symtab in
  let sets = geometry.size_bytes / (geometry.line_bytes * geometry.assoc) in
  let ways = sets * geometry.assoc in
  let line_shift =
    let rec go i n = if n <= 1 then i else go (i + 1) (n lsr 1) in
    go 0 geometry.line_bytes
  in
  {
    geometry;
    sets;
    line_shift;
    tags = Array.make ways (-1);
    dirty = Array.make ways false;
    age = Array.make ways 0;
    clock = 0;
    k_accesses = Array.make n 0;
    k_misses = Array.make n 0;
    k_writebacks = Array.make n 0;
    symtab = prog.symtab;
    stack = Call_stack.create prog.symtab policy;
  }

(* The tool's access function (see [Call_stack.attribute]). *)
let demand t id ~write ~icount:_ ~sp:_ ~ea ~size =
  on_access t id ea size ~write ~demand:true

(* prefetches warm the cache without counting as demand accesses *)
let prefetch t ~ea ~size = on_access t 0 ea size ~write:false ~demand:false

let consume t (ev : Event.t) =
  match ev with
  | Event.Prefetch { ea; size; _ } -> prefetch t ~ea ~size
  | _ -> Call_stack.attribute t.stack demand t ev

let interest = Event.KPrefetch :: Call_stack.interest

(* Replacement state depends on the exact access order: a chunk or a
   record is walked in order, prefetches included. *)
let consume_plain t c = Call_stack.attribute_plain t.stack demand prefetch t c

let consume_repeat t r =
  Call_stack.attribute_record t.stack demand prefetch t r

(* replacement state is order-sensitive and has no merge *)
let shard = None

let attach ?(geometry = default_l1) ?(policy = Call_stack.Main_image_only) =
  Tq_trace.Tool.attach ~wants:interest (create { geometry; policy }) consume

type krow = {
  routine : Symtab.routine;
  accesses : int;
  misses : int;
  writebacks : int;
  mem_bytes : int;
}

let rows t =
  let out = ref [] in
  Array.iteri
    (fun id accesses ->
      if accesses > 0 then
        out :=
          {
            routine = Symtab.by_id t.symtab id;
            accesses;
            misses = t.k_misses.(id);
            writebacks = t.k_writebacks.(id);
            mem_bytes = (t.k_misses.(id) + t.k_writebacks.(id)) * t.geometry.line_bytes;
          }
          :: !out)
    t.k_accesses;
  List.sort (fun a b -> compare b.misses a.misses) !out

let totals t =
  (Array.fold_left ( + ) 0 t.k_accesses, Array.fold_left ( + ) 0 t.k_misses)

let miss_rate t =
  let acc, miss = totals t in
  if acc = 0 then 0. else float_of_int miss /. float_of_int acc

let render t =
  let acc, miss = totals t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "cache %d KiB, %d-way, %dB lines: %d accesses, %d misses (%.2f%%)\n"
       (t.geometry.size_bytes / 1024) t.geometry.assoc t.geometry.line_bytes acc miss
       (100. *. miss_rate t));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %10d acc %9d miss (%5.2f%%) %8d wb %10d B to mem\n"
           r.routine.Symtab.name r.accesses r.misses
           (100. *. float_of_int r.misses /. float_of_int (max 1 r.accesses))
           r.writebacks r.mem_bytes))
    (rows t);
  Buffer.contents buf

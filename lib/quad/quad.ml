module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Call_stack = Tq_prof.Call_stack
module Bitset = Tq_util.Paged_bitset
module Int_table = Tq_util.Int_table

type edge = {
  mutable e_bytes_excl : int;
  mutable e_bytes_incl : int;
  e_addrs : Bitset.t;
}

(* Deferred producer charges for a shard that starts mid-trace: a read whose
   byte has no producer in the shard's own shadow may still have one in an
   earlier trace range, so the charge waits until [merge_into] can resolve it
   against the earlier range's shadow.  Charges are counted per 64-byte
   block: [block_bytes] incl counters followed by as many excl counters. *)
let block_bits = 6
let block_bytes = 1 lsl block_bits
let block_mask = block_bytes - 1

type t = {
  symtab : Symtab.t;
  stack : Call_stack.t;
  shadow : Shadow.t;
  (* per routine id *)
  in_excl : int array;
  in_incl : int array;
  out_excl : int array;
  out_incl : int array;
  read_unma_excl : Bitset.t array;
  read_unma_incl : Bitset.t array;
  write_unma_excl : Bitset.t array;
  write_unma_incl : Bitset.t array;
  edges : edge Int_table.t;  (** key: producer * 2^20 + consumer *)
  pending : int array Int_table.t array;
      (** per consumer routine id, keyed by block index [addr lsr 6] — the
          block index is the whole key, so any non-negative address fits.
          Empty unless the analyser runs in pending mode (mid-trace shards) *)
  mutable touched : bool array;  (** routines with any traffic *)
  (* last edge charged: a multi-byte access usually has one producer, so
     this skips the hash lookup almost always *)
  mutable last_edge_key : int;
  mutable last_edge : edge;
  (* last pending block, same idea: a deferred run stays in one block *)
  mutable last_pend_consumer : int;
  mutable last_pend_block : int;
  mutable last_pend : int array;
}

let edge_key p c = (p lsl 20) lor c

let no_edge = { e_bytes_excl = 0; e_bytes_incl = 0; e_addrs = Bitset.create () }

let edge_of t key =
  if key = t.last_edge_key then t.last_edge
  else begin
    let e =
      match Int_table.find_opt t.edges key with
      | Some e -> e
      | None ->
          let e =
            { e_bytes_excl = 0; e_bytes_incl = 0; e_addrs = Bitset.create () }
          in
          Int_table.add t.edges key e;
          e
    in
    t.last_edge_key <- key;
    t.last_edge <- e;
    e
  end

(* The loops below only keep per-byte work that genuinely varies per byte
   (shadow producer changes).  Everything uniform over the access — its
   stack and global runs, and every maximal run of one producer — is
   charged as one range/counter update, byte-for-byte equivalent to a
   per-byte walk. *)

let charge t kernel_id p addr len ~stack =
  t.out_incl.(p) <- t.out_incl.(p) + len;
  if not stack then t.out_excl.(p) <- t.out_excl.(p) + len;
  let e = edge_of t (edge_key p kernel_id) in
  e.e_bytes_incl <- e.e_bytes_incl + len;
  if not stack then e.e_bytes_excl <- e.e_bytes_excl + len;
  Bitset.add_range e.e_addrs addr len

let pend_block t c blk =
  if blk = t.last_pend_block && c = t.last_pend_consumer then t.last_pend
  else begin
    let tbl = t.pending.(c) in
    let counts =
      match Int_table.find_opt tbl blk with
      | Some a -> a
      | None ->
          let a = Array.make (2 * block_bytes) 0 in
          Int_table.add tbl blk a;
          a
    in
    t.last_pend_consumer <- c;
    t.last_pend_block <- blk;
    t.last_pend <- counts;
    counts
  end

(* Count one producer-less read of [addr, addr + len) against consumer [c]. *)
let defer t c addr len ~stack =
  let i = ref addr and stop = addr + len in
  while !i < stop do
    let counts = pend_block t c (!i lsr block_bits) in
    let off = !i land block_mask in
    let n = Int.min (stop - !i) (block_bytes - off) in
    for b = off to off + n - 1 do
      Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
    done;
    if not stack then
      for b = block_bytes + off to block_bytes + off + n - 1 do
        Array.unsafe_set counts b (Array.unsafe_get counts b + 1)
      done;
    i := !i + n
  done

(* Run-collapsed producer scan of [addr, addr + len), all stack area or all
   global: fetch each shadow page once and charge maximal same-producer runs
   in one go. *)
let scan t kernel_id addr len ~stack =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let page = Shadow.page_ro t.shadow a in
    let off = a land Shadow.page_mask in
    let span = Int.min (len - !pos) (Shadow.page_size - off) in
    let k = ref 0 in
    while !k < span do
      let run0 = !k in
      let p = Array.unsafe_get page (off + !k) in
      incr k;
      while !k < span && Array.unsafe_get page (off + !k) = p do
        incr k
      done;
      if p >= 0 then charge t kernel_id p (a + run0) (!k - run0) ~stack
      else if Array.length t.pending > 0 then
        defer t kernel_id (a + run0) (!k - run0) ~stack
    done;
    pos := !pos + span
  done

(* An access is three runs, global / stack / global, any of them empty
   (see [Layout.stack_lo]). *)
let on_read t kernel_id ea size sp =
  t.touched.(kernel_id) <- true;
  if size > 0 then begin
    let lo = Layout.stack_lo ~sp ea size and hi = Layout.stack_hi ~sp ea size in
    let stop = ea + size in
    t.in_incl.(kernel_id) <- t.in_incl.(kernel_id) + size;
    t.in_excl.(kernel_id) <- t.in_excl.(kernel_id) + size - (hi - lo);
    Bitset.add_range t.read_unma_incl.(kernel_id) ea size;
    if lo = hi then begin
      Bitset.add_range t.read_unma_excl.(kernel_id) ea size;
      scan t kernel_id ea size ~stack:false
    end
    else if lo = ea && hi = stop then scan t kernel_id ea size ~stack:true
    else begin
      Bitset.add_range t.read_unma_excl.(kernel_id) ea (lo - ea);
      Bitset.add_range t.read_unma_excl.(kernel_id) hi (stop - hi);
      scan t kernel_id ea (lo - ea) ~stack:false;
      scan t kernel_id lo (hi - lo) ~stack:true;
      scan t kernel_id hi (stop - hi) ~stack:false
    end
  end

let on_write t kernel_id ea size sp =
  t.touched.(kernel_id) <- true;
  if size > 0 then begin
    let lo = Layout.stack_lo ~sp ea size and hi = Layout.stack_hi ~sp ea size in
    Bitset.add_range t.write_unma_incl.(kernel_id) ea size;
    Bitset.add_range t.write_unma_excl.(kernel_id) ea (lo - ea);
    Bitset.add_range t.write_unma_excl.(kernel_id) hi (ea + size - hi);
    Shadow.set_range t.shadow ea size kernel_id
  end

type config = Call_stack.policy
type seed = Call_stack.t

let make ~pending (prog : Tq_vm.Program.t) stack =
  let n = Symtab.count prog.symtab in
  {
    symtab = prog.symtab;
    stack;
    shadow = Shadow.create ();
    in_excl = Array.make n 0;
    in_incl = Array.make n 0;
    out_excl = Array.make n 0;
    out_incl = Array.make n 0;
    read_unma_excl = Array.init n (fun _ -> Bitset.create ());
    read_unma_incl = Array.init n (fun _ -> Bitset.create ());
    write_unma_excl = Array.init n (fun _ -> Bitset.create ());
    write_unma_incl = Array.init n (fun _ -> Bitset.create ());
    edges = Int_table.create 256;
    pending =
      (if pending then Array.init n (fun _ -> Int_table.create 16) else [||]);
    touched = Array.make n false;
    last_edge_key = -1;
    last_edge = no_edge;
    last_pend_consumer = -1;
    last_pend_block = -1;
    last_pend = [||];
  }

let create policy prog =
  make ~pending:false prog (Call_stack.create prog.symtab policy)

(* The tool's access function (see [Call_stack.attribute]).  A zero-length
   block copy still marks the kernel as touched (on_read / on_write run with
   size 0), matching the original instrumentation where the action fired
   regardless of the dynamic length. *)
let access t kernel_id ~write ~icount:_ ~sp ~ea ~size =
  if write then on_write t kernel_id ea size sp
  else on_read t kernel_id ea size sp

let consume t ev = Call_stack.attribute t.stack access t ev
let interest = Call_stack.interest

(* Producer tracking keeps the last writer of every byte, which depends on
   the order of the accesses: a chunk or a record is walked in order,
   access by access.  QUAD discards prefetches. *)
let consume_plain t c =
  Call_stack.attribute_plain t.stack access Call_stack.no_prefetch t c

let consume_repeat t r =
  Call_stack.attribute_record t.stack access Call_stack.no_prefetch t r

(* One deferred block of consumer [c] against [a]'s shadow: each maximal run
   of counted bytes with one producer is one charge. *)
let resolve_block a c blk counts =
  let base = blk lsl block_bits in
  let page = Shadow.page_ro a.shadow base in
  let off = base land Shadow.page_mask in
  let k = ref 0 in
  while !k < block_bytes do
    if Array.unsafe_get counts !k = 0 then incr k
    else begin
      let run0 = !k in
      let p = Array.unsafe_get page (off + run0) in
      let incl = ref 0 and excl = ref 0 in
      while
        !k < block_bytes
        && Array.unsafe_get counts !k <> 0
        && Array.unsafe_get page (off + !k) = p
      do
        incl := !incl + Array.unsafe_get counts !k;
        excl := !excl + Array.unsafe_get counts (block_bytes + !k);
        incr k
      done;
      if p >= 0 then begin
        a.out_incl.(p) <- a.out_incl.(p) + !incl;
        a.out_excl.(p) <- a.out_excl.(p) + !excl;
        let e = edge_of a (edge_key p c) in
        e.e_bytes_incl <- e.e_bytes_incl + !incl;
        e.e_bytes_excl <- e.e_bytes_excl + !excl;
        Bitset.add_range e.e_addrs (base + run0) (!k - run0)
      end
    end
  done

(* [a] must cover the trace from its start up to where [b]'s range begins:
   [b]'s deferred reads resolve against [a]'s shadow (the byte's last writer
   before [b] began), and a miss there means the byte genuinely has no
   producer — the same outcome a sequential run reaches.  Resolution happens
   before the shadows merge, since [b]'s writes must not shadow producers
   that [b]'s reads predate.  Everything else is commutative: counters add,
   UnMA and edge address sets union, [b]'s shadow overwrites [a]'s where
   both wrote. *)
let merge_into a b =
  Array.iteri (fun c tbl -> Int_table.iter (resolve_block a c) tbl) b.pending;
  let n = Array.length a.in_excl in
  for id = 0 to n - 1 do
    a.in_excl.(id) <- a.in_excl.(id) + b.in_excl.(id);
    a.in_incl.(id) <- a.in_incl.(id) + b.in_incl.(id);
    a.out_excl.(id) <- a.out_excl.(id) + b.out_excl.(id);
    a.out_incl.(id) <- a.out_incl.(id) + b.out_incl.(id);
    Bitset.union a.read_unma_excl.(id) b.read_unma_excl.(id);
    Bitset.union a.read_unma_incl.(id) b.read_unma_incl.(id);
    Bitset.union a.write_unma_excl.(id) b.write_unma_excl.(id);
    Bitset.union a.write_unma_incl.(id) b.write_unma_incl.(id);
    if b.touched.(id) then a.touched.(id) <- true
  done;
  Int_table.iter
    (fun key eb ->
      let ea = edge_of a key in
      ea.e_bytes_excl <- ea.e_bytes_excl + eb.e_bytes_excl;
      ea.e_bytes_incl <- ea.e_bytes_incl + eb.e_bytes_incl;
      Bitset.union ea.e_addrs eb.e_addrs)
    b.edges;
  Shadow.merge_into a.shadow b.shadow

(* A mid-trace shard runs in pending mode: its producer-less reads wait in
   block counters for [merge_into] to resolve. *)
let shard =
  Call_stack.shard Fun.id ~merge_into ~seeded:(fun _ prog stack ->
      make ~pending:true prog stack)

let attach ?(policy = Call_stack.Main_image_only) =
  Tq_trace.Tool.attach ~wants:interest (create policy) consume

type krow = {
  routine : Symtab.routine;
  in_bytes : int;
  in_unma : int;
  out_bytes : int;
  out_unma : int;
  in_bytes_incl : int;
  in_unma_incl : int;
  out_bytes_incl : int;
  out_unma_incl : int;
}

let rows t =
  let out = ref [] in
  Array.iteri
    (fun id touched ->
      if touched then begin
        let routine = Symtab.by_id t.symtab id in
        out :=
          {
            routine;
            in_bytes = t.in_excl.(id);
            in_unma = Bitset.cardinal t.read_unma_excl.(id);
            out_bytes = t.out_excl.(id);
            out_unma = Bitset.cardinal t.write_unma_excl.(id);
            in_bytes_incl = t.in_incl.(id);
            in_unma_incl = Bitset.cardinal t.read_unma_incl.(id);
            out_bytes_incl = t.out_incl.(id);
            out_unma_incl = Bitset.cardinal t.write_unma_incl.(id);
          }
          :: !out
      end)
    t.touched;
  List.sort (fun a b -> compare a.routine.Symtab.name b.routine.Symtab.name) !out

type binding = {
  producer : Symtab.routine;
  consumer : Symtab.routine;
  bytes : int;
  bytes_incl : int;
  unma : int;
}

let bindings t =
  Int_table.fold
    (fun key e acc ->
      let p = key lsr 20 and c = key land 0xfffff in
      {
        producer = Symtab.by_id t.symtab p;
        consumer = Symtab.by_id t.symtab c;
        bytes = e.e_bytes_excl;
        bytes_incl = e.e_bytes_incl;
        unma = Bitset.cardinal e.e_addrs;
      }
      :: acc)
    t.edges []
  |> List.sort (fun a b ->
         (* tie-break on the routine pair: the fold order above follows
            hashtable layout, which differs between a sequential run and a
            merged shard fold *)
         match compare b.bytes_incl a.bytes_incl with
         | 0 ->
             compare
               (a.producer.Symtab.id, a.consumer.Symtab.id)
               (b.producer.Symtab.id, b.consumer.Symtab.id)
         | c -> c)

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph QDU {\n  rankdir=LR;\n  node [shape=box];\n";
  let nodes = Hashtbl.create 32 in
  let want = List.filter (fun b -> b.bytes_incl > 0) (bindings t) in
  List.iter
    (fun b ->
      Hashtbl.replace nodes b.producer.Symtab.name ();
      Hashtbl.replace nodes b.consumer.Symtab.name ())
    want;
  Hashtbl.iter
    (fun name () -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" name))
    nodes;
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%d B / %d UnMA\"];\n"
           b.producer.Symtab.name b.consumer.Symtab.name b.bytes_incl b.unma))
    want;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let shadow_pages t = Shadow.page_count t.shadow

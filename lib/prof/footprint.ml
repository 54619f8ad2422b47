module Symtab = Tq_vm.Symtab
module Layout = Tq_vm.Layout
module Bitset = Tq_util.Paged_bitset

type region = Data | Heap | Stack

let region_name = function Data -> "data" | Heap -> "heap" | Stack -> "stack"

type t = {
  symtab : Symtab.t;
  data_end : int;
  touched : Bitset.t array;  (** per routine id *)
  stack : Call_stack.t;
}

type config = Call_stack.policy
type seed = Call_stack.t

let seeded _ (prog : Tq_vm.Program.t) stack =
  {
    symtab = prog.symtab;
    data_end = prog.data_end;
    touched = Array.init (Symtab.count prog.symtab) (fun _ -> Bitset.create ());
    stack;
  }

let create policy prog =
  seeded policy prog (Call_stack.create prog.symtab policy)

(* The tool's access function (see [Call_stack.attribute]). *)
let mark t id ~write:_ ~icount:_ ~sp:_ ~ea ~size =
  if size > 0 then Bitset.add_range t.touched.(id) ea size

let consume t ev = Call_stack.attribute t.stack mark t ev

let consume_plain t c =
  Call_stack.attribute_plain t.stack mark Call_stack.no_prefetch t c

(* The tool's run function (see [Call_stack.attribute_repeat]): accesses at
   most [size] apart touch one interval; farther apart, [iters] ranges. *)
let mark_run t id ~write:_ ~iters ~icount:_ ~d_icount:_ ~sp:_ ~d_sp:_ ~ea
    ~d_ea ~size =
  if size > 0 then begin
    let bits = t.touched.(id) in
    if abs d_ea <= size then begin
      let last = ea + ((iters - 1) * d_ea) in
      let lo = min ea last in
      Bitset.add_range bits lo (max ea last - lo + size)
    end
    else
      for i = 0 to iters - 1 do
        Bitset.add_range bits (ea + (i * d_ea)) size
      done
  end

let consume_repeat t r = Call_stack.attribute_repeat t.stack mark mark_run t r
let interest = Call_stack.interest

(* Touched-address sets union; the [rows] sort reads the fixed id-indexed
   array, so tie order is identical to the sequential run's. *)
let merge_into a b =
  Array.iteri (fun id bits -> Bitset.union a.touched.(id) bits) b.touched

let shard = Call_stack.shard Fun.id ~seeded ~merge_into

let attach ?(policy = Call_stack.Main_image_only) =
  Tq_trace.Tool.attach ~wants:interest (create policy) consume

type region_stats = { unique_bytes : int; pages : int; lo : int; hi : int }

(* stack classification here is positional (the stack region of the address
   space), independent of the momentary stack pointer *)
let stack_lo = Layout.stack_top - 0x1000_0000

let classify t addr =
  if addr >= stack_lo && addr < Layout.stack_top then Stack
  else if addr >= t.data_end then Heap
  else Data

let region_index = function Data -> 0 | Heap -> 1 | Stack -> 2

(* bit tricks on the 32-bit words of [Bitset.iter_words] (never zero); the
   popcount is [Paged_bitset]'s, kept in this module so it inlines *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let lowest_bit w = popcount32 ((w land -w) - 1)

let highest_bit w =
  let w = w lor (w lsr 1) in
  let w = w lor (w lsr 2) in
  let w = w lor (w lsr 4) in
  let w = w lor (w lsr 8) in
  popcount32 (w lor (w lsr 16)) - 1

(* Word-at-a-time over the ascending touched set: a word lies in one 4 KiB
   page, so a region's page count grows when its page index changes, and
   only a word a region boundary cuts through is split bit by bit. *)
let region_rollup t id =
  let bits = t.touched.(id) in
  if Bitset.cardinal bits = 0 then []
  else begin
    let bytes = Array.make 3 0 and pages = Array.make 3 0 in
    let lo = Array.make 3 0 and hi = Array.make 3 0 in
    let last_page = Array.make 3 (-1) in
    let add r base word =
      if bytes.(r) = 0 then lo.(r) <- base + lowest_bit word;
      bytes.(r) <- bytes.(r) + popcount32 word;
      hi.(r) <- base + highest_bit word;
      let page = base lsr 12 in
      if page <> last_page.(r) then begin
        pages.(r) <- pages.(r) + 1;
        last_page.(r) <- page
      end
    in
    let cuts base b = b > base && b < base + 32 in
    Bitset.iter_words
      (fun base word ->
        if
          cuts base t.data_end || cuts base stack_lo
          || cuts base Layout.stack_top
        then begin
          let masks = Array.make 3 0 in
          for b = 0 to 31 do
            if word land (1 lsl b) <> 0 then begin
              let r = region_index (classify t (base + b)) in
              masks.(r) <- masks.(r) lor (1 lsl b)
            end
          done;
          Array.iteri (fun r m -> if m <> 0 then add r base m) masks
        end
        else add (region_index (classify t base)) base word)
      bits;
    List.filter_map
      (fun r ->
        let i = region_index r in
        if bytes.(i) = 0 then None
        else
          Some
            ( r,
              { unique_bytes = bytes.(i); pages = pages.(i); lo = lo.(i);
                hi = hi.(i) } ))
      [ Data; Heap; Stack ]
  end

let rows t =
  let out = ref [] in
  Array.iteri
    (fun id _ ->
      let rs = region_rollup t id in
      if rs <> [] then out := (Symtab.by_id t.symtab id, rs) :: !out)
    t.touched;
  List.sort
    (fun (_, a) (_, b) ->
      let total rs =
        List.fold_left (fun acc (_, s) -> acc + s.unique_bytes) 0 rs
      in
      compare (total b) (total a))
    !out

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "per-kernel memory footprint (unique bytes touched per region):\n";
  List.iter
    (fun (r, regions) ->
      Buffer.add_string buf (Printf.sprintf "  %s\n" r.Symtab.name);
      List.iter
        (fun (region, s) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    %-5s %10d B unique, %6d pages, extent 0x%x..0x%x (%d B)\n"
               (region_name region) s.unique_bytes s.pages s.lo s.hi
               (s.hi - s.lo + 1)))
        regions)
    (rows t);
  Buffer.contents buf

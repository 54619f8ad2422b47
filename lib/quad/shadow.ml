let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

module Pt = Tq_util.Page_table

type t = Pt.t

(* A never-written byte's producer: -1.  Every shadow's new pages are
   copies of this one, and its never-written pages read as this one. *)
let blank = Array.make page_size (-1)
let create () = Pt.create blank

(* the translation's hit test, here so it inlines (see [Page_table]) *)
let[@inline] page_of t idx =
  let s = idx land Pt.slot_mask in
  if Array.unsafe_get t.Pt.tags s = idx then Array.unsafe_get t.Pt.slots s
  else Pt.page t idx

(* Page-split bulk write: one translation per touched page — the write path
   of every Store and Block_copy, so this is QUAD's hottest producer-side
   loop.  The fill is an OCaml loop: most runs are a few bytes, where an
   [Array.fill] C call costs more than the stores. *)
let set_range t addr len producer =
  let i = ref addr and remaining = ref len in
  while !remaining > 0 do
    let off = !i land page_mask in
    let n = Int.min !remaining (page_size - off) in
    let page = page_of t (!i lsr page_bits) in
    for k = off to off + n - 1 do
      Array.unsafe_set page k producer
    done;
    i := !i + n;
    remaining := !remaining - n
  done

(* Read-only page access for run-collapsed consumer loops: never-written
   pages resolve to [blank] without allocating. *)
let page_ro t addr =
  let idx = addr lsr page_bits in
  let s = idx land Pt.slot_mask in
  if Array.unsafe_get t.Pt.tags s = idx then Array.unsafe_get t.Pt.slots s
  else Pt.page_ro t idx

let page_count = Pt.length

(* Overlay [src] onto [dst]: every byte [src] saw written (producer >= 0)
   wins — [src] covers a later trace range, so its producers are newer.
   Bytes [src] never wrote (-1) keep [dst]'s producer. *)
let merge_into dst src =
  Pt.iter
    (fun idx src_page ->
      let dst_page = page_of dst idx in
      for i = 0 to page_size - 1 do
        let p = Array.unsafe_get src_page i in
        if p >= 0 then Array.unsafe_set dst_page i p
      done)
    src

(* Pages of 2^15 bits stored as 1024 words of 32 bits (OCaml ints are 63-bit,
   so 64-bit words would overflow on [1 lsl 63]). *)

let page_bits = 15
let page_size = 1 lsl page_bits (* bits per page *)
let words_per_page = page_size / 32

type t = { table : Page_table.t; mutable count : int }

let blank = Array.make words_per_page 0
let create () = { table = Page_table.create blank; count = 0 }

(* the translation's hit test, here so it inlines (see [Page_table]) *)
let[@inline] page_of t idx =
  let tb = t.table in
  let s = idx land Page_table.slot_mask in
  if Array.unsafe_get tb.Page_table.tags s = idx then
    Array.unsafe_get tb.Page_table.slots s
  else Page_table.page tb idx

(* branch-free 32-bit popcount (words hold 32 bits, see header comment) *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (* OCaml ints are wider than 32 bits, so the multiply doesn't truncate;
     keep only the byte that holds the folded sum. *)
  ((x * 0x01010101) lsr 24) land 0xff

(* Word-filled: one page lookup per page and one [lor] per 32-bit word
   instead of one of each per bit.  Ranges that fit inside one 32-bit word —
   nearly every memory access — take the masked single-write path up front
   (fitting in a word implies fitting in the page). *)
let add_range t x n =
  if n > 0 then begin
    if x < 0 then invalid_arg "Paged_bitset.add_range: negative";
    let b = x land 31 in
    if b + n <= 32 then begin
      let page = page_of t (x lsr page_bits) in
      let w = (x land (page_size - 1)) lsr 5 in
      let mask = ((1 lsl n) - 1) lsl b in
      let old = page.(w) in
      let nw = old lor mask in
      if nw <> old then begin
        t.count <- t.count + popcount32 (nw lxor old);
        page.(w) <- nw
      end
    end
    else begin
    let stop = x + n in
    let i = ref x in
    while !i < stop do
      let page_idx = !i lsr page_bits in
      let page = page_of t page_idx in
      let page_end = Int.min stop ((page_idx + 1) lsl page_bits) in
      while !i < page_end do
        let off = !i land (page_size - 1) in
        let w = off lsr 5 and b = off land 31 in
        let span = Int.min (32 - b) (page_end - !i) in
        let mask = ((1 lsl span) - 1) lsl b in
        let old = page.(w) in
        let nw = old lor mask in
        if nw <> old then begin
          t.count <- t.count + popcount32 (nw lxor old);
          page.(w) <- nw
        end;
        i := !i + span
      done
    done
    end
  end

let cardinal t = t.count

let iter_words f t =
  let idxs = ref [] in
  Page_table.iter (fun idx page -> idxs := (idx, page) :: !idxs) t.table;
  List.iter
    (fun (idx, page) ->
      let base = idx lsl page_bits in
      for w = 0 to words_per_page - 1 do
        let word = page.(w) in
        if word <> 0 then f (base + (w * 32)) word
      done)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) !idxs)

let union dst src =
  Page_table.iter
    (fun idx src_page ->
      let dst_page = page_of dst idx in
      for w = 0 to words_per_page - 1 do
        let sw = Array.unsafe_get src_page w in
        if sw <> 0 then begin
          let old = Array.unsafe_get dst_page w in
          let nw = old lor sw in
          if nw <> old then begin
            dst.count <- dst.count + popcount32 (nw lxor old);
            Array.unsafe_set dst_page w nw
          end
        end
      done)
    src.table

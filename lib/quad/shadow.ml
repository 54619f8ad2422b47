let page_bits = 12
let page_size = 1 lsl page_bits

type t = {
  pages : (int, int array) Hashtbl.t;
  (* last page touched: shadow traffic is strongly page-local (per-byte
     loops over one access), so this skips the hash lookup almost always *)
  mutable last_idx : int;
  mutable last_page : int array;
}

let create () =
  { pages = Hashtbl.create 1024; last_idx = min_int; last_page = [||] }

let page_of t idx =
  if idx = t.last_idx then t.last_page
  else begin
    let p =
      match Hashtbl.find_opt t.pages idx with
      | Some p -> p
      | None ->
          let p = Array.make page_size (-1) in
          Hashtbl.add t.pages idx p;
          p
    in
    t.last_idx <- idx;
    t.last_page <- p;
    p
  end

(* Page-split bulk write: one [page_of] plus an [Array.fill] per touched
   page instead of a lookup per byte — the write path of every Store and
   Block_copy, so this is QUAD's hottest producer-side loop. *)
let set_range t addr len producer =
  let i = ref addr and remaining = ref len in
  while !remaining > 0 do
    let off = !i land (page_size - 1) in
    let n = min !remaining (page_size - off) in
    Array.fill (page_of t (!i lsr page_bits)) off n producer;
    i := !i + n;
    remaining := !remaining - n
  done

(* Read-only page access for run-collapsed consumer loops: never-written
   pages resolve to one shared all-[-1] page instead of allocating.  The
   shared page must never enter the last-page cache — [page_of] would hand
   it out for writing. *)
let no_page = Array.make page_size (-1)
let page_mask = page_size - 1

let page_ro t addr =
  let idx = addr lsr page_bits in
  if idx = t.last_idx then t.last_page
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.last_idx <- idx;
        t.last_page <- p;
        p
    | None -> no_page

let page_count t = Hashtbl.length t.pages

(* Overlay [src] onto [dst]: every byte [src] saw written (producer >= 0)
   wins — [src] covers a later trace range, so its producers are newer.
   Bytes [src] never wrote (-1) keep [dst]'s producer. *)
let merge_into dst src =
  Hashtbl.iter
    (fun idx src_page ->
      let dst_page = page_of dst idx in
      for i = 0 to page_size - 1 do
        let p = Array.unsafe_get src_page i in
        if p >= 0 then Array.unsafe_set dst_page i p
      done)
    src.pages

(* Direct-mapped, like the guest memory's page TLB ([Tq_vm.Memory]): 64
   entries keep every working page of a kernel resident where a one-entry
   cache thrashes between, say, a stack page and a global page. *)
let slot_bits = 6
let slots = 1 lsl slot_bits
let slot_mask = slots - 1

type t = {
  pages : int array Int_table.t;
  blank : int array;
  mutable tags : int array;
  mutable slots : int array array;
}

(* The cache of every table without a page.  A tag of -1 never equals a page
   index, so the hit test misses until [cache] gives the table arrays of its
   own; these two are never written. *)
let no_tags = Array.make slots (-1)
let no_slots = Array.make slots [||]

let create blank =
  { pages = Int_table.create 64; blank; tags = no_tags; slots = no_slots }

let cache t idx p =
  if t.tags == no_tags then begin
    t.tags <- Array.make slots (-1);
    t.slots <- Array.make slots [||]
  end;
  let s = idx land slot_mask in
  t.tags.(s) <- idx;
  t.slots.(s) <- p

let page t idx =
  let p =
    match Int_table.find_opt t.pages idx with
    | Some p -> p
    | None ->
        let p = Array.copy t.blank in
        Int_table.add t.pages idx p;
        p
  in
  cache t idx p;
  p

let page_ro t idx =
  match Int_table.find_opt t.pages idx with
  | Some p ->
      cache t idx p;
      p
  | None -> t.blank

let length t = Int_table.length t.pages
let iter f t = Int_table.iter f t.pages

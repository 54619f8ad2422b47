let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Direct-mapped page-translation cache.  Compiled code has strong page
   locality (stack frames, sequential buffers) but alternates between a few
   working pages — stack, globals, heap buffer — which a one-entry cache
   thrashes on.  64 direct-mapped entries keep all of them resident and
   turn the common case into one array compare instead of a hash lookup.
   The hit counters feed the engine's self-profile (bench `engine`). *)
let tlb_bits = 6
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  tags : int array; (* page index cached in each slot; -1 = empty *)
  slots : Bytes.t array;
  mutable hits : int;
  mutable misses : int;
}

type cache_stats = { hits : int; misses : int }

let no_page = Bytes.create 0

let create () =
  {
    pages = Hashtbl.create 256;
    tags = Array.make tlb_size (-1);
    slots = Array.make tlb_size no_page;
    hits = 0;
    misses = 0;
  }

let cache_stats (m : t) = { hits = m.hits; misses = m.misses }

exception Fault of string

let max_bytes = 128 * 1024 * 1024
let max_pages = max_bytes / page_size

(* cold path: kept out of line so [page_of]'s miss path stays small *)
let[@inline never] over_budget idx =
  raise
    (Fault
       (Printf.sprintf
          "memory fault: page at 0x%x would pass the %d-byte memory budget"
          (idx lsl page_bits) max_bytes))

(* Translation with allocate-on-miss (store side). *)
let page_of t idx =
  let s = idx land tlb_mask in
  if Array.unsafe_get t.tags s = idx then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.slots s
  end
  else begin
    t.misses <- t.misses + 1;
    let p =
      match Hashtbl.find_opt t.pages idx with
      | Some p -> p
      | None ->
          if Hashtbl.length t.pages >= max_pages then over_budget idx;
          let p = Bytes.make page_size '\000' in
          Hashtbl.add t.pages idx p;
          p
    in
    t.tags.(s) <- idx;
    t.slots.(s) <- p;
    p
  end

(* Translation without allocation (load side): an untouched page reads as
   zeroes and is not materialized. *)
let find_page t idx =
  let s = idx land tlb_mask in
  if Array.unsafe_get t.tags s = idx then begin
    t.hits <- t.hits + 1;
    Some (Array.unsafe_get t.slots s)
  end
  else begin
    t.misses <- t.misses + 1;
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
        t.tags.(s) <- idx;
        t.slots.(s) <- p;
        Some p
    | None -> None
  end

(* cold path: kept out of line so [check] stays one compare *)
let[@inline never] negative addr =
  raise (Fault (Printf.sprintf "memory fault: negative address %d" addr))

let check addr = if addr < 0 then negative addr

(* a block transfer of [len] bytes at [addr]: both ends must be addresses *)
let check_range addr len =
  if addr < 0 || len < 0 || addr > max_int - len then
    raise
      (Fault
         (Printf.sprintf "memory fault: %d-byte block at address %d" len addr))

let get_u8 t addr =
  check addr;
  match find_page t (addr lsr page_bits) with
  | None -> 0
  | Some p -> Bytes.get_uint8 p (addr land page_mask)

let set_u8 t addr v =
  check addr;
  let p = page_of t (addr lsr page_bits) in
  Bytes.set_uint8 p (addr land page_mask) (v land 0xff)

(* Fast within-page paths; byte-wise fallback across pages. *)

let load t ~width addr =
  check addr;
  let off = addr land page_mask in
  let n = Tq_isa.Isa.width_bytes width in
  if off + n <= page_size then begin
    match find_page t (addr lsr page_bits) with
    | None -> 0
    | Some p -> (
        match width with
        | Tq_isa.Isa.W1 -> Bytes.get_uint8 p off
        | W2 -> Bytes.get_uint16_le p off
        | W4 -> Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff
        | W8 ->
            (* Stored as 64 bits; OCaml ints are 63-bit so the top bit folds
               into the sign, which is the behaviour native code sees. *)
            Int64.to_int (Bytes.get_int64_le p off))
  end
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 8) lor get_u8 t (addr + i)
    done;
    !v
  end

let sign_extend v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let loads t ~width addr =
  let v = load t ~width addr in
  match width with
  | Tq_isa.Isa.W1 -> sign_extend v 8
  | W2 -> sign_extend v 16
  | W4 -> sign_extend v 32
  | W8 -> v

let store t ~width addr v =
  check addr;
  let off = addr land page_mask in
  let n = Tq_isa.Isa.width_bytes width in
  if off + n <= page_size then begin
    let p = page_of t (addr lsr page_bits) in
    match width with
    | Tq_isa.Isa.W1 -> Bytes.set_uint8 p off (v land 0xff)
    | W2 -> Bytes.set_uint16_le p off (v land 0xffff)
    | W4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | W8 -> Bytes.set_int64_le p off (Int64.of_int v)
  end
  else
    for i = 0 to n - 1 do
      set_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

(* Aligned 8-byte fast paths: 8-byte loads/stores dominate the wfs traffic
   (stack slots, doubles, return addresses) and an 8-aligned access can
   never straddle a page, so the width dispatch and the straddle test both
   disappear. *)

let load_w8 t addr =
  check addr;
  let off = addr land page_mask in
  if off land 7 = 0 then
    match find_page t (addr lsr page_bits) with
    | None -> 0
    | Some p -> Int64.to_int (Bytes.get_int64_le p off)
  else load t ~width:Tq_isa.Isa.W8 addr

let store_w8 t addr v =
  check addr;
  let off = addr land page_mask in
  if off land 7 = 0 then
    Bytes.set_int64_le (page_of t (addr lsr page_bits)) off (Int64.of_int v)
  else store t ~width:Tq_isa.Isa.W8 addr v

let load_f64 t addr =
  check addr;
  let off = addr land page_mask in
  if off + 8 <= page_size then
    match find_page t (addr lsr page_bits) with
    | None -> 0.
    | Some p -> Int64.float_of_bits (Bytes.get_int64_le p off)
  else begin
    let bits = ref 0L in
    for i = 7 downto 0 do
      bits := Int64.logor (Int64.shift_left !bits 8)
                (Int64.of_int (get_u8 t (addr + i)))
    done;
    Int64.float_of_bits !bits
  end

let store_f64 t addr v =
  check addr;
  let off = addr land page_mask in
  if off + 8 <= page_size then begin
    let p = page_of t (addr lsr page_bits) in
    Bytes.set_int64_le p off (Int64.bits_of_float v)
  end
  else begin
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      set_u8 t (addr + i)
        (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done
  end

let read_bytes t addr len =
  check_range addr len;
  if len > max_bytes then
    raise
      (Fault
         (Printf.sprintf
            "memory fault: %d-byte block at address %d exceeds the %d-byte \
             memory budget"
            len addr max_bytes));
  let out = Bytes.make len '\000' in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land page_mask in
    let chunk = min (len - !i) (page_size - off) in
    (match find_page t (a lsr page_bits) with
    | None -> ()
    | Some p -> Bytes.blit p off out !i chunk);
    i := !i + chunk
  done;
  out

let write_bytes t addr b =
  let len = Bytes.length b in
  check_range addr len;
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = a land page_mask in
    let chunk = min (len - !i) (page_size - off) in
    let p = page_of t (a lsr page_bits) in
    Bytes.blit b !i p off chunk;
    i := !i + chunk
  done

(* a guest string longer than this is taken to be unterminated *)
let max_cstring = 4096

let read_cstring t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= max_cstring then
      raise
        (Fault
           (Printf.sprintf
              "memory fault: no NUL within %d bytes of the string at 0x%x"
              max_cstring addr))
    else begin
      let c = get_u8 t (addr + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
    end
  in
  go 0

let page_count t = Hashtbl.length t.pages

module Leb = Tq_util.Leb128

type t = {
  mutable n : int;
  mutable calls : int;
  mutable kind : Bytes.t;
  mutable icount : int array;
  mutable static : int array;
  mutable ea : int array;
  mutable size : int array;
  mutable sp : int array;
  mutable dst : int array;
}

let create cap =
  let col () = Array.make cap 0 in
  {
    n = 0;
    calls = 0;
    kind = Bytes.make cap '\000';
    icount = col ();
    static = col ();
    ea = col ();
    size = col ();
    sp = col ();
    dst = col ();
  }

let length c = c.n

(* Grow every column to exactly [cap] events; old contents are dropped. *)
let reserve c cap =
  if Array.length c.icount < cap then begin
    let g = create cap in
    c.kind <- g.kind;
    c.icount <- g.icount;
    c.static <- g.static;
    c.ea <- g.ea;
    c.size <- g.size;
    c.sp <- g.sp;
    c.dst <- g.dst
  end

let tag c i = Char.code (Bytes.get c.kind i)

let get c i : Event.t =
  if i < 0 || i >= c.n then invalid_arg "Trace.Cols.get: index out of range";
  let icount = c.icount.(i) in
  match tag c i with
  | 0 -> Rtn_entry { icount; routine = c.static.(i); sp = c.sp.(i) }
  | 1 -> Ret { icount; sp = c.sp.(i) }
  | 2 ->
      Load
        {
          icount;
          static = c.static.(i);
          ea = c.ea.(i);
          size = c.size.(i);
          sp = c.sp.(i);
        }
  | 3 ->
      Store
        {
          icount;
          static = c.static.(i);
          ea = c.ea.(i);
          size = c.size.(i);
          sp = c.sp.(i);
        }
  | 4 ->
      Block_copy
        {
          icount;
          static = c.static.(i);
          src = c.ea.(i);
          dst = c.dst.(i);
          len = c.size.(i);
          sp = c.sp.(i);
        }
  | 5 -> Prefetch { icount; ea = c.ea.(i); size = c.size.(i) }
  | 6 -> Block_exec { icount; addr = c.ea.(i); n = c.size.(i) }
  | _ -> End { icount }

let iter c f =
  for i = 0 to c.n - 1 do
    f (get c i)
  done

(* The inverse of [Event.encode], one event per iteration straight into the
   columns.  The delta registers (icount, the shared effective-address
   register, sp, the block address) are locals, so the loop allocates
   nothing; the tag byte carries the icount delta in its high 5 bits, 31
   escaping to a ULEB delta. *)
let decode c s ~pos:p0 ~stop ~icount:ic0 n =
  reserve c n;
  let kind = c.kind and icount = c.icount and static = c.static in
  let ea = c.ea and size = c.size and sp = c.sp and dst = c.dst in
  let pos = ref p0 in
  let ic = ref ic0 and r_ea = ref 0 and r_sp = ref 0 and r_baddr = ref 0 in
  let calls = ref 0 in
  c.n <- 0;
  let i = ref 0 in
  while !i < n && !pos <= stop do
    let e = !i in
    let p = !pos in
    if p >= String.length s then raise (Leb.Truncated p);
    let b = Char.code (String.unsafe_get s p) in
    pos := p + 1;
    let d = b lsr 3 in
    ic := !ic + if d < 31 then d else Leb.read_u s pos;
    let tg = b land 7 in
    Bytes.set kind e (Char.unsafe_chr tg);
    icount.(e) <- !ic;
    (* integer match, so the dispatch compiles to a jump table *)
    (match tg with
    | 2 | 3 (* load, store *) ->
        static.(e) <- Leb.read_u s pos - 1;
        r_ea := !r_ea + Leb.read_s s pos;
        ea.(e) <- !r_ea;
        size.(e) <- Leb.read_u s pos;
        r_sp := !r_sp + Leb.read_s s pos;
        sp.(e) <- !r_sp
    | 0 (* rtn_entry *) ->
        static.(e) <- Leb.read_u s pos;
        r_sp := !r_sp + Leb.read_s s pos;
        sp.(e) <- !r_sp;
        incr calls
    | 1 (* ret *) ->
        r_sp := !r_sp + Leb.read_s s pos;
        sp.(e) <- !r_sp;
        incr calls
    | 4 (* block_copy: src against the ea register, dst against src *) ->
        static.(e) <- Leb.read_u s pos - 1;
        let src = !r_ea + Leb.read_s s pos in
        ea.(e) <- src;
        r_ea := src + Leb.read_s s pos;
        dst.(e) <- !r_ea;
        size.(e) <- Leb.read_u s pos;
        r_sp := !r_sp + Leb.read_s s pos;
        sp.(e) <- !r_sp
    | 5 (* prefetch *) ->
        r_ea := !r_ea + Leb.read_s s pos;
        ea.(e) <- !r_ea;
        size.(e) <- Leb.read_u s pos
    | 6 (* block_exec *) ->
        r_baddr := !r_baddr + Leb.read_s s pos;
        ea.(e) <- !r_baddr;
        size.(e) <- Leb.read_u s pos
    | _ (* end: [b land 7] is exhaustive over the 8 tags *) -> ());
    i := e + 1
  done;
  c.n <- !i;
  c.calls <- !calls;
  !pos

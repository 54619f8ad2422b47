module Leb = Tq_util.Leb128

type t =
  | Rtn_entry of { icount : int; routine : int; sp : int }
  | Ret of { icount : int; sp : int }
  | Load of { icount : int; static : int; ea : int; size : int; sp : int }
  | Store of { icount : int; static : int; ea : int; size : int; sp : int }
  | Block_copy of {
      icount : int;
      static : int;
      src : int;
      dst : int;
      len : int;
      sp : int;
    }
  | Prefetch of { icount : int; ea : int; size : int }
  | Block_exec of { icount : int; addr : int; n : int }
  | End of { icount : int }

type kind =
  | KRtn_entry
  | KRet
  | KLoad
  | KStore
  | KBlock_copy
  | KPrefetch
  | KBlock_exec
  | KEnd

let all_kinds =
  [ KRtn_entry; KRet; KLoad; KStore; KBlock_copy; KPrefetch; KBlock_exec; KEnd ]

let n_kinds = 8

let kind_tag = function
  | KRtn_entry -> 0
  | KRet -> 1
  | KLoad -> 2
  | KStore -> 3
  | KBlock_copy -> 4
  | KPrefetch -> 5
  | KBlock_exec -> 6
  | KEnd -> 7

let tag = function
  | Rtn_entry _ -> 0
  | Ret _ -> 1
  | Load _ -> 2
  | Store _ -> 3
  | Block_copy _ -> 4
  | Prefetch _ -> 5
  | Block_exec _ -> 6
  | End _ -> 7

let icount = function
  | Rtn_entry { icount; _ }
  | Ret { icount; _ }
  | Load { icount; _ }
  | Store { icount; _ }
  | Block_copy { icount; _ }
  | Prefetch { icount; _ }
  | Block_exec { icount; _ }
  | End { icount } ->
      icount

(* ---------- per-iteration numeric fields (v4 repeat chunks) ----------

   A repeat chunk stores a loop body once and reconstructs each iteration by
   advancing the body's "numeric" fields — the values that change per
   iteration (instruction counts, addresses, lengths, stack pointers).
   Everything else (constructor, [static], [routine], [size], [addr], [n])
   is "structural" and must be identical across iterations.  The canonical
   field order below is part of the wire format (docs/TRACE.md). *)

let num_fields = function
  | Rtn_entry _ -> 2 (* icount sp *)
  | Ret _ -> 2 (* icount sp *)
  | Load _ -> 3 (* icount ea sp *)
  | Store _ -> 3 (* icount ea sp *)
  | Block_copy _ -> 5 (* icount src dst len sp *)
  | Prefetch _ -> 2 (* icount ea *)
  | Block_exec _ -> 1 (* icount *)
  | End _ -> 1 (* icount *)

(* Write event [ev]'s numeric fields into [out] at [off] (canonical order).
   Returns the next free offset. *)
let read_num_fields ev out off =
  match ev with
  | Rtn_entry { icount; sp; _ } ->
      out.(off) <- icount;
      out.(off + 1) <- sp;
      off + 2
  | Ret { icount; sp } ->
      out.(off) <- icount;
      out.(off + 1) <- sp;
      off + 2
  | Load { icount; ea; sp; _ } | Store { icount; ea; sp; _ } ->
      out.(off) <- icount;
      out.(off + 1) <- ea;
      out.(off + 2) <- sp;
      off + 3
  | Block_copy { icount; src; dst; len; sp; _ } ->
      out.(off) <- icount;
      out.(off + 1) <- src;
      out.(off + 2) <- dst;
      out.(off + 3) <- len;
      out.(off + 4) <- sp;
      off + 5
  | Prefetch { icount; ea; _ } ->
      out.(off) <- icount;
      out.(off + 1) <- ea;
      off + 2
  | Block_exec { icount; _ } ->
      out.(off) <- icount;
      off + 1
  | End _ ->
      out.(off) <- icount ev;
      off + 1

(* Rebuild an event from a structural template and the numeric fields at
   [vals.(off ..)].  Inverse of [read_num_fields]. *)
let with_num_fields ev vals off =
  match ev with
  | Rtn_entry { routine; _ } ->
      Rtn_entry { icount = vals.(off); routine; sp = vals.(off + 1) }
  | Ret _ -> Ret { icount = vals.(off); sp = vals.(off + 1) }
  | Load { static; size; _ } ->
      Load
        {
          icount = vals.(off);
          static;
          ea = vals.(off + 1);
          size;
          sp = vals.(off + 2);
        }
  | Store { static; size; _ } ->
      Store
        {
          icount = vals.(off);
          static;
          ea = vals.(off + 1);
          size;
          sp = vals.(off + 2);
        }
  | Block_copy { static; _ } ->
      Block_copy
        {
          icount = vals.(off);
          static;
          src = vals.(off + 1);
          dst = vals.(off + 2);
          len = vals.(off + 3);
          sp = vals.(off + 4);
        }
  | Prefetch { size; _ } ->
      Prefetch { icount = vals.(off); ea = vals.(off + 1); size }
  | Block_exec { addr; n; _ } -> Block_exec { icount = vals.(off); addr; n }
  | End _ -> End { icount = vals.(off) }

(* Do two events agree on everything except their numeric fields?  The
   matching predicate of the record-time repetition detector. *)
let struct_same a b =
  match (a, b) with
  | Rtn_entry { routine = r1; _ }, Rtn_entry { routine = r2; _ } -> r1 = r2
  | Ret _, Ret _ -> true
  | Load { static = st1; size = sz1; _ }, Load { static = st2; size = sz2; _ }
  | Store { static = st1; size = sz1; _ }, Store { static = st2; size = sz2; _ }
    ->
      st1 = st2 && sz1 = sz2
  | Block_copy { static = st1; _ }, Block_copy { static = st2; _ } -> st1 = st2
  | Prefetch { size = sz1; _ }, Prefetch { size = sz2; _ } -> sz1 = sz2
  | Block_exec { addr = a1; n = n1; _ }, Block_exec { addr = a2; n = n2; _ } ->
      a1 = a2 && n1 = n2
  | End _, End _ -> true
  | _ -> false

let pp ppf = function
  | Rtn_entry { icount; routine; sp } ->
      Format.fprintf ppf "@%d rtn-entry r%d sp=0x%x" icount routine sp
  | Ret { icount; sp } -> Format.fprintf ppf "@%d ret sp=0x%x" icount sp
  | Load { icount; static; ea; size; sp } ->
      Format.fprintf ppf "@%d load r%d 0x%x+%d sp=0x%x" icount static ea size sp
  | Store { icount; static; ea; size; sp } ->
      Format.fprintf ppf "@%d store r%d 0x%x+%d sp=0x%x" icount static ea size sp
  | Block_copy { icount; static; src; dst; len; sp } ->
      Format.fprintf ppf "@%d movs r%d 0x%x->0x%x+%d sp=0x%x" icount static src
        dst len sp
  | Prefetch { icount; ea; size } ->
      Format.fprintf ppf "@%d prefetch 0x%x+%d" icount ea size
  | Block_exec { icount; addr; n } ->
      Format.fprintf ppf "@%d block 0x%x n=%d" icount addr n
  | End { icount } -> Format.fprintf ppf "@%d end" icount

(* Delta state: [icount] is delta-encoded (monotone, unsigned); effective
   addresses share one previous-address register, the stack pointer and the
   block-dispatch address each their own — consecutive events of the same
   kind tend to be near each other, so the SLEB deltas stay short. *)
type state = {
  mutable s_icount : int;
  mutable s_ea : int;
  mutable s_sp : int;
  mutable s_baddr : int;
}

let fresh_state ?(icount = 0) () =
  { s_icount = icount; s_ea = 0; s_sp = 0; s_baddr = 0 }

let copy_state st = { st with s_icount = st.s_icount }

let tag_rtn_entry = 0
let tag_ret = 1
let tag_load = 2
let tag_store = 3
let tag_block_copy = 4
let tag_prefetch = 5
let tag_block_exec = 6
let tag_end = 7

(* The tag byte carries the icount delta in its high 5 bits: consecutive
   events are a few instructions apart, so the delta almost always fits
   inline and the common case costs one byte and zero varint reads.  The
   escape value 31 means "a full ULEB delta follows". *)
let icount_escape = 31

let put_tag st buf tag icount =
  if icount < st.s_icount then
    invalid_arg
      (Printf.sprintf "Trace.Event.encode: icount regressed (%d after %d)"
         icount st.s_icount);
  let delta = icount - st.s_icount in
  if delta < icount_escape then Buffer.add_uint8 buf (tag lor (delta lsl 3))
  else begin
    Buffer.add_uint8 buf (tag lor (icount_escape lsl 3));
    Leb.write_u buf delta
  end;
  st.s_icount <- icount

let put_sp st buf sp =
  Leb.write_s buf (sp - st.s_sp);
  st.s_sp <- sp

let put_ea st buf ea =
  Leb.write_s buf (ea - st.s_ea);
  st.s_ea <- ea

let encode st buf ev =
  match ev with
  | Rtn_entry { icount; routine; sp } ->
      put_tag st buf tag_rtn_entry icount;
      Leb.write_u buf routine;
      put_sp st buf sp
  | Ret { icount; sp } ->
      put_tag st buf tag_ret icount;
      put_sp st buf sp
  | Load { icount; static; ea; size; sp } ->
      put_tag st buf tag_load icount;
      Leb.write_u buf (static + 1);
      put_ea st buf ea;
      Leb.write_u buf size;
      put_sp st buf sp
  | Store { icount; static; ea; size; sp } ->
      put_tag st buf tag_store icount;
      Leb.write_u buf (static + 1);
      put_ea st buf ea;
      Leb.write_u buf size;
      put_sp st buf sp
  | Block_copy { icount; static; src; dst; len; sp } ->
      put_tag st buf tag_block_copy icount;
      Leb.write_u buf (static + 1);
      Leb.write_s buf (src - st.s_ea);
      Leb.write_s buf (dst - src);
      st.s_ea <- dst;
      Leb.write_u buf len;
      put_sp st buf sp
  | Prefetch { icount; ea; size } ->
      put_tag st buf tag_prefetch icount;
      put_ea st buf ea;
      Leb.write_u buf size
  | Block_exec { icount; addr; n } ->
      put_tag st buf tag_block_exec icount;
      Leb.write_s buf (addr - st.s_baddr);
      st.s_baddr <- addr;
      Leb.write_u buf n
  | End { icount } -> put_tag st buf tag_end icount

let min_encoded_bytes = function
  | End _ -> 1
  | Ret _ -> 2
  | Rtn_entry _ | Prefetch _ | Block_exec _ -> 3
  | Load _ | Store _ -> 5
  | Block_copy _ -> 6

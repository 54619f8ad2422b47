module Leb = Tq_util.Leb128
module Writer = Tq_trace.Writer

type mutation =
  | Bit_flip of { offset : int; bit : int }
  | Truncate of { len : int }
  | Duplicate_chunk of { index : int }
  | Drop_chunk of { index : int }
  | Corrupt_index of { offset : int; bit : int }
  | Corrupt_trailer of { offset : int; bit : int }
  | Strip_tail
  | Flip_kind of { index : int }
  | Corrupt_repeat of { offset : int; bit : int }

let describe = function
  | Bit_flip { offset; bit } -> Printf.sprintf "bit-flip @%d.%d" offset bit
  | Truncate { len } -> Printf.sprintf "truncate to %d bytes" len
  | Duplicate_chunk { index } -> Printf.sprintf "duplicate chunk %d" index
  | Drop_chunk { index } -> Printf.sprintf "drop chunk %d" index
  | Corrupt_index { offset; bit } ->
      Printf.sprintf "corrupt index @%d.%d" offset bit
  | Corrupt_trailer { offset; bit } ->
      Printf.sprintf "corrupt trailer @%d.%d" offset bit
  | Strip_tail -> "strip index+trailer (unfinalized .tmp shape)"
  | Flip_kind { index } ->
      Printf.sprintf "flip chunk %d kind byte (plain <-> repeat)" index
  | Corrupt_repeat { offset; bit } ->
      Printf.sprintf "corrupt repeat chunk @%d.%d" offset bit

let slug = function
  | Bit_flip _ -> "bit-flip"
  | Truncate _ -> "truncate"
  | Duplicate_chunk _ -> "dup-chunk"
  | Drop_chunk _ -> "drop-chunk"
  | Corrupt_index _ -> "corrupt-index"
  | Corrupt_trailer _ -> "corrupt-trailer"
  | Strip_tail -> "strip-tail"
  | Flip_kind _ -> "flip-kind"
  | Corrupt_repeat _ -> "corrupt-repeat"

(* ---------- container layout ----------

   Faultgen parses the v3/v4 container with its own minimal scanner (chunk
   headers are self-delimiting) rather than through [Reader] — the module
   exists to test the reader, so it must not trust it. *)

type layout = {
  file_len : int;
  v4 : bool;
  chunk_spans : (int * int) array;  (* (offset, end) of each chunk *)
  chunk_kinds : char array;  (* 0xA7 plain / 0xA8 repeat / 0xA9 body def *)
  index_offset : int;  (* also: end of the chunk region *)
}

let bad fmt = Printf.ksprintf invalid_arg fmt

let layout raw =
  let len = String.length raw in
  let mlen = String.length Writer.magic in
  let v4 =
    len >= mlen && String.sub raw 0 mlen = Writer.magic_v4
  in
  if len < Writer.header_bytes
     || (String.sub raw 0 mlen <> Writer.magic && not v4)
  then bad "Faultgen: not a v3/v4 trace container";
  let tlen = String.length Writer.trailer_magic in
  if len < Writer.header_bytes + 8 + tlen
     || String.sub raw (len - tlen) tlen <> Writer.trailer_magic
  then bad "Faultgen: missing trailer (mutate only intact containers)";
  let index_offset =
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code raw.[len - tlen - 8 + i]
    done;
    !v
  in
  if index_offset < Writer.header_bytes || index_offset > len - tlen - 8 then
    bad "Faultgen: index offset out of range";
  let spans = ref [] and kinds = ref [] in
  let pos = ref Writer.header_bytes in
  (try
     while !pos < index_offset do
       let start = !pos in
       let kind = raw.[!pos] in
       if
         kind <> Writer.chunk_magic
         && not
              (v4
              && (kind = Writer.repeat_magic || kind = Writer.body_magic))
       then bad "Faultgen: chunk magic missing at %d" !pos;
       incr pos;
       let _n = Leb.read_u raw pos in
       let _fic = Leb.read_u raw pos in
       let plen = Leb.read_u raw pos in
       pos := !pos + 4 + plen;
       if !pos > index_offset then
         bad "Faultgen: chunk at %d overruns the chunk region" start;
       spans := (start, !pos) :: !spans;
       kinds := kind :: !kinds
     done
   with Leb.Truncated p -> bad "Faultgen: truncated chunk header at %d" p);
  {
    file_len = len;
    v4;
    chunk_spans = Array.of_list (List.rev !spans);
    chunk_kinds = Array.of_list (List.rev !kinds);
    index_offset;
  }

(* ---------- mutations ---------- *)

let flip raw offset bit =
  if offset < 0 || offset >= String.length raw || bit < 0 || bit > 7 then
    bad "Faultgen: bit-flip out of range (%d.%d)" offset bit;
  let b = Bytes.of_string raw in
  Bytes.set b offset (Char.chr (Char.code (Bytes.get b offset) lxor (1 lsl bit)));
  Bytes.to_string b

let apply mut raw =
  let lay () = layout raw in
  match mut with
  | Bit_flip { offset; bit } -> flip raw offset bit
  | Truncate { len } ->
      if len < 0 || len > String.length raw then
        bad "Faultgen: truncate length %d out of range" len;
      String.sub raw 0 len
  | Duplicate_chunk { index } ->
      let l = lay () in
      if index < 0 || index >= Array.length l.chunk_spans then
        bad "Faultgen: no chunk %d" index;
      let s, e = l.chunk_spans.(index) in
      String.sub raw 0 e ^ String.sub raw s (e - s)
      ^ String.sub raw e (l.file_len - e)
  | Drop_chunk { index } ->
      let l = lay () in
      if index < 0 || index >= Array.length l.chunk_spans then
        bad "Faultgen: no chunk %d" index;
      let s, e = l.chunk_spans.(index) in
      String.sub raw 0 s ^ String.sub raw e (l.file_len - e)
  | Corrupt_index { offset; bit } ->
      let l = lay () in
      let tail = l.file_len - String.length Writer.trailer_magic - 8 in
      if offset < l.index_offset || offset >= tail then
        bad "Faultgen: offset %d outside the index region [%d, %d)" offset
          l.index_offset tail;
      flip raw offset bit
  | Corrupt_trailer { offset; bit } ->
      let l = lay () in
      let tail = l.file_len - String.length Writer.trailer_magic - 8 in
      if offset < tail || offset >= l.file_len then
        bad "Faultgen: offset %d outside the trailer region [%d, %d)" offset
          tail l.file_len;
      flip raw offset bit
  | Strip_tail ->
      let l = lay () in
      String.sub raw 0 l.index_offset
  | Flip_kind { index } ->
      let l = lay () in
      if index < 0 || index >= Array.length l.chunk_spans then
        bad "Faultgen: no chunk %d" index;
      let s, _ = l.chunk_spans.(index) in
      let flipped =
        if l.chunk_kinds.(index) = Writer.chunk_magic then Writer.repeat_magic
        else Writer.chunk_magic
      in
      let b = Bytes.of_string raw in
      Bytes.set b s flipped;
      Bytes.to_string b
  | Corrupt_repeat { offset; bit } ->
      let l = lay () in
      let in_repeat =
        Array.exists2
          (fun (s, e) kind ->
            (kind = Writer.repeat_magic || kind = Writer.body_magic)
            && offset > s && offset < e)
          l.chunk_spans l.chunk_kinds
      in
      if not in_repeat then
        bad "Faultgen: offset %d is not inside a repeat or body-def chunk"
          offset;
      flip raw offset bit

(* ---------- seeded deterministic generation ---------- *)

type rng = { mutable s : int }

let rng seed = { s = (seed lxor 0x5DEECE66D) land 0x3FFFFFFFFFFF }

let next r =
  r.s <- (r.s * 0x5DEECE66D + 0xB) land 0x3FFFFFFFFFFF;
  r.s lsr 17

let pick r bound = if bound <= 0 then 0 else next r mod bound

let random ~seed raw =
  let l = layout raw in
  let r = rng seed in
  let n_chunks = Array.length l.chunk_spans in
  let tail = l.file_len - String.length Writer.trailer_magic - 8 in
  let index_len = tail - l.index_offset in
  let repeat_idx =
    Array.to_list
      (Array.mapi (fun i k -> (i, k)) l.chunk_kinds)
    |> List.filter_map (fun (i, k) ->
           if k = Writer.repeat_magic || k = Writer.body_magic then Some i
           else None)
    |> Array.of_list
  in
  (* v3 containers keep the historic 7-way draw (seeded sweeps of old traces
     stay byte-reproducible); v4 adds the two kind-aware mutations *)
  match pick r (if l.v4 then 9 else 7) with
  | 0 -> Bit_flip { offset = pick r l.file_len; bit = pick r 8 }
  | 1 -> Truncate { len = pick r l.file_len }
  | 2 when n_chunks > 0 -> Duplicate_chunk { index = pick r n_chunks }
  | 3 when n_chunks > 0 -> Drop_chunk { index = pick r n_chunks }
  | 4 when index_len > 0 ->
      Corrupt_index { offset = l.index_offset + pick r index_len; bit = pick r 8 }
  | 5 -> Corrupt_trailer { offset = tail + pick r (l.file_len - tail); bit = pick r 8 }
  | 6 -> Strip_tail
  | 7 when n_chunks > 0 -> Flip_kind { index = pick r n_chunks }
  | 8 when Array.length repeat_idx > 0 ->
      let s, e = l.chunk_spans.(repeat_idx.(pick r (Array.length repeat_idx))) in
      Corrupt_repeat { offset = s + 1 + pick r (e - s - 1); bit = pick r 8 }
  | _ -> Truncate { len = pick r l.file_len } (* fallback when guards fail *)

let sweep ~seed ~count raw =
  List.init count (fun i ->
      let mut = random ~seed:(seed + (i * 0x9E3779B9)) raw in
      (mut, apply mut raw))

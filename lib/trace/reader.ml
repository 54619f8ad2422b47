module Leb = Tq_util.Leb128
module Crc32 = Tq_util.Crc32

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

type ckind = Plain | Repeat | Body

type chunk = {
  c_offset : int;
  c_first_icount : int;
  c_events : int;  (* raw (decoded) events — what the index records *)
  c_kind : ckind;
  c_stored : int;
      (* physically encoded events: = c_events for plain, the body length
         for a body-def, 0 for a repeat (its body is stored in the def) *)
}

type mode = Strict | Salvage

type salvage = {
  salvaged_chunks : int;
  dropped_chunks : int;
  dropped_bytes : int;
  reason : string;
}

type t = {
  raw : string;
  version : int;  (* 3 or 4 *)
  chunks : chunk array;
  verified : bool array;
      (* verified.(i): chunk i's CRC has already matched once in this
         process, so later passes skip the digest.  Plain [bool array], not a
         bitmap: concurrent replay domains store [true] without a
         read-modify-write, so the worst a race can do is re-verify a chunk,
         never un-verify one. *)
  n_events : int;
  last_icount : int;
  fingerprint : int64;
  salvage : salvage option;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let leb_u s pos =
  try Leb.read_u s pos with Leb.Truncated p -> fail "truncated LEB128 at %d" p

let leb_s s pos =
  try Leb.read_s s pos with Leb.Truncated p -> fail "truncated LEB128 at %d" p

let le32 raw pos =
  if !pos + 4 > String.length raw then fail "truncated CRC at %d" !pos;
  let v =
    Char.code raw.[!pos]
    lor (Char.code raw.[!pos + 1] lsl 8)
    lor (Char.code raw.[!pos + 2] lsl 16)
    lor (Char.code raw.[!pos + 3] lsl 24)
  in
  pos := !pos + 4;
  v

let le64 raw pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code raw.[pos + i]))
  done;
  !v

(* A chunk's fixed part: kind byte, the three self-delimiting header fields
   (the "meta" the CRC covers, starting right after the kind byte), the
   stored CRC and the payload bounds. *)
type header = {
  kind : ckind;
  n : int;
  first_icount : int;
  meta_len : int;
  crc : int;
  pstart : int;
  plen : int;
}

(* Parse a chunk's fixed part at [offset].  [v4] admits the repeat- and
   body-def-chunk kind bytes.  Raises [Format_error] on anything malformed. *)
let parse_chunk ~v4 raw offset =
  let len = String.length raw in
  if offset >= len then fail "chunk at %d: bad chunk magic" offset;
  let kind =
    if raw.[offset] = Writer.chunk_magic then Plain
    else if v4 && raw.[offset] = Writer.repeat_magic then Repeat
    else if v4 && raw.[offset] = Writer.body_magic then Body
    else fail "chunk at %d: bad chunk magic" offset
  in
  let pos = ref (offset + 1) in
  let n = leb_u raw pos in
  let first_icount = leb_u raw pos in
  let plen = leb_u raw pos in
  let meta_len = !pos - offset - 1 in
  if n < 0 || first_icount < 0 || plen < 0 then
    fail "chunk at %d: negative header field" offset;
  let crc = le32 raw pos in
  if plen > len - !pos then fail "chunk at %d overruns file" offset;
  { kind; n; first_icount; meta_len; crc; pstart = !pos; plen }

(* v4 chunk CRCs cover the kind byte too (a flipped kind must not verify as
   a chunk of the other kind); v3 CRCs start at the header fields. *)
let check_crc ~v4 raw offset h =
  let computed = if v4 then Crc32.digest ~pos:offset ~len:1 raw else 0 in
  let computed = Crc32.digest ~crc:computed ~pos:(offset + 1) ~len:h.meta_len raw in
  let computed = Crc32.digest ~crc:computed ~pos:h.pstart ~len:h.plen raw in
  if computed <> h.crc then
    fail "chunk at %d: CRC mismatch (stored %08x, computed %08x)" offset h.crc
      computed

let check_caps offset ~b ~iters =
  if b > Squash.max_body || iters > Squash.max_raw || b * iters > Squash.max_raw
  then
    fail "chunk at %d: %d x %d events exceeds the caps (B <= %d, B x iters <= %d)"
      offset b iters Squash.max_body Squash.max_raw

(* Peek a repeat chunk's fixed fields at the head of its payload — body
   event count, iteration count, body-def reference (the def chunk's file
   offset) and the def's payload CRC — validating the counts against the
   header's raw count and the squasher's caps.  A reference must point
   strictly backwards: the writer always emits a def before any repeat that
   uses it. *)
let repeat_meta raw ~offset h =
  let pos = ref h.pstart in
  let b = leb_u raw pos in
  let iters = leb_u raw pos in
  let bref = leb_u raw pos in
  let bcrc = leb_u raw pos in
  check_caps offset ~b ~iters;
  if b < 1 || iters < 1 || b * iters <> h.n then
    fail "chunk at %d: inconsistent repeat counts (%d x %d <> %d)" offset b
      iters h.n;
  if !pos - h.pstart > h.plen then
    fail "chunk at %d: truncated repeat header" offset;
  if bref >= offset then fail "chunk at %d: forward body reference %d" offset bref;
  (b, iters, bref, bcrc, !pos)

(* The one chunk classifier, shared by the strict and the salvage load:
   parse the chunk at [offset] and return its table entry and its header.
   Every per-chunk count rule lives here, so it holds in both modes.  Every
   encoded event costs at least one byte, so a plain chunk holds
   1 <= n_events <= payload_len events and a body-def 1 <= B <= payload_len
   body events; a body-def claims no stream events; repeats and defs keep to
   the squasher's caps ({!Squash.max_body}, {!Squash.max_raw}). *)
let classify ~v4 raw offset =
  let h = parse_chunk ~v4 raw offset in
  let c_events, c_stored =
    match h.kind with
    | Plain ->
        if h.n < 1 || h.n > h.plen then
          fail "chunk at %d: %d events in a %d-byte payload" offset h.n h.plen;
        (h.n, h.n)
    | Body ->
        if h.n <> 0 then fail "chunk at %d: body-def claims %d events" offset h.n;
        let b = leb_u raw (ref h.pstart) in
        if b < 1 || b > h.plen then
          fail "chunk at %d: inconsistent body-def event count %d" offset b;
        check_caps offset ~b ~iters:1;
        (0, b)
    | Repeat ->
        ignore (repeat_meta raw ~offset h);
        (h.n, 0)
  in
  ( {
      c_offset = offset;
      c_first_icount = h.first_icount;
      c_events;
      c_kind = h.kind;
      c_stored;
    },
    h )

(* The one body-reference check, over the chunks accepted so far in file
   order (defs always precede their users): [defs] maps each body-def's
   offset to its payload CRC and body length, and a repeat must reference a
   def whose CRC and length match what it recorded, so a reference can
   never silently resolve to the wrong body. *)
let check_body_ref defs raw c h =
  match c.c_kind with
  | Plain -> ()
  | Body ->
      Hashtbl.replace defs c.c_offset
        (Crc32.digest ~pos:h.pstart ~len:h.plen raw, c.c_stored)
  | Repeat -> (
      let b, _, bref, bcrc, _ = repeat_meta raw ~offset:c.c_offset h in
      match Hashtbl.find_opt defs bref with
      | Some (pcrc, db) when pcrc = bcrc && db = b -> ()
      | Some _ ->
          fail "chunk at %d: body reference %d does not match its def"
            c.c_offset bref
      | None -> fail "chunk at %d: dangling body reference %d" c.c_offset bref)

(* Binary search the (offset-sorted) chunk table for the chunk starting at
   exactly [off]. *)
let find_chunk_at chunks off =
  let lo = ref 0 and hi = ref (Array.length chunks - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = chunks.(mid) in
    if c.c_offset = off then found := mid
    else if c.c_offset < off then lo := mid + 1
    else hi := mid - 1
  done;
  if !found >= 0 then Some !found else None

let read_u8 raw pos limit =
  if !pos >= limit then fail "truncated field table at %d" !pos;
  let v = Char.code raw.[!pos] in
  incr pos;
  v

(* Decode one repeat chunk into its record: the body decodes once from the
   body-def chunk it references (re-seeded at this repeat's [first_icount]
   — the def's blob is icount-relative precisely so many repeats can share
   it) and the field tables are read.  The record is what replay hands
   the tools, which walk it ({!Squash.fields}) or take it in closed form
   and pay no per-event decoding; {!iter} and {!chunk_events} rebuild its
   events with {!Squash.expand}.  The reference was cross-checked against the
   def's payload CRC at load time; here every structural bound is
   re-validated, before the record reaches any consumer. *)
let decode_repeat t ~offset h =
  let raw = t.raw in
  let payload_end = h.pstart + h.plen in
  let b, iters, bref, _bcrc, tables_start = repeat_meta raw ~offset h in
  let def_idx =
    match find_chunk_at t.chunks bref with
    | Some i when t.chunks.(i).c_kind = Body -> i
    | _ -> fail "chunk at %d: dangling body reference %d" offset bref
  in
  let d = parse_chunk ~v4:true raw bref in
  if not t.verified.(def_idx) then begin
    check_crc ~v4:true raw bref d;
    t.verified.(def_idx) <- true
  end;
  let dpos = ref d.pstart in
  let db = leb_u raw dpos in
  if db <> b then
    fail "chunk at %d: body length disagrees with its def at %d" offset bref;
  let st = Event.fresh_state ~icount:h.first_icount () in
  let body = Array.make b (Event.End { icount = 0 }) in
  for k = 0 to b - 1 do
    match Event.decode st raw dpos with
    | ev -> body.(k) <- ev
    | exception Leb.Truncated p -> fail "truncated event at %d" p
    | exception Failure msg -> fail "%s" msg
  done;
  if !dpos <> d.pstart + d.plen then fail "chunk at %d: body overruns its def" bref;
  let nf = Array.fold_left (fun n ev -> n + Event.num_fields ev) 0 body in
  let pos = ref tables_start in
  let literal = Array.make (max nf 1) false in
  let stride = Array.make (max nf 1) 0 in
  let lits = Array.make (max nf 1) [||] in
  (* literal-mode bitmap: ceil(nf/8) bytes, bit f set = field f literal *)
  for f = 0 to nf - 1 do
    if f mod 8 = 0 then begin
      let byte = read_u8 raw pos payload_end in
      for bit = 0 to min 7 (nf - 1 - f) do
        literal.(f + bit) <- byte land (1 lsl bit) <> 0
      done
    end
  done;
  for f = 0 to nf - 1 do
    if literal.(f) then begin
      (* each literal delta costs at least one byte, so a valid table
         cannot claim more iterations than the payload holds *)
      if iters - 1 > h.plen then
        fail "chunk at %d: literal table overruns payload" offset;
      let a = Array.make (max (iters - 1) 1) 0 in
      for i = 0 to iters - 2 do
        a.(i) <- leb_s raw pos
      done;
      lits.(f) <- a
    end
    else stride.(f) <- leb_s raw pos
  done;
  if !pos <> payload_end then
    fail "chunk at %d: payload length mismatch" offset;
  { Squash.body; iters; literal; stride; lits }

(* Open chunk [idx] for decoding: its header, checked against the index,
   and its CRC, verified before any of its events are decoded, so a
   corrupt payload surfaces as [Format_error], never as garbage events.
   The verified bit of a chunk that passes is set, and a chunk whose bit
   is set skips the digest, so each chunk pays the CRC at most once per
   process no matter how many replay passes or domains walk the trace. *)
let open_chunk t idx =
  let c = t.chunks.(idx) in
  let v4 = t.version = 4 in
  let h = parse_chunk ~v4 t.raw c.c_offset in
  if h.n <> c.c_events || h.first_icount <> c.c_first_icount then
    fail "chunk at %d: header disagrees with index" c.c_offset;
  if not t.verified.(idx) then begin
    check_crc ~v4 t.raw c.c_offset h;
    t.verified.(idx) <- true
  end;
  (c, h)

(* Decode plain chunk [c]'s events into [sink]. *)
let iter_plain t c h sink =
  let payload_end = h.pstart + h.plen in
  let pos = ref h.pstart in
  let st = Event.fresh_state ~icount:h.first_icount () in
  (* only decode failures are container corruption; an exception raised by
     the sink itself (a replayed tool crashing) must pass through untouched
     so replay supervision can attribute it to the tool, not the trace *)
  for _ = 1 to h.n do
    match Event.decode st t.raw pos with
    | ev ->
        if !pos > payload_end then
          fail "chunk at %d: event overruns the payload" c.c_offset;
        sink ev
    | exception Leb.Truncated p -> fail "truncated event at %d" p
    | exception Failure msg -> fail "%s" msg
  done;
  if !pos <> payload_end then
    fail "chunk at %d: payload length mismatch" c.c_offset

(* Chunk [idx]'s events into [sink], a repeat chunk's expanded. *)
let iter_chunk t idx sink =
  let c, h = open_chunk t idx in
  match h.kind with
  | Body -> ()  (* referenced storage, not stream events *)
  | Repeat -> Squash.expand (decode_repeat t ~offset:c.c_offset h) sink
  | Plain -> iter_plain t c h sink

(* The trailer's 8-byte LE index offset, just before the trailer magic. *)
let trailer_index_offset raw =
  let tlen = String.length Writer.trailer_magic in
  Int64.to_int (le64 raw (String.length raw - tlen - 8))

(* ---------- strict load ---------- *)

(* The index must list chunks that exactly tile the chunk region — a
   tampered index cannot silently select, duplicate or skip chunks — and
   every chunk's header must agree with its index entry.  Each chunk is
   classified and its body reference checked as the walk reaches it. *)
let strict_index ~v4 raw =
  let hlen = Writer.header_bytes in
  let tlen = String.length Writer.trailer_magic in
  let len = String.length raw in
  if len < hlen + 8 + tlen
     || String.sub raw (len - tlen) tlen <> Writer.trailer_magic
  then fail "bad trailer (truncated recording? try salvage)";
  let index_offset = trailer_index_offset raw in
  if index_offset < hlen || index_offset > len - tlen - 8 then
    fail "index offset %d out of range" index_offset;
  let pos = ref index_offset in
  let n_chunks = leb_u raw pos in
  (* a corrupted count must fail before Array.init allocates a word per
     claimed chunk: each index entry is three LEB128 fields, at least 3
     bytes, between the count and the trailer *)
  if n_chunks < 0 || n_chunks > (len - tlen - 8 - !pos) / 3 then
    fail "chunk count %d out of range" n_chunks;
  let off = ref 0 and ic = ref 0 and expect = ref hlen in
  let defs = Hashtbl.create 16 in
  let chunks =
    Array.init n_chunks (fun _ ->
        off := !off + leb_u raw pos;
        ic := !ic + leb_u raw pos;
        let n = leb_u raw pos in
        if !off < hlen || !off >= index_offset then
          fail "chunk offset %d out of range" !off;
        if !off <> !expect then
          fail "index does not tile the chunk region (chunk at %d, expected %d)"
            !off !expect;
        let c, h = classify ~v4 raw !off in
        if n <> c.c_events || !ic <> c.c_first_icount then
          fail "chunk at %d: header disagrees with index" !off;
        check_body_ref defs raw c h;
        expect := h.pstart + h.plen;
        c)
  in
  if !expect <> index_offset then
    fail "chunk region ends at %d but index starts at %d" !expect index_offset;
  chunks

(* ---------- salvage load ---------- *)

(* Does the byte range [gap_start, len) hold exactly the index + trailer of
   an intact container?  Then the trailing "gap" of a clean forward scan is
   structure, not damage. *)
let tail_is_index raw gap_start =
  let tlen = String.length Writer.trailer_magic in
  let len = String.length raw in
  len - gap_start >= 8 + tlen
  && String.sub raw (len - tlen) tlen = Writer.trailer_magic
  && trailer_index_offset raw = gap_start

(* Rebuild the chunk table by scanning forward from the header, keeping
   every chunk the classifier accepts whose CRC verifies — with probability
   1 - 2^-32 a chunk the writer actually flushed. *)
let salvage_scan ~v4 raw =
  let len = String.length raw in
  let chunks = ref [] in
  let defs = Hashtbl.create 16 in
  let dropped_chunks = ref 0 and dropped_bytes = ref 0 in
  let last_span = ref None in  (* (offset, end) of the last accepted chunk *)
  let gap_start = ref (-1) in
  let note_gap upto =
    if !gap_start >= 0 then begin
      incr dropped_chunks;
      dropped_bytes := !dropped_bytes + (upto - !gap_start);
      gap_start := -1
    end
  in
  let pos = ref Writer.header_bytes in
  while !pos < len do
    match
      let c, h = classify ~v4 raw !pos in
      check_crc ~v4 raw !pos h;
      (c, h)
    with
    | c, h ->
        let cend = h.pstart + h.plen in
        note_gap !pos;
        (* a duplicated chunk is byte-identical to its predecessor; dropping
           the copy keeps the salvaged events a subsequence of the original *)
        let dup =
          match !last_span with
          | Some (poff, pend) ->
              cend - !pos = pend - poff
              && String.sub raw poff (pend - poff) = String.sub raw !pos (cend - !pos)
          | None -> false
        in
        (if not dup then
           match check_body_ref defs raw c h with
           | () -> chunks := c :: !chunks
           | exception Format_error _ ->
               (* a repeat is only as good as its body-def: if the def fell
                  inside a corrupt region (or the surviving bytes at the
                  referenced offset no longer match the recorded payload
                  CRC), the repeat cannot be expanded and is dropped like
                  any other damaged region.  Orphaned defs are kept — they
                  decode to no events and cost nothing. *)
               incr dropped_chunks;
               dropped_bytes := !dropped_bytes + (cend - !pos));
        last_span := Some (!pos, cend);
        pos := cend
    | exception Format_error _ ->
        (* resync: skip forward one byte at a time until the next verifying
           chunk; everything skipped is one dropped region *)
        if !gap_start < 0 then gap_start := !pos;
        incr pos
  done;
  let intact_tail = !gap_start >= 0 && tail_is_index raw !gap_start in
  if intact_tail then gap_start := -1;
  note_gap len;
  let chunks = Array.of_list (List.rev !chunks) in
  let reason =
    if !dropped_chunks = 0 then
      if intact_tail then "all chunks verified; container intact"
      else
        "all chunks verified; trailer/index missing (recording not \
         finalized?)"
    else
      Printf.sprintf
        "%d corrupt or unexpandable region(s) totalling %d byte(s) dropped \
         by the forward scan"
        !dropped_chunks !dropped_bytes
  in
  ( chunks,
    {
      salvaged_chunks = Array.length chunks;
      dropped_chunks = !dropped_chunks;
      dropped_bytes = !dropped_bytes;
      reason;
    } )

let of_string ?(mode = Strict) raw =
  let mlen = String.length Writer.magic in
  if String.length raw < mlen then fail "bad magic (file shorter than a header)";
  let v4 =
    match String.sub raw 0 mlen with
    | m when m = Writer.magic -> false
    | m when m = Writer.magic_v4 -> true
    | _ -> fail "bad magic (not a tquad trace, or an unknown container version)"
  in
  let chunks, salvage =
    match mode with
    | Strict -> (strict_index ~v4 raw, None)
    | Salvage ->
        if String.length raw < Writer.header_bytes then fail "truncated header";
        let chunks, info = salvage_scan ~v4 raw in
        (chunks, Some info)
  in
  let t =
    {
      raw;
      version = (if v4 then 4 else 3);
      chunks;
      (* the forward scan only kept CRC-verified chunks, so a salvaged
         reader's chunks are all born verified *)
      verified = Array.make (Array.length chunks) (mode = Salvage);
      n_events = Array.fold_left (fun acc c -> acc + c.c_events) 0 chunks;
      last_icount = 0;
      fingerprint = le64 raw mlen;
      salvage;
    }
  in
  (* the last chunk with events — body-def chunks decode to none *)
  let li = ref (Array.length chunks - 1) in
  while !li >= 0 && chunks.(!li).c_events = 0 do
    decr li
  done;
  if !li < 0 then t
  else begin
    let last_icount = ref 0 in
    iter_chunk t !li (fun ev -> last_icount := Event.icount ev);
    { t with last_icount = !last_icount }
  end

let load ?mode path = of_string ?mode (read_file path)

let iter t sink =
  for i = 0 to Array.length t.chunks - 1 do
    iter_chunk t i sink
  done

let crc_check t =
  let v4 = t.version = 4 in
  Array.iteri
    (fun idx c ->
      if not t.verified.(idx) then begin
        check_crc ~v4 t.raw c.c_offset (parse_chunk ~v4 t.raw c.c_offset);
        t.verified.(idx) <- true
      end)
    t.chunks;
  Array.length t.chunks

let verified_chunks t =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.verified

type decoded = Events of Event.t array | Record of Squash.repeat

(* The [n] events [feed] passes to its sink, as an array. *)
let collect n feed =
  let out = Array.make n (Event.End { icount = 0 }) in
  let k = ref 0 in
  feed (fun ev ->
      out.(!k) <- ev;
      incr k);
  out

let chunk_event_count t idx =
  if idx < 0 || idx >= Array.length t.chunks then
    invalid_arg "Trace.Reader.chunk_event_count: chunk index out of range";
  t.chunks.(idx).c_events

(* Decode one chunk — the replay pipeline's slot and the serve layer's
   chunk cache entry.  The chunk is CRC-verified first (at most once per
   process, via the verified bit all other passes share) and a repeat
   chunk's record passes every structural check of [decode_repeat], so a
   returned chunk is always verified and well-formed.  A repeat chunk
   stays its record, which its consumers take whole. *)
let chunk t idx =
  if idx < 0 || idx >= Array.length t.chunks then
    invalid_arg "Trace.Reader.chunk: chunk index out of range";
  let c, h = open_chunk t idx in
  match h.kind with
  | Repeat -> Record (decode_repeat t ~offset:c.c_offset h)
  | Body -> Events [||]
  (* [open_chunk] checked the header's count, [h.n], against the index *)
  | Plain -> Events (collect c.c_events (iter_plain t c h))

let chunk_events t idx = collect (chunk_event_count t idx) (iter_chunk t idx)

let fingerprint t = t.fingerprint
let n_events t = t.n_events
let n_chunks t = Array.length t.chunks
let last_icount t = t.last_icount
let byte_size t = String.length t.raw
let version t = t.version
let salvage_info t = t.salvage

let stored_events t =
  Array.fold_left (fun acc c -> acc + c.c_stored) 0 t.chunks

let event_ratio t =
  let stored = stored_events t in
  if stored = 0 then 1.0 else float_of_int (n_events t) /. float_of_int stored

let plain_chunks t =
  Array.fold_left
    (fun acc c -> if c.c_kind = Plain then acc + 1 else acc)
    0 t.chunks

let repeat_chunks t =
  Array.fold_left
    (fun acc c -> if c.c_kind = Repeat then acc + 1 else acc)
    0 t.chunks

let body_chunks t =
  Array.fold_left
    (fun acc c -> if c.c_kind = Body then acc + 1 else acc)
    0 t.chunks

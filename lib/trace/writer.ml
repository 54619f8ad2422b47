module Leb = Tq_util.Leb128
module Crc32 = Tq_util.Crc32

let magic = "TQTRC3\n"
let magic_v4 = "TQTRC4\n"
let chunk_magic = '\xA7'
let repeat_magic = '\xA8'
let body_magic = '\xA9'
let trailer_magic = "TQTRIX1\n"
let header_bytes = String.length magic + 8 (* magic + LE program fingerprint *)

type chunk = { c_offset : int; c_first_icount : int; c_events : int }

type t = {
  oc : out_channel;
  tmp : string;  (* the path being written; renamed to [path] on close *)
  path : string;
  chunk_bytes : int;
  compress : bool;
  payload : Buffer.t;
  mutable squash : Squash.t option;  (* Some iff [compress] *)
  mutable st : Event.state;
  mutable chunk_first_icount : int;
  mutable chunk_events : int;
  mutable chunks : chunk list;  (* reversed *)
  mutable written : int;  (* bytes written to [oc] so far *)
  mutable total_events : int;
  body_dict : (string, int * int) Hashtbl.t;
      (* body blob -> (def chunk offset, def payload CRC) *)
  mutable dict_bytes : int;
  mutable held : Squash.repeat option;
      (* a committed run (body, iters, fields) waiting to learn whether
         plain events follow it — see [settle] *)
  mutable closed : bool;
}

let create ?(chunk_bytes = 64 * 1024) ?(fingerprint = 0L) ?(compress = false)
    path =
  if chunk_bytes <= 0 then invalid_arg "Trace.Writer.create: chunk_bytes";
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    output_string oc (if compress then magic_v4 else magic);
    let fp = Buffer.create 8 in
    Buffer.add_int64_le fp fingerprint;
    Buffer.output_buffer oc fp
  with
  | () ->
      let w =
        {
          oc;
          tmp;
          path;
          chunk_bytes;
          compress;
          payload = Buffer.create (chunk_bytes + 256);
          squash = None;
          st = Event.fresh_state ();
          chunk_first_icount = 0;
          chunk_events = 0;
          chunks = [];
          written = header_bytes;
          total_events = 0;
          body_dict = Hashtbl.create 64;
          dict_bytes = 0;
          held = None;
          closed = false;
        }
      in
      w
  | exception e ->
      (* don't leak the channel (or the half-written temp file) when the
         header write fails *)
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* Write one chunk from rendered meta/payload strings; returns its file
   offset.  The CRC covers the self-delimiting header fields and the
   payload — everything between the chunk magic and the stored CRC is
   either checksummed or is the checksum.  In v4 it additionally covers the
   chunk-kind byte itself, so a flipped kind byte (plain <-> repeat) cannot
   masquerade as a valid chunk of the other kind. *)
let write_raw_chunk w ~kind ~meta ~payload ~events ~first_icount =
  let crc = if w.compress then Crc32.digest (String.make 1 kind) else 0 in
  let crc = Crc32.digest ~crc meta in
  let crc = Crc32.digest ~crc payload in
  output_char w.oc kind;
  output_string w.oc meta;
  let cb = Buffer.create 4 in
  Buffer.add_int32_le cb (Int32.of_int crc);
  Buffer.output_buffer w.oc cb;
  output_string w.oc payload;
  let off = w.written in
  w.chunks <-
    { c_offset = off; c_first_icount = first_icount; c_events = events }
    :: w.chunks;
  w.written <- w.written + 1 + String.length meta + 4 + String.length payload;
  off

let render_meta ~n ~first_icount ~payload_len =
  let meta = Buffer.create 16 in
  Leb.write_u meta n;
  Leb.write_u meta first_icount;
  Leb.write_u meta payload_len;
  Buffer.contents meta

let flush_chunk w =
  if w.chunk_events > 0 then begin
    let payload = Buffer.contents w.payload in
    let first_icount = w.chunk_first_icount and events = w.chunk_events in
    ignore
      (write_raw_chunk w ~kind:chunk_magic
         ~meta:(render_meta ~n:events ~first_icount
                  ~payload_len:(String.length payload))
         ~payload ~events ~first_icount);
    Buffer.clear w.payload;
    w.chunk_events <- 0
  end

(* Append one event to the open plain chunk (the v3 write path; under
   compression, the events the suppressor decided not to elide). *)
let emit_plain w ev =
  if w.chunk_events = 0 then begin
    let ic = Event.icount ev in
    w.chunk_first_icount <- ic;
    w.st <- Event.fresh_state ~icount:ic ()
  end;
  Event.encode w.st w.payload ev;
  w.chunk_events <- w.chunk_events + 1;
  if Buffer.length w.payload >= w.chunk_bytes then flush_chunk w

(* A chunk's framing on disk: kind byte, meta, CRC, and its index entry,
   costed at its floor of one byte per LEB.  The index LEBs are deltas,
   mostly shorter than the meta's absolute values. *)
let framing ~n ~first_icount ~payload_len =
  1 + String.length (render_meta ~n ~first_icount ~payload_len) + 4 + 3

(* Interning a loop body: the blob is the body under the standard event
   codec with the delta state seeded at the body's own first instruction
   count.  Because every field of every event is coded relative to that
   state, the same loop body re-entered later (at a different icount, or a
   later outer-loop iteration touching the same addresses) produces the
   same bytes — one body-def chunk then serves every repeat chunk that
   references it.  The dictionary is bounded; overflowing it just means a
   future body gets re-defined, never a wrong reference.  [define_body]
   writes the def chunk of a body not in the dictionary; [payload] is the
   def's payload: the body length, then the blob. *)
let define_body w ~blob ~payload ~first_icount =
  let off =
    write_raw_chunk w ~kind:body_magic
      ~meta:(render_meta ~n:0 ~first_icount ~payload_len:(String.length payload))
      ~payload ~events:0 ~first_icount
  in
  let pcrc = Crc32.digest payload in
  if Hashtbl.length w.body_dict >= 8192 || w.dict_bytes > 8 * 1024 * 1024
  then begin
    Hashtbl.reset w.body_dict;
    w.dict_bytes <- 0
  end;
  Hashtbl.replace w.body_dict blob (off, pcrc);
  w.dict_bytes <- w.dict_bytes + String.length blob;
  (off, pcrc)

(* Write one committed run.  As a repeat it is a reference to the
   interned body-def chunk (file offset + payload CRC, so a reference can
   never silently resolve to the wrong body) plus the per-field
   stride/literal tables.  The header's event count is the {e raw} count
   [B * iters], so the index — and everything built on it: [n_events],
   shard bounds, the serve chunk cache — keeps speaking decoded-event
   units.

   A short run can cost more as a repeat than as plain events: its own
   chunk, a body-def chunk unless the body is interned already and, when
   plain events follow ([followed]), the plain chunk they then start: its
   frame if the open chunk had to be split, and its fresh delta state.
   Such a run is written as plain events instead.  Only a run whose plain
   floor ({!Event.min_encoded_bytes}) does not already exceed the repeat's
   cost is expanded ({!Squash.expand}, the reader's own expander) to price
   its plain encoding. *)
let write_run w ~followed (r : Squash.repeat) =
  let body = r.body and iters = r.iters and literal = r.literal in
  let b = Array.length body in
  let first_icount = Event.icount body.(0) in
  let blob_buf = Buffer.create 256 in
  let st = Event.fresh_state ~icount:first_icount () in
  Array.iter (fun ev -> Event.encode st blob_buf ev) body;
  let blob = Buffer.contents blob_buf in
  let def_payload =
    let p = Buffer.create (String.length blob + 4) in
    Leb.write_u p b;
    Buffer.add_string p blob;
    Buffer.contents p
  in
  let expand = Squash.expand r in
  (* field tables: a literal-mode bitmap (bit f set = field f is literal;
     one mode byte per field would double the table cost of the dominant
     all-affine case), then each field's data in canonical order *)
  let tables = Buffer.create 64 in
  let nf = Array.length literal in
  for byte = 0 to ((nf + 7) / 8) - 1 do
    let v = ref 0 in
    for bit = 0 to 7 do
      let f = (byte * 8) + bit in
      if f < nf && literal.(f) then v := !v lor (1 lsl bit)
    done;
    Buffer.add_uint8 tables !v
  done;
  for f = 0 to nf - 1 do
    if literal.(f) then Array.iter (Leb.write_s tables) r.lits.(f)
    else Leb.write_s tables r.stride.(f)
  done;
  let repeat_payload (bref, bcrc) =
    let p = Buffer.create (Buffer.length tables + 16) in
    Leb.write_u p b;
    Leb.write_u p iters;
    Leb.write_u p bref;
    Leb.write_u p bcrc;
    Buffer.add_buffer p tables;
    Buffer.contents p
  in
  let n_raw = b * iters in
  let interned = Hashtbl.find_opt w.body_dict blob in
  let repeat_cost =
    (* a body not yet interned is referenced at about the current offset,
       with a CRC costed at its longest *)
    let payload_len =
      String.length
        (repeat_payload (Option.value interned ~default:(w.written, 0xffff_ffff)))
    in
    let def_len = String.length def_payload in
    framing ~n:n_raw ~first_icount ~payload_len
    + payload_len
    + (if interned = None then
         framing ~n:0 ~first_icount ~payload_len:def_len + def_len
       else 0)
    +
    if followed && w.chunk_events > 0 then
      framing ~n:w.chunk_events ~first_icount:w.chunk_first_icount
        ~payload_len:(Buffer.length w.payload)
    else 0
  in
  (* the fresh start of the plain chunk after the repeat costs about what
     the body's own fresh start costs: the blob's size over one plain
     iteration's, at most over the iteration's floor *)
  let plain =
    let iter_floor =
      Array.fold_left (fun n ev -> n + Event.min_encoded_bytes ev) 0 body
    in
    let restart_max =
      if followed then max 0 (String.length blob - iter_floor) else 0
    in
    if iters * iter_floor > repeat_cost + restart_max then false
    else
      let st =
        if w.chunk_events = 0 then Event.fresh_state ~icount:first_icount ()
        else Event.copy_state w.st
      in
      let buf = Buffer.create (4 * n_raw) in
      expand (Event.encode st buf);
      let plain_bytes = Buffer.length buf in
      let restart =
        if followed then max 0 (String.length blob - (plain_bytes / iters))
        else 0
      in
      plain_bytes <= repeat_cost + restart
  in
  if plain then expand (emit_plain w)
  else begin
    flush_chunk w;
    let bref =
      match interned with
      | Some entry -> entry
      | None -> define_body w ~blob ~payload:def_payload ~first_icount
    in
    let payload = repeat_payload bref in
    ignore
      (write_raw_chunk w ~kind:repeat_magic
         ~meta:
           (render_meta ~n:n_raw ~first_icount
              ~payload_len:(String.length payload))
         ~payload ~events:n_raw ~first_icount)
  end

(* A committed run is written once the writer knows what follows it:
   plain events ([followed]), another run, or the end of the trace. *)
let settle w ~followed =
  match w.held with
  | None -> ()
  | Some run ->
      w.held <- None;
      write_run w ~followed run

let squash w =
  match w.squash with
  | Some sq -> sq
  | None ->
      let sq =
        Squash.create
          {
            Squash.out_plain =
              (fun ev ->
                settle w ~followed:true;
                emit_plain w ev);
            out_repeat =
              (fun r ->
                settle w ~followed:false;
                w.held <- Some r);
          }
      in
      w.squash <- Some sq;
      sq

let emit w ev =
  if w.closed then invalid_arg "Trace.Writer.emit: closed";
  w.total_events <- w.total_events + 1;
  if w.compress then Squash.feed (squash w) ev else emit_plain w ev

let events w = w.total_events

let close w =
  if not w.closed then begin
    (* mark closed before touching the channel: a failing finalization must
       not leave the writer re-closable (a second close would append a second
       index/trailer to whatever made it to disk) *)
    w.closed <- true;
    match
      (match w.squash with Some sq -> Squash.flush sq | None -> ());
      settle w ~followed:false;
      flush_chunk w;
      let index_offset = w.written in
      let index = Buffer.create 1024 in
      let chunks = List.rev w.chunks in
      Leb.write_u index (List.length chunks);
      let prev_off = ref 0 and prev_ic = ref 0 in
      List.iter
        (fun c ->
          Leb.write_u index (c.c_offset - !prev_off);
          Leb.write_u index (c.c_first_icount - !prev_ic);
          Leb.write_u index c.c_events;
          prev_off := c.c_offset;
          prev_ic := c.c_first_icount)
        chunks;
      Buffer.output_buffer w.oc index;
      let tr = Buffer.create 16 in
      Buffer.add_int64_le tr (Int64.of_int index_offset);
      Buffer.add_string tr trailer_magic;
      Buffer.output_buffer w.oc tr;
      close_out w.oc
    with
    | () -> Sys.rename w.tmp w.path
    | exception e ->
        (* leave [tmp] on disk: it is the crash artifact salvage understands *)
        close_out_noerr w.oc;
        raise e
  end

let with_file ?chunk_bytes ?fingerprint ?compress path f =
  let w = create ?chunk_bytes ?fingerprint ?compress path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> f w)

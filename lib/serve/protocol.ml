module Json = Tq_obs.Json
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay

let max_frame = 256 * 1024 * 1024

exception Frame_error of string
exception Timeout of string

(* ---------- deadline plumbing ----------

   Deadlines are absolute [Unix.gettimeofday] instants; [None] blocks
   forever (the pre-deadline behaviour).  All waiting funnels through
   [select], so a signal (EINTR) or a spurious wakeup on a blocking socket
   (EAGAIN/EWOULDBLOCK — observed with SO_RCVTIMEO racing, and permitted by
   POSIX after select says ready) re-enters the wait instead of tearing the
   connection down. *)

let wait_io ~what ~read fd deadline =
  let rec go () =
    let timeout =
      match deadline with
      | None -> -1. (* block *)
      | Some d ->
          let left = d -. Unix.gettimeofday () in
          if left <= 0. then raise (Timeout what) else left
    in
    let rd = if read then [ fd ] else [] in
    let wr = if read then [] else [ fd ] in
    match Unix.select rd wr [] timeout with
    | [], [], _ -> go () (* timed out this round; the deadline check raises *)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let write_all ?deadline fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      (match deadline with
      | Some _ -> wait_io ~what:"write stalled" ~read:false fd deadline
      | None -> ());
      match Unix.write fd buf pos len with
      | n -> go (pos + n) (len - n)
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          if deadline = None then
            wait_io ~what:"write stalled" ~read:false fd None;
          go pos len
    end
  in
  match deadline with
  | None -> go pos len
  | Some _ ->
      (* A blocking write of more than the kernel buffer blocks until every
         byte is taken no matter what select said, so the deadline could
         never fire mid-write; the bounded path goes non-blocking and lets
         the EAGAIN branch return to the select wait between partial
         writes. *)
      Unix.set_nonblock fd;
      Fun.protect
        ~finally:(fun () ->
          try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
        (fun () -> go pos len)

(* Read exactly [len] bytes into [buf] at [pos]; [false] if EOF hits before
   the first byte, End_of_file if it hits mid-read, Timeout past the
   deadline. *)
let read_exact ?deadline fd buf pos len =
  let rec go pos len started =
    if len = 0 then true
    else begin
      (match deadline with
      | Some _ -> wait_io ~what:"read stalled" ~read:true fd deadline
      | None -> ());
      match Unix.read fd buf pos len with
      | 0 -> if started then raise End_of_file else false
      | n -> go (pos + n) (len - n) true
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          if deadline = None then
            wait_io ~what:"read stalled" ~read:true fd None;
          go pos len started
    end
  in
  go pos len false

let deadline_of = Option.map (fun s -> Unix.gettimeofday () +. s)

(* The idle timeout governs the wait for a frame's first byte (a quiet but
   healthy peer); once any byte has arrived the frame timeout takes over —
   the whole header+payload must complete within it, so a slow-loris peer
   dribbling one byte per minute is reaped instead of pinning the reader. *)
let read_frame ?idle_timeout_s ?frame_timeout_s ?(max_frame = max_frame) fd =
  let hdr = Bytes.create 4 in
  if not (read_exact ?deadline:(deadline_of idle_timeout_s) fd hdr 0 1) then
    None
  else begin
    let deadline = deadline_of frame_timeout_s in
    if not (read_exact ?deadline fd hdr 1 3) then raise End_of_file;
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then
      raise (Frame_error (Printf.sprintf "frame length %d out of bounds" len));
    let payload = Bytes.create len in
    if not (read_exact ?deadline fd payload 0 len) then raise End_of_file;
    match Json.of_string (Bytes.unsafe_to_string payload) with
    | j -> Some j
    | exception Json.Parse_error msg ->
        raise (Frame_error ("frame payload: " ^ msg))
  end

let write_frame ?timeout_s ?(max_frame = max_frame) fd j =
  let s = Json.to_string j in
  let len = String.length s in
  if len > max_frame then
    raise (Frame_error (Printf.sprintf "frame length %d out of bounds" len));
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string s 0 buf 4 len;
  write_all ?deadline:(deadline_of timeout_s) fd buf 0 (4 + len)

(* ---------- trace identity ---------- *)

(* FNV-1a-64 over the container bytes.  Same construction as
   Tq_vm.Program.fingerprint, but over the recording rather than the code:
   two recordings of one program (different inputs, slices, fuel) must not
   share a cache key. *)
let trace_key s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let trace_id s = Printf.sprintf "%016Lx" (trace_key s)

(* ---------- shared sections ---------- *)

let trace_section ?(extra = []) r =
  let salvage =
    match Reader.salvage_info r with
    | None -> []
    | Some s ->
        [ ( "salvage",
            Json.Obj
              [ ("salvaged_chunks", Json.Int s.Reader.salvaged_chunks);
                ("dropped_chunks", Json.Int s.dropped_chunks);
                ("dropped_bytes", Json.Int s.dropped_bytes);
                ("reason", Json.Str s.reason) ] ) ]
  in
  (* the v4 redundancy-suppression accounting; present for every version
     (a v3 trace reports stored = events and zero repeat/body chunks) so
     consumers need no version-conditional parsing *)
  let compression =
    let stored = Reader.stored_events r in
    let events = Reader.n_events r in
    [ ("stored_events", Json.Int stored);
      ("plain_chunks", Json.Int (Reader.plain_chunks r));
      ("repeat_chunks", Json.Int (Reader.repeat_chunks r));
      ("body_chunks", Json.Int (Reader.body_chunks r));
      ( "event_ratio",
        Json.Float
          (if stored = 0 then 1.0
           else float_of_int events /. float_of_int stored) ) ]
  in
  Json.Obj
    ([ ("version", Json.Int (Reader.version r));
       ("events", Json.Int (Reader.n_events r));
       ("chunks", Json.Int (Reader.n_chunks r));
       ("bytes", Json.Int (Reader.byte_size r));
       ("fingerprint", Json.Str (Printf.sprintf "%016Lx" (Reader.fingerprint r)));
       ("last_icount", Json.Int (Reader.last_icount r)) ]
    @ compression @ salvage @ extra)

let replay_section (s : Replay.run_stats) =
  Json.Obj
    [ ("domains", Json.Int s.rs_domains);
      ("shards", Json.Int s.rs_shards);
      ("batch", Json.Int s.rs_batch);
      ("chunks", Json.Int s.rs_chunks);
      ("events", Json.Int s.rs_events);
      ("peak_live_chunks", Json.Int s.rs_peak_live_chunks);
      ("repeats", Json.Int s.rs_repeats);
      ( "stage_s",
        Json.Obj
          [ ("decode", Json.Float s.rs_decode_s);
            ("ordered", Json.Float s.rs_ordered_s);
            ("shard", Json.Float s.rs_shard_s);
            ("merge", Json.Float s.rs_merge_s) ] ) ]

(* ---------- response shapes ---------- *)

let ok members = Json.Obj (("ok", Json.Bool true) :: members)

let error ?(extra = []) kind reason =
  Json.Obj
    (("ok", Json.Bool false)
    :: ("error", Json.Str kind)
    :: ("reason", Json.Str reason)
    :: extra)

let busy = "busy"
let bad_request = "bad-request"
let not_found = "not-found"
let bad_trace = "bad-trace"
let shutting_down = "shutting-down"
let timeout = "timeout"
let server_error = "server-error"

(* ---------- request accessors ---------- *)

let get_str k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let get_int k j =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let get_num k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let get_bool k j =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

module Json = Tq_obs.Json

(* Everything here hand-rolls the wire format on purpose: the module exists
   to attack Tq_serve.Protocol's framing, so it must not frame through it.
   One frame = 4-byte big-endian length + that many bytes of JSON. *)

let max_frame = Tq_serve.Protocol.max_frame

type mutation =
  | Torn_header of { keep : int }
  | Oversized_length of { claim : int }
  | Negative_length
  | Garbage_payload of { len : int; seed : int }
  | Mid_frame_disconnect of { claim : int; sent : int }
  | Stall_then_resume of { split : int; stall_s : float }

let slug = function
  | Torn_header _ -> "torn-header"
  | Oversized_length _ -> "oversized-length"
  | Negative_length -> "negative-length"
  | Garbage_payload _ -> "garbage-payload"
  | Mid_frame_disconnect _ -> "mid-frame-disconnect"
  | Stall_then_resume _ -> "stall-resume"

(* Faultgen's seeded LCG: chaos must be reproducible from the seed alone. *)
let rng = Faultgen.rng
let next = Faultgen.next
let pick = Faultgen.pick

let random ~seed =
  let r = rng seed in
  match pick r 6 with
  | 0 -> Torn_header { keep = pick r 4 }
  | 1 -> Oversized_length { claim = max_frame + 1 + pick r 4096 }
  | 2 -> Negative_length
  | 3 -> Garbage_payload { len = 1 + pick r 4096; seed = next r }
  | 4 ->
      let claim = 16 + pick r 1024 in
      Mid_frame_disconnect { claim; sent = pick r claim }
  | _ ->
      Stall_then_resume
        { split = 1 + pick r 7; stall_s = 0.01 +. (float_of_int (pick r 50) /. 1000.) }

(* ---------- raw wire helpers ---------- *)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  b

let ping_frame =
  let payload = {|{"op":"ping"}|} in
  let b = Bytes.create (4 + String.length payload) in
  Bytes.blit (be32 (String.length payload)) 0 b 0 4;
  Bytes.blit_string payload 0 b 4 (String.length payload);
  b

(* Best-effort write: the server may slam the door mid-send (reaper, frame
   refusal) — for a chaos client that is a fine outcome, not an error. *)
let send_all fd b pos len =
  let rec go pos len =
    if len > 0 then
      match Unix.write fd b pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
  in
  go pos len

type verdict =
  | Rejected of string
  | Accepted
  | Closed
  | Silent
  | Unreachable of string

let verdict_slug = function
  | Rejected kind -> "rejected:" ^ kind
  | Accepted -> "accepted"
  | Closed -> "closed"
  | Silent -> "silent"
  | Unreachable msg -> "unreachable:" ^ msg

(* Read one frame with an absolute deadline and classify the server's
   answer.  EOF before a full frame is [Closed]; a quiet-but-open socket
   past the deadline is [Silent]. *)
let read_verdict ~deadline fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec fill want =
    if Buffer.length buf >= want then Ok ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Error Silent
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> fill want
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> Error Closed
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                fill want
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill want
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                Error Closed)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill want
  in
  match fill 4 with
  | Error v -> v
  | Ok () -> (
      let hdr = Buffer.to_bytes buf in
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max_frame then Rejected "unparseable"
      else
        match fill (4 + len) with
        | Error v -> v
        | Ok () -> (
            let payload = Buffer.sub buf 4 len in
            match Json.of_string payload with
            | exception Json.Parse_error _ -> Rejected "unparseable"
            | j -> (
                match Json.member "ok" j with
                | Some (Json.Bool true) -> Accepted
                | _ -> (
                    match Json.member "error" j with
                    | Some (Json.Str kind) -> Rejected kind
                    | _ -> Rejected "unparseable"))))

(* ---------- the chaos client ---------- *)

let with_conn socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unreachable (Unix.error_message e)
  | () ->
      let v = try f fd with Unix.Unix_error (e, _, _) ->
        (* a send the server refuses hard is a verdict, not a crash *)
        ignore e;
        Closed
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      v

let strike ?(wait_s = 2.0) ~socket mut =
  with_conn socket (fun fd ->
      let deadline () = Unix.gettimeofday () +. wait_s in
      match mut with
      | Torn_header { keep } ->
          send_all fd ping_frame 0 keep;
          (* close without finishing the header; nothing to read — the
             server's only correct move is to reap quietly *)
          Closed
      | Oversized_length { claim } ->
          send_all fd (be32 claim) 0 4;
          read_verdict ~deadline:(deadline ()) fd
      | Negative_length ->
          send_all fd (be32 (-1)) 0 4;
          read_verdict ~deadline:(deadline ()) fd
      | Garbage_payload { len; seed } ->
          let r = rng seed in
          let payload =
            Bytes.init len (fun _ -> Char.chr (pick r 256))
          in
          (* guarantee unparseability whatever the rng drew: JSON never
             starts with a NUL byte *)
          Bytes.set payload 0 '\000';
          send_all fd (be32 len) 0 4;
          send_all fd payload 0 len;
          read_verdict ~deadline:(deadline ()) fd
      | Mid_frame_disconnect { claim; sent } ->
          send_all fd (be32 claim) 0 4;
          let part = Bytes.make sent 'x' in
          send_all fd part 0 sent;
          Closed
      | Stall_then_resume { split; stall_s } ->
          let split = min split (Bytes.length ping_frame - 1) in
          send_all fd ping_frame 0 split;
          Unix.sleepf stall_s;
          send_all fd ping_frame split (Bytes.length ping_frame - split);
          read_verdict ~deadline:(deadline ()) fd)

let ping ?(wait_s = 5.0) ~socket () =
  let v =
    with_conn socket (fun fd ->
        send_all fd ping_frame 0 (Bytes.length ping_frame);
        read_verdict ~deadline:(Unix.gettimeofday () +. wait_s) fd)
  in
  match v with
  | Accepted -> Ok ()
  | other -> Error (verdict_slug other)

type event = { mutation : mutation; verdict : verdict }

let storm ?wait_s ~socket ~seed ~rounds () =
  List.init rounds (fun i ->
      let mutation = random ~seed:(seed + (i * 0x9E3779B9)) in
      { mutation; verdict = strike ?wait_s ~socket mutation })

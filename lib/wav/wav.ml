type t = { sample_rate : int; channels : float array array }

let clamp x = if x < -1. then -1. else if x > 1. then 1. else x

let pcm_of_float x =
  let v = int_of_float (Float.round (clamp x *. 32767.)) in
  if v < -32768 then -32768 else if v > 32767 then 32767 else v

let float_of_pcm v = float_of_int v /. 32767.

let encode t =
  let nch = Array.length t.channels in
  if nch = 0 then invalid_arg "Wav.encode: no channels";
  let n = Array.length t.channels.(0) in
  Array.iter
    (fun c ->
      if Array.length c <> n then invalid_arg "Wav.encode: ragged channels")
    t.channels;
  let data_bytes = n * nch * 2 in
  let b = Buffer.create (44 + data_bytes) in
  let u32 v =
    Buffer.add_char b (Char.chr (v land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))
  in
  let u16 v =
    Buffer.add_char b (Char.chr (v land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))
  in
  Buffer.add_string b "RIFF";
  u32 (36 + data_bytes);
  Buffer.add_string b "WAVE";
  Buffer.add_string b "fmt ";
  u32 16;
  u16 1 (* PCM *);
  u16 nch;
  u32 t.sample_rate;
  u32 (t.sample_rate * nch * 2) (* byte rate *);
  u16 (nch * 2) (* block align *);
  u16 16 (* bits per sample *);
  Buffer.add_string b "data";
  u32 data_bytes;
  for i = 0 to n - 1 do
    for c = 0 to nch - 1 do
      let v = pcm_of_float t.channels.(c).(i) in
      u16 (v land 0xffff)
    done
  done;
  Buffer.contents b

let decode s =
  let len = String.length s in
  let u32 off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)
  in
  let u16 off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8) in
  let s16 off =
    let v = u16 off in
    if v >= 32768 then v - 65536 else v
  in
  try
    if len < 44 then Error "too short"
    else if String.sub s 0 4 <> "RIFF" || String.sub s 8 4 <> "WAVE" then
      Error "not a RIFF/WAVE file"
    else begin
      (* walk chunks *)
      let fmt = ref None and data = ref None in
      let off = ref 12 in
      while !off + 8 <= len do
        let cid = String.sub s !off 4 in
        let csize = u32 (!off + 4) in
        let body = !off + 8 in
        (match cid with
        | "fmt " -> fmt := Some body
        | "data" -> data := Some (body, csize)
        | _ -> ());
        off := body + csize + (csize land 1)
      done;
      match (!fmt, !data) with
      | None, _ -> Error "missing fmt chunk"
      | _, None -> Error "missing data chunk"
      | Some f, Some (d, dsize) ->
          let audio_format = u16 f in
          let nch = u16 (f + 2) in
          let rate = u32 (f + 4) in
          let bits = u16 (f + 14) in
          if audio_format <> 1 || bits <> 16 then
            Error
              (Printf.sprintf "unsupported format (fmt=%d bits=%d)" audio_format
                 bits)
          else if nch = 0 then Error "zero channels"
          else if d + dsize > len then Error "truncated data chunk"
          else begin
            let frames = dsize / (2 * nch) in
            let channels =
              Array.init nch (fun c ->
                  Array.init frames (fun i ->
                      float_of_pcm (s16 (d + (((i * nch) + c) * 2)))))
            in
            Ok { sample_rate = rate; channels }
          end
    end
  with Invalid_argument _ -> Error "malformed file"

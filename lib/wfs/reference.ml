module Fft = Tq_dsp.Fft
module Wav = Tq_wav.Wav

let pi = Float.pi

(* mirrors ffw() in the generated source *)
let ffw (scen : Scenario.t) ~cutoff ~blend =
  let taps = scen.taps and n = scen.fft_n in
  let mid = taps / 2 in
  let tb = Array.make taps 0. in
  let dc = ref 0. in
  for i = 0 to taps - 1 do
    let w =
      0.54 -. (0.46 *. cos (2. *. pi *. float_of_int i /. float_of_int (taps - 1)))
    in
    let k = float_of_int (i - mid) in
    let s =
      if i = mid then 2. *. cutoff
      else sin (2. *. pi *. cutoff *. k) /. (pi *. k)
    in
    tb.(i) <- s *. w;
    dc := !dc +. (s *. w)
  done;
  for i = 0 to taps - 1 do
    tb.(i) <- tb.(i) /. !dc
  done;
  tb.(mid) <- tb.(mid) +. blend;
  tb.(mid + 1) <- tb.(mid + 1) -. (blend /. 2.);
  tb.(mid - 1) <- tb.(mid - 1) -. (blend /. 2.);
  let hre = Array.make n 0. and him = Array.make n 0. in
  Array.blit tb 0 hre 0 taps;
  Fft.fft hre him ~dir:1;
  (hre, him)

let render (scen : Scenario.t) =
  let n = scen.fft_n
  and f = scen.frame
  and s_n = scen.speakers
  and c_n = scen.chunks in
  let rate = scen.sample_rate in
  (* the application reads the input after PCM16 quantization *)
  let input =
    match Wav.decode (Wav.encode (Scenario.input scen)) with
    | Ok w -> w.Wav.channels.(0)
    | Error msg -> failwith ("Reference.render: bad input wav: " ^ msg)
  in
  let src_len = Array.length input in
  (* filter weights *)
  let filt_re, filt_im = ffw scen ~cutoff:0.45 ~blend:0.5 in
  let eq_re, eq_im = ffw scen ~cutoff:0.4 ~blend:0.0 in
  for k = 0 to n - 1 do
    let tr = (filt_re.(k) *. eq_re.(k)) -. (filt_im.(k) *. eq_im.(k)) in
    let ti = (filt_re.(k) *. eq_im.(k)) +. (filt_im.(k) *. eq_re.(k)) in
    filt_re.(k) <- tr;
    filt_im.(k) <- ti
  done;
  (* state *)
  let fft_re = Array.make n 0. and fft_im = Array.make n 0. in
  let mon_re = Array.make n 0. and mon_im = Array.make n 0. in
  let frame_buf = Array.make f 0. in
  let filtered = Array.make f 0. in
  let overlap = Array.make n 0. in
  let dl = scen.delay_len in
  let dmask = dl - 1 in
  let dline = Array.make dl 0. in
  let dl_widx = ref 0 in
  let gain = Array.make s_n 0. in
  let del_i = Array.make s_n 0 in
  let del_f = Array.make s_n 0. in
  let spk = Array.make (s_n * f) 0. in
  let out_buf = Array.make (c_n * f * s_n) 0. in
  let src_x = ref 0. and src_y = ref 0. in
  let derive_tp step =
    let t = float_of_int step /. float_of_int c_n in
    src_x := (0. -. 2.) +. (4. *. t);
    src_y := 1.5 +. (0.5 *. sin (2. *. pi *. t))
  in
  let calculate_gain_pq s =
    let sx = 0.125 *. (float_of_int s -. (float_of_int s_n /. 2.)) in
    let dx = !src_x -. sx in
    let dy = !src_y in
    let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
    let dsamp = dist *. float_of_int rate /. 343. in
    del_i.(s) <- int_of_float dsamp;
    del_f.(s) <- dsamp -. float_of_int del_i.(s);
    1. /. (1. +. dist)
  in
  let update step =
    derive_tp step;
    for s = 0 to s_n - 1 do
      let g = calculate_gain_pq s in
      gain.(s) <- (g *. 0.5) +. (gain.(s) *. 0.5)
    done
  in
  for c = 0 to c_n - 1 do
    (* AudioIo_getFrames *)
    let off = c * f in
    for i = 0 to f - 1 do
      frame_buf.(i) <- (if off + i < src_len then input.(off + i) else 0.)
    done;
    if c mod 2 = 0 && c <= c_n / 2 then update (c / 2);
    (* Filter_process *)
    Array.fill fft_re 0 n 0.;
    Array.fill fft_im 0 n 0.;
    Array.blit frame_buf 0 fft_re 0 f;
    Fft.fft fft_re fft_im ~dir:1;
    for k = 0 to n - 1 do
      let tr = (fft_re.(k) *. filt_re.(k)) -. (fft_im.(k) *. filt_im.(k)) in
      let ti = (fft_re.(k) *. filt_im.(k)) +. (fft_im.(k) *. filt_re.(k)) in
      mon_re.(k) <- mon_re.(k) +. tr;
      mon_im.(k) <- mon_im.(k) +. ti;
      fft_re.(k) <- tr;
      fft_im.(k) <- ti
    done;
    Fft.fft fft_re fft_im ~dir:(-1);
    for i = 0 to f - 1 do
      filtered.(i) <- fft_re.(i) +. overlap.(i)
    done;
    let tail = n - f in
    for i = 0 to tail - 1 do
      let prev = if i + f < n then overlap.(i + f) else 0. in
      overlap.(i) <- fft_re.(f + i) +. prev
    done;
    for i = tail to n - 1 do
      overlap.(i) <- 0.
    done;
    (* DelayLine_processChunk *)
    for i = 0 to f - 1 do
      dline.(!dl_widx land dmask) <- filtered.(i);
      incr dl_widx
    done;
    let base = !dl_widx - f in
    for s = 0 to s_n - 1 do
      Array.fill spk (s * f) f 0.;
      let g = gain.(s) in
      let d = del_i.(s) in
      let fr = del_f.(s) in
      for i = 0 to f - 1 do
        let idx = base + i - d in
        let a, b =
          if idx >= 1 then (dline.(idx land dmask), dline.((idx - 1) land dmask))
          else (0., 0.)
        in
        spk.((s * f) + i) <- g *. ((a *. (1. -. fr)) +. (b *. fr))
      done
    done;
    (* AudioIo_setFrames: speaker-major block copies *)
    for s = 0 to s_n - 1 do
      Array.blit spk (s * f) out_buf (((s * c_n) + c) * f) f
    done
  done;
  (* wav_store *)
  let total = c_n * f * s_n in
  let dbytes = total * 2 in
  let out = Bytes.make (44 + dbytes) '\000' in
  let w16 off v =
    Bytes.set_uint8 out off (v land 255);
    Bytes.set_uint8 out (off + 1) ((v lsr 8) land 255)
  in
  let w32 off v =
    Bytes.set_uint8 out off (v land 255);
    Bytes.set_uint8 out (off + 1) ((v lsr 8) land 255);
    Bytes.set_uint8 out (off + 2) ((v lsr 16) land 255);
    Bytes.set_uint8 out (off + 3) ((v lsr 24) land 255)
  in
  Bytes.blit_string "RIFF" 0 out 0 4;
  w32 4 (36 + dbytes);
  Bytes.blit_string "WAVE" 0 out 8 4;
  Bytes.blit_string "fmt " 0 out 12 4;
  w32 16 16;
  w16 20 1;
  w16 22 s_n;
  w32 24 rate;
  w32 28 (rate * s_n * 2);
  w16 32 (s_n * 2);
  w16 34 16;
  Bytes.blit_string "data" 0 out 36 4;
  w32 40 dbytes;
  let peak = ref 0. in
  for i = 0 to total - 1 do
    let x = out_buf.(i) in
    if x > !peak then peak := x;
    if 0. -. x > !peak then peak := 0. -. x
  done;
  let norm = if !peak > 1. then 1. /. !peak else 1. in
  let cf = c_n * f in
  for fi = 0 to cf - 1 do
    for s = 0 to s_n - 1 do
      let x = out_buf.((s * cf) + fi) *. norm in
      let x = if x > 1. then 1. else x in
      let x = if x < -1. then -1. else x in
      let scaled = x *. 32767. in
      let v =
        if scaled >= 0. then int_of_float (scaled +. 0.5)
        else 0 - int_of_float (0.5 -. scaled)
      in
      let v = if v < 0 then v + 65536 else v in
      let pos = 44 + (2 * ((fi * s_n) + s)) in
      Bytes.set_uint8 out pos (v land 255);
      Bytes.set_uint8 out (pos + 1) ((v lsr 8) land 255)
    done
  done;
  let energy = ref 0. in
  for k = 0 to n - 1 do
    energy := !energy +. (mon_re.(k) *. mon_re.(k)) +. (mon_im.(k) *. mon_im.(k))
  done;
  (Bytes.to_string out, !energy)

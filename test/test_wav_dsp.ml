module Wav = Tq_wav.Wav
module Fft = Tq_dsp.Fft

(* largest per-sample difference; infinite when the shapes differ *)
let max_abs_diff (a : Wav.t) (b : Wav.t) =
  if Array.map Array.length a.channels <> Array.map Array.length b.channels
  then infinity
  else
    Array.fold_left Float.max 0.
      (Array.mapi
         (fun c ca ->
           Array.fold_left Float.max 0.
             (Array.mapi (fun i v -> Float.abs (v -. b.channels.(c).(i))) ca))
         a.channels)

(* ---------- wav ---------- *)

let test_wav_roundtrip () =
  let t =
    {
      Wav.sample_rate = 8000;
      channels = [| [| 0.; 0.5; -0.5; 1.; -1. |]; [| 0.1; 0.2; 0.3; 0.4; 0.5 |] |];
    }
  in
  match Wav.decode (Wav.encode t) with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check int) "rate" 8000 d.Wav.sample_rate;
      Alcotest.(check int) "channels" 2 (Array.length d.Wav.channels);
      Alcotest.(check int) "frames" 5 (Array.length d.Wav.channels.(0));
      Alcotest.(check bool) "within quantization error" true
        (max_abs_diff t d < 1. /. 32767.)

let test_wav_clamps () =
  let t = { Wav.sample_rate = 44100; channels = [| [| 2.0; -2.0 |] |] } in
  match Wav.decode (Wav.encode t) with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check (float 1e-6)) "clamped high" 1. d.Wav.channels.(0).(0);
      Alcotest.(check (float 1e-6)) "clamped low" (-1.) d.Wav.channels.(0).(1)

let test_wav_errors () =
  let check_err name input expected =
    match Wav.decode input with
    | Ok _ -> Alcotest.fail (name ^ ": expected error")
    | Error e -> Alcotest.(check string) name expected e
  in
  check_err "short" "RIFF" "too short";
  check_err "bad magic" (String.make 64 'x') "not a RIFF/WAVE file";
  let good =
    Wav.encode { Wav.sample_rate = 8000; channels = [| [| 0.1; 0.2 |] |] }
  in
  (* corrupt the fmt code to non-PCM *)
  let bad = Bytes.of_string good in
  Bytes.set_uint16_le bad 20 3;
  check_err "non pcm" (Bytes.to_string bad) "unsupported format (fmt=3 bits=16)"

let test_wav_empty_rejected () =
  Alcotest.check_raises "no channels"
    (Invalid_argument "Wav.encode: no channels") (fun () ->
      ignore (Wav.encode { Wav.sample_rate = 1; channels = [||] }));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Wav.encode: ragged channels") (fun () ->
      ignore
        (Wav.encode
           { Wav.sample_rate = 1; channels = [| [| 0. |]; [| 0.; 1. |] |] }))

let qcheck_wav_roundtrip =
  QCheck.Test.make ~name:"wav roundtrip within 1 LSB" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 64) (float_range (-1.) 1.))
    (fun xs ->
      let t =
        { Wav.sample_rate = 8000; channels = [| Array.of_list xs |] }
      in
      match Wav.decode (Wav.encode t) with
      | Error _ -> false
      | Ok d -> max_abs_diff t d <= 1. /. 32767.)

(* ---------- fft ---------- *)

let test_fft_vs_naive () =
  let n = 32 in
  let re = Array.init n (fun i -> sin (0.37 *. float_of_int i) +. 0.2) in
  let im = Array.init n (fun i -> cos (0.11 *. float_of_int i)) in
  let er, ei = Fft.dft_naive re im ~dir:1 in
  let fr = Array.copy re and fi = Array.copy im in
  Fft.fft fr fi ~dir:1;
  for k = 0 to n - 1 do
    Alcotest.(check (float 1e-9)) (Printf.sprintf "re[%d]" k) er.(k) fr.(k);
    Alcotest.(check (float 1e-9)) (Printf.sprintf "im[%d]" k) ei.(k) fi.(k)
  done

let test_fft_roundtrip () =
  let n = 64 in
  let re = Array.init n (fun i -> sin (0.71 *. float_of_int i)) in
  let im = Array.make n 0. in
  let r = Array.copy re and i_ = Array.copy im in
  Fft.fft r i_ ~dir:1;
  Fft.fft r i_ ~dir:(-1);
  for k = 0 to n - 1 do
    Alcotest.(check (float 1e-10)) "roundtrip re" re.(k) r.(k);
    Alcotest.(check (float 1e-10)) "roundtrip im" 0. i_.(k)
  done

let qcheck_fft_parseval =
  QCheck.Test.make ~name:"fft preserves energy (Parseval)" ~count:50
    QCheck.(list_of_size (Gen.return 32) (float_range (-1.) 1.))
    (fun xs ->
      let re = Array.of_list xs in
      let n = Array.length re in
      let im = Array.make n 0. in
      let time_e = Array.fold_left (fun a x -> a +. (x *. x)) 0. re in
      let fr = Array.copy re and fi = Array.copy im in
      Fft.fft fr fi ~dir:1;
      let freq_e = ref 0. in
      for k = 0 to n - 1 do
        freq_e := !freq_e +. (fr.(k) *. fr.(k)) +. (fi.(k) *. fi.(k))
      done;
      Float.abs ((!freq_e /. float_of_int n) -. time_e) < 1e-9 *. (1. +. time_e))

let test_fft_bad_args () =
  Alcotest.(check bool) "non power of two rejected" true
    (try
       Fft.fft (Array.make 12 0.) (Array.make 12 0.) ~dir:1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mismatched lengths rejected" true
    (try
       Fft.fft (Array.make 8 0.) (Array.make 4 0.) ~dir:1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad dir rejected" true
    (try
       Fft.fft (Array.make 8 0.) (Array.make 8 0.) ~dir:2;
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "wav",
      [
        Alcotest.test_case "roundtrip" `Quick test_wav_roundtrip;
        Alcotest.test_case "clamps" `Quick test_wav_clamps;
        Alcotest.test_case "decode errors" `Quick test_wav_errors;
        Alcotest.test_case "encode errors" `Quick test_wav_empty_rejected;
        QCheck_alcotest.to_alcotest qcheck_wav_roundtrip;
      ] );
    ( "dsp.fft",
      [
        Alcotest.test_case "fft vs naive dft" `Quick test_fft_vs_naive;
        Alcotest.test_case "fft roundtrip" `Quick test_fft_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_fft_parseval;
        Alcotest.test_case "bad args" `Quick test_fft_bad_args;
      ] );
  ]

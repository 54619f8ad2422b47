open Tq_wfs
module Machine = Tq_vm.Machine

(* The tiny scenario runs in well under a second; heavier scenarios are
   exercised by the benchmark harness, not the unit tests. *)

let test_scenario_validation () =
  Alcotest.(check bool) "default valid" true
    (Scenario.validate Scenario.default = Ok ());
  Alcotest.(check bool) "tiny valid" true (Scenario.validate Scenario.tiny = Ok ());
  Alcotest.(check bool) "large valid" true
    (Scenario.validate Scenario.large = Ok ());
  let bad field = Alcotest.(check bool) field true in
  bad "fft pow2"
    (Scenario.validate { Scenario.default with fft_n = 100 } <> Ok ());
  bad "frame range"
    (Scenario.validate { Scenario.default with frame = 256 } <> Ok ());
  bad "taps odd"
    (Scenario.validate { Scenario.default with taps = 100 } <> Ok ());
  bad "taps fit"
    (Scenario.validate { Scenario.default with taps = 131 } <> Ok ());
  bad "speakers"
    (Scenario.validate { Scenario.default with speakers = 0 } <> Ok ());
  bad "delay pow2"
    (Scenario.validate { Scenario.default with delay_len = 1000 } <> Ok ())

let test_input_deterministic () =
  let a = Scenario.input Scenario.tiny and b = Scenario.input Scenario.tiny in
  Alcotest.(check bool) "same input" true (a = b);
  Alcotest.(check int) "length" (Scenario.input_samples Scenario.tiny)
    (Array.length a.Tq_wav.Wav.channels.(0));
  (* bounded amplitude *)
  Array.iter
    (fun x -> Alcotest.(check bool) "amplitude in [-1,1]" true (Float.abs x <= 1.))
    a.Tq_wav.Wav.channels.(0)

let test_source_generation () =
  let src = Source.generate Scenario.tiny in
  Alcotest.(check bool) "no leftover placeholders" true
    (not (Astring_contains.contains src "{N}"));
  List.iter
    (fun kernel ->
      Alcotest.(check bool) ("has " ^ kernel) true
        (Astring_contains.contains src kernel))
    [
      "wav_store"; "fft1d"; "DelayLine_processChunk"; "bitrev"; "zeroRealVec";
      "AudioIo_setFrames"; "perm"; "cadd"; "cmult"; "Filter_process";
      "wav_load"; "Filter_process_pre_"; "zeroCplxVec"; "r2c"; "c2r";
      "AudioIo_getFrames"; "ffw"; "vsmult2d"; "calculateGainPQ";
      "PrimarySource_deriveTP"; "ldint";
    ];
  Alcotest.(check bool) "invalid scenario rejected" true
    (try
       ignore (Source.generate { Scenario.tiny with fft_n = 100 });
       false
     with Invalid_argument _ -> true)

let test_log2i () =
  Alcotest.(check int) "log2 128" 7 (Source.log2i 128);
  Alcotest.(check int) "log2 2" 1 (Source.log2i 2)

let test_vm_matches_reference_bytes () =
  let scen = Scenario.tiny in
  let m = Harness.run_plain scen in
  let vm_bytes = Harness.output_bytes m in
  let ref_bytes, _energy = Reference.render scen in
  Alcotest.(check int) "same size" (String.length ref_bytes)
    (String.length vm_bytes);
  Alcotest.(check bool) "byte-for-byte identical output.wav" true
    (vm_bytes = ref_bytes)

let test_vm_console_report () =
  let scen = Scenario.tiny in
  let m = Harness.run_plain scen in
  let console = Machine.stdout_contents m in
  let _, energy = Reference.render scen in
  Alcotest.(check bool) "reports chunk count" true
    (Astring_contains.contains console
       (Printf.sprintf "chunks=%d" scen.Scenario.chunks));
  Alcotest.(check bool) "reports sample count" true
    (Astring_contains.contains console
       (Printf.sprintf "samples=%d"
          (scen.Scenario.chunks * scen.Scenario.frame * scen.Scenario.speakers)));
  Alcotest.(check bool) "reports the reference energy" true
    (Astring_contains.contains console (Printf.sprintf "%.6g" energy))

let test_output_wav_shape () =
  let scen = Scenario.tiny in
  let m = Harness.run_plain scen in
  match Tq_wav.Wav.decode (Harness.output_bytes m) with
  | Error e -> Alcotest.fail e
  | Ok w ->
      Alcotest.(check int) "channels = speakers" scen.Scenario.speakers
        (Array.length w.Tq_wav.Wav.channels);
      Alcotest.(check int) "frames = chunks*frame"
        (scen.Scenario.chunks * scen.Scenario.frame)
        (Array.length w.Tq_wav.Wav.channels.(0));
      Alcotest.(check int) "sample rate" scen.Scenario.sample_rate
        w.Tq_wav.Wav.sample_rate;
      (* the signal must not be silence *)
      let peak = ref 0. in
      Array.iter
        (Array.iter (fun x -> if Float.abs x > !peak then peak := Float.abs x))
        w.Tq_wav.Wav.channels;
      Alcotest.(check bool) "non-silent output" true (!peak > 0.01)

let test_instrumented_run_transparent () =
  (* running under the DBI engine with tQUAD attached must not change the
     application's output (Pin's transparency property) *)
  let scen = Scenario.tiny in
  let m = Machine.create ~vfs:(Harness.make_vfs scen) (Harness.compile scen) in
  let eng = Tq_dbi.Engine.create m in
  let _tq = Tq_tquad.Tquad.attach ~slice_interval:1000 eng in
  Tq_dbi.Engine.run ~fuel:(Harness.fuel scen) eng;
  Alcotest.(check (option int)) "exit 0" (Some 0) (Machine.exit_code m);
  let ref_bytes, _ = Reference.render scen in
  Alcotest.(check bool) "output identical under instrumentation" true
    (Harness.output_bytes m = ref_bytes)

let test_delay_gain_physics () =
  (* speakers closer to the source get more gain and less delay *)
  let scen = Scenario.tiny in
  let w = Result.get_ok (Tq_wav.Wav.decode (fst (Reference.render scen))) in
  (* with the source ending right of center, the outermost left and right
     channels must differ *)
  let energy c =
    Array.fold_left (fun a x -> a +. (x *. x)) 0. w.Tq_wav.Wav.channels.(c)
  in
  let left = energy 0 and right = energy (scen.Scenario.speakers - 1) in
  Alcotest.(check bool) "channel energies differ (spatialization)" true
    (Float.abs (left -. right) > 0.001 *. (left +. right))

(* Figs 6 and 7 come from the CLI: the live tquad subcommand on the wfs
   program writes the bandwidth series as CSV and the Chrome timeline. *)
let test_cli_figures () =
  let csv = Filename.temp_file "tq_fig" ".csv" in
  let timeline = Filename.temp_file "tq_fig" ".json" in
  Alcotest.(check int) "exit 0" 0
    (Test_dataflow.run_cli
       (Printf.sprintf
          "tquad --wfs tiny --slice 2000 --phases --csv %s --trace %s" csv
          timeline));
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let header =
    String.split_on_char ',' (List.hd (String.split_on_char '\n' (read csv)))
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in the CSV header") true (List.mem k header))
    [ "wav_store"; "fft1d" ];
  ignore (Tq_obs.Json.of_string (read timeline));
  List.iter Sys.remove [ csv; timeline ]

let suites =
  [
    ( "wfs",
      [
        Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
        Alcotest.test_case "deterministic input" `Quick test_input_deterministic;
        Alcotest.test_case "source generation" `Quick test_source_generation;
        Alcotest.test_case "log2i" `Quick test_log2i;
        Alcotest.test_case "vm output = reference (bytes)" `Quick
          test_vm_matches_reference_bytes;
        Alcotest.test_case "console report" `Quick test_vm_console_report;
        Alcotest.test_case "output wav shape" `Quick test_output_wav_shape;
        Alcotest.test_case "instrumentation transparency" `Quick
          test_instrumented_run_transparent;
        Alcotest.test_case "spatialization physics" `Quick test_delay_gain_physics;
        Alcotest.test_case "Figs 6/7 from the CLI (--wfs --csv --trace)" `Quick
          test_cli_figures;
      ] );
  ]

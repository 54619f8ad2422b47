(* The paper's case study end-to-end: run the hArtes-wfs analogue under
   tQUAD, identify execution phases, and print the Table-IV-style summary.

     dune exec examples/wfs_phases.exe            (tiny scenario)
     dune exec examples/wfs_phases.exe -- default *)

module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Tquad = Tq_tquad.Tquad
module Phases = Tq_tquad.Phases
module Scenario = Tq_wfs.Scenario

let () =
  let scen =
    match Sys.argv with
    | [| _; "default" |] -> Scenario.default
    | _ -> Scenario.tiny
  in
  Printf.printf "%s\n\n" (Scenario.describe scen);
  let machine =
    Machine.create
      ~vfs:(Tq_wfs.Harness.make_vfs scen)
      (Tq_wfs.Harness.compile scen)
  in
  let engine = Engine.create machine in
  let tquad = Tquad.attach ~slice_interval:2_000 engine in
  Engine.run ~fuel:(Tq_wfs.Harness.fuel scen) engine;
  print_string (Machine.stdout_contents machine);

  (* kernel activity overview *)
  Printf.printf "\n%d slices; kernel activity spans:\n" (Tquad.total_slices tquad);
  List.iter
    (fun k ->
      let t = Tquad.totals tquad k in
      Printf.printf "  %-24s %6d..%-6d (%d active)\n" k.Tq_vm.Symtab.name
        t.Tquad.first_slice t.last_slice t.activity_span)
    (Tquad.kernels tquad);

  (* automatic phase identification *)
  let phases = Phases.detect tquad in
  Printf.printf "\n%d phases detected:\n" (List.length phases);
  print_string (Phases.render phases);

  (* and the running-time graph for the top kernels *)
  let kernels =
    List.filter
      (fun k ->
        List.mem k.Tq_vm.Symtab.name
          [ "wav_load"; "fft1d"; "DelayLine_processChunk"; "AudioIo_setFrames";
            "wav_store" ])
      (Tquad.kernels tquad)
  in
  print_newline ();
  print_string
    (Tq_report.Report.figure tquad ~metric:Tquad.Read_incl ~kernels
       ~title:"wfs kernel read bandwidth over time" ())

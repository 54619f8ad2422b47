(* A second complete application under the profilers (the paper notes tQUAD
   "was tested on a set of real applications"): a JPEG-flavoured image
   pipeline — synthetic image generation, Sobel edge detection, per-block
   2-D DCT, quantization, zigzag and run-length encoding.

   Its profile is very different from wfs: integer-heavy phases
   (generation/sobel/RLE) bracketing a float-heavy transform phase, with
   phase boundaries the detector finds automatically.

     dune exec examples/image_pipeline.exe *)

module Machine = Tq_vm.Machine
module Engine = Tq_dbi.Engine
module Tquad = Tq_tquad.Tquad

let () =
  let program = Tq_apps.Apps.image_pipeline_program () in
  let machine = Machine.create program in
  let engine = Engine.create machine in
  let tquad = Tquad.attach ~slice_interval:5_000 engine in
  let mix = Tq_prof.Ins_mix.attach engine in
  Engine.run engine;
  print_string (Machine.stdout_contents machine);
  Printf.printf "(%d instructions)\n\n" (Machine.instr_count machine);

  print_string (Tq_prof.Ins_mix.render mix);
  print_newline ();

  let kernels = Tquad.kernels tquad in
  print_string
    (Tq_report.Report.figure tquad ~metric:Tquad.Read_incl ~kernels
       ~title:"image pipeline: read bandwidth per kernel over time" ());

  let phases = Tq_tquad.Phases.detect tquad in
  Printf.printf "\n%d phases detected:\n%s" (List.length phases)
    (Tq_tquad.Phases.render phases)

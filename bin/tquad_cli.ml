(* tquad — command-line front end.

   Compile MiniC programs to the simulated machine and analyse them with the
   tQUAD / QUAD / gprof-sim profilers.  Every subcommand that takes a
   program accepts a FILE, the built-in wfs case study (--wfs) or a demo
   application (--app).

     tquad disasm app.mc
     tquad run app.mc --dir data/
     tquad gprof app.mc --period 5000
     tquad quad --app pointer-chase --dot qdu.dot
     tquad tquad app.mc --slice 2000 --phases --csv series.csv
     tquad tquad --wfs tiny --slice 2000 *)

open Cmdliner
module Machine = Tq_vm.Machine
module Vfs = Tq_vm.Vfs
module Engine = Tq_dbi.Engine
module Symtab = Tq_vm.Symtab
module Obs = Tq_obs

let version_string = "1.0.0"

(* ---------- observability ----------

   Every subcommand takes [--metrics PATH]; when given, the run carries a
   live span recorder and metrics registry and writes a schema-versioned
   manifest (see docs/METRICS.md) on exit.  The flush hangs off [at_exit]
   so the manifest still lands on the error paths that call [exit 1/2/3/4]
   mid-pipeline — a failed run's manifest is exactly the one you want. *)

let obs = ref Obs.Span.disabled
let obs_metrics = ref Obs.Metrics.disabled
let obs_state = ref None (* Some (path, subcommand) once --metrics is seen *)
let obs_sections = ref [] (* manifest extra sections, newest first *)
let obs_written = ref false
let subcommand = ref "tquad" (* set by [obs_init], for error messages *)

let obs_section name json =
  if Obs.Span.is_enabled !obs && not (List.mem_assoc name !obs_sections) then
    obs_sections := (name, json) :: !obs_sections

let obs_flush () =
  match !obs_state with
  | Some (path, subcommand) when not !obs_written ->
      obs_written := true;
      let doc =
        Obs.Manifest.make ~tool:"tquad" ~subcommand
          ~argv:(Array.to_list Sys.argv)
          ~extra:(List.rev !obs_sections)
          !obs !obs_metrics
      in
      (* a manifest that cannot be written fails the run like any other
         unwritable output (exit 3); [exit] from an [at_exit] function
         runs the remaining ones, this one not again *)
      (try Obs.Manifest.write path doc
       with Sys_error msg ->
         Printf.eprintf "tquad: --metrics: %s\n" msg;
         exit 3)
  | _ -> ()

let obs_init sub metrics =
  subcommand := sub;
  match metrics with
  | None -> ()
  | Some path ->
      obs := Obs.Span.create ();
      obs_metrics := Obs.Metrics.create ();
      obs_state := Some (path, sub);
      at_exit obs_flush

let span ?attrs name f = Obs.Span.with_span !obs ?attrs name f

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Write a run manifest to $(docv): a schema-versioned JSON document \
           with pipeline spans, the metrics registry and \
           engine/memory/trace/replay sections (see docs/METRICS.md).  \
           Written even when the run fails.")

(* Engine and page-cache statistics, recorded by every subcommand that
   actually executes the program. *)
let obs_engine_sections eng m =
  if Obs.Span.is_enabled !obs then begin
  let s = Engine.stats eng in
  obs_section "engine"
    (Obs.Json.Obj
       [ ("compiled_traces", Obs.Json.Int s.Engine.compiled_traces);
         ("compiled_instructions", Obs.Json.Int s.Engine.compiled_instructions);
         ("lookups", Obs.Json.Int s.Engine.lookups);
         ("misses", Obs.Json.Int s.Engine.misses);
         ("chain_hits", Obs.Json.Int s.Engine.chain_hits);
         ("closure_instructions", Obs.Json.Int s.Engine.closure_instructions) ]);
  let mem = Machine.mem m in
  let c = Tq_vm.Memory.cache_stats mem in
  obs_section "memory"
    (Obs.Json.Obj
       [ ("page_cache_hits", Obs.Json.Int c.Tq_vm.Memory.hits);
         ("page_cache_misses", Obs.Json.Int c.Tq_vm.Memory.misses);
         ("pages", Obs.Json.Int (Tq_vm.Memory.page_count mem)) ])
  end

(* The manifest's ["trace"] section for a loaded reader.  With [verify]
   ([record]'s post-write check, [trace-info]) it also times a full CRC
   verification pass over every chunk; a replay leaves the CRC to its
   decode stage, which pays it whether or not the run is metered. *)
let obs_trace_section ~verify r =
  if Obs.Span.is_enabled !obs then begin
    let crc_verify_s =
      if not verify then []
      else
        match
          span "crc-verify" (fun () ->
              let t0 = Unix.gettimeofday () in
              ignore (Tq_trace.Reader.crc_check r);
              Unix.gettimeofday () -. t0)
        with
        | dt -> [ ("crc_verify_s", Obs.Json.Float dt) ]
        | exception Tq_trace.Reader.Format_error _ -> []
    in
    (* the section body is the shared codec (Tq_report.Toolset), so the
       manifest, `trace-info --json` and the daemon's trace-info response
       can never drift apart *)
    obs_section "trace"
      (Tq_report.Toolset.trace_section ~extra:crc_verify_s r)
  end

(* Exit-code contract (docs/CLI.md): 0 success, 1 the program failed (trap,
   out of fuel; for [run], a non-zero or missing exit), 2 usage error, 3
   input unreadable/unusable (a program that cannot be read or compiled, a
   bad container, an unreadable/unwritable file, a fingerprint mismatch;
   for wcet, control flow the analysis cannot bound), 4 partial failure
   (the input was readable, but replay tools failed or check diagnostics
   fired). *)
let exit_usage = 2
let exit_unreadable = 3
let exit_partial = 4

(* The one way the CLI writes a file: an unwritable path prints
   "SUB: reason" on stderr and exits 3, like an unreadable input. *)
let write_out path contents =
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
  with Sys_error msg ->
    Printf.eprintf "%s: %s\n" !subcommand msg;
    exit exit_unreadable

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let vfs_of_dir dir =
  let vfs = Vfs.create () in
  (match dir with
  | None -> ()
  | Some d ->
      Array.iter
        (fun name ->
          let full = Filename.concat d name in
          if Sys.is_regular_file full then Vfs.install vfs name (read_file full))
        (Sys.readdir d));
  vfs

let write_back ?(console = stdout) dir vfs before =
  match dir with
  | None -> ()
  | Some d ->
      List.iter
        (fun name ->
          if not (List.mem name before) then begin
            write_out (Filename.concat d name)
              (Option.get (Vfs.contents vfs name));
            Printf.fprintf console "wrote %s\n" (Filename.concat d name)
          end)
        (Vfs.list vfs)

let finish ?(console = stdout) m =
  output_string console (Machine.stdout_contents m);
  (match Machine.exit_code m with
  | Some 0 -> ()
  | Some c -> Printf.fprintf console "[exit code %d]\n" c
  | None -> Printf.fprintf console "[did not exit]\n");
  flush console

(* ---------- the program ----------

   Every subcommand that takes a program names it the same way: a FILE, the
   built-in wfs case study (--wfs) or a demo application (--app).  One
   loader turns the name into a [target] and one executor runs it. *)

type target = {
  prog : Tq_vm.Program.t;
  bounds : Tq_staticcheck.Staticcheck.bounds option;
      (* static-data layout for check's bounds checker: source files only,
         since object files carry no per-object sizes *)
  make_vfs : string option -> Vfs.t;  (* from --dir, if the subcommand has it *)
  fuel : int option;
}

(* Every data object of the linked units with its address and size. *)
let bounds_of units (prog : Tq_vm.Program.t) syms =
  let objects = ref [] in
  List.iter
    (fun (u : Tq_asm.Link.cunit) ->
      List.iter
        (fun (d : Tq_asm.Link.datum) ->
          match Hashtbl.find_opt syms d.Tq_asm.Link.dname with
          | None -> ()
          | Some addr ->
              let size =
                match d.Tq_asm.Link.init with
                | Tq_asm.Link.Zero n -> n
                | Tq_asm.Link.Bytes s -> String.length s
              in
              objects := (d.Tq_asm.Link.dname, addr, size) :: !objects)
        u.Tq_asm.Link.data)
    units;
  Some
    {
      Tq_staticcheck.Staticcheck.b_objects =
        List.sort (fun (_, a, _) (_, b, _) -> compare a b) !objects;
      b_data_end = prog.Tq_vm.Program.data_end;
    }

(* An object file (from [build]) loads as is; .s files are assembly
   providing their own _start, linked with the runtime available for calls;
   anything else is MiniC, linked against the runtime image (entry via the
   runtime's _start -> main).  A file that cannot be read or built exits
   3. *)
let load_file path =
  let fail fmt =
    Printf.ksprintf (fun msg -> prerr_endline msg; exit exit_unreadable) fmt
  in
  let link units =
    match Tq_asm.Link.link_with_symbols units with
    | prog, syms -> (prog, bounds_of units prog syms)
    | exception Tq_asm.Link.Link_error msg -> fail "%s: link error: %s" path msg
  in
  match read_file path with
  | exception Sys_error msg -> fail "tquad: %s" msg
  | source when Tq_vm.Objfile.is_objfile source -> (
      match Tq_vm.Objfile.decode source with
      | prog -> (prog, None)
      | exception Tq_vm.Objfile.Format_error msg -> fail "%s: %s" path msg)
  | source when Filename.check_suffix path ".s" -> (
      match Tq_asm.Asm_parse.parse source with
      | u -> link [ u; Tq_rt.Rt.unit_no_start ]
      | exception Tq_asm.Asm_parse.Asm_error { line; msg } ->
          fail "%s:%d: %s" path line msg)
  | source -> (
      match Tq_minic.Driver.compile_unit ~image:"app" source with
      | u -> link [ u; Tq_rt.Rt.unit_ ]
      | exception Tq_minic.Driver.Compile_error msg -> fail "%s: %s" path msg)

let load source =
  let instructions = ref 0 in
  span ~attrs:(fun () -> [ ("instructions", !instructions) ]) "compile"
    (fun () ->
      let plain prog =
        { prog; bounds = None; make_vfs = vfs_of_dir; fuel = None }
      in
      let t =
        match source with
        | `File path ->
            let prog, bounds = load_file path in
            { (plain prog) with bounds }
        | `Wfs scen ->
            {
              prog = Tq_wfs.Harness.compile scen;
              bounds = None;
              (* the scenario synthesizes its own input files *)
              make_vfs = (fun _ -> Tq_wfs.Harness.make_vfs scen);
              fuel = Some (Tq_wfs.Harness.fuel scen);
            }
        | `App `Image_pipeline -> plain (Tq_apps.Apps.image_pipeline_program ())
        | `App `Pointer_chase -> plain (Tq_apps.Apps.pointer_chase_program ())
      in
      instructions := Array.length t.prog.Tq_vm.Program.code;
      t)

let scenario_enum =
  [ ("tiny", Tq_wfs.Scenario.tiny);
    ("default", Tq_wfs.Scenario.default);
    ("large", Tq_wfs.Scenario.large) ]

(* The program term: FILE at positional [n], --wfs or --app.  It yields a
   loader, called once the subcommand has set up its manifest; the loader
   returns [None] when no program was named (only when [required] is false)
   and exits 2 when more than one was. *)
let program_term ~required n =
  let file_arg =
    Arg.(
      value
      & pos n (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "The program: MiniC source, or assembly if it ends in .s, or an \
             object file written by $(b,build).")
  in
  let wfs_arg =
    Arg.(
      value
      & opt (some (enum scenario_enum)) None
      & info [ "wfs" ] ~docv:"SCENARIO"
          ~doc:
            "Use the built-in wfs case study (tiny, default or large) as the \
             program instead of a file.")
  in
  let app_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("image-pipeline", `Image_pipeline);
                  ("pointer-chase", `Pointer_chase) ]))
          None
      & info [ "app" ] ~docv:"NAME"
          ~doc:
            "Use a built-in demo application (image-pipeline or \
             pointer-chase) as the program instead of a file.")
  in
  let pick file wfs app () =
    let named =
      List.filter_map Fun.id
        [ Option.map (fun f -> `File f) file;
          Option.map (fun s -> `Wfs s) wfs;
          Option.map (fun a -> `App a) app ]
    in
    match named with
    | [ source ] -> Some (load source)
    | [] when not required -> None
    | _ ->
        Printf.eprintf "tquad: give %s one of FILE, --wfs or --app\n"
          (if required then "exactly" else "at most");
        exit exit_usage
  in
  Term.(const pick $ file_arg $ wfs_arg $ app_arg)

let program ?(pos = 0) () =
  Term.(
    const (fun pick () -> Option.get (pick ()))
    $ program_term ~required:true pos)

(* The one place a program runs: [go] drives the engine to the end (or to
   the fuel budget).  A trap or running out of fuel is a program-level
   failure, exit 1. *)
let execute ?(name = "execute") ?(attrs = fun () -> []) eng go =
  let m = Engine.machine eng in
  let result =
    span
      ~attrs:(fun () -> attrs () @ [ ("instructions", Machine.instr_count m) ])
      name
      (fun () ->
        try go () with
        | Machine.Trap { ip; reason } ->
            Printf.eprintf "trap at 0x%x: %s\n" ip reason;
            exit 1
        | Tq_vm.Executor.Out_of_fuel n ->
            Printf.eprintf "out of fuel after %d instructions\n" n;
            exit 1)
  in
  obs_engine_sections eng m;
  result

(* The instrumented tool subcommands route the program's own console output
   (and write-back notices) to stderr so their stdout is exactly the analysis
   report — byte-identical to what [replay --tool=...] prints for the same
   trace.  [run] passes [~console:stdout] to keep plain execution unchanged. *)
let run_under ?(console = stderr) t dir attach =
  let vfs = t.make_vfs dir in
  let before = Vfs.list vfs in
  let m = Machine.create ~vfs t.prog in
  let eng = Engine.create m in
  let tool = attach eng in
  execute eng (fun () -> Engine.run ?fuel:t.fuel eng);
  finish ~console m;
  write_back ~console dir vfs before;
  (tool, m)

(* ---------- common args ---------- *)

let dir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Directory whose files are loaded into the program's virtual \
           filesystem before the run; files the program creates are written \
           back.")

(* ---------- subcommands ---------- *)

let build_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output object file.")
  in
  let run metrics program out =
    obs_init "build" metrics;
    let prog = (program ()).prog in
    write_out out (Tq_vm.Objfile.encode prog);
    Printf.printf "wrote %s (%d instructions, %d symbols)\n" out
      (Array.length prog.Tq_vm.Program.code)
      (Tq_vm.Symtab.count prog.Tq_vm.Program.symtab)
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Compile and link to an on-disk binary; all other subcommands accept \
          the resulting .bin directly")
    Term.(const run $ metrics_arg $ program () $ out_arg)

let disasm_cmd =
  let run metrics program =
    obs_init "disasm" metrics;
    print_string (Tq_vm.Program.disassemble (program ()).prog)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Compile a program and print the disassembly")
    Term.(const run $ metrics_arg $ program ())

let run_cmd =
  let run metrics program dir =
    obs_init "run" metrics;
    let (), m = run_under ~console:stdout (program ()) dir ignore in
    if Machine.exit_code m <> Some 0 then exit 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile and execute a program (uninstrumented); exits 1 if the \
          program exits non-zero or does not exit")
    Term.(const run $ metrics_arg $ program () $ dir_arg)

(* Every numeric option parses through one of these: an out-of-range value
   (and, for floats, NaN or an infinity) is a usage error (exit 2), caught
   here instead of inside the tool, the pipeline or the server. *)
let checked_conv of_string pp ~what ok =
  let parse s =
    match of_string s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, pp)

let int_conv = checked_conv int_of_string_opt Format.pp_print_int
let positive_int = int_conv ~what:"a positive integer" (fun n -> n > 0)
let non_negative_int = int_conv ~what:"a non-negative integer" (fun n -> n >= 0)

let float_conv ~what ok =
  checked_conv float_of_string_opt Format.pp_print_float ~what (fun x ->
      Float.is_finite x && ok x)

let positive_float = float_conv ~what:"a finite positive number" (fun x -> x > 0.)

let non_negative_float =
  float_conv ~what:"a finite non-negative number" (fun x -> x >= 0.)

let period_arg =
  Arg.(
    value & opt positive_int Tq_gprofsim.Gprofsim.default_period
    & info [ "period" ] ~docv:"N" ~doc:"Instructions between PC samples.")

let slice_arg =
  Arg.(
    value & opt positive_int Tq_tquad.Tquad.default_slice_interval
    & info [ "slice" ] ~docv:"N"
        ~doc:"tQUAD time-slice interval in instructions.")

let gprof_cmd =
  let run metrics program dir period =
    obs_init "gprof" metrics;
    let g, _ =
      run_under (program ()) dir (Tq_gprofsim.Gprofsim.attach ~period)
    in
    print_string (Tq_report.Toolset.render_gprof g)
  in
  Cmd.v
    (Cmd.info "gprof" ~doc:"Profile a MiniC program with the sampling profiler")
    Term.(const run $ metrics_arg $ program () $ dir_arg $ period_arg)

let track_all_arg =
  Arg.(
    value & flag
    & info [ "track-all" ]
        ~doc:
          "Track runtime-library routines as kernels instead of attributing \
           their traffic to the caller.")

let quad_cmd =
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PATH" ~doc:"Write the QDU graph in DOT format.")
  in
  let run metrics program dir track_all dot =
    obs_init "quad" metrics;
    let policy =
      if track_all then Tq_prof.Call_stack.Track_all
      else Tq_prof.Call_stack.Main_image_only
    in
    let q, _ = run_under (program ()) dir (Tq_quad.Quad.attach ~policy) in
    print_string (Tq_report.Toolset.render_quad q);
    match dot with
    | None -> ()
    | Some path ->
        write_out path (Tq_quad.Quad.to_dot q);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "quad" ~doc:"Analyse producer/consumer memory bindings (QUAD)")
    Term.(const run $ metrics_arg $ program () $ dir_arg $ track_all_arg $ dot_arg)

let tquad_cmd =
  let phases_arg =
    Arg.(value & flag & info [ "phases" ] ~doc:"Run phase identification.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:"Write the per-kernel read-bandwidth series as CSV.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write the kernel activity timeline as Chrome trace-event JSON \
             (chrome://tracing, Perfetto).")
  in
  let run metrics program dir track_all slice phases csv trace =
    obs_init "tquad" metrics;
    let policy =
      if track_all then Tq_prof.Call_stack.Track_all
      else Tq_prof.Call_stack.Main_image_only
    in
    let t, _ =
      run_under (program ()) dir (fun eng ->
          Tq_tquad.Tquad.attach ~slice_interval:slice ~policy eng)
    in
    let kernels = Tq_tquad.Tquad.kernels t in
    print_string (Tq_report.Toolset.render_tquad ~slice t);
    if phases then begin
      print_newline ();
      print_string (Tq_tquad.Phases.render (Tq_tquad.Phases.detect t))
    end;
    (match csv with
    | None -> ()
    | Some path ->
        write_out path
          (Tq_report.Report.figure_csv t ~metric:Tq_tquad.Tquad.Read_incl ~kernels);
        Printf.printf "wrote %s\n" path);
    match trace with
    | None -> ()
    | Some path ->
        write_out path (Tq_report.Report.chrome_trace t);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "tquad"
       ~doc:"Temporal memory bandwidth analysis (the paper's tQUAD tool)")
    Term.(
      const run $ metrics_arg $ program () $ dir_arg $ track_all_arg $ slice_arg
      $ phases_arg $ csv_arg $ trace_arg)

let mix_cmd =
  let run metrics program dir =
    obs_init "mix" metrics;
    let mix, _ = run_under (program ()) dir Tq_prof.Ins_mix.attach in
    print_string (Tq_report.Toolset.render_mix mix)
  in
  Cmd.v
    (Cmd.info "mix" ~doc:"Instruction-mix profile (loads/stores/ALU/branches)")
    Term.(const run $ metrics_arg $ program () $ dir_arg)

let callgraph_cmd =
  let run metrics program dir period =
    obs_init "callgraph" metrics;
    let g, _ =
      run_under (program ()) dir (Tq_gprofsim.Gprofsim.attach ~period)
    in
    print_string (Tq_gprofsim.Gprofsim.call_graph_report g)
  in
  Cmd.v
    (Cmd.info "callgraph" ~doc:"gprof-style call-graph report")
    Term.(const run $ metrics_arg $ program () $ dir_arg $ period_arg)

let cache_cmd =
  let size_arg =
    Arg.(
      value & opt positive_int 32
      & info [ "size-kib" ] ~docv:"N"
          ~doc:"Cache size in KiB (at most 16384).")
  in
  let assoc_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "assoc" ] ~docv:"N" ~doc:"Ways per set.")
  in
  let line_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "line" ] ~docv:"N" ~doc:"Line size in bytes (a power of two).")
  in
  let run metrics program dir size_kib assoc line =
    obs_init "cache" metrics;
    (* saturate rather than wrap: validate refuses any size above its cap *)
    let size_bytes =
      if size_kib > max_int / 1024 then max_int else size_kib * 1024
    in
    let geometry =
      { Tq_prof.Cache_sim.size_bytes; line_bytes = line; assoc }
    in
    (match Tq_prof.Cache_sim.validate geometry with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "bad cache config: %s\n" msg;
        exit exit_usage);
    let c, _ =
      run_under (program ()) dir (Tq_prof.Cache_sim.attach ~geometry)
    in
    print_string (Tq_prof.Cache_sim.render c)
  in
  Cmd.v
    (Cmd.info "cache" ~doc:"Per-kernel cache hit/miss simulation")
    Term.(
      const run $ metrics_arg $ program () $ dir_arg $ size_arg $ assoc_arg
      $ line_arg)

let diff_cmd =
  let file_arg n docv =
    Arg.(required & pos n (some string) None & info [] ~docv)
  in
  let run metrics before after period =
    obs_init "diff" metrics;
    let profile file =
      let g, _ =
        run_under (load (`File file)) None (Tq_gprofsim.Gprofsim.attach ~period)
      in
      Tq_gprofsim.Gprofsim.flat_profile g
    in
    print_string
      (Tq_report.Report.profile_diff ~before:(profile before)
         ~after:(profile after))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare the flat profiles of two program versions (the \
          profile-revise-reprofile workflow)")
    Term.(
      const run $ metrics_arg $ file_arg 0 "BEFORE" $ file_arg 1 "AFTER"
      $ period_arg)

let footprint_cmd =
  let run metrics program dir =
    obs_init "footprint" metrics;
    let f, _ = run_under (program ()) dir Tq_prof.Footprint.attach in
    print_string (Tq_prof.Footprint.render f)
  in
  Cmd.v
    (Cmd.info "footprint"
       ~doc:"Per-kernel unique-byte footprint by region (buffer sizing)")
    Term.(const run $ metrics_arg $ program () $ dir_arg)

let wcet_cmd =
  let bound_arg =
    Arg.(
      value & opt non_negative_int 1024
      & info [ "bound" ] ~docv:"N"
          ~doc:"Uniform loop bound (max header executions per loop entry).")
  in
  let routine_arg =
    Arg.(
      value & opt string "_start"
      & info [ "routine" ] ~docv:"NAME" ~doc:"Routine to analyse.")
  in
  let run metrics program bound routine =
    obs_init "wcet" metrics;
    let prog = (program ()).prog in
    if Tq_vm.Symtab.by_name prog.Tq_vm.Program.symtab routine = None then begin
      Printf.eprintf "wcet: unknown routine %s\n" routine;
      exit exit_usage
    end;
    (* list loops per main-image routine *)
    Tq_vm.Symtab.iter
      (fun r ->
        if r.Symtab.is_main_image then
          match Tq_wcet.Wcet.loops prog r.Symtab.name with
          | [] -> ()
          | ls ->
              Printf.printf "%s: %d loop(s)%s\n" r.Symtab.name (List.length ls)
                (String.concat ""
                   (List.map
                      (fun l ->
                        Printf.sprintf " [header 0x%x depth %d]"
                          l.Tq_wcet.Wcet.header_addr l.Tq_wcet.Wcet.depth)
                      ls))
          | exception Tq_wcet.Wcet.Analysis_error msg ->
              Printf.printf "%s: %s\n" r.Symtab.name msg)
      prog.Tq_vm.Program.symtab;
    let bounds name =
      List.map (fun _ -> bound) (Tq_wcet.Wcet.loops prog name)
    in
    match Tq_wcet.Wcet.analyze prog ~bounds routine with
    | b -> Printf.printf "\nWCET(%s) <= %d instructions (uniform bound %d)\n" routine b bound
    | exception Tq_wcet.Wcet.Analysis_error msg ->
        Printf.eprintf "analysis error: %s\n" msg;
        exit exit_unreadable
  in
  Cmd.v
    (Cmd.info "wcet" ~doc:"Static worst-case execution time bound")
    Term.(const run $ metrics_arg $ program () $ bound_arg $ routine_arg)

(* ---------- record / replay ---------- *)

let load_reader ?mode ~verify ctx path =
  let r =
    span "load-trace" (fun () ->
        try Tq_trace.Reader.load ?mode path with
        | Tq_trace.Reader.Format_error msg ->
            Printf.eprintf "%s: %s: %s\n" ctx path msg;
            exit exit_unreadable
        | Sys_error msg ->
            Printf.eprintf "%s: %s\n" ctx msg;
            exit exit_unreadable)
  in
  obs_trace_section ~verify r;
  r

let print_salvage ~ctx ~events (s : Tq_trace.Reader.salvage) =
  Printf.eprintf
    "%s: salvage: recovered %d chunk(s) (%d events), %d corrupt region(s) \
     (%d bytes) dropped — %s\n"
    ctx s.Tq_trace.Reader.salvaged_chunks events s.dropped_chunks
    s.dropped_bytes s.reason

let record_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output trace file.")
  in
  let compress_arg =
    Arg.(
      value & flag
      & info [ "compress" ]
          ~doc:
            "Write a v4 (redundancy-suppressed) container: repeated loop \
             bodies are stored once with per-iteration operand strides.  \
             Replay output is byte-identical to an uncompressed recording.")
  in
  let run metrics program dir out compress =
    obs_init "record" metrics;
    let t = program () in
    let m = Machine.create ~vfs:(t.make_vfs dir) t.prog in
    let eng = Engine.create m in
    let events_ref = ref 0 in
    let events =
      execute ~name:"record"
        ~attrs:(fun () -> [ ("events", !events_ref) ])
        eng
        (fun () ->
          match Tq_trace.Probe.record ?fuel:t.fuel ~compress eng ~path:out with
          | n ->
              events_ref := n;
              n
          | exception Sys_error msg ->
              Printf.eprintf "record: %s\n" msg;
              exit exit_unreadable)
    in
    if Obs.Metrics.is_enabled !obs_metrics then
      Obs.Metrics.add
        (Obs.Metrics.counter !obs_metrics ~unit_:"events" "events_recorded")
        events;
    finish m;
    let r = load_reader ~verify:true "record" out in
    Printf.printf "wrote %s: %d events, %d chunks, %d bytes (%d instructions)\n"
      out events
      (Tq_trace.Reader.n_chunks r)
      (Tq_trace.Reader.byte_size r)
      (Tq_trace.Reader.last_icount r);
    if compress then
      Printf.printf
        "  compressed: %d of %d events stored (%.2fx event ratio; %d plain + \
         %d repeat + %d body chunks)\n"
        (Tq_trace.Reader.stored_events r)
        events
        (Tq_trace.Reader.event_ratio r)
        (Tq_trace.Reader.plain_chunks r)
        (Tq_trace.Reader.repeat_chunks r)
        (Tq_trace.Reader.body_chunks r)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Execute once under the event recorder and stream the trace to disk; \
          any analysis tool can then replay it without re-running the program")
    Term.(
      const run $ metrics_arg $ program () $ dir_arg $ out_arg $ compress_arg)

let all_tool_names = Tq_report.Toolset.names

let replay_job ?policy prog ~slice ~period name =
  match Tq_report.Toolset.job ?policy ~prog ~slice ~period name with
  | Ok j -> j
  | Error msg ->
      Printf.eprintf "replay: %s\n" msg;
      exit exit_usage

(* Testing aid for the supervised-replay exit-code contract: wrap the named
   job so its sink raises on the first event it sees.  Naming a tool the
   run does not have is a usage error, not a silent no-op. *)
let sabotage name jobs =
  let names = List.map (fun (j : Tq_trace.Replay.job) -> j.name) jobs in
  if not (List.mem name names) then begin
    Printf.eprintf "replay: --fail-tool %s is not a tool of this run (%s)\n"
      name (String.concat ", " names);
    exit exit_usage
  end;
  List.map
    (fun (j : Tq_trace.Replay.job) ->
      if j.Tq_trace.Replay.name <> name then j
      else
        Tq_trace.Replay.job ~wants:j.wants j.name (fun () ->
            let _sink, finish = j.make () in
            ( (fun _ -> failwith "deliberate failure injected by --fail-tool"),
              finish )))
    jobs

(* The one printer of a multi-tool job's outcome, for `replay` and `client
   replay` alike: each surviving tool's report on stdout, separated by
   === name === banners when the job ran more than one tool (a single-tool
   report prints bare, byte-identical to the live subcommand), then each
   failed tool on stderr.  Exit codes stay with the caller. *)
let print_tool_reports ~ctx reports failures =
  let banner = List.length reports + List.length failures > 1 in
  List.iter
    (fun (name, report) ->
      if banner then Printf.printf "=== %s ===\n" name;
      print_string report)
    reports;
  List.iter
    (fun (name, msg) -> Printf.eprintf "%s: tool %s failed: %s\n" ctx name msg)
    failures

let replay_cmd =
  let trace_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
  in
  let tool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tool" ] ~docv:"TOOL"
          ~doc:"Tool to replay the trace through: tquad, quad, gprof, mix, \
                cache or footprint.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Replay the trace through every tool, fanned out over domains.")
  in
  let domains_arg =
    Arg.(
      value & opt (some positive_int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for --all (default: one per core; 1 with \
                default --shards = one ordered pipeline walk on the calling \
                domain).  A usage error with --tool.")
  in
  let shards_arg =
    Arg.(
      value & opt (some positive_int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:"Trace ranges per shardable tool for --all (default: one per \
                domain).  Tools that cannot shard consume the ordered chunk \
                walk instead.  A usage error with --tool.")
  in
  let salvage_arg =
    Arg.(
      value & flag
      & info [ "salvage" ]
          ~doc:
            "Load the trace in salvage mode: ignore the trailer and index, \
             rebuild the chunk list by forward scan and replay every chunk \
             whose CRC verifies.  For recordings killed mid-run (.tmp files) \
             or damaged on disk.")
  in
  let fail_tool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fail-tool" ] ~docv:"TOOL"
          ~doc:
            "Testing aid: make TOOL's replay job raise on its first event, \
             to exercise the partial-failure exit code (4).  TOOL must be \
             one of the run's tools (exit 2 otherwise).")
  in
  let run metrics trace program tool all domains shards slice period track_all
      salvage fail_tool =
    obs_init "replay" metrics;
    let policy =
      if track_all then Tq_prof.Call_stack.Track_all
      else Tq_prof.Call_stack.Main_image_only
    in
    if tool <> None && (not all) && (domains <> None || shards <> None)
    then begin
      Printf.eprintf
        "replay: --domains and --shards apply to --all only (--tool runs the \
         sequential oracle on the calling domain)\n";
      exit exit_usage
    end;
    (* the trace stores routine ids and code addresses, not the image, so
       the program must be the recorded one (checked by fingerprint) *)
    let prog = (program ()).prog in
    let mode =
      if salvage then Tq_trace.Reader.Salvage else Tq_trace.Reader.Strict
    in
    let reader = load_reader ~mode ~verify:false "replay" trace in
    (match Tq_trace.Reader.salvage_info reader with
    | Some s ->
        print_salvage ~ctx:"replay" ~events:(Tq_trace.Reader.n_events reader) s
    | None -> ());
    (match Tq_trace.Replay.check_program reader prog with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "replay: %s\n" msg;
        exit exit_unreadable);
    (* Surviving tools print their reports (byte-identical to live runs);
       failed tools are listed on stderr.  Exit 4 for a partial failure, 3
       when nothing ran because the trace itself was unreadable. *)
    let finish_results results =
      let ok, failed =
        List.partition_map
          (fun (name, outcome) ->
            match outcome with
            | Ok report -> Either.Left (name, report)
            | Error f -> Either.Right (name, f))
          results
      in
      if Obs.Metrics.is_enabled !obs_metrics then begin
        Obs.Metrics.add
          (Obs.Metrics.counter !obs_metrics ~unit_:"tools" "tools_ok")
          (List.length ok);
        Obs.Metrics.add
          (Obs.Metrics.counter !obs_metrics ~unit_:"tools" "tools_failed")
          (List.length failed)
      end;
      print_tool_reports ~ctx:"replay" ok
        (List.map
           (fun (name, f) -> (name, Tq_trace.Replay.failure_message f))
           failed);
      if failed = [] then ()
      else if ok = [] && List.for_all (fun (_, f) -> Tq_trace.Replay.is_trace_error f) failed
      then exit exit_unreadable
      else exit exit_partial
    in
    let prepare jobs =
      match fail_tool with Some name -> sabotage name jobs | None -> jobs
    in
    match (tool, all) with
    | Some name, false ->
        (* one job on the calling domain: the replay span is its time *)
        let jobs = prepare [ replay_job ~policy prog ~slice ~period name ] in
        finish_results
          (span "replay" (fun () -> Tq_trace.Replay.sequential reader jobs))
    | None, true ->
        let jobs =
          prepare
            (List.map (replay_job ~policy prog ~slice ~period) all_tool_names)
        in
        let results =
          span "replay" (fun () ->
              Tq_trace.Replay.parallel ?domains ?shards
                ~stats:(fun s ->
                  obs_section "replay" (Tq_report.Toolset.replay_section s))
                reader jobs)
        in
        finish_results results
    | _ ->
        Printf.eprintf "replay: give either --tool TOOL or --all\n";
        exit exit_usage
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded trace through one analysis tool (--tool) or all \
          of them in parallel (--all); reports are byte-identical to a \
          live-instrumented run.  Exit codes: 0 ok, 2 usage, 3 trace \
          unreadable, 4 partial replay failure (some tools failed, the \
          survivors' reports were printed)")
    Term.(
      const run $ metrics_arg $ trace_pos_arg $ program ~pos:1 () $ tool_arg
      $ all_arg $ domains_arg $ shards_arg $ slice_arg $ period_arg
      $ track_all_arg $ salvage_arg $ fail_tool_arg)

(* ---------- trace inspection / fault injection ---------- *)

let trace_info_cmd =
  let trace_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
  in
  let salvage_arg =
    Arg.(
      value & flag
      & info [ "salvage" ]
          ~doc:"Scan in salvage mode even if the container loads strictly.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a run manifest (schema of docs/METRICS.md) with the \
             trace section to stdout instead of the human summary — the \
             same codec path the serve daemon's trace-info response uses.")
  in
  let run metrics trace salvage json =
    obs_init "trace-info" metrics;
    let print_json r =
      let doc =
        Obs.Manifest.make ~tool:"tquad" ~subcommand:"trace-info"
          ~argv:(Array.to_list Sys.argv)
          ~extra:[ ("trace", Tq_report.Toolset.trace_section r) ]
          Obs.Span.disabled Obs.Metrics.disabled
      in
      print_string (Obs.Json.to_string doc)
    in
    let print_reader r =
      Printf.printf "%s: container v%d, %d events in %d chunks, %d bytes\n"
        trace
        (Tq_trace.Reader.version r)
        (Tq_trace.Reader.n_events r)
        (Tq_trace.Reader.n_chunks r)
        (Tq_trace.Reader.byte_size r);
      let fp = Tq_trace.Reader.fingerprint r in
      Printf.printf "  fingerprint %016Lx%s\n" fp
        (if Int64.equal fp 0L then " (program unknown to the recorder)" else "");
      Printf.printf "  last icount %d\n" (Tq_trace.Reader.last_icount r);
      (if Tq_trace.Reader.version r = 4 then
         Printf.printf
           "  compression: %d of %d events stored (%.2fx); chunks: %d plain, \
            %d repeat, %d body-def\n"
           (Tq_trace.Reader.stored_events r)
           (Tq_trace.Reader.n_events r)
           (Tq_trace.Reader.event_ratio r)
           (Tq_trace.Reader.plain_chunks r)
           (Tq_trace.Reader.repeat_chunks r)
           (Tq_trace.Reader.body_chunks r));
      match Tq_trace.Reader.salvage_info r with
      | Some s ->
          Printf.printf
            "  salvage: %d chunk(s) recovered, %d corrupt region(s) (%d \
             bytes) dropped\n  reason: %s\n"
            s.Tq_trace.Reader.salvaged_chunks s.dropped_chunks s.dropped_bytes
            s.reason
      | None -> ()
    in
    let emit r = if json then print_json r else print_reader r in
    let salvaged () =
      load_reader ~mode:Tq_trace.Reader.Salvage ~verify:true "trace-info" trace
    in
    if salvage then emit (salvaged ())
    else
      match span "load-trace" (fun () -> Tq_trace.Reader.load trace) with
      | r ->
          obs_trace_section ~verify:true r;
          emit r
      | exception Sys_error msg ->
          Printf.eprintf "trace-info: %s\n" msg;
          exit exit_unreadable
      | exception Tq_trace.Reader.Format_error msg ->
          (* strict load refused the container — report why (on stderr under
             --json, whose stdout must stay pure JSON), then salvage *)
          Printf.fprintf
            (if json then stderr else stdout)
            "%s: strict load failed: %s\n" trace msg;
          emit (salvaged ())
  in
  Cmd.v
    (Cmd.info "trace-info"
       ~doc:
         "Inspect a recorded trace: container version, fingerprint, \
          event/chunk counts.  Falls back to a salvage scan (recovered and \
          dropped chunk counts) when the strict load refuses the file; exit \
          3 only if nothing is recoverable")
    Term.(const run $ metrics_arg $ trace_pos_arg $ salvage_arg $ json_arg)

let faultgen_cmd =
  let trace_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Output file (one mutation) or directory (--sweep).")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let sweep_arg =
    Arg.(
      value & opt int 0
      & info [ "sweep" ] ~docv:"K"
          ~doc:
            "Write K independently-seeded random mutations into the output \
             directory instead of applying one --mutation.")
  in
  let mutation_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutation" ] ~docv:"KIND"
          ~doc:
            "Mutation to apply: bit-flip, truncate, dup-chunk, drop-chunk, \
             corrupt-index, corrupt-trailer, strip-tail, flip-kind or \
             corrupt-repeat (parameters drawn from --seed; strip-tail is \
             deterministic and simulates a recorder killed mid-run; the last \
             two need a v4 container).")
  in
  let run metrics trace out seed sweep mutation =
    obs_init "faultgen" metrics;
    let raw =
      try read_file trace
      with Sys_error msg ->
        Printf.eprintf "faultgen: %s\n" msg;
        exit exit_unreadable
    in
    let v4_kinds = [ "flip-kind"; "corrupt-repeat" ] in
    let known_kinds =
      [ "bit-flip"; "truncate"; "dup-chunk"; "drop-chunk"; "corrupt-index";
        "corrupt-trailer"; "strip-tail" ]
      @ v4_kinds
    in
    let gen_named kind =
      if not (List.mem kind known_kinds) then begin
        Printf.eprintf "faultgen: unknown mutation %s (have: %s)\n" kind
          (String.concat ", " known_kinds);
        exit exit_usage
      end;
      (* the seeded draw never picks a v4-only kind on a v3 container *)
      if
        List.mem kind v4_kinds
        && String.starts_with ~prefix:Tq_trace.Writer.magic raw
      then begin
        Printf.eprintf
          "faultgen: %s needs a v4 container (record with --compress); this \
           one is v3\n"
          kind;
        exit exit_usage
      end;
      (* draw seeded candidates until one of the requested kind comes up;
         strip-tail needs no parameters at all *)
      if kind = "strip-tail" then Tq_faultgen.Faultgen.Strip_tail
      else begin
        let found = ref None and s = ref seed in
        while !found = None do
          let m = Tq_faultgen.Faultgen.random ~seed:!s raw in
          if Tq_faultgen.Faultgen.slug m = kind then found := Some m;
          incr s;
          if !s - seed > 10_000 then begin
            Printf.eprintf
              "faultgen: no %s mutation applies to this container (is it \
               empty?)\n"
              kind;
            exit exit_usage
          end
        done;
        Option.get !found
      end
    in
    match
      if sweep > 0 then begin
        if not (Sys.file_exists out) then Sys.mkdir out 0o755;
        List.iteri
          (fun i (mut, bytes) ->
            let path =
              Filename.concat out
                (Printf.sprintf "m%02d-%s.trc" i (Tq_faultgen.Faultgen.slug mut))
            in
            write_out path bytes;
            Printf.printf "wrote %s: %s\n" path (Tq_faultgen.Faultgen.describe mut))
          (Tq_faultgen.Faultgen.sweep ~seed ~count:sweep raw)
      end
      else
        match mutation with
        | None ->
            Printf.eprintf "faultgen: give --sweep K or --mutation KIND\n";
            exit exit_usage
        | Some kind ->
            let mut = gen_named kind in
            write_out out (Tq_faultgen.Faultgen.apply mut raw);
            Printf.printf "wrote %s: %s\n" out (Tq_faultgen.Faultgen.describe mut)
    with
    | () -> ()
    | exception Invalid_argument msg | (exception Sys_error msg) ->
        Printf.eprintf "faultgen: %s\n" msg;
        exit exit_unreadable
  in
  Cmd.v
    (Cmd.info "faultgen"
       ~doc:
         "Corrupt a recorded trace deterministically (seeded bit flips, \
          truncations, chunk duplication/removal, index/trailer damage) to \
          exercise the reader's fault tolerance; see also 'tquad trace-info' \
          and 'tquad replay --salvage'")
    Term.(
      const run $ metrics_arg $ trace_pos_arg $ out_arg $ seed_arg $ sweep_arg
      $ mutation_arg)

(* ---------- static verification ---------- *)

(* The "check" manifest section (docs/METRICS.md): severity counts always;
   loop/access/kernel statistics when the dataflow layer ran. *)
let check_section ~routines ~instructions ~errors ~warns ~infos ~dataflow rep
    rows =
  let base =
    [
      ("routines", Obs.Json.Int routines);
      ("instructions", Obs.Json.Int instructions);
      ("errors", Obs.Json.Int errors);
      ("warnings", Obs.Json.Int warns);
      ("infos", Obs.Json.Int infos);
      ("dataflow", Obs.Json.Int (if dataflow then 1 else 0));
    ]
  in
  let extra =
    match (rep, rows) with
    | Some rep, Some rows ->
        let st = Tq_staticcheck.Access.stats rep in
        [
          ( "loops",
            Obs.Json.Obj
              [
                ("total", Obs.Json.Int st.Tq_staticcheck.Access.st_loops);
                ("const", Obs.Json.Int st.Tq_staticcheck.Access.st_const);
                ("affine", Obs.Json.Int st.Tq_staticcheck.Access.st_affine);
                ("unknown", Obs.Json.Int st.Tq_staticcheck.Access.st_unknown);
              ] );
          ( "accesses",
            Obs.Json.Obj
              [
                ("total", Obs.Json.Int st.Tq_staticcheck.Access.st_accesses);
                ("in_loop", Obs.Json.Int st.Tq_staticcheck.Access.st_in_loop);
                ( "classified_in_loop",
                  Obs.Json.Int st.Tq_staticcheck.Access.st_classified );
                ("scalar", Obs.Json.Int st.Tq_staticcheck.Access.st_scalar);
                ( "sequential",
                  Obs.Json.Int st.Tq_staticcheck.Access.st_sequential );
                ("strided", Obs.Json.Int st.Tq_staticcheck.Access.st_strided);
                ("indirect", Obs.Json.Int st.Tq_staticcheck.Access.st_indirect);
                ( "unknown",
                  Obs.Json.Int st.Tq_staticcheck.Access.st_unknown_acc );
              ] );
          ( "kernels",
            Obs.Json.List
              (List.map
                 (fun (row : Tq_staticcheck.Estimate.row) ->
                   let bk = row.Tq_staticcheck.Estimate.patterns in
                   let total = Tq_staticcheck.Estimate.bk_total bk in
                   let pct x =
                     if total <= 0. then 0. else 100. *. x /. total
                   in
                   Obs.Json.Obj
                     [
                       ( "name",
                         Obs.Json.Str
                           row.Tq_staticcheck.Estimate.routine.Symtab.name );
                       ( "bytes",
                         Obs.Json.Float (Tq_staticcheck.Estimate.bytes row) );
                       ( "trips_known",
                         Obs.Json.Int row.Tq_staticcheck.Estimate.trips_known
                       );
                       ( "trips_total",
                         Obs.Json.Int row.Tq_staticcheck.Estimate.trips_total
                       );
                       ( "pct_sequential",
                         Obs.Json.Float
                           (pct bk.Tq_staticcheck.Estimate.bk_sequential) );
                       ( "pct_strided",
                         Obs.Json.Float
                           (pct bk.Tq_staticcheck.Estimate.bk_strided) );
                       ( "pct_indirect",
                         Obs.Json.Float
                           (pct bk.Tq_staticcheck.Estimate.bk_indirect) );
                     ])
                 rows) );
        ]
    | _ -> []
  in
  Obs.Json.Obj (base @ extra)

let check_cmd =
  let bandwidth_arg =
    Arg.(
      value & flag
      & info [ "bandwidth" ]
          ~doc:
            "Also print the static per-kernel bandwidth estimate, run the \
             program once under the tQUAD profiler, and compare the static \
             ranking against the measured per-kernel bytes.")
  in
  let dataflow_arg =
    Arg.(
      value & flag
      & info [ "dataflow" ]
          ~doc:
            "Run the dataflow layer: induction variables, symbolic trip \
             counts and stride-classified access patterns per loop, the \
             parametric bandwidth model, and the dataflow-only diagnostic \
             classes (uninit-local, dead-store, oob-access, \
             invariant-load).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a run manifest (schema of docs/METRICS.md) with the \
             check section to stdout instead of the human report; \
             diagnostics still render on stderr.  Incompatible with \
             --bandwidth.")
  in
  let run metrics program dir bandwidth slice dataflow json =
    obs_init "check" metrics;
    if json && bandwidth then begin
      Printf.eprintf "check: --json cannot be combined with --bandwidth\n";
      exit exit_usage
    end;
    let target = program () in
    let prog = target.prog in
    let module Sc = Tq_staticcheck.Staticcheck in
    let diags =
      span "verify" (fun () ->
          Sc.check_program ?bounds:target.bounds ~dataflow prog)
    in
    let count s =
      List.length (List.filter (fun d -> Sc.severity_of d.Sc.cls = s) diags)
    in
    let errors = count Sc.Error
    and warns = count Sc.Warn
    and infos = count Sc.Info in
    (* stdout stays pure JSON under --json; the human lines go to stderr *)
    let out = if json then stderr else stdout in
    if diags <> [] then output_string out (Sc.render diags);
    let routines = ref 0 in
    Symtab.iter
      (fun r -> if r.Symtab.size > 0 then incr routines)
      prog.Tq_vm.Program.symtab;
    let instructions = Array.length prog.Tq_vm.Program.code in
    let rep, df_rows =
      if dataflow then
        ( Some
            (span "dataflow" (fun () ->
                 Tq_staticcheck.Access.analyze_program prog)),
          Some
            (span "estimate" (fun () -> Tq_staticcheck.Estimate.per_kernel prog))
        )
      else (None, None)
    in
    let section =
      check_section ~routines:!routines ~instructions ~errors ~warns ~infos
        ~dataflow rep df_rows
    in
    obs_section "check" section;
    if json then begin
      let doc =
        Obs.Manifest.make ~tool:"tquad" ~subcommand:"check"
          ~argv:(Array.to_list Sys.argv)
          ~extra:[ ("check", section) ]
          Obs.Span.disabled Obs.Metrics.disabled
      in
      print_string (Obs.Json.to_string doc)
    end;
    if errors + warns > 0 then begin
      Printf.fprintf out
        "check: %d diagnostic(s) (%d error(s), %d warning(s), %d info)\n"
        (List.length diags) errors warns infos;
      exit exit_partial
    end;
    Printf.fprintf out "check: ok — %d routines, %d instructions, %d diagnostics\n"
      !routines instructions (List.length diags);
    (match (rep, df_rows) with
    | Some rep, Some rows when not json ->
        print_newline ();
        print_string (Tq_staticcheck.Access.render rep);
        print_newline ();
        print_string (Tq_staticcheck.Estimate.render rows)
    | _ -> ());
    if bandwidth then begin
      let rows =
        match df_rows with
        | Some rows -> rows
        | None ->
            let rows = Tq_staticcheck.Estimate.per_kernel prog in
            print_newline ();
            print_string (Tq_staticcheck.Estimate.render rows);
            rows
      in
      let t, _ =
        run_under target dir (Tq_tquad.Tquad.attach ~slice_interval:slice)
      in
      print_newline ();
      print_string
        (Tq_report.Report.static_bandwidth
           (Tq_report.Report.static_vs_measured rows t))
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify a compiled program (control flow, dataflow, \
          stack discipline, constant addresses; --dataflow adds trip \
          counts, access-pattern classes and four dataflow diagnostics) \
          and optionally compare the static bandwidth model against a \
          measured run; exits 4 if any non-informational diagnostic fires, \
          3 if the input cannot be read or compiled, 2 on usage errors")
    Term.(
      const run $ metrics_arg $ program () $ dir_arg $ bandwidth_arg $ slice_arg
      $ dataflow_arg $ json_arg)

(* ---------- serve daemon and its client ----------

   `tquad serve` runs the long-lived analysis server (lib/serve); `tquad
   client ...` is the matching command-line peer.  Server refusals and
   transport failures exit 3 (the trace-unreadable code — the analysis never
   ran); a served replay with failing tools exits 4 like `tquad replay`. *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the serve daemon.")

let serve_cmd =
  let domains_arg =
    Arg.(
      value & opt non_negative_int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for replay jobs (0 = one per core, minus the \
             listener; at most one per core).")
  in
  let queue_arg =
    Arg.(
      value & opt positive_int 32
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Job-queue bound; submissions beyond it are refused with a \
             typed busy response, never queued unboundedly.")
  in
  let cache_arg =
    let mib = 1024 * 1024 in
    let mib_count =
      int_conv ~what:"a positive number of MiB whose byte count fits an int"
        (fun n -> n > 0 && n <= max_int / mib)
    in
    Arg.(
      value & opt mib_count 64
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Decoded-chunk cache budget in MiB.")
  in
  let rate_arg =
    Arg.(
      value & opt positive_float 50.
      & info [ "rate" ] ~docv:"R"
          ~doc:"Replay admissions per second (token-bucket refill rate).")
  in
  let burst_arg =
    Arg.(
      value & opt positive_int 100
      & info [ "burst" ] ~docv:"N"
          ~doc:"Token-bucket depth (burst capacity).")
  in
  let max_traces_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "max-traces" ] ~docv:"N"
          ~doc:"Resident uploaded traces; further uploads are refused busy.")
  in
  let max_connections_arg =
    Arg.(
      value & opt non_negative_int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Concurrent connection cap; over it new peers get a typed busy \
             frame and an immediate close (0 disables the cap).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt non_negative_float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reap connections idle between requests for this long (0 \
             disables).")
  in
  let frame_timeout_arg =
    Arg.(
      value & opt non_negative_float 10.
      & info [ "frame-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Budget for completing a started frame or response write — the \
             slow-loris bound (0 disables).")
  in
  let job_timeout_arg =
    Arg.(
      value & opt non_negative_float 120.
      & info [ "job-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Default wall-clock budget per replay job, measured from \
             submission; over-budget jobs die with a typed \
             deadline-exceeded failure (0 disables).  Clients can tighten \
             it per request, never loosen it.")
  in
  let manifest_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest-dir" ] ~docv:"DIR"
          ~doc:
            "Write observability manifests into DIR (created if missing): \
             server.json, rewritten every --manifest-period seconds and at \
             shutdown, plus one job-N.json per completed job.")
  in
  let manifest_period_arg =
    Arg.(
      value & opt positive_float 5.
      & info [ "manifest-period" ] ~docv:"SECONDS"
          ~doc:"Server-manifest rewrite period.")
  in
  let run socket domains queue cache_mb rate burst max_traces max_conns
      idle_timeout frame_timeout job_timeout mdir mperiod =
    (match mdir with
    | Some d when not (Sys.file_exists d) -> (
        try Sys.mkdir d 0o755
        with Sys_error msg ->
          Printf.eprintf "serve: --manifest-dir: %s\n" msg;
          exit exit_unreadable)
    | _ -> ());
    let cfg =
      {
        Tq_serve.Server.socket_path = socket;
        workers = domains;
        queue_limit = queue;
        cache_bytes = cache_mb * 1024 * 1024;
        rate;
        burst;
        max_traces;
        max_connections = max_conns;
        idle_timeout_s = idle_timeout;
        frame_timeout_s = frame_timeout;
        job_timeout_s = job_timeout;
        manifest_dir = mdir;
        manifest_period_s = mperiod;
      }
    in
    match
      Tq_serve.Server.run
        ~on_ready:(fun () ->
          Printf.printf "tquad serve: listening on %s\n%!" socket)
        cfg
    with
    | () -> Printf.printf "tquad serve: drained, bye\n%!"
    | exception Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "serve: %s: %s\n" fn (Unix.error_message e);
        exit exit_unreadable
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the trace-analysis daemon on a Unix-domain socket: clients \
          upload traces once and replay them through any tool subset many \
          times, against a shared decoded-chunk cache and a worker-domain \
          pool with token-bucket admission control.  SIGTERM/SIGINT (or a \
          client shutdown request) drains gracefully.  See docs/SERVE.md")
    Term.(
      const run $ socket_arg $ domains_arg $ queue_arg $ cache_arg $ rate_arg
      $ burst_arg $ max_traces_arg $ max_connections_arg $ idle_timeout_arg
      $ frame_timeout_arg $ job_timeout_arg $ manifest_dir_arg
      $ manifest_period_arg)

(* exit-code contract: a bad-request refusal means this CLI asked for
   something malformed (unknown tool, bad parameter) — a usage error, exit
   2; every other refusal or transport/timeout failure means the analysis
   never ran — exit 3.  A job that ran but failed (or was killed) exits 4
   via print_served_report, mirroring `tquad replay`. *)
let client_fail ctx (e : Tq_serve.Client.err) =
  Printf.eprintf "client %s: %s: %s\n" ctx e.Tq_serve.Client.kind e.reason;
  (match e.retry_after_s with
  | Some s -> Printf.eprintf "client %s: retry after %.3fs\n" ctx s
  | None -> ());
  exit
    (if e.Tq_serve.Client.kind = Tq_serve.Protocol.bad_request then exit_usage
     else exit_unreadable)

(* --retries/--timeout/--backoff, shared by every client subcommand. *)
let retry_args =
  let retries_arg =
    Arg.(
      value & opt non_negative_int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry busy/transport/timeout failures up to N times with \
             exponential backoff and jitter, honouring the server's \
             retry_after_s hint.  Terminal refusals (bad-request, \
             not-found, server-error, ...) never retry.")
  in
  let timeout_arg =
    Arg.(
      value & opt non_negative_float 0.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Bound every send and response wait; an unresponsive server \
             fails typed instead of hanging (0 = wait forever).")
  in
  let backoff_arg =
    Arg.(
      value & opt positive_float 0.1
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:"Base delay before the first retry (doubles per attempt).")
  in
  let mk retries timeout backoff =
    (retries, (if timeout > 0. then Some timeout else None), backoff)
  in
  Term.(const mk $ retries_arg $ timeout_arg $ backoff_arg)

(* One fresh connection per attempt: after a transport failure the old
   connection is dead, and a reconnect carries the attempt number so the
   server's retries_observed counter sees the backoff happen. *)
let with_client ~ctx (retries, timeout_s, backoff) socket f =
  let policy =
    { Tq_serve.Client.default_policy with retries; base_s = backoff }
  in
  match
    Tq_serve.Client.with_retry ~policy (fun ~attempt ->
        match Tq_serve.Client.connect ?timeout_s ~attempt socket with
        | Error e -> Error e
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Tq_serve.Client.close c)
              (fun () -> f c))
  with
  | Ok v -> v
  | Error e -> client_fail ctx e

let print_served_report (r : Tq_serve.Client.report) =
  if not r.Tq_serve.Client.done_ then
    Printf.printf "job %d: pending\n" r.Tq_serve.Client.job
  else begin
    (match r.Tq_serve.Client.killed with
    | Some how -> Printf.eprintf "client: job killed: %s\n" how
    | None -> ());
    print_tool_reports ~ctx:"client" r.Tq_serve.Client.reports
      r.Tq_serve.Client.failures;
    if r.Tq_serve.Client.failures <> [] then exit exit_partial
  end

let client_cmd =
  let ping_cmd =
    let run socket retry =
      with_client ~ctx:"ping" retry socket Tq_serve.Client.ping;
      print_endline "pong"
    in
    Cmd.v
      (Cmd.info "ping" ~doc:"Check that the daemon answers")
      Term.(const run $ socket_arg $ retry_args)
  in
  let upload_cmd =
    let trace_pos_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
    in
    let name_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "name" ] ~docv:"NAME" ~doc:"Display name for the trace.")
    in
    let run socket trace program name retry =
      let bytes =
        try read_file trace
        with Sys_error msg ->
          Printf.eprintf "client upload: %s\n" msg;
          exit exit_unreadable
      in
      let program =
        Option.map (fun t -> Tq_vm.Objfile.encode t.prog) (program ())
      in
      let id =
        with_client ~ctx:"upload" retry socket
          (Tq_serve.Client.upload ?name ?program ~trace:bytes)
      in
      Printf.printf "%s\n" id
    in
    Cmd.v
      (Cmd.info "upload"
         ~doc:
           "Upload a recorded trace (and, with FILE, --wfs or --app, its \
            program) to the daemon; prints the trace id.  Idempotent for \
            identical bytes")
      Term.(
        const run $ socket_arg $ trace_pos_arg $ program_term ~required:false 1
        $ name_arg $ retry_args)
  in
  let info_cmd =
    let id_pos_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"ID")
    in
    let run socket id retry =
      let j =
        with_client ~ctx:"info" retry socket (fun c ->
            Tq_serve.Client.trace_info c id)
      in
      print_string (Obs.Json.to_string j)
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Print the daemon's trace section (JSON) for an uploaded trace \
            id — the same codec as 'tquad trace-info --json'")
      Term.(const run $ socket_arg $ id_pos_arg $ retry_args)
  in
  let replay_cmd =
    let id_pos_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"ID")
    in
    let tool_arg =
      Arg.(
        value & opt_all string []
        & info [ "tool" ] ~docv:"TOOL"
            ~doc:
              "Tool to replay through (repeatable); default: every tool.")
    in
    let wait_arg =
      Arg.(
        value & flag
        & info [ "wait" ]
            ~doc:
              "Block until the job completes and print its reports (exit 4 \
               if any tool failed) instead of printing the job id.  The \
               job attaches to this connection: hang up and the server \
               cancels it.")
    in
    let deadline_arg =
      Arg.(
        value & opt non_negative_float 0.
        & info [ "deadline" ] ~docv:"SECONDS"
            ~doc:
              "Tighten the server's wall-clock budget for this job (it can \
               never loosen it); over-budget jobs die with a typed \
               deadline-exceeded failure.  0 keeps the server default.")
    in
    let run socket id tools slice period wait deadline retry =
      let tools = if tools = [] then None else Some tools in
      let deadline_s = if deadline > 0. then Some deadline else None in
      let outcome =
        with_client ~ctx:"replay" retry socket (fun c ->
            match
              Tq_serve.Client.replay ?tools ~slice ~period ?deadline_s
                ~attach:wait c id
            with
            | Error e -> Error e
            | Ok jid ->
                if not wait then Ok (`Job jid)
                else
                  Result.map
                    (fun r -> `Report r)
                    (Tq_serve.Client.report ~wait:true c jid))
      in
      match outcome with
      | `Job jid -> Printf.printf "job %d\n" jid
      | `Report r -> print_served_report r
    in
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "Submit a replay of an uploaded trace through the chosen tools; \
            prints the job id (or, with --wait, the reports).  Over-budget \
            submissions are refused with a typed busy response")
      Term.(
        const run $ socket_arg $ id_pos_arg $ tool_arg $ slice_arg
        $ period_arg $ wait_arg $ deadline_arg $ retry_args)
  in
  let report_cmd =
    let job_pos_arg =
      Arg.(required & pos 0 (some int) None & info [] ~docv:"JOB")
    in
    let wait_arg =
      Arg.(
        value & flag
        & info [ "wait" ] ~doc:"Block until the job completes.")
    in
    let run socket jid wait retry =
      let r =
        with_client ~ctx:"report" retry socket (fun c ->
            Tq_serve.Client.report ~wait c jid)
      in
      print_served_report r
    in
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Fetch a job's reports (exit 4 if any tool failed; '--wait' \
            blocks server-side until the job is done)")
      Term.(const run $ socket_arg $ job_pos_arg $ wait_arg $ retry_args)
  in
  let stats_cmd =
    let run socket retry =
      let j = with_client ~ctx:"stats" retry socket Tq_serve.Client.stats in
      print_string (Obs.Json.to_string j)
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Print the daemon's live server section (queue, cache, rate, \
            latency percentiles) as JSON")
      Term.(const run $ socket_arg $ retry_args)
  in
  let shutdown_cmd =
    let run socket retry =
      with_client ~ctx:"shutdown" retry socket Tq_serve.Client.shutdown;
      print_endline "draining"
    in
    Cmd.v
      (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit")
      Term.(const run $ socket_arg $ retry_args)
  in
  let chaos_cmd =
    let seed_arg =
      Arg.(
        value & opt int 1
        & info [ "seed" ] ~docv:"N"
            ~doc:"Seed of the deterministic strike sequence.")
    in
    let rounds_arg =
      Arg.(
        value & opt positive_int 32
        & info [ "rounds" ] ~docv:"N" ~doc:"Number of strikes to deliver.")
    in
    let wait_arg =
      Arg.(
        value & opt positive_float 2.
        & info [ "wait" ] ~docv:"SECONDS"
            ~doc:"Per-strike wait for the server's answer.")
    in
    let run socket seed rounds wait_s =
      let module W = Tq_serve.Wire in
      let events = W.storm ~wait_s ~socket ~seed ~rounds () in
      List.iteri
        (fun i (e : W.event) ->
          Printf.printf "%3d  %-20s %s\n" i (W.slug e.mutation)
            (W.verdict_slug e.verdict))
        events;
      let unreachable =
        List.exists
          (fun (e : W.event) ->
            match e.verdict with W.Unreachable _ -> true | _ -> false)
          events
      in
      if unreachable then begin
        Printf.eprintf "client chaos: server became unreachable mid-storm\n";
        exit exit_unreadable
      end;
      match W.ping ~socket () with
      | Ok () -> Printf.printf "server survived %d strikes\n" rounds
      | Error why ->
          Printf.eprintf "client chaos: server unhealthy after storm: %s\n"
            why;
          exit exit_unreadable
    in
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Fire a deterministic storm of malformed wire frames (torn \
            headers, oversized lengths, garbage payloads, mid-frame \
            disconnects, stalls) at the daemon, then health-check it; exit \
            0 iff the server survived every strike")
      Term.(const run $ socket_arg $ seed_arg $ rounds_arg $ wait_arg)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running 'tquad serve' daemon: ping, upload, info, \
          replay, report, stats, shutdown, chaos")
    [ ping_cmd; upload_cmd; info_cmd; replay_cmd; report_cmd; stats_cmd;
      shutdown_cmd; chaos_cmd ]

let version_cmd =
  let run () = print_endline version_string in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the tquad version and exit")
    Term.(const run $ const ())

(* Every subcommand with its one-line purpose: the cmdliner group and the
   usage block below are both built from this list. *)
let subcommands =
  [ (build_cmd, "compile and link to an on-disk binary");
    (disasm_cmd, "print the disassembly of a compiled program");
    (run_cmd, "compile and execute (uninstrumented)");
    (gprof_cmd, "sampling flat profile");
    (callgraph_cmd, "gprof-style call-graph report");
    (quad_cmd, "producer/consumer memory bindings (QUAD)");
    (tquad_cmd, "temporal memory bandwidth analysis (the paper's tool)");
    (mix_cmd, "instruction-mix profile");
    (cache_cmd, "per-kernel cache hit/miss simulation");
    (footprint_cmd, "per-kernel unique-byte footprint by region");
    (wcet_cmd, "static worst-case execution time bound");
    (diff_cmd, "compare the flat profiles of two program versions");
    (record_cmd, "execute once, stream the event trace to disk");
    (replay_cmd, "replay a recorded trace through analysis tools");
    (trace_info_cmd, "inspect a trace (version, counts; salvage fallback)");
    (faultgen_cmd, "corrupt a trace deterministically (robustness testing)");
    (check_cmd, "static binary verification and bandwidth estimate");
    (serve_cmd, "run the trace-analysis daemon on a Unix socket");
    (client_cmd, "talk to a running serve daemon");
    (version_cmd, "print the tquad version") ]

let main_cmd =
  Cmd.group
    (Cmd.info "tquad" ~version:version_string
       ~doc:
         "Temporal memory bandwidth usage analysis on a simulated machine \
          (reproduction of tQUAD, ICPP 2010)")
    (List.map fst subcommands)

(* One unified usage block for a missing, unknown or ambiguous subcommand —
   every subcommand with its one-line purpose, instead of cmdliner's paged
   manual — printed to stderr with exit status 2.  Anything else (a known
   name, a unique prefix, or a leading option like --help) goes to cmdliner
   unchanged. *)

let print_usage ch =
  Printf.fprintf ch
    "usage: tquad SUBCOMMAND [ARGS]\n\n\
     Temporal memory bandwidth usage analysis on a simulated machine\n\
     (reproduction of tQUAD, ICPP 2010).  Subcommands:\n\n";
  List.iter
    (fun (cmd, doc) -> Printf.fprintf ch "  %-10s %s\n" (Cmd.name cmd) doc)
    subcommands;
  Printf.fprintf ch
    "\nRun 'tquad help SUBCOMMAND' for that subcommand's options.\n"

let () =
  let names = List.map (fun (cmd, _) -> Cmd.name cmd) subcommands in
  let resolve a =
    (* a known name or a unique prefix of one, like cmdliner resolves it *)
    if List.mem a names then Some a
    else
      match List.filter (String.starts_with ~prefix:a) names with
      | [ n ] -> Some n
      | _ -> None
  in
  let verdict =
    if Array.length Sys.argv < 2 then `Missing
    else
      let a = Sys.argv.(1) in
      if a = "help" then
        (* 'tquad help' prints the usage block and exits 0; 'tquad help SUB'
           shows SUB's manual — the same contract as '--help', so scripts and
           humans get consistent exit codes either way. *)
        if Array.length Sys.argv < 3 then `Help_toplevel
        else
          match resolve Sys.argv.(2) with
          | Some n -> `Help_sub n
          | None -> `Unknown Sys.argv.(2)
      else if String.length a > 0 && a.[0] = '-' then
        `Pass (* --help, --version *)
      else if resolve a <> None then `Pass
      else `Unknown a
  in
  (* unknown flags and malformed option values (--slice 0) are usage
     errors: exit 2, where cmdliner's default would be 124 *)
  let eval ?argv () =
    match Cmd.eval_value ?argv main_cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> Cmd.Exit.internal_error
  in
  match verdict with
  | `Pass -> exit (eval ())
  | `Help_toplevel ->
      print_usage stdout;
      exit 0
  | `Help_sub n -> exit (eval ~argv:[| "tquad"; n; "--help" |] ())
  | `Missing ->
      prerr_string "tquad: missing subcommand\n\n";
      print_usage stderr;
      exit 2
  | `Unknown a ->
      Printf.eprintf "tquad: unknown subcommand '%s'\n\n" a;
      print_usage stderr;
      exit 2

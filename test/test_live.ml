(* Live instrumentation against independent oracles.

   The probe instruments only the event kinds its sink asks for, and live
   tQUAD takes a block's frame accesses as one block summary instead of
   one event each.  Both are checked against a recording of the same run
   (the recorder asks for every kind and claims nothing): each tool's live
   stream is the recorded stream filtered by the tool's interest, and live
   tQUAD's whole state is [Replay.sequential]'s over the recording, on
   fuzzed MiniC and on assembly shaped to hit every rule of the summary
   (predicated frame accesses, sp/fp written mid-block, frames below the
   red zone and across [stack_top], library frames under both policies),
   at slice intervals that make summaries straddle slices. *)

open Tq_vm
open Tq_trace
module Engine = Tq_dbi.Engine
module Tq = Tq_tquad.Tquad
module Cs = Tq_prof.Call_stack

(* [k] over what [attach] returned and the recording of one run of [prog]
   on the given engine path, [attach] given the engine before the recorder;
   [fuel] bounds the run, and a run that does not halt discards the
   property's case. *)
let with_recording ?(fuel = 5_000_000) ?(use_code_cache = true) prog attach k =
  let eng = Engine.create ~use_code_cache (Machine.create prog) in
  let extra = attach eng in
  let path = Filename.temp_file "tq_live" ".trc" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () ->
      (* a run that stops early leaves no report to compare (tquad.mli) *)
      match Probe.record ~fuel eng ~path with
      | (_ : int) -> k extra (Reader.load path)
      | exception (Executor.Out_of_fuel _ | Machine.Trap _) ->
          QCheck.assume_fail ())

(* ---------- the probe honours [wants] ---------- *)

let wants_src =
  "int src[512]; int dst[512];\n\
   int fill(int k) { for (int i = 0; i < 512; i++) src[i] = i * k; return k; }\n\
   int sum() { int s; s = 0; for (int i = 0; i < 512; i++) s += dst[i]; \
   return s; }\n\
   int main() { fill(3); memcpy((char*) dst, (char*) src, 4096); \
   print_int(sum()); return 0; }"

(* a prefetch, so the cache simulator's [Prefetch] interest is exercised *)
let prefetch_asm =
  {|
.image pf
.data buf 256
.func _start
  la   x20, buf
  prefetch 64(x20)
  ld   x10, 0(x20)
  sd   x10, -16(x2)
  li   x4, 0
  syscall 0
.endfunc
|}

let tool_interests =
  [
    ("tquad", Tq.interest);
    ("quad", Tq_quad.Quad.interest);
    ("gprof", Tq_gprofsim.Gprofsim.interest);
    ("mix", Tq_prof.Ins_mix.interest);
    ("cache", Tq_prof.Cache_sim.interest);
    ("footprint", Tq_prof.Footprint.interest);
  ]

let test_wants prog () =
  with_recording prog
    (fun eng ->
      List.map
        (fun (name, wants) ->
          let seen = ref [] in
          Probe.attach ~wants eng (fun ev -> seen := ev :: !seen);
          (name, wants, seen))
        tool_interests)
    (fun streams reader ->
      let recorded = ref [] in
      Reader.iter reader (fun ev -> recorded := ev :: !recorded);
      List.iter
        (fun (name, wants, seen) ->
          let wanted ev =
            List.exists (fun k -> Event.kind_tag k = Event.tag ev) wants
          in
          let expected = List.filter wanted !recorded in
          Alcotest.(check int)
            (name ^ ": event count")
            (List.length expected) (List.length !seen);
          Alcotest.(check bool)
            (name ^ ": live stream = recorded stream filtered by interest")
            true (expected = !seen))
        streams)

(* ---------- live tQUAD = sequential replay of a recording ---------- *)

(* tQUAD's whole observable state: the slice count and every kernel's four
   per-slice byte series. *)
let dump t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "slices %d\n" (Tq.total_slices t);
  List.iter
    (fun (r : Symtab.routine) ->
      Printf.bprintf b "%s" r.name;
      List.iter
        (fun m ->
          Printf.bprintf b " |";
          Array.iter (Printf.bprintf b " %d") (Tq.bytes_series t r m))
        Tq.[ Read_incl; Read_excl; Write_incl; Write_excl ];
      Buffer.add_char b '\n')
    (Tq.kernels t);
  Buffer.contents b

let configs =
  List.concat_map
    (fun policy -> List.map (fun slice -> (slice, policy)) [ 1; 7; 2000 ])
    [ Cs.Main_image_only; Cs.Track_all ]

let config_name (slice, policy) =
  Printf.sprintf "slice %d, %s" slice
    (match policy with Cs.Track_all -> "track-all" | Main_image_only -> "main")

(* One run per engine path with a live tQUAD per config beside the
   recorder; each must equal the sequential replay of that recording. *)
let live_equals_replay prog =
  List.for_all
    (fun use_code_cache ->
      with_recording ~use_code_cache prog
        (fun eng ->
          List.map
            (fun (slice_interval, policy) ->
              Tq.attach ~slice_interval ~policy eng)
            configs)
        (fun lives reader ->
          let jobs =
            List.map
              (fun ((slice_interval, policy) as c) ->
                Tool.job
                  (module Tq)
                  (config_name c)
                  { Tq.slice_interval; policy }
                  prog ~render:dump)
              configs
          in
          List.for_all2
            (fun live (name, replayed) ->
              match replayed with
              | Ok r when r = dump live -> true
              | Ok r ->
                  QCheck.Test.fail_reportf
                    "%s, %s: live tQUAD differs from replay\nlive:\n%s\nreplay:\n%s"
                    name
                    (if use_code_cache then "code cache" else "reference")
                    (dump live) r
              | Error f ->
                  QCheck.Test.fail_reportf "%s: replay failed: %s" name
                    (Replay.failure_message f))
            lives
            (Replay.sequential reader jobs)))
    [ true; false ]

let qcheck_minic =
  QCheck.Test.make ~name:"fuzzed MiniC: live tQUAD == replay of its recording"
    ~count:25
    (QCheck.make ~print:Fun.id Test_differential.gen_minic)
    (fun src -> live_equals_replay (Test_differential.compile src))

(* A main routine whose first block moves fp and sp mid-block around frame
   accesses, a loop whose body block has frame accesses off both registers
   (two of them predicated) at generated offsets — inside the frame, below
   the red zone, or across [stack_top] when the frame sits at the top — and
   calls into a main-image leaf and a library routine, each with frame
   accesses of its own. *)
let frame_asm ~p1 ~p2 ~iters ~adj ~offs =
  let o = Array.of_list offs in
  let main =
    Printf.sprintf
      {|
.image frames
.func _start
  li   x10, %d
  li   x11, %d
  li   x12, %d
  sd   x12, -8(x2)
  mov  x3, x2
  sd   x12, -24(x3)
  sub  x2, x2, %d
  sd   x12, %d(x2)
loop:
  sd   x12, %d(x2)
  ld   x13, %d(x3)
  sd   x13, %d(x2) ?x10
  fld  f1, %d(x3) ?x11
  lws  x14, %d(x2)
  fsd  f1, %d(x3)
  call leaf
  call libf
  sub  x12, x12, 1
  bnz  x12, loop
  add  x2, x2, %d
  li   x4, 0
  syscall 0
.endfunc
.func leaf
  sd   x12, -16(x2)
  ld   x15, 0(x2)
  sw   x15, %d(x2)
  lbs  x15, -16(x2)
  ret
.endfunc
|}
      p1 p2 iters adj o.(0) o.(1) o.(2) o.(3) o.(4) o.(5) o.(6) adj o.(7)
  in
  let lib =
    {|
.image libz library
.func libf
  sd   x12, -32(x2)
  ld   x16, -32(x2)
  sh   x16, -40(x2)
  ret
.endfunc
|}
  in
  Tq_asm.Link.link [ Tq_asm.Asm_parse.parse main; Tq_asm.Asm_parse.parse lib ]

let gen_frame =
  let open QCheck.Gen in
  let off =
    oneofl [ -200; -80; -72; -68; -64; -60; -16; -8; -4; 0; 4; 8; 16; 40 ]
  in
  map
    (fun ((p1, p2), (iters, (adj, (offs, leaf)))) ->
      (p1, p2, iters, adj, offs @ [ leaf ]))
    (pair
       (pair (int_bound 1) (int_bound 1))
       (pair (int_range 1 12)
          (pair
             (oneofl [ 0; 8; 64; 256 ])
             (* the leaf's store keeps clear of its return address *)
             (pair (list_repeat 7 off) (oneofl [ -200; -72; -68; -64; -16; 8; 16 ])))))

let print_frame (p1, p2, iters, adj, offs) =
  Printf.sprintf "p1=%d p2=%d iters=%d adj=%d offs=[%s]" p1 p2 iters adj
    (String.concat "; " (List.map string_of_int offs))

let qcheck_frames =
  QCheck.Test.make
    ~name:"frame asm: live tQUAD == replay of its recording" ~count:60
    (QCheck.make ~print:print_frame gen_frame)
    (fun (p1, p2, iters, adj, offs) ->
      live_equals_replay (frame_asm ~p1 ~p2 ~iters ~adj ~offs))

(* ---------- runs that stop mid-block ---------- *)

(* A trap at slot 2 of a block whose slots 0 and 1 are frame accesses: the
   summary's action on the last slot never runs, so the live state lacks
   those 16 bytes that the per-access path (a probe feeding [Tq.consume])
   charged.  tquad.mli documents such a state as not a report, and the CLI
   renders none: it exits 1 with nothing on stdout. *)
let trap_asm =
  {|
.image trapping
.func _start
  mov  x3, x2
  jmp  body
body:
  sd   x3, -16(x3)
  ld   x10, -16(x3)
  div  x11, x10, x0
  li   x4, 0
  syscall 0
.endfunc
|}

let test_trap_mid_block () =
  let prog = Tq_asm.Link.link [ Tq_asm.Asm_parse.parse trap_asm ] in
  let eng = Engine.create (Machine.create prog) in
  let config = { Tq.slice_interval = 1000; policy = Cs.Main_image_only } in
  let live = Tq.attach ~slice_interval:1000 eng in
  let per_access = Tq.create config prog in
  Probe.attach eng (Tq.consume per_access);
  (match Engine.run eng with
  | () -> Alcotest.fail "expected a trap"
  | exception Machine.Trap _ -> ());
  let start = Option.get (Symtab.by_name prog.Program.symtab "_start") in
  let bytes t = (Tq.totals t start).read_incl + (Tq.totals t start).write_incl in
  Alcotest.(check int) "per-access path charged the block's frame accesses" 16
    (bytes per_access);
  Alcotest.(check int) "the live summary never ran" 0 (bytes live);
  let file = Test_dataflow.write_tmp ".s" trap_asm in
  let out = Filename.temp_file "tq_live" ".out" in
  let status =
    Sys.command
      (Printf.sprintf "%s tquad %s >%s 2>/dev/null" (Test_dataflow.cli_path ())
         file out)
  in
  let stdout = In_channel.with_open_bin out In_channel.input_all in
  List.iter Sys.remove [ file; out ];
  Alcotest.(check int) "tquad exits 1" 1 status;
  Alcotest.(check string) "and renders no report" "" stdout

let suites =
  [
    ( "live",
      [
        Alcotest.test_case "probe wants: MiniC" `Quick
          (test_wants (Test_differential.compile wants_src));
        Alcotest.test_case "probe wants: prefetch asm" `Quick
          (test_wants (Tq_asm.Link.link [ Tq_asm.Asm_parse.parse prefetch_asm ]));
        QCheck_alcotest.to_alcotest qcheck_minic;
        QCheck_alcotest.to_alcotest qcheck_frames;
        Alcotest.test_case "trap mid-block: live state is not a report" `Quick
          test_trap_mid_block;
      ] );
  ]

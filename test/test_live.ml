(* Live instrumentation against independent oracles.

   The probe instruments only the event kinds its sink asks for; live
   tQUAD takes a block's frame accesses as one block summary, and live
   QUAD takes the loads and stores of routines charged to themselves as
   one memoized action per slot, instead of one event each.  All are
   checked against a recording of the same run (the recorder asks for
   every kind and claims nothing): each tool's live stream is the recorded
   stream filtered by the tool's interest, and live tQUAD's and QUAD's
   whole states are [Replay.sequential]'s over the recording, on fuzzed
   MiniC and on assembly shaped to hit every rule of the claims
   (predicated frame accesses, sp/fp written mid-block, frames below the
   red zone and across [stack_top], library frames under both policies,
   a slot that reads one address under stack pointers that split it
   differently), at slice intervals that make summaries straddle
   slices. *)

open Tq_vm
open Tq_trace
module Engine = Tq_dbi.Engine
module Tq = Tq_tquad.Tquad
module Quad = Tq_quad.Quad
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

(* ---------- live tQUAD and QUAD = sequential replay ---------- *)

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

(* One run per engine path with a live analyser of tool [T] per config
   beside the recorder; each must render what the sequential replay of
   that recording renders. *)
let live_equals_replay (type c t)
    (module T : Tool.S with type config = c and type t = t) ~attach ~render
    ~name configs prog =
  List.for_all
    (fun use_code_cache ->
      with_recording ~use_code_cache prog
        (fun eng -> List.map (attach eng) configs)
        (fun lives reader ->
          let jobs =
            List.map (fun c -> Tool.job (module T) (name c) c prog ~render) configs
          in
          List.for_all2
            (fun live (name, replayed) ->
              match replayed with
              | Ok r when r = render live -> true
              | Ok r ->
                  QCheck.Test.fail_reportf
                    "%s, %s: live differs from replay\nlive:\n%s\nreplay:\n%s"
                    name
                    (if use_code_cache then "code cache" else "reference")
                    (render live) r
              | Error f ->
                  QCheck.Test.fail_reportf "%s: replay failed: %s" name
                    (Replay.failure_message f))
            lives
            (Replay.sequential reader jobs)))
    [ true; false ]

let policy_name = function Cs.Track_all -> "track-all" | Main_image_only -> "main"
let policies = [ Cs.Main_image_only; Cs.Track_all ]

let tquad_equals_replay =
  live_equals_replay
    (module Tq)
    ~attach:(fun eng { Tq.slice_interval; policy } ->
      Tq.attach ~slice_interval ~policy eng)
    ~render:dump
    ~name:(fun { Tq.slice_interval; policy } ->
      Printf.sprintf "tquad, slice %d, %s" slice_interval (policy_name policy))
    (List.concat_map
       (fun policy ->
         List.map (fun slice_interval -> { Tq.slice_interval; policy }) [ 1; 7; 2000 ])
       policies)

(* QUAD's whole observable state: its rows, bindings and QDU graph. *)
let quad_dump q =
  let b = Buffer.create 1024 in
  List.iter
    (fun (r : Quad.krow) ->
      Printf.bprintf b "%s %d %d %d %d %d %d %d %d\n" r.routine.name r.in_bytes
        r.in_unma r.out_bytes r.out_unma r.in_bytes_incl r.in_unma_incl
        r.out_bytes_incl r.out_unma_incl)
    (Quad.rows q);
  List.iter
    (fun (e : Quad.binding) ->
      Printf.bprintf b "%s -> %s %d %d %d\n" e.producer.name e.consumer.name
        e.bytes e.bytes_incl e.unma)
    (Quad.bindings q);
  Buffer.add_string b (Quad.to_dot q);
  Buffer.contents b

let quad_equals_replay =
  live_equals_replay
    (module Quad)
    ~attach:(fun eng policy -> Quad.attach ~policy eng)
    ~render:quad_dump
    ~name:(fun policy -> "quad, " ^ policy_name policy)
    policies

let qcheck_minic =
  QCheck.Test.make ~name:"fuzzed MiniC: live tQUAD == replay of its recording"
    ~count:25
    (QCheck.make ~print:Fun.id Test_differential.gen_minic)
    (fun src -> tquad_equals_replay (Test_differential.compile src))

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
      tquad_equals_replay (frame_asm ~p1 ~p2 ~iters ~adj ~offs))

(* ---------- live QUAD's per-slot claim ---------- *)

let qcheck_quad_minic =
  QCheck.Test.make ~name:"fuzzed MiniC: live QUAD == replay of its recording"
    ~count:25
    (QCheck.make ~print:Fun.id Test_differential.gen_minic)
    (fun src -> quad_equals_replay (Test_differential.compile src))

let qcheck_quad_frames =
  QCheck.Test.make ~name:"frame asm: live QUAD == replay of its recording"
    ~count:40
    (QCheck.make ~print:print_frame gen_frame)
    (fun (p1, p2, iters, adj, offs) ->
      quad_equals_replay (frame_asm ~p1 ~p2 ~iters ~adj ~offs))

(* [rd]'s one load reads the address [off] bytes off a fixed base [x20]
   while the stack pointer rises by [step] per iteration, so the red zone's
   bound sweeps up past it: one slot reads one address as stack bytes,
   then straddling, then as global bytes.  Within an iteration [rd] runs
   twice at one stack pointer, once after [wa] and once after [wb] wrote
   the address, so one slot reads one address at one stack pointer from
   two producers in turn. *)
let split_asm ~iters ~step ~off ~load =
  Printf.sprintf
    {|
.image split
.func _start
  sub  x2, x2, 512
  mov  x20, x2
  li   x12, %d
loop:
  call wa
  call rd
  call wb
  call rd
  add  x2, x2, %d
  sub  x12, x12, 1
  bnz  x12, loop
  li   x4, 0
  syscall 0
.endfunc
.func wa
  sd   x12, %d(x20)
  ret
.endfunc
.func wb
  sd   x2, %d(x20)
  ret
.endfunc
.func rd
  %s   x13, %d(x20)
  ret
.endfunc
|}
    iters step off off load off
  |> Tq_asm.Asm_parse.parse
  |> fun o -> Tq_asm.Link.link [ o ]

let gen_split =
  let open QCheck.Gen in
  quad (int_range 2 4)
    (oneofl [ 4; 8; 16; 64 ])
    (* below the return addresses the calls push at [x20 - 8] and up *)
    (oneofl [ -80; -76; -72; -68; -64; -40; -24; -16 ])
    (oneofl [ "ld"; "lws"; "lh"; "lb" ])

let qcheck_quad_split =
  QCheck.Test.make
    ~name:"split asm: live QUAD == replay of its recording" ~count:30
    (QCheck.make
       ~print:(fun (iters, step, off, load) ->
         Printf.sprintf "iters=%d step=%d off=%d load=%s" iters step off load)
       gen_split)
    (fun (iters, step, off, load) ->
      quad_equals_replay (split_asm ~iters ~step ~off ~load))

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

(* Live QUAD's actions run at their own slots, so after a trap or a fuel
   stop mid-block its state is the per-access path's (a probe feeding
   [Quad.consume]) exactly: on [trap_asm], and on [frame_asm] stopped at
   every instruction count up to its end. *)
let quad_stops_exact prog fuels () =
  List.iter
    (fun policy ->
      List.iter
        (fun fuel ->
          let eng = Engine.create (Machine.create prog) in
          let live = Quad.attach ~policy eng in
          let per_access = Quad.create policy prog in
          Probe.attach eng (Quad.consume per_access);
          (match Engine.run ?fuel eng with
          | () -> if fuel = None then Alcotest.fail "expected a trap"
          | exception (Machine.Trap _ | Executor.Out_of_fuel _) -> ());
          Alcotest.(check string)
            (Printf.sprintf "%s, fuel %s: live QUAD = per-access QUAD"
               (policy_name policy)
               (Option.fold ~none:"none" ~some:string_of_int fuel))
            (quad_dump per_access) (quad_dump live))
        fuels)
    policies

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
        QCheck_alcotest.to_alcotest qcheck_quad_minic;
        QCheck_alcotest.to_alcotest qcheck_quad_frames;
        QCheck_alcotest.to_alcotest qcheck_quad_split;
        Alcotest.test_case "prefetch asm: live QUAD == replay (no claim)"
          `Quick (fun () ->
            Alcotest.(check bool)
              "live = replay" true
              (quad_equals_replay
                 (Tq_asm.Link.link [ Tq_asm.Asm_parse.parse prefetch_asm ])));
        Alcotest.test_case "trap mid-block: live QUAD = per-access" `Quick
          (quad_stops_exact
             (Tq_asm.Link.link [ Tq_asm.Asm_parse.parse trap_asm ])
             [ None ]);
        Alcotest.test_case "fuel stops: live QUAD = per-access" `Quick
          (quad_stops_exact
             (frame_asm ~p1:1 ~p2:0 ~iters:3 ~adj:64
                ~offs:[ -72; -16; -8; 0; 8; -68; 16; -16 ])
             (List.init 60 Option.some));
      ] );
  ]

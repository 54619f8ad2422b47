open Tq_vm
module Obj = Objfile

let qcheck_sleb128_roundtrip =
  QCheck.Test.make ~name:"sleb128 roundtrip over full int range" ~count:500
    QCheck.(
      oneof
        [ small_signed_int; int; int_range (-1_000_000) 1_000_000;
          oneofl [ 0; -1; 1; min_int; max_int; 63; 64; -64; -65 ] ])
    (fun v ->
      let buf = Buffer.create 12 in
      Tq_util.Leb128.write_s buf v;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      Tq_util.Leb128.read_s s pos = v && !pos = String.length s)

let wfs_program () = Tq_wfs.Harness.compile Tq_wfs.Scenario.tiny

let test_program_roundtrip () =
  let p = wfs_program () in
  let bytes = Obj.encode p in
  Alcotest.(check bool) "magic present" true (Obj.is_objfile bytes);
  let p2 = Obj.decode bytes in
  Alcotest.(check bool) "code identical" true (p.Program.code = p2.Program.code);
  Alcotest.(check int) "entry" p.Program.entry p2.Program.entry;
  Alcotest.(check int) "data_end" p.Program.data_end p2.Program.data_end;
  Alcotest.(check bool) "data identical" true (p.Program.data = p2.Program.data);
  Alcotest.(check int) "symbol count" (Symtab.count p.Program.symtab)
    (Symtab.count p2.Program.symtab);
  Symtab.iter
    (fun r ->
      match Symtab.by_name p2.Program.symtab r.Symtab.name with
      | None -> Alcotest.fail ("lost symbol " ^ r.Symtab.name)
      | Some r2 ->
          Alcotest.(check int) "entry" r.Symtab.entry r2.Symtab.entry;
          Alcotest.(check int) "size" r.Symtab.size r2.Symtab.size;
          Alcotest.(check string) "image" r.Symtab.image r2.Symtab.image;
          Alcotest.(check bool) "main flag" r.Symtab.is_main_image
            r2.Symtab.is_main_image)
    p.Program.symtab;
  (* determinism *)
  Alcotest.(check bool) "encode deterministic" true (bytes = Obj.encode p2)

let test_decoded_program_runs_identically () =
  let scen = Tq_wfs.Scenario.tiny in
  let p = Obj.decode (Obj.encode (Tq_wfs.Harness.compile scen)) in
  let m = Machine.create ~vfs:(Tq_wfs.Harness.make_vfs scen) p in
  Executor.run ~fuel:(Tq_wfs.Harness.fuel scen) m;
  Alcotest.(check (option int)) "exit 0" (Some 0) (Machine.exit_code m);
  let reference, _ = Tq_wfs.Reference.render scen in
  Alcotest.(check bool) "byte-identical output through the object file" true
    (Vfs.contents (Machine.vfs m) "output.wav" = Some reference)

let test_file_io () =
  let p = wfs_program () in
  let path = Filename.temp_file "tquad" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Obj.encode p));
      let p2 = Obj.decode (In_channel.with_open_bin path In_channel.input_all) in
      Alcotest.(check bool) "file roundtrip" true
        (p.Program.code = p2.Program.code))

let test_corruption_detected () =
  let p = wfs_program () in
  let bytes = Obj.encode p in
  let check name input =
    match Obj.decode input with
    | _ -> Alcotest.fail (name ^ ": expected Format_error")
    | exception Obj.Format_error _ -> ()
  in
  check "bad magic" ("XXXXXXX" ^ String.sub bytes 7 (String.length bytes - 7));
  check "truncated" (String.sub bytes 0 (String.length bytes / 2));
  check "trailing garbage" (bytes ^ "\x00");
  (* flip a byte inside the code section: either decodes to different code
     or errors — it must never produce the same program silently *)
  let mutated = Bytes.of_string bytes in
  let target = String.length bytes - 20 in
  Bytes.set mutated target
    (Char.chr (Char.code (Bytes.get mutated target) lxor 0x3f));
  (match Obj.decode (Bytes.to_string mutated) with
  | p2 ->
      Alcotest.(check bool) "mutation changed the program" true
        (p2.Program.code <> p.Program.code)
  | exception Obj.Format_error _ -> ())

let qcheck_ins_roundtrip =
  (* random instructions through the per-instruction codec, exercised via a
     one-instruction program *)
  let reg = QCheck.Gen.int_range 0 31 in
  let gen =
    QCheck.Gen.(
      oneof
        [
          return Tq_isa.Isa.Nop;
          map2 (fun r v -> Tq_isa.Isa.Li (r, v)) reg small_signed_int;
          map3
            (fun d s v -> Tq_isa.Isa.Bin (Tq_isa.Isa.Xor, d, s, Tq_isa.Isa.Imm v))
            reg reg small_signed_int;
          map2 (fun r f -> Tq_isa.Isa.Fli (r, f)) reg (float_bound_exclusive 1e9);
          map3
            (fun d b o ->
              Tq_isa.Isa.Load
                { width = Tq_isa.Isa.W2; dst = d; base = b; off = o; pred = None })
            reg reg small_signed_int;
          map3
            (fun s b p ->
              Tq_isa.Isa.Store
                { width = Tq_isa.Isa.W8; src = s; base = b; off = -8; pred = Some p })
            reg reg reg;
          map (fun a -> Tq_isa.Isa.Call (abs a)) small_signed_int;
          map (fun n -> Tq_isa.Isa.Syscall (abs n)) small_signed_int;
          return Tq_isa.Isa.Ret;
        ])
  in
  QCheck.Test.make ~name:"single-instruction codec roundtrip" ~count:300
    (QCheck.make gen) (fun ins ->
      let routines =
        [ { Symtab.id = 0; name = "f"; entry = Layout.text_base;
            size = Tq_isa.Isa.ins_bytes; image = "t"; is_main_image = true } ]
      in
      let p =
        { Program.code = [| ins |]; entry = Layout.text_base; data = [];
          data_end = Layout.data_base; symtab = Symtab.build routines }
      in
      let p2 = Obj.decode (Obj.encode p) in
      p2.Program.code = [| ins |])

let suites =
  [
    ( "objfile",
      [
        QCheck_alcotest.to_alcotest qcheck_sleb128_roundtrip;
        Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
        Alcotest.test_case "decoded program runs identically" `Quick
          test_decoded_program_runs_identically;
        Alcotest.test_case "file io" `Quick test_file_io;
        Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
        QCheck_alcotest.to_alcotest qcheck_ins_roundtrip;
      ] );
  ]

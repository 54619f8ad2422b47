(* Guest faults stay inside the exit contract: a bad address or a syscall
   argument out of range is a Machine.Trap at the faulting instruction, the
   same on the reference interpreter and on both engine paths, and the CLI
   exits 1 with a "trap at 0x..." line under run, a live tool and record. *)

open Tq_vm
module Isa = Tq_isa.Isa
module Builder = Tq_asm.Builder
module Engine = Tq_dbi.Engine

let compile src = Tq_rt.Rt.link [ Tq_minic.Driver.compile_unit ~image:"app" src ]

(* What one execution path made of the program. *)
let outcome run prog =
  let m = Machine.create prog in
  match run m with
  | () -> "no trap"
  | exception Machine.Trap { ip; reason } -> Printf.sprintf "0x%x: %s" ip reason

let paths =
  [
    ("interpreter", fun m -> Executor.run ~fuel:10_000_000 m);
    ( "code cache",
      fun m -> Engine.run ~fuel:10_000_000 (Engine.create ~use_code_cache:true m) );
    ( "reference engine",
      fun m -> Engine.run ~fuel:10_000_000 (Engine.create ~use_code_cache:false m) );
  ]

(* Every path traps at the same instruction, for the same reason, and the
   reason says what went wrong. *)
let expect_trap prog ~reason =
  match List.map (fun (name, run) -> (name, outcome run prog)) paths with
  | [] -> assert false
  | (_, first) :: _ as all ->
      List.iter
        (fun (name, o) ->
          Alcotest.(check string) (name ^ " agrees") first o;
          Alcotest.(check bool)
            (Printf.sprintf "%s traps with %S (got %S)" name reason o)
            true
            (Astring_contains.contains o reason))
        all

let src_neg_deref = "int main() { int *p; p = (int*)0; p = p - 100; return *p; }\n"

let src_memset =
  "int main() { char *p; p = (char*)0; memset(p - 64, 0, 8); return 0; }\n"

let src_memcpy =
  "char buf[16];\n\
   int main() { char *p; p = (char*)0; memcpy(p - 64, buf, 8); return 0; }\n"

let src_open =
  "char p[8192];\n\
   int main() { int i; for (i = 0; i < 8192; i = i + 1) p[i] = 'A'; return \
   open(p, 0); }\n"

let src_close n = Printf.sprintf "int main() { close(%d); return 0; }\n" n

let with_out body =
  Printf.sprintf
    "char b[8];\nint main() { int fd; fd = open(\"o.bin\", 1); %s return 0; }\n"
    body

let src_write_huge = with_out "write(fd, b, 1099511627776);"
let src_seek_huge = with_out "seek(fd, 1099511627776); write(fd, b, 8);"

let src_seek_wrap =
  with_out "seek(fd, 4611686018427387900); write(fd, b, 8);"

let src_read len =
  with_out
    (Printf.sprintf "close(fd); fd = open(\"o.bin\", 0); read(fd, b, %d);" len)

(* seek to exactly the budget is allowed; one more byte is not *)
let src_past_budget =
  with_out
    (Printf.sprintf "seek(fd, %d); write(fd, b, 1);" Vfs.max_file_size)

(* one byte stored per 4 KiB page, for as many pages as the budget holds:
   with the stack and globals already resident, the last stores pass it *)
let src_page_budget =
  Printf.sprintf
    "int main() { char *p; int i; p = (char*)0; p = p + 536870912;\n\
    \  for (i = 0; i < %d; i = i + 1) { *p = 1; p = p + 4096; }\n\
    \  return 0; }\n"
    (Memory.max_bytes / 4096)

(* a 1 TiB block move: traps before a host buffer is sized from it *)
let src_memcpy_huge =
  "char buf[16];\n\
   int main() { memcpy(buf, buf, 1099511627776); return 0; }\n"

let test_neg_deref () =
  expect_trap (compile src_neg_deref) ~reason:"negative address -800"

let test_memset () =
  expect_trap (compile src_memset) ~reason:"negative address -64"

let test_memcpy () =
  expect_trap (compile src_memcpy) ~reason:"8-byte block at address -64"

let test_page_budget () =
  expect_trap (compile src_page_budget)
    ~reason:
      (Printf.sprintf "would pass the %d-byte memory budget" Memory.max_bytes)

let test_memcpy_huge () =
  expect_trap (compile src_memcpy_huge)
    ~reason:
      (Printf.sprintf "1099511627776-byte block at address %d exceeds the \
                       %d-byte memory budget"
         Layout.data_base Memory.max_bytes)

let test_open_unterminated () =
  expect_trap (compile src_open) ~reason:"no NUL within 4096 bytes"

let test_close_range () =
  expect_trap (compile (src_close 99)) ~reason:"bad file descriptor";
  expect_trap (compile (src_close (-1))) ~reason:"bad file descriptor"

let test_write_huge () =
  expect_trap (compile src_write_huge)
    ~reason:"write length 1099511627776 outside 0..67108864"

let test_seek_huge () =
  expect_trap (compile src_seek_huge) ~reason:"seek to 1099511627776 outside"

let test_seek_wrap () =
  expect_trap (compile src_seek_wrap)
    ~reason:"seek to 4611686018427387900 outside"

let test_read_length () =
  expect_trap (compile (src_read (-5))) ~reason:"read length -5 outside";
  expect_trap
    (compile (src_read (Vfs.max_file_size + 1)))
    ~reason:(Printf.sprintf "read length %d outside" (Vfs.max_file_size + 1));
  (* in range: the buffer is sized by what the file holds *)
  Alcotest.(check string) "in-range read runs" "no trap"
    (outcome (List.assoc "interpreter" paths) (compile (src_read 4096)))

(* a seek may leave the position past the end; a read there returns 0 *)
let test_read_past_end () =
  let prog =
    compile
      "char b[8];\n\
       int main() { int fd; fd = open(\"o.bin\", 1); write(fd, b, 8); \
       close(fd); fd = open(\"o.bin\", 0); seek(fd, 100000); return \
       read(fd, b, 8) + 7; }\n"
  in
  List.iter
    (fun (name, run) ->
      let m = Machine.create prog in
      run m;
      Alcotest.(check (option int)) (name ^ ": read returned 0") (Some 7)
        (Machine.exit_code m))
    paths

let test_write_past_budget () =
  expect_trap (compile src_past_budget) ~reason:"passes the 67108864-byte file"

(* putstr is reached only through the runtime's puts, which passes a
   measured length; drive the syscall directly *)
let test_putstr_length () =
  let prog len =
    let b = Builder.create () in
    Builder.ins b (Isa.Li (Isa.reg_a0, Layout.data_base));
    Builder.ins b (Isa.Li (Isa.reg_a0 + 1, len));
    Builder.ins b (Isa.Syscall Sysno.putstr);
    Builder.ins b (Isa.Li (Isa.reg_a0, 0));
    Builder.ins b (Isa.Syscall Sysno.exit);
    fst
      (Tq_asm.Link.link_with_symbols
         [
           {
             Tq_asm.Link.uname = "t";
             main_image = true;
             routines = [ { Tq_asm.Link.rname = "_start"; body = b } ];
             data = [ { Tq_asm.Link.dname = "s"; init = Zero 8 } ];
           };
         ])
  in
  expect_trap (prog (-5)) ~reason:"putstr length -5 outside";
  expect_trap (prog 1099511627776) ~reason:"putstr length 1099511627776 outside"

(* ---------- the CLI: exit 1 with a trap line ---------- *)

let cli_traps ?(ext = ".mc") src () =
  let file = Test_dataflow.write_tmp ext src in
  let err = Filename.temp_file "tq_fault" ".err" in
  let trc = Filename.temp_file "tq_fault" ".trc" in
  List.iter
    (fun sub ->
      let status =
        Sys.command
          (Printf.sprintf "%s %s %s >/dev/null 2>%s"
             (Test_dataflow.cli_path ()) sub file err)
      in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check int) (sub ^ ": exit 1") 1 status;
      Alcotest.(check bool)
        (Printf.sprintf "%s: trap line (got %S)" sub stderr)
        true
        (Astring_contains.contains stderr "trap at 0x"))
    [ "run"; "tquad"; Printf.sprintf "record -o %s" trc ];
  List.iter Sys.remove [ file; err; trc ]

let suites =
  [
    ( "vm.faults",
      [
        Alcotest.test_case "negative address load" `Quick test_neg_deref;
        Alcotest.test_case "negative address store (memset)" `Quick test_memset;
        Alcotest.test_case "negative block move (memcpy)" `Quick test_memcpy;
        Alcotest.test_case "store: a page past the memory budget" `Quick
          test_page_budget;
        Alcotest.test_case "block move (memcpy) of 1 TiB" `Quick
          test_memcpy_huge;
        Alcotest.test_case "open: unterminated path" `Quick
          test_open_unterminated;
        Alcotest.test_case "close: descriptor out of range" `Quick
          test_close_range;
        Alcotest.test_case "write: length over budget" `Quick test_write_huge;
        Alcotest.test_case "seek: position over budget" `Quick test_seek_huge;
        Alcotest.test_case "seek: position near max_int" `Quick test_seek_wrap;
        Alcotest.test_case "read: length out of range" `Quick test_read_length;
        Alcotest.test_case "read: position past the end" `Quick
          test_read_past_end;
        Alcotest.test_case "write: file past budget" `Quick
          test_write_past_budget;
        Alcotest.test_case "putstr: length out of range" `Quick
          test_putstr_length;
      ] );
    ( "cli.faults",
      [
        Alcotest.test_case "negative address load" `Quick
          (cli_traps src_neg_deref);
        Alcotest.test_case "negative address store (memset)" `Quick
          (cli_traps src_memset);
        Alcotest.test_case "store: a page past the memory budget" `Quick
          (cli_traps src_page_budget);
        Alcotest.test_case "block move (memcpy) of 1 TiB" `Quick
          (cli_traps src_memcpy_huge);
        Alcotest.test_case "open: unterminated path" `Quick
          (cli_traps src_open);
        Alcotest.test_case "close(99)" `Quick (cli_traps (src_close 99));
        Alcotest.test_case "close(-1)" `Quick (cli_traps (src_close (-1)));
        Alcotest.test_case "write: length over budget" `Quick
          (cli_traps src_write_huge);
        Alcotest.test_case "seek over budget, then write" `Quick
          (cli_traps src_seek_huge);
        Alcotest.test_case "seek near max_int, then write" `Quick
          (cli_traps src_seek_wrap);
        Alcotest.test_case "putstr: negative length" `Quick
          (cli_traps ~ext:".s"
             ".ascii s \"hi\"\n\
              .func _start\n\
             \  la x4, s\n\
             \  li x5, -5\n\
             \  syscall 8\n\
             \  li x4, 0\n\
             \  syscall 0\n\
              .endfunc\n");
      ] );
  ]

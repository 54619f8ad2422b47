(* The robustness contract of the v3 container, checked by fault injection:
   for ANY corruption of a valid trace, a strict load either yields the
   original events byte-identically or raises [Reader.Format_error] — never
   another exception, never wrong events — and a salvage load recovers a
   CRC-verified subsequence (for truncation: a prefix) of the original. *)

module Event = Tq_trace.Event
module Writer = Tq_trace.Writer
module Reader = Tq_trace.Reader
module Faultgen = Tq_faultgen.Faultgen

(* ---------- helpers ---------- *)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Serialize events into an in-memory v3 container image (small chunks so
   every mutation kind has several chunks to aim at). *)
let container ?(chunk_bytes = 128) evs =
  let path = Filename.temp_file "tq_fault" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file ~chunk_bytes path (fun w ->
          List.iter (Writer.emit w) evs);
      read_raw path)

let events_of r =
  let out = ref [] in
  Reader.iter r (fun ev -> out := ev :: !out);
  List.rev !out

let rec is_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xt, y :: yt -> if x = y then is_subseq xt yt else is_subseq xs yt

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xt, y :: yt -> x = y && is_prefix xt yt

(* A deterministic golden stream: varied event kinds, strictly growing
   icounts, enough bytes for several chunks. *)
let golden_events =
  List.concat_map
    (fun i ->
      let icount = i * 7 in
      [
        Event.Rtn_entry { icount; routine = i mod 5; sp = 0x1000 + i };
        Event.Load
          { icount = icount + 1; static = i mod 3; ea = i * 24; size = 8; sp = 0x1000 + i };
        Event.Store
          { icount = icount + 2; static = -1; ea = i * 40; size = 4; sp = 0x1000 + i };
        Event.Ret { icount = icount + 3; sp = 0x1000 + i };
      ])
    (List.init 40 Fun.id)

let golden = lazy (container ~chunk_bytes:64 golden_events)

(* ---------- the central qcheck property ---------- *)

let qcheck_mutation_safety =
  QCheck.Test.make
    ~name:
      "any mutation: strict load = identical events or Format_error; \
       salvage = verified subsequence"
    ~count:150
    QCheck.(pair Test_trace.arb_events small_nat)
    (fun (evs, seed) ->
      let raw = container evs in
      let mut = Faultgen.random ~seed raw in
      let mutated = Faultgen.apply mut raw in
      let ok_strict =
        match
          let r = Reader.of_string mutated in
          events_of r
        with
        | out ->
            out = evs
            || QCheck.Test.fail_reportf
                 "strict load of [%s] succeeded with WRONG events"
                 (Faultgen.describe mut)
        | exception Reader.Format_error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf
              "strict load of [%s] raised a non-Format_error: %s"
              (Faultgen.describe mut) (Printexc.to_string e)
      in
      let ok_salvage =
        match
          let r = Reader.of_string ~mode:Reader.Salvage mutated in
          events_of r
        with
        | out ->
            is_subseq out evs
            || QCheck.Test.fail_reportf
                 "salvage of [%s] returned events that are not a subsequence"
                 (Faultgen.describe mut)
        | exception Reader.Format_error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf
              "salvage of [%s] raised a non-Format_error: %s"
              (Faultgen.describe mut) (Printexc.to_string e)
      in
      ok_strict && ok_salvage)

(* ---------- exhaustive truncation matrix ---------- *)

(* Truncate the golden container at EVERY byte length: strict must never
   crash with anything but Format_error, and salvage must monotonically
   recover a growing prefix of the events. *)
let test_truncation_matrix () =
  let raw = Lazy.force golden in
  let full = String.length raw in
  let prev_salvaged = ref 0 in
  for len = 0 to full do
    let cut = String.sub raw 0 len in
    (match
       let r = Reader.of_string cut in
       events_of r
     with
    | out ->
        if len <> full || out <> golden_events then
          Alcotest.failf "strict accepted a truncation to %d bytes" len
    | exception Reader.Format_error _ ->
        if len = full then
          Alcotest.failf "strict rejected the intact container"
    | exception e ->
        Alcotest.failf "strict at %d bytes raised %s" len
          (Printexc.to_string e));
    (match
       let r = Reader.of_string ~mode:Reader.Salvage cut in
       (events_of r, Reader.salvage_info r)
     with
    | out, info ->
        if not (is_prefix out golden_events) then
          Alcotest.failf "salvage at %d bytes is not a prefix" len;
        let n = List.length out in
        if n < !prev_salvaged then
          Alcotest.failf
            "salvage not monotone: %d bytes recovered %d events, %d bytes \
             recovered %d"
            (len - 1) !prev_salvaged len n;
        prev_salvaged := n;
        if info = None then
          Alcotest.failf "salvage at %d bytes reported no salvage info" len
    | exception Reader.Format_error _ ->
        (* only acceptable below a complete header *)
        if len >= Writer.header_bytes then
          Alcotest.failf "salvage gave up at %d bytes (header is %d)" len
            Writer.header_bytes
    | exception e ->
        Alcotest.failf "salvage at %d bytes raised %s" len
          (Printexc.to_string e))
  done;
  Alcotest.(check int) "full container salvages everything"
    (List.length golden_events) !prev_salvaged

(* ---------- mid-run kill (unfinalized .tmp shape) ---------- *)

let test_midrun_kill_salvage () =
  let raw = Lazy.force golden in
  let killed = Faultgen.apply Faultgen.Strip_tail raw in
  (match Reader.of_string killed with
  | _ -> Alcotest.fail "strict accepted a container with no index/trailer"
  | exception Reader.Format_error _ -> ());
  let r = Reader.of_string ~mode:Reader.Salvage killed in
  Alcotest.(check (list (Alcotest.testable Event.pp ( = ))))
    "salvage recovers every flushed chunk" golden_events (events_of r);
  match Reader.salvage_info r with
  | None -> Alcotest.fail "no salvage report"
  | Some s ->
      Alcotest.(check int) "nothing dropped" 0 s.Reader.dropped_chunks;
      Alcotest.(check bool) "reason flags the missing finalization" true
        (let lower = String.lowercase_ascii s.Reader.reason in
         let has needle =
           let nl = String.length needle and ll = String.length lower in
           let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
           go 0
         in
         has "finalized")

(* ---------- the reader index's budget ---------- *)

(* A chunk count the index region cannot hold must be refused before the
   reader allocates a table for it.  Each index entry takes at least 3 bytes,
   so a count equal to the file length claims about 3x more entries than
   the whole file could list; the refusal must cost less than one byte per
   claimed chunk, not a word. *)
let test_index_count_budget () =
  let path = Filename.temp_file "tq_fault" ".trc" in
  let raw =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let prog = Tq_apps.Apps.pointer_chase_program () in
        let _n : int =
          Tq_trace.Probe.record
            (Tq_dbi.Engine.create (Tq_vm.Machine.create prog))
            ~path
        in
        read_raw path)
  in
  let len = String.length raw in
  let tlen = String.length Writer.trailer_magic in
  let index_offset = Int64.to_int (String.get_int64_le raw (len - tlen - 8)) in
  let pos = ref index_offset in
  let _count : int = Tq_util.Leb128.read_u raw pos in
  let b = Buffer.create (len + 8) in
  Buffer.add_string b (String.sub raw 0 index_offset);
  Tq_util.Leb128.write_u b len;
  Buffer.add_string b (String.sub raw !pos (len - !pos));
  let crafted = Buffer.contents b in
  let before = Gc.allocated_bytes () in
  (match Reader.of_string crafted with
  | _ -> Alcotest.fail "a chunk count the index cannot hold was accepted"
  | exception Reader.Format_error _ -> ());
  let allocated = Gc.allocated_bytes () -. before in
  if allocated >= float_of_int len then
    Alcotest.failf "refusing a count of %d chunks allocated %.0f bytes" len
      allocated

(* ---------- determinism of the harness itself ---------- *)

let test_sweep_deterministic () =
  let raw = Lazy.force golden in
  let s1 = Faultgen.sweep ~seed:42 ~count:12 raw in
  let s2 = Faultgen.sweep ~seed:42 ~count:12 raw in
  Alcotest.(check bool) "same seed, same sweep" true
    (List.map fst s1 = List.map fst s2
    && List.map snd s1 = List.map snd s2);
  let s3 = Faultgen.sweep ~seed:43 ~count:12 raw in
  Alcotest.(check bool) "different seed, different sweep" true
    (List.map fst s1 <> List.map fst s3)

let suites =
  [
    ( "fault",
      [
        QCheck_alcotest.to_alcotest qcheck_mutation_safety;
        Alcotest.test_case "exhaustive truncation matrix" `Slow
          test_truncation_matrix;
        Alcotest.test_case "mid-run kill: salvage recovers the prefix" `Quick
          test_midrun_kill_salvage;
        Alcotest.test_case "seeded sweeps are deterministic" `Quick
          test_sweep_deterministic;
        Alcotest.test_case "index: an oversized chunk count allocates nothing"
          `Quick test_index_count_budget;
      ] );
  ]

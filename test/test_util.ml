open Tq_util

let test_dyn_array_basic () =
  let a = Dyn_array.create ~dummy:0 () in
  Alcotest.(check int) "empty length" 0 (Dyn_array.length a);
  for i = 0 to 99 do
    Dyn_array.push a (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dyn_array.length a);
  Alcotest.(check int) "get 7" 49 (Dyn_array.get a 7)

let test_dyn_array_bounds () =
  let a = Dyn_array.create ~dummy:0 () in
  Dyn_array.push a 1;
  Alcotest.check_raises "get oob"
    (Invalid_argument "Dyn_array: index 1 out of bounds [0,1)") (fun () ->
      ignore (Dyn_array.get a 1));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Dyn_array: index -1 out of bounds [0,1)") (fun () ->
      ignore (Dyn_array.get a (-1)))

let test_dyn_array_fold_iter () =
  let a = Dyn_array.create ~dummy:0 () in
  List.iter (Dyn_array.push a) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "fold sum" 10 (Dyn_array.fold ( + ) 0 a);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3; 4 |] (Dyn_array.to_array a);
  let seen = ref [] in
  Dyn_array.iteri (fun i x -> seen := (i, x) :: !seen) a;
  Alcotest.(check (list (pair int int))) "iteri"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ] (List.rev !seen)

let qcheck_dyn_array_matches_list =
  QCheck.Test.make ~name:"dyn_array push/get agrees with list"
    ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let a = Dyn_array.create ~dummy:min_int () in
      List.iter (Dyn_array.push a) xs;
      Array.to_list (Dyn_array.to_array a) = xs
      && Dyn_array.length a = List.length xs)

(* the members in ascending order, read back through [iter_words] *)
let members s =
  let acc = ref [] in
  Paged_bitset.iter_words
    (fun base word ->
      for b = 0 to 31 do
        if word land (1 lsl b) <> 0 then acc := (base + b) :: !acc
      done)
    s;
  List.rev !acc

let test_bitset_basic () =
  let s = Paged_bitset.create () in
  Alcotest.(check int) "empty" 0 (Paged_bitset.cardinal s);
  Paged_bitset.add_range s 0 1;
  Paged_bitset.add_range s 63 1;
  Paged_bitset.add_range s 64 1;
  Paged_bitset.add_range s 1_000_000_007 1;
  Paged_bitset.add_range s 63 1 (* duplicate *);
  Alcotest.(check int) "cardinal" 4 (Paged_bitset.cardinal s);
  Alcotest.(check (list int)) "members" [ 0; 63; 64; 1_000_000_007 ] (members s);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Paged_bitset.add_range: negative") (fun () ->
      Paged_bitset.add_range s (-5) 1)

let test_bitset_range_iter () =
  let s = Paged_bitset.create () in
  Paged_bitset.add_range s 100 50;
  Alcotest.(check int) "range cardinal" 50 (Paged_bitset.cardinal s);
  Alcotest.(check (list int)) "sorted ascending" (List.init 50 (fun i -> 100 + i))
    (members s)

let test_bitset_sparse_pages () =
  let s = Paged_bitset.create () in
  (* Stack-like high addresses and low data addresses must not blow up. *)
  Paged_bitset.add_range s 0x7f00_0000_0000 1;
  Paged_bitset.add_range s 0x1000_0000 1;
  Alcotest.(check int) "cardinal" 2 (Paged_bitset.cardinal s);
  Alcotest.(check (list int)) "both members" [ 0x1000_0000; 0x7f00_0000_0000 ]
    (members s)

module IS = Set.Make (Int)

(* Bit positions on pages 64 apart, which share a slot of the page table's
   translation cache, and on their neighbours; an offset near 0 lands on
   either side of a page start, so ranges cross from one page into the
   next.  Mixed with the low pages 0-6. *)
let gen_bit =
  let open QCheck.Gen in
  let page = 1 lsl 15 and slots = Page_table.slot_mask + 1 in
  oneof
    [
      int_bound 200_000;
      map3
        (fun k j off -> ((3 + (k * slots) + j) * page) + off)
        (int_range 0 3) (int_range 0 1)
        (oneof [ int_range (-40) 40; int_bound (page - 1) ]);
    ]

let gen_ranges =
  let open QCheck.Gen in
  list_size (int_bound 20)
    (pair gen_bit (frequency [ (19, int_bound 100); (1, int_bound 36_000) ]))

let print_ranges = QCheck.Print.(list (pair int int))

let set_of_ranges ranges =
  List.fold_left
    (fun acc (x, n) ->
      let acc = ref acc in
      for i = x to x + n - 1 do
        acc := IS.add i !acc
      done;
      !acc)
    IS.empty ranges

let bitset_of_ranges ranges =
  let s = Paged_bitset.create () in
  List.iter (fun (x, n) -> Paged_bitset.add_range s x n) ranges;
  s

(* members in ascending order (so [iter_words]'s order is checked too) and
   the cardinal, against the set *)
let bitset_is s set =
  members s = IS.elements set && Paged_bitset.cardinal s = IS.cardinal set

let qcheck_bitset_matches_set =
  QCheck.Test.make ~name:"paged_bitset agrees with Set on adds and mems"
    ~count:200
    (QCheck.make ~print:QCheck.Print.(list int) (QCheck.Gen.list gen_bit))
    (fun xs ->
      let s = Paged_bitset.create () in
      List.iter (fun x -> Paged_bitset.add_range s x 1) xs;
      bitset_is s (IS.of_list xs))

let qcheck_bitset_iter_words =
  QCheck.Test.make ~name:"paged_bitset iter_words agrees with Set on ranges"
    ~count:200
    (QCheck.make ~print:print_ranges gen_ranges)
    (fun ranges ->
      let big = (1 lsl 61) + 5 in
      let s = bitset_of_ranges ranges in
      Paged_bitset.add_range s big 1;
      Paged_bitset.iter_words
        (fun base word ->
          assert (base land 31 = 0 && word <> 0 && word lsr 32 = 0))
        s;
      bitset_is s (IS.add big (set_of_ranges ranges)))

(* [union] into a set that already holds pages, then more adds through the
   cache [union] left behind *)
let qcheck_bitset_union =
  QCheck.Test.make ~name:"paged_bitset union agrees with Set" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(triple print_ranges print_ranges print_ranges)
       QCheck.Gen.(triple gen_ranges gen_ranges gen_ranges))
    (fun (ra, rb, rc) ->
      let a = bitset_of_ranges ra and b = bitset_of_ranges rb in
      let sb = set_of_ranges rb in
      let sab = IS.union (set_of_ranges ra) sb in
      Paged_bitset.union a b;
      let after_union = bitset_is a sab in
      List.iter (fun (x, n) -> Paged_bitset.add_range a x n) rc;
      after_union
      && bitset_is a (IS.union sab (set_of_ranges rc))
      && bitset_is b sb)

let feq = Alcotest.float 1e-9

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  Alcotest.check feq "p0" 10. (Stats.percentile xs 0.);
  Alcotest.check feq "p50" 30. (Stats.percentile xs 50.);
  Alcotest.check feq "p100" 50. (Stats.percentile xs 100.);
  Alcotest.check feq "p25" 20. (Stats.percentile xs 25.)

let test_text_table () =
  let t = Text_table.create ~header:[ "kernel"; "%time" ] in
  Text_table.set_aligns t [ Text_table.Left; Text_table.Right ];
  Text_table.add_row t [ "wav_store"; "31.91" ];
  Text_table.add_row t [ "fft1d"; "28.23" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "contains kernel" true
    (Astring_contains.contains s "wav_store");
  Alcotest.(check bool) "right aligned" true
    (Astring_contains.contains s "| 31.91 |")

let test_text_table_arity () =
  let t = Text_table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Text_table.add_row: expected 2 cells, got 1") (fun () ->
      Text_table.add_row t [ "x" ])

let test_cells () =
  Alcotest.(check string) "int_cell" "1,270,684" (Text_table.int_cell 1270684);
  Alcotest.(check string) "int_cell small" "42" (Text_table.int_cell 42);
  Alcotest.(check string) "int_cell neg" "-1,000" (Text_table.int_cell (-1000));
  Alcotest.(check string) "float_cell" "2.7244" (Text_table.float_cell 2.7244);
  Alcotest.(check string) "pct_cell" "31.91" (Text_table.pct_cell 31.911)

let test_csv () =
  let row cells = Csv_out.to_string [ cells ] in
  Alcotest.(check string) "plain" "a,b\n" (row [ "a"; "b" ]);
  Alcotest.(check string) "quoted comma" "\"a,b\",c\n" (row [ "a,b"; "c" ]);
  Alcotest.(check string) "quoted quote" "\"a\"\"b\"\n" (row [ "a\"b" ]);
  Alcotest.(check string) "to_string" "x,y\n1,2\n"
    (Csv_out.to_string [ [ "x"; "y" ]; [ "1"; "2" ] ])

let test_ascii_chart () =
  let s =
    Ascii_chart.strip_chart ~width:10 ~title:"t" ~unit_label:"B/ins"
      [ ("fft1d", [| 0.; 1.; 2.; 0. |]); ("wav_store", [| 0.; 0.; 0.; 9. |]) ]
  in
  Alcotest.(check bool) "has series name" true
    (Astring_contains.contains s "fft1d");
  Alcotest.(check bool) "has peak" true
    (Astring_contains.contains s "peak 9.0000");
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument
       "Ascii_chart.strip_chart: series bad has length 2, expected 4")
    (fun () ->
      ignore
        (Ascii_chart.strip_chart ~title:"t" ~unit_label:"u"
           [ ("ok", [| 0.; 0.; 0.; 0. |]); ("bad", [| 1.; 2. |]) ]))

(* ---------- crc32 ---------- *)

let test_crc32_vectors () =
  (* the IEEE reference vectors every CRC-32 implementation must hit *)
  let check name want s =
    Alcotest.(check int) name want (Crc32.digest s)
  in
  check "empty" 0 "";
  check "check value" 0xCBF43926 "123456789";
  check "single byte" 0xE8B7BE43 "a";
  check "ascii" 0x414FA339 "The quick brown fox jumps over the lazy dog"

let test_crc32_compose () =
  let s = "The quick brown fox jumps over the lazy dog" in
  let whole = Crc32.digest s in
  (* feeding the string in arbitrary splits through [~crc] must agree *)
  for cut = 0 to String.length s do
    let c = Crc32.digest (String.sub s 0 cut) in
    let c = Crc32.digest ~crc:c (String.sub s cut (String.length s - cut)) in
    Alcotest.(check int) (Printf.sprintf "split at %d" cut) whole c
  done;
  (* slice digest = digest of the substring *)
  Alcotest.(check int) "pos/len slice" (Crc32.digest "quick")
    (Crc32.digest ~pos:4 ~len:5 s);
  Alcotest.check_raises "slice out of bounds"
    (Invalid_argument "Crc32.digest: slice out of bounds") (fun () ->
      ignore (Crc32.digest ~pos:4 ~len:String.(length s) s))

let qcheck_crc32_detects_bitflips =
  QCheck.Test.make ~name:"crc32 detects any single bit flip" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) (pair small_nat small_nat))
    (fun (s, (byte, bit)) ->
      let byte = byte mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      Crc32.digest (Bytes.to_string b) <> Crc32.digest s)

let suites =
  [
    ( "util.dyn_array",
      [
        Alcotest.test_case "basic" `Quick test_dyn_array_basic;
        Alcotest.test_case "bounds" `Quick test_dyn_array_bounds;
        Alcotest.test_case "fold/iter" `Quick test_dyn_array_fold_iter;
        QCheck_alcotest.to_alcotest qcheck_dyn_array_matches_list;
      ] );
    ( "util.paged_bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "range/iter" `Quick test_bitset_range_iter;
        Alcotest.test_case "sparse pages" `Quick test_bitset_sparse_pages;
        QCheck_alcotest.to_alcotest qcheck_bitset_matches_set;
        QCheck_alcotest.to_alcotest qcheck_bitset_iter_words;
        QCheck_alcotest.to_alcotest qcheck_bitset_union;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
      ] );
    ( "util.crc32",
      [
        Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "running digest composes" `Quick test_crc32_compose;
        QCheck_alcotest.to_alcotest qcheck_crc32_detects_bitflips;
      ] );
    ( "util.render",
      [
        Alcotest.test_case "text_table" `Quick test_text_table;
        Alcotest.test_case "table arity" `Quick test_text_table_arity;
        Alcotest.test_case "cells" `Quick test_cells;
        Alcotest.test_case "csv" `Quick test_csv;
        Alcotest.test_case "strip chart" `Quick test_ascii_chart;
      ] );
  ]

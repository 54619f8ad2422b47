module T = Tq_util.Text_table
module Symtab = Tq_vm.Symtab
module G = Tq_gprofsim.Gprofsim
module Q = Tq_quad.Quad
module Tq = Tq_tquad.Tquad
module Ph = Tq_tquad.Phases
module E = Tq_staticcheck.Estimate

let flat_profile rows =
  let t =
    T.create
      ~header:[ "kernel"; "%time"; "self seconds"; "calls"; "self ms/call"; "total ms/call" ]
  in
  T.set_aligns t [ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right ];
  List.iter
    (fun (r : G.row) ->
      T.add_row t
        [
          r.routine.Symtab.name;
          T.pct_cell r.pct_time;
          T.float_cell ~dp:4 r.self_seconds;
          T.int_cell r.calls;
          T.float_cell ~dp:4 r.self_ms_per_call;
          T.float_cell ~dp:4 r.total_ms_per_call;
        ])
    rows;
  T.render t

let quad_table rows =
  let t =
    T.create
      ~header:
        [
          "kernel"; "IN"; "IN UnMA"; "OUT"; "OUT UnMA"; "IN (incl)";
          "IN UnMA (incl)"; "OUT (incl)"; "OUT UnMA (incl)";
        ]
  in
  T.set_aligns t
    [ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right; T.Right ];
  List.iter
    (fun (r : Q.krow) ->
      T.add_row t
        [
          r.routine.Symtab.name;
          T.int_cell r.in_bytes;
          T.int_cell r.in_unma;
          T.int_cell r.out_bytes;
          T.int_cell r.out_unma;
          T.int_cell r.in_bytes_incl;
          T.int_cell r.in_unma_incl;
          T.int_cell r.out_bytes_incl;
          T.int_cell r.out_unma_incl;
        ])
    rows;
  T.render t

let trend_arrow ~old_rank ~new_rank =
  let d = old_rank - new_rank in
  if d >= 3 then "^^" else if d >= 1 then "^"
  else if d = 0 then "<->"
  else if d >= -2 then "v" else "vv"

let instrumented_profile ~base ~adjusted =
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. adjusted in
  let base_rank name =
    let rec go i = function
      | [] -> None
      | (r : G.row) :: rest ->
          if r.routine.Symtab.name = name then Some i else go (i + 1) rest
    in
    go 1 base
  in
  let ranked =
    List.sort (fun (_, a) (_, b) -> compare b a) adjusted
    |> List.mapi (fun i (name, s) -> (name, s, i + 1))
  in
  let t = T.create ~header:[ "kernel"; "%time"; "self seconds"; "rank"; "trend" ] in
  T.set_aligns t [ T.Left; T.Right; T.Right; T.Right; T.Left ];
  (* keep the base (Table I) ordering for rows, as the paper does *)
  List.iter
    (fun (r : G.row) ->
      let name = r.routine.Symtab.name in
      match List.find_opt (fun (n, _, _) -> n = name) ranked with
      | None -> ()
      | Some (_, s, new_rank) ->
          let trend =
            match base_rank name with
            | Some old_rank -> trend_arrow ~old_rank ~new_rank
            | None -> "?"
          in
          T.add_row t
            [
              name;
              T.pct_cell (if total = 0. then 0. else 100. *. s /. total);
              T.float_cell ~dp:4 s;
              string_of_int new_rank;
              trend;
            ])
    base;
  T.render t

let phase_table t groups =
  let symtab_kernels = Tq.kernels t in
  let find name =
    List.find_opt (fun r -> r.Symtab.name = name) symtab_kernels
  in
  let total = max 1 (Tq.total_slices t) in
  let tbl =
    T.create
      ~header:
        [
          "phase"; "phase span"; "% span"; "kernel"; "activity span";
          "avg R incl"; "avg R excl"; "avg W incl"; "avg W excl";
          "max RW incl"; "max RW excl"; "aggregate MBW";
        ]
  in
  T.set_aligns tbl
    [ T.Left; T.Left; T.Right; T.Left; T.Right; T.Right; T.Right; T.Right;
      T.Right; T.Right; T.Right; T.Right ];
  List.iter
    (fun (pname, kernel_names) ->
      let members = List.filter_map find kernel_names in
      let observed =
        List.filter (fun r -> (Tq.totals t r).Tq.activity_span > 0) members
      in
      if observed <> [] then begin
        let lo =
          List.fold_left
            (fun acc r -> min acc (Tq.totals t r).Tq.first_slice)
            max_int observed
        in
        let hi =
          List.fold_left
            (fun acc r -> max acc (Tq.totals t r).Tq.last_slice)
            0 observed
        in
        let aggregate =
          List.fold_left
            (fun acc r -> acc +. Tq.max_rw_bpi t r ~incl:true)
            0. observed
        in
        let span_str = Printf.sprintf "%d-%d" lo hi in
        let pct = 100. *. float_of_int (hi - lo + 1) /. float_of_int total in
        List.iteri
          (fun i r ->
            let tot = Tq.totals t r in
            T.add_row tbl
              [
                (if i = 0 then pname else "");
                (if i = 0 then span_str else "");
                (if i = 0 then T.pct_cell pct else "");
                r.Symtab.name;
                T.int_cell tot.Tq.activity_span;
                T.float_cell ~dp:4 (Tq.avg_bpi t r Tq.Read_incl);
                T.float_cell ~dp:4 (Tq.avg_bpi t r Tq.Read_excl);
                T.float_cell ~dp:4 (Tq.avg_bpi t r Tq.Write_incl);
                T.float_cell ~dp:4 (Tq.avg_bpi t r Tq.Write_excl);
                T.float_cell ~dp:4 (Tq.max_rw_bpi t r ~incl:true);
                T.float_cell ~dp:4 (Tq.max_rw_bpi t r ~incl:false);
                (if i = 0 then T.float_cell ~dp:4 aggregate else "");
              ])
          observed;
        T.add_sep tbl
      end)
    groups;
  T.render tbl

let detected_phases = Ph.render

let figure t ~metric ~kernels ?max_slice ~title () =
  let cut = match max_slice with None -> Tq.total_slices t | Some m -> m in
  let series =
    List.map
      (fun r ->
        let s = Tq.series t r metric in
        (r.Symtab.name, Array.sub s 0 (min cut (Array.length s))))
      kernels
  in
  Tq_util.Ascii_chart.strip_chart ~title ~unit_label:"bytes/instruction" series

let figure_csv t ~metric ~kernels =
  let n = Tq.total_slices t in
  let cols = List.map (fun r -> (r.Symtab.name, Tq.series t r metric)) kernels in
  let header = "slice" :: List.map fst cols in
  let rows =
    List.init n (fun s ->
        string_of_int s
        :: List.map (fun (_, vs) -> Printf.sprintf "%.6f" vs.(s)) cols)
  in
  Tq_util.Csv_out.to_string (header :: rows)

let chrome_trace t =
  let interval = Tq.slice_interval t in
  let us_of_slice s =
    float_of_int (s * interval) /. G.clock_hz *. 1e6
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let emit name tid s0 s1 bytes =
    let ts = us_of_slice s0 in
    let dur = us_of_slice (s1 + 1) -. ts in
    let bpi =
      float_of_int bytes /. float_of_int ((s1 - s0 + 1) * interval)
    in
    if not !first then Buffer.add_string buf ",";
    first := false;
    Buffer.add_string buf
      (Printf.sprintf
         "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
          \"dur\":%.3f,\"args\":{\"bytes\":%d,\"bpi\":%.4f}}"
         name tid ts dur bytes bpi)
  in
  List.iteri
    (fun tid r ->
      let name = r.Symtab.name in
      let reads = Tq.bytes_series t r Tq.Read_incl in
      let writes = Tq.bytes_series t r Tq.Write_incl in
      let n = Array.length reads in
      let run_start = ref (-1) in
      let run_bytes = ref 0 in
      for s = 0 to n - 1 do
        let b = reads.(s) + writes.(s) in
        if b > 0 then begin
          if !run_start = -1 then run_start := s;
          run_bytes := !run_bytes + b
        end
        else if !run_start >= 0 then begin
          emit name tid !run_start (s - 1) !run_bytes;
          run_start := -1;
          run_bytes := 0
        end
      done;
      if !run_start >= 0 then emit name tid !run_start (n - 1) !run_bytes)
    (Tq.kernels t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let profile_diff ~before ~after =
  let tbl =
    T.create
      ~header:
        [ "kernel"; "%before"; "%after"; "self before"; "self after"; "delta";
          "rank" ]
  in
  T.set_aligns tbl
    [ T.Left; T.Right; T.Right; T.Right; T.Right; T.Right; T.Left ];
  let rank rows name =
    let rec go i = function
      | [] -> None
      | (r : G.row) :: rest ->
          if r.routine.Symtab.name = name then Some i else go (i + 1) rest
    in
    go 1 rows
  in
  let names =
    List.map (fun (r : G.row) -> r.routine.Symtab.name) before
    @ List.filter_map
        (fun (r : G.row) ->
          let n = r.routine.Symtab.name in
          if List.exists (fun (b : G.row) -> b.routine.Symtab.name = n) before
          then None
          else Some n)
        after
  in
  List.iter
    (fun name ->
      let find rows =
        List.find_opt (fun (r : G.row) -> r.routine.Symtab.name = name) rows
      in
      match (find before, find after) with
      | Some b, Some a ->
          let delta = a.self_seconds -. b.self_seconds in
          let movement =
            match (rank before name, rank after name) with
            | Some rb, Some ra when rb <> ra -> Printf.sprintf "%d -> %d" rb ra
            | Some rb, Some _ -> string_of_int rb
            | _ -> "?"
          in
          T.add_row tbl
            [ name; T.pct_cell b.pct_time; T.pct_cell a.pct_time;
              T.float_cell ~dp:4 b.self_seconds; T.float_cell ~dp:4 a.self_seconds;
              Printf.sprintf "%+.4f" delta; movement ]
      | Some b, None ->
          T.add_row tbl
            [ name; T.pct_cell b.pct_time; "-"; T.float_cell ~dp:4 b.self_seconds;
              "-"; "-"; "gone" ]
      | None, Some a ->
          T.add_row tbl
            [ name; "-"; T.pct_cell a.pct_time; "-";
              T.float_cell ~dp:4 a.self_seconds; "-"; "new" ]
      | None, None -> ())
    names;
  T.render tbl

(* ---------- static vs dynamic bandwidth comparison ---------- *)

let rank_of values =
  (* 1-based rank by descending value; earlier list position wins ties so
     ranks are a permutation *)
  let idx = List.mapi (fun i v -> (i, v)) values in
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) idx
  in
  let ranks = Array.make (List.length values) 0 in
  List.iteri (fun r (i, _) -> ranks.(i) <- r + 1) sorted;
  ranks

let kendall_tau xs ys =
  let n = Array.length xs in
  let concordant = ref 0 and discordant = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = compare xs.(i) xs.(j) and b = compare ys.(i) ys.(j) in
      if a * b > 0 then incr concordant
      else if a * b < 0 then incr discordant
    done
  done;
  let pairs = n * (n - 1) / 2 in
  if pairs = 0 then 1.0
  else float_of_int (!concordant - !discordant) /. float_of_int pairs

let static_vs_measured rows t =
  let kernels = Tq.kernels t in
  List.filter_map
    (fun (row : E.row) ->
      (* compare only kernels the run actually entered *)
      List.find_opt (fun k -> k.Symtab.id = row.E.routine.Symtab.id) kernels
      |> Option.map (fun k ->
             let tot = Tq.totals t k in
             ( row.E.routine.Symtab.name,
               E.bytes row,
               float_of_int (tot.Tq.read_incl + tot.Tq.write_incl) )))
    rows

let ranks rows =
  ( rank_of (List.map (fun (_, s, _) -> s) rows),
    rank_of (List.map (fun (_, _, d) -> d) rows) )

let static_tau rows =
  let srank, drank = ranks rows in
  kendall_tau srank drank

let static_bandwidth rows =
  let tbl =
    T.create
      ~header:
        [ "kernel"; "static est. B"; "rank"; "dynamic B"; "rank" ]
  in
  T.set_aligns tbl [ T.Left; T.Right; T.Right; T.Right; T.Right ];
  let srank, drank = ranks rows in
  List.iteri
    (fun i (name, s, d) ->
      T.add_row tbl
        [
          name;
          T.float_cell ~dp:0 s;
          T.int_cell srank.(i);
          T.float_cell ~dp:0 d;
          T.int_cell drank.(i);
        ])
    rows;
  let tau = kendall_tau srank drank in
  let top_note =
    match rows with
    | [] | [ _ ] -> ""
    | _ ->
        let top ranks =
          let best = ref 0 in
          Array.iteri (fun i r -> if r = 1 then best := i) ranks;
          List.nth rows !best |> fun (n, _, _) -> n
        in
        let st = top srank and dt = top drank in
        if st = dt then
          Printf.sprintf "; heaviest kernel agrees (%s)" st
        else
          Printf.sprintf "; heaviest kernel differs (static %s, dynamic %s)"
            st dt
  in
  T.render tbl
  ^ Printf.sprintf
      "rank agreement (Kendall tau over %d kernels): %+.2f%s\n"
      (List.length rows) tau top_note

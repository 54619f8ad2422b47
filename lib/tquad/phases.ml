module Symtab = Tq_vm.Symtab
module IS = Set.Make (Int)

type kernel_stats = {
  routine : Symtab.routine;
  activity : int;
  avg_read_incl : float;
  avg_read_excl : float;
  avg_write_incl : float;
  avg_write_excl : float;
  max_rw_incl : float;
  max_rw_excl : float;
}

type phase = {
  start_slice : int;
  end_slice : int;
  span_pct : float;
  kernels : kernel_stats list;
  aggregate_mbw : float;
}

let jaccard a b =
  if IS.is_empty a && IS.is_empty b then 1.
  else begin
    let inter = IS.cardinal (IS.inter a b) in
    let union = IS.cardinal (IS.union a b) in
    float_of_int inter /. float_of_int union
  end

let kernel_stats t routine ~lo ~hi =
  let interval = Tquad.slice_interval t in
  let activity = Tquad.active_in t routine ~lo ~hi in
  let avg metric =
    if activity = 0 then 0.
    else
      float_of_int (Tquad.range_bytes t routine metric ~lo ~hi)
      /. float_of_int (activity * interval)
  in
  {
    routine;
    activity;
    avg_read_incl = avg Tquad.Read_incl;
    avg_read_excl = avg Tquad.Read_excl;
    avg_write_incl = avg Tquad.Write_incl;
    avg_write_excl = avg Tquad.Write_excl;
    max_rw_incl = Tquad.max_rw_in t routine ~incl:true ~lo ~hi;
    max_rw_excl = Tquad.max_rw_in t routine ~incl:false ~lo ~hi;
  }

let detect ?(threshold = 0.2) ?window ?gap ?min_len t =
  let n = Tquad.total_slices t in
  let window = Option.value window ~default:(max 8 (n / 40)) in
  let gap = Option.value gap ~default:(max 2 (window / 6)) in
  let min_len = Option.value min_len ~default:(max 16 (n / 20)) in
  if n = 0 then []
  else begin
    let kernels = Tquad.kernels t in
    (* per-slice active id sets *)
    let active = Array.make n IS.empty in
    List.iter
      (fun r ->
        let bytes_r = Tquad.bytes_series t r Tquad.Read_incl in
        let bytes_w = Tquad.bytes_series t r Tquad.Write_incl in
        for s = 0 to n - 1 do
          if bytes_r.(s) + bytes_w.(s) > 0 then
            active.(s) <- IS.add r.Symtab.id active.(s)
        done)
      kernels;
    let union lo hi =
      let acc = ref IS.empty in
      for s = max 0 lo to min (n - 1) hi do
        acc := IS.union !acc active.(s)
      done;
      !acc
    in
    (* windows are offset by [gap] so that the transition slices themselves
       (which often contain kernels of both phases) do not blur the drop *)
    let leading s = union (s + gap) (s + gap + window - 1) in
    let trailing s = union (s - gap - window + 1) (s - gap) in
    (* boundaries *)
    let bounds = ref [ 0 ] in
    let start = ref 0 in
    for s = 1 to n - 1 do
      if s - !start >= min_len then begin
        let f = leading s and r = trailing (s - 1) in
        if (not (IS.is_empty f)) && jaccard f r <= threshold then begin
          bounds := s :: !bounds;
          start := s
        end
      end
    done;
    let bounds = List.rev !bounds in
    let spans =
      let rec pair = function
        | [] -> []
        | [ lo ] -> [ (lo, n - 1) ]
        | lo :: (next :: _ as rest) -> (lo, next - 1) :: pair rest
      in
      pair bounds
    in
    List.map
      (fun (lo, hi) ->
        let stats =
          kernels
          |> List.filter_map (fun r ->
                 let s = kernel_stats t r ~lo ~hi in
                 if s.activity > 0 then Some s else None)
          |> List.sort (fun a b ->
                 let fa =
                   Tquad.totals t a.routine |> fun x -> x.Tquad.first_slice
                 in
                 let fb =
                   Tquad.totals t b.routine |> fun x -> x.Tquad.first_slice
                 in
                 match compare fa fb with
                 | 0 -> compare a.routine.Symtab.name b.routine.Symtab.name
                 | c -> c)
        in
        {
          start_slice = lo;
          end_slice = hi;
          span_pct = 100. *. float_of_int (hi - lo + 1) /. float_of_int n;
          kernels = stats;
          aggregate_mbw =
            List.fold_left (fun acc s -> acc +. s.max_rw_incl) 0. stats;
        })
      spans
  end

let render phases =
  let buf = Buffer.create 2048 in
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "phase %d: slices %d-%d (%.2f%% of execution), aggregate MBW %.4f B/ins\n"
           (i + 1) p.start_slice p.end_slice p.span_pct p.aggregate_mbw);
      List.iter
        (fun k ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %-24s act %6d  avg R %.4f/%.4f  avg W %.4f/%.4f  max RW %.4f/%.4f\n"
               k.routine.Symtab.name k.activity k.avg_read_incl k.avg_read_excl
               k.avg_write_incl k.avg_write_excl k.max_rw_incl k.max_rw_excl))
        p.kernels)
    phases;
  Buffer.contents buf

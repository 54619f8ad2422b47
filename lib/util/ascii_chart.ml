let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let bucket values width =
  let n = Array.length values in
  if n <= width then Array.copy values
  else begin
    let out = Array.make width 0. in
    for col = 0 to width - 1 do
      let lo = col * n / width in
      let hi = max (lo + 1) ((col + 1) * n / width) in
      let acc = ref 0. in
      for i = lo to hi - 1 do
        acc := !acc +. values.(i)
      done;
      out.(col) <- !acc /. float_of_int (hi - lo)
    done;
    out
  end

let strip_chart ?(width = 96) ~title ~unit_label series =
  if series = [] then invalid_arg "Ascii_chart.strip_chart: no series";
  let len = Array.length (snd (List.hd series)) in
  List.iter
    (fun (name, vs) ->
      if Array.length vs <> len then
        invalid_arg
          (Printf.sprintf
             "Ascii_chart.strip_chart: series %s has length %d, expected %d"
             name (Array.length vs) len))
    series;
  let global_max =
    List.fold_left
      (fun acc (_, vs) -> Array.fold_left (fun a v -> max a (log1p v)) acc vs)
      0. series
  in
  let name_w =
    List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 series
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "  (columns = time slices, intensity = %s, log scale)\n"
       unit_label);
  List.iter
    (fun (name, vs) ->
      let peak = Array.fold_left max 0. vs in
      let cols = bucket vs width in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s |" name_w name);
      Array.iter
        (fun v ->
          let g =
            if global_max <= 0. then 0
            else begin
              let r = log1p v /. global_max in
              if r <= 0. then 0
              else min 9 (1 + int_of_float (r *. 8.99))
            end
          in
          Buffer.add_char buf glyphs.(g))
        cols;
      Buffer.add_string buf (Printf.sprintf "| peak %.4f\n" peak))
    series;
  Buffer.contents buf

let passes ts ~kernel ~metric =
  List.filter_map
    (fun t ->
      match
        List.find_opt
          (fun r -> r.Tq_vm.Symtab.name = kernel)
          (Tquad.kernels t)
      with
      | None -> None
      | Some r ->
          let v = Tquad.avg_bpi t r metric in
          if v > 0. then Some v else None)
    ts

let avg_bpi ts ~kernel ~metric =
  match passes ts ~kernel ~metric with
  | [] -> None
  | vs ->
      Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))

let spread ts ~kernel ~metric =
  match passes ts ~kernel ~metric with
  | [] -> None
  | v :: vs ->
      Some
        (List.fold_left (fun (lo, hi) x -> (min lo x, max hi x)) (v, v) vs)

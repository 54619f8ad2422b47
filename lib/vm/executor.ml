exception Out_of_fuel of int

let run ?(fuel = 2_000_000_000) m =
  Machine.guard m (fun () ->
      let executed = ref 0 in
      while not (Machine.halted m) do
        if !executed >= fuel then raise (Out_of_fuel !executed);
        Machine.exec m (Machine.fetch m);
        incr executed
      done)

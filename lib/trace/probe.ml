module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab

let attach engine sink =
  let m = Engine.machine engine in
  Engine.add_trace_instrumenter engine (fun ~addr ~n ->
      [
        (fun () ->
          sink (Event.Block_exec { icount = Machine.instr_count m; addr; n }));
      ]);
  Engine.add_rtn_instrumenter engine (fun r ->
      let routine = r.Symtab.id in
      [
        (fun () ->
          sink
            (Event.Rtn_entry
               { icount = Machine.instr_count m; routine; sp = Machine.sp m }));
      ]);
  Engine.add_ins_instrumenter engine (fun view ->
      let ins = Engine.Ins_view.ins view in
      let static =
        match Engine.Ins_view.routine view with
        | Some r -> r.Symtab.id
        | None -> -1
      in
      if Isa.is_prefetch ins then
        [
          (fun () ->
            sink
              (Event.Prefetch
                 {
                   icount = Machine.instr_count m;
                   ea = Machine.read_ea m ins;
                   size = Isa.mem_read_bytes ins;
                 }));
        ]
      else if Isa.is_block_move ins then
        [
          (fun () ->
            sink
              (Event.Block_copy
                 {
                   icount = Machine.instr_count m;
                   static;
                   src = Machine.read_ea m ins;
                   dst = Machine.write_ea m ins;
                   len = Machine.block_len m ins;
                   sp = Machine.sp m;
                 }));
        ]
      else begin
        let rd = Isa.mem_read_bytes ins and wr = Isa.mem_write_bytes ins in
        let actions = ref [] in
        if rd > 0 then
          actions :=
            [
              Engine.predicated engine view (fun () ->
                  sink
                    (Event.Load
                       {
                         icount = Machine.instr_count m;
                         static;
                         ea = Machine.read_ea m ins;
                         size = rd;
                         sp = Machine.sp m;
                       }));
            ];
        if wr > 0 then
          actions :=
            !actions
            @ [
                Engine.predicated engine view (fun () ->
                    sink
                      (Event.Store
                         {
                           icount = Machine.instr_count m;
                           static;
                           ea = Machine.write_ea m ins;
                           size = wr;
                           sp = Machine.sp m;
                         }));
              ];
        if Isa.is_ret ins then
          actions :=
            !actions
            @ [
                (fun () ->
                  sink
                    (Event.Ret
                       { icount = Machine.instr_count m; sp = Machine.sp m }));
              ];
        !actions
      end)

let record ?fuel ?compress engine ~path =
  let fingerprint =
    Tq_vm.Program.fingerprint (Machine.program (Engine.machine engine))
  in
  Writer.with_file ~fingerprint ?compress path (fun w ->
      attach engine (Writer.emit w);
      Engine.run ?fuel engine;
      let m = Engine.machine engine in
      Writer.emit w (Event.End { icount = Machine.instr_count m });
      Writer.events w)

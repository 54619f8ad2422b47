module Isa = Tq_isa.Isa
module Engine = Tq_dbi.Engine
module Machine = Tq_vm.Machine
module Symtab = Tq_vm.Symtab

type claim = { slots : int list; actions : (int * Engine.action) list }

let no_claim = { slots = []; actions = [] }

(* One trace instrumenter walks each block's instructions and emits, per
   slot, the events the stream promises in its order: [Block_exec] on slot 0,
   then [Rtn_entry], the memory events and [Ret]; the claim's actions follow
   the probe's own at their slot. *)
let attach ?(wants = Event.all_kinds) ?claim engine sink =
  let m = Engine.machine engine in
  let want = Array.make Event.n_kinds false in
  List.iter (fun k -> want.(Event.kind_tag k) <- true) wants;
  let wanted k = want.(Event.kind_tag k) in
  let w_exec = wanted KBlock_exec and w_entry = wanted KRtn_entry in
  let w_load = wanted KLoad and w_store = wanted KStore in
  let w_copy = wanted KBlock_copy and w_prefetch = wanted KPrefetch in
  let w_ret = wanted KRet in
  let slot_actions claimed i view =
    let ins = Engine.Ins_view.ins view in
    let routine = Engine.Ins_view.routine view in
    let static = match routine with Some r -> r.Symtab.id | None -> -1 in
    let entry =
      match routine with
      | Some r when w_entry && r.Symtab.entry = Engine.Ins_view.addr view ->
          let routine = r.Symtab.id in
          [
            (fun () ->
              sink
                (Event.Rtn_entry
                   { icount = Machine.instr_count m; routine; sp = Machine.sp m }));
          ]
      | _ -> []
    in
    let accesses =
      if Isa.is_prefetch ins then
        if w_prefetch then
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
        else []
      else if Isa.is_block_move ins then
        if w_copy then
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
        else []
      else begin
        let mine = not (List.mem i claimed) in
        let rd = Isa.mem_read_bytes ins and wr = Isa.mem_write_bytes ins in
        let load =
          if mine && w_load && rd > 0 then
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
            ]
          else []
        in
        let store =
          if mine && w_store && wr > 0 then
            [
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
            ]
          else []
        in
        let ret =
          if w_ret && Isa.is_ret ins then
            [
              (fun () ->
                sink
                  (Event.Ret
                     { icount = Machine.instr_count m; sp = Machine.sp m }));
            ]
          else []
        in
        load @ store @ ret
      end
    in
    List.map (fun a -> (i, a)) (entry @ accesses)
  in
  Engine.add_trace_instrumenter engine (fun views ->
      let c = match claim with Some f -> f views | None -> no_claim in
      let exec =
        if w_exec then
          let addr = Engine.Ins_view.addr views.(0) and n = Array.length views in
          [
            ( 0,
              fun () ->
                sink
                  (Event.Block_exec { icount = Machine.instr_count m; addr; n }) );
          ]
        else []
      in
      exec
      @ List.concat (List.mapi (slot_actions c.slots) (Array.to_list views))
      @ c.actions)

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

module Isa = Tq_isa.Isa
module Layout = Tq_vm.Layout
module Symtab = Tq_vm.Symtab
module Program = Tq_vm.Program

type cls =
  | Bad_jump
  | Bad_call
  | Dynamic_flow
  | Use_before_def
  | Unreachable_code
  | Stack_imbalance
  | Fall_through
  | Bad_address
  | Uninit_local
  | Oob_access
  | Dead_store
  | Invariant_load

let class_name = function
  | Bad_jump -> "bad-jump"
  | Bad_call -> "bad-call"
  | Dynamic_flow -> "dynamic-flow"
  | Use_before_def -> "use-before-def"
  | Unreachable_code -> "unreachable"
  | Stack_imbalance -> "stack-imbalance"
  | Fall_through -> "fall-through"
  | Bad_address -> "bad-address"
  | Uninit_local -> "uninit-local"
  | Oob_access -> "oob-access"
  | Dead_store -> "dead-store"
  | Invariant_load -> "invariant-load"

type severity = Error | Warn | Info

let severity_of = function
  | Uninit_local | Dead_store -> Warn
  | Invariant_load -> Info
  | _ -> Error

type diagnostic = {
  routine : string;
  index : int;
  addr : int option;
  cls : cls;
  message : string;
}

let render diags =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      let where =
        match d.addr with
        | Some a -> Printf.sprintf "0x%x" a
        | None -> Printf.sprintf "i%d" d.index
      in
      let tag =
        match severity_of d.cls with
        | Error -> class_name d.cls
        | Warn -> "warn " ^ class_name d.cls
        | Info -> "info " ^ class_name d.cls
      in
      Buffer.add_string buf
        (Printf.sprintf "%s+%s: [%s] %s\n" d.routine where tag d.message))
    diags;
  Buffer.contents buf

(* Solve a forward check over {!Cfg.forward}, then walk every reachable
   block once more from its in-state with reports on. *)
let forward_check (cfg : Cfg.t) ~entry ~join flow =
  Cfg.forward cfg ~entry ~join ~equal:( = ) ~transfer:(flow ~report:false)
  |> Array.iteri (fun b st ->
         Option.iter
           (fun st -> ignore (flow ~report:true cfg.Cfg.blocks.(b) st))
           st)

(* ---------- use-before-def (must-defined forward dataflow) ----------

   A register is "defined" at entry unless it is one of the code
   generator's caller-saved temporaries (x10..x27 / f10..f27): the ABI
   gives those no entry value, so reading one before writing it means the
   routine observes garbage.  Defined-sets are 32-bit masks, one for the
   integer file and one for the float file. *)

let entry_defined_i =
  let m = ref 0 in
  for r = 0 to Isa.num_regs - 1 do
    if r < Isa.reg_t0 || r >= Isa.reg_t0 + Isa.num_temps then m := !m lor (1 lsl r)
  done;
  !m

let entry_defined_f =
  let m = ref 0 in
  for r = 0 to Isa.num_regs - 1 do
    if r < Isa.freg_t0 || r >= Isa.freg_t0 + Isa.num_ftemps then
      m := !m lor (1 lsl r)
  done;
  !m

let check_use_before_def (cfg : Cfg.t) add =
  let code = cfg.Cfg.code in
  let flow_block ~report (blk : Cfg.block) (di, df) =
    let di = ref di and df = ref df in
    for i = blk.Cfg.first to blk.Cfg.last do
      let ui, uf, wi, wf = Dataflow.uses_defs code.Rcode.ins.(i) in
      if report then begin
        List.iter
          (fun r ->
            if !di land (1 lsl r) = 0 then
              add i Use_before_def
                (Printf.sprintf "reads x%d before any definition" r))
          ui;
        List.iter
          (fun r ->
            if !df land (1 lsl r) = 0 then
              add i Use_before_def
                (Printf.sprintf "reads f%d before any definition" r))
          uf
      end;
      List.iter (fun r -> di := !di lor (1 lsl r)) wi;
      List.iter (fun r -> df := !df lor (1 lsl r)) wf
    done;
    (!di, !df)
  in
  forward_check cfg
    ~entry:(entry_defined_i, entry_defined_f)
    ~join:(fun (ai, af) (bi, bf) -> (ai land bi, af land bf))
    flow_block

(* ---------- stack depth and constant addresses ----------

   Both checks read the lookup-free register evaluator
   {!Dataflow.registers}, one pass over the reachable instructions.

   A [call] is stack-neutral from the caller's view (the callee pops what
   the call pushed), so every [ret] must see sp at exactly its entry value
   — otherwise the popped "return address" is some other slot.  A depth the
   evaluator cannot pin down (paths that disagree, an sp loaded or masked)
   is reported as well: generated code must make balance provable.

   An access whose base register holds a compile-time constant must land
   in static data, heap or stack.  Anything below [Layout.data_base] (the
   null page and the text segment) or at or above [Layout.stack_top] can
   never be legitimate data.  Predicated accesses are exempt: their guard
   may never fire. *)

let bad_const_addr ea = ea < Layout.data_base || ea >= Layout.stack_top

let check_registers (cfg : Cfg.t) add =
  let code = cfg.Cfg.code in
  let reg = Dataflow.registers cfg in
  for i = 0 to Rcode.n code - 1 do
    if cfg.Cfg.reachable.(cfg.Cfg.block_of.(i)) then begin
      (if code.Rcode.flow.(i) = Rcode.Return then
         match reg i Isa.reg_sp with
         | Dataflow.Lin { sp = 1; terms = []; k = 0 } -> ()
         | Dataflow.Lin { sp = 1; terms = []; k } ->
             add i Stack_imbalance
               (Printf.sprintf "ret with sp = entry%+d (unbalanced stack)" k)
         | _ ->
             add i Stack_imbalance
               "ret with unprovable stack depth (sp not restored to its \
                entry value)");
      match Dataflow.mem_op code.Rcode.ins.(i) with
      | Some { m_pred = None; m_base; m_off; m_store; _ } -> (
          match reg i m_base with
          | Dataflow.Lin { sp = 0; terms = []; k }
            when bad_const_addr (k + m_off) ->
              add i Bad_address
                (Printf.sprintf
                   "%s at constant address 0x%x, outside any \
                    data/heap/stack region"
                   (if m_store then "store" else "load")
                   (k + m_off))
          | _ -> ())
      | _ -> ()
    end
  done

(* ---------- structural diagnostics from the flow facts ---------- *)

let check_flow (cfg : Cfg.t) add =
  let code = cfg.Cfg.code in
  Array.iteri
    (fun i (f : Rcode.flow) ->
      match f with
      | Rcode.Jump_bad t | Branch_bad t ->
          add i Bad_jump
            (Printf.sprintf
               "jump target 0x%x leaves the routine's text or lands \
                mid-instruction" t)
      | Call_bad t ->
          add i Bad_call
            (Printf.sprintf "call target 0x%x is not any routine's entry" t)
      | Dynamic_jump -> add i Dynamic_flow "dynamic jump (jr): target unprovable"
      | Dynamic_call ->
          add i Dynamic_flow "dynamic call (callr): target unprovable"
      | _ -> ())
    code.Rcode.flow

let check_unreachable (cfg : Cfg.t) add =
  Array.iter
    (fun (b : Cfg.block) ->
      if not cfg.Cfg.reachable.(b.Cfg.id) then
        add b.Cfg.first Unreachable_code
          (Printf.sprintf "unreachable block of %d instruction(s)"
             (b.Cfg.last - b.Cfg.first + 1)))
    cfg.Cfg.blocks

(* The last instruction of the routine must not fall through into whatever
   the linker placed next.  An [exit] syscall is terminal even though the
   machine treats it as an ordinary instruction. *)
let check_fall_through (cfg : Cfg.t) add =
  let code = cfg.Cfg.code in
  let n = Rcode.n code in
  if n > 0 && cfg.Cfg.reachable.(cfg.Cfg.block_of.(n - 1)) then
    let falls =
      match code.Rcode.flow.(n - 1) with
      | Rcode.Seq | Branch _ | Branch_bad _ | Call_known _ | Call_sym _
      | Call_bad _ | Dynamic_call ->
          true
      | Jump _ | Jump_bad _ | Dynamic_jump | Return | Stop -> false
    in
    let is_exit =
      match code.Rcode.ins.(n - 1) with
      | Isa.Syscall s -> s = Tq_vm.Sysno.exit
      | _ -> false
    in
    if falls && not is_exit then
      add (n - 1) Fall_through
        "control can fall through the end of the routine's text"

(* ---------- dataflow-refined diagnostics ----------

   These four checks ride on the {!Dataflow}/{!Loopinfo} layer.  The first
   two are path-sensitive analyses over the routine's frame cells: a local
   is any stack slot strictly below the saved-fp slot that the code
   addresses directly through the frame pointer.  Anything the analysis
   cannot see through (stores via computed pointers, block moves, calls
   once a frame address escaped, syscalls) conservatively suppresses
   reports rather than creating them. *)

module CellMap = Map.Make (struct
  type t = Dataflow.cell

  let compare = compare
end)

let local_cell = function Dataflow.Stack o when o < -8 -> true | _ -> false

let fp_based code i =
  match Dataflow.mem_op code.Rcode.ins.(i) with
  | Some m -> m.Dataflow.m_base = Isa.reg_fp
  | None -> false

(* The local cells accessed by the reachable instructions [keep] selects,
   numbered in address order of their first access. *)
let index_locals (cfg : Cfg.t) df keep =
  let idx = ref CellMap.empty in
  for i = 0 to Rcode.n cfg.Cfg.code - 1 do
    if cfg.Cfg.reachable.(cfg.Cfg.block_of.(i)) && keep i then
      match Dataflow.access df i with
      | Some { Dataflow.a_cell = Some c; _ }
        when local_cell c && not (CellMap.mem c !idx) ->
          idx := CellMap.add c (CellMap.cardinal !idx) !idx
      | _ -> ()
  done;
  !idx

(* A local read on some path before any store to it (must-defined forward
   analysis over frame cells, refined by the dataflow layer's address
   reconstruction — unlike [check_use_before_def], which only sees
   registers). *)
let check_uninit (cfg : Cfg.t) df add =
  let code = cfg.Cfg.code in
  let idx = index_locals cfg df (fp_based code) in
  let nc = CellMap.cardinal idx in
  let flow_block ~report (blk : Cfg.block) defined =
    let defined = Array.copy defined in
    for i = blk.Cfg.first to blk.Cfg.last do
      match code.Rcode.ins.(i) with
      | Isa.Movs _ | Isa.Syscall _ -> Array.fill defined 0 nc true
      | Isa.Call _ | Isa.Callr _ ->
          if Dataflow.escapes df then Array.fill defined 0 nc true
      | _ -> (
          match Dataflow.access df i with
          | None -> ()
          | Some a -> (
              match a.Dataflow.a_cell with
              | Some c -> (
                  match CellMap.find_opt c idx with
                  | Some k ->
                      if a.Dataflow.a_is_store then begin
                        if not a.Dataflow.a_pred then defined.(k) <- true
                      end
                      else if
                        report && fp_based code i && (not a.Dataflow.a_pred)
                        && not defined.(k)
                      then
                        add i Uninit_local
                          (Printf.sprintf
                             "local %s may be read before it is written"
                             (Dataflow.string_of_cell c))
                  | None -> ())
              | None ->
                  if a.Dataflow.a_is_store then
                    (* a store through an unknown pointer may initialize
                       any local: suppress, don't report *)
                    Array.fill defined 0 nc true))
    done;
    defined
  in
  if nc > 0 then
    forward_check cfg ~entry:(Array.make nc false) ~join:(Array.map2 ( && ))
      flow_block

(* A store to a local that no path ever reads again (backward liveness over
   frame cells).  Reads through computed pointers, block moves, and calls
   with an escaped frame make every local live. *)
let check_dead_store (cfg : Cfg.t) df add =
  let code = cfg.Cfg.code in
  let idx = index_locals cfg df (fun _ -> true) in
  let nc = CellMap.cardinal idx in
  (* from the live set after the block to the one before it *)
  let flow_block ~report (blk : Cfg.block) live =
    let live = Array.copy live in
    for i = blk.Cfg.last downto blk.Cfg.first do
      match code.Rcode.ins.(i) with
      | Isa.Movs _ -> Array.fill live 0 nc true
      | Isa.Syscall _ | Isa.Call _ | Isa.Callr _ ->
          if Dataflow.escapes df then Array.fill live 0 nc true
      | _ -> (
          match Dataflow.access df i with
          | None -> ()
          | Some a -> (
              match a.Dataflow.a_cell with
              | Some c -> (
                  match CellMap.find_opt c idx with
                  | Some k ->
                      if not a.Dataflow.a_is_store then live.(k) <- true
                      else if not a.Dataflow.a_pred then begin
                        if report && fp_based code i && not live.(k) then
                          add i Dead_store
                            (Printf.sprintf
                               "store to local %s is dead (no later read on \
                                any path)"
                               (Dataflow.string_of_cell c));
                        live.(k) <- false
                      end
                  | None -> ())
              | None ->
                  if not a.Dataflow.a_is_store then
                    (* a read through an unknown pointer may read any
                       local *)
                    Array.fill live 0 nc true))
    done;
    live
  in
  if nc > 0 then
    Cfg.backward cfg ~exit:(Array.make nc false) ~join:(Array.map2 ( || ))
      ~equal:( = ) ~transfer:(flow_block ~report:false)
    |> Array.iteri (fun b live ->
           if cfg.Cfg.reachable.(b) then
             ignore (flow_block ~report:true cfg.Cfg.blocks.(b) live))

(* ---------- provably out-of-bounds constant-index accesses ---------- *)

(** Static-data layout of a linked program: object extents for bounds
    checking constant addresses. *)
type bounds = {
  b_objects : (string * int * int) list;
      (** (name, start address, byte size), sorted by start *)
  b_data_end : int;  (** first address past the static-data region *)
}

let check_oob bounds (cfg : Cfg.t) df add =
  let n = Rcode.n cfg.Cfg.code in
  for i = 0 to n - 1 do
    if cfg.Cfg.reachable.(cfg.Cfg.block_of.(i)) then
      match Dataflow.access df i with
      | Some a when not a.Dataflow.a_pred -> (
          match a.Dataflow.a_addr with
          | Dataflow.Lin l when Dataflow.lin_is_const l ->
              let ad = l.Dataflow.k in
              let what = if a.Dataflow.a_is_store then "store" else "load" in
              if ad >= Layout.data_base && ad < bounds.b_data_end then begin
                match
                  List.find_opt
                    (fun (_, s, sz) -> ad >= s && ad < s + sz)
                    bounds.b_objects
                with
                | Some (nm, s, sz) ->
                    if ad + a.Dataflow.a_width > s + sz then
                      add i Oob_access
                        (Printf.sprintf
                           "%d-byte %s at 0x%x overruns %s (object ends at \
                            0x%x)"
                           a.Dataflow.a_width what ad nm (s + sz))
                | None -> (
                    match
                      List.fold_left
                        (fun acc (nm, s, sz) ->
                          if s + sz <= ad then Some (nm, s, sz) else acc)
                        None bounds.b_objects
                    with
                    | Some (nm, _, _) ->
                        add i Oob_access
                          (Printf.sprintf
                             "%s at constant address 0x%x is past the end \
                              of %s"
                             what ad nm)
                    | None ->
                        add i Oob_access
                          (Printf.sprintf
                             "%s at constant address 0x%x lies before any \
                              data object"
                             what ad))
              end
          | _ -> ())
      | _ -> ()
  done

(* ---------- loop-invariant loads (hoisting opportunities) ---------- *)

let check_invariant_load (cfg : Cfg.t) df li add =
  let code = cfg.Cfg.code in
  let n = Rcode.n code in
  let loops = Loopinfo.loops li in
  let inner = cfg.Cfg.innermost in
  let seen = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    let b = cfg.Cfg.block_of.(i) in
    if cfg.Cfg.reachable.(b) && inner.(b) >= 0 then
      match Dataflow.access df i with
      | Some a when (not a.Dataflow.a_is_store) && not a.Dataflow.a_pred -> (
          match a.Dataflow.a_cell with
          | Some c ->
              let lx = inner.(b) in
              if
                Loopinfo.invariant_cell li loops.(lx) c
                && not (Hashtbl.mem seen (lx, c))
              then begin
                Hashtbl.add seen (lx, c) ();
                add i Invariant_load
                  (Printf.sprintf
                     "load of loop-invariant %s inside a loop (hoistable)"
                     (Dataflow.string_of_cell c))
              end
          | None -> ())
      | _ -> ()
  done

let check_with_dataflow ?bounds (cfg : Cfg.t) add =
  let df = Dataflow.analyze cfg in
  let li = Loopinfo.analyze df in
  check_uninit cfg df add;
  check_dead_store cfg df add;
  (match bounds with Some b -> check_oob b cfg df add | None -> ());
  check_invariant_load cfg df li add

(* ---------- entry points ---------- *)

let check_cfg ?bounds ?(dataflow = false) (cfg : Cfg.t) =
  let diags = ref [] in
  let add index cls message =
    diags :=
      {
        routine = cfg.Cfg.code.Rcode.name;
        index;
        addr = Rcode.addr_of cfg.Cfg.code index;
        cls;
        message;
      }
      :: !diags
  in
  check_flow cfg add;
  check_unreachable cfg add;
  check_fall_through cfg add;
  check_use_before_def cfg add;
  check_registers cfg add;
  if dataflow then check_with_dataflow ?bounds cfg add;
  List.sort (fun a b -> compare (a.index, a.cls) (b.index, b.cls)) !diags

let check_rcode ?bounds ?dataflow code = check_cfg ?bounds ?dataflow (Cfg.build code)

let check_items ~name items = check_rcode (Rcode.of_items ~name items)

let check_program ?bounds ?dataflow prog =
  let acc = ref [] in
  Symtab.iter
    (fun r ->
      if r.Symtab.size > 0 then
        acc := check_rcode ?bounds ?dataflow (Rcode.of_routine prog r) :: !acc)
    prog.Program.symtab;
  List.concat (List.rev !acc)

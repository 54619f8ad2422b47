module Isa = Tq_isa.Isa
module Layout = Tq_vm.Layout

(* ---------- per-instruction register uses and definitions ---------- *)

let operand_reg = function Isa.Reg r -> [ r ] | Isa.Imm _ -> []
let pred_reg = function Some p -> [ p ] | None -> []

(* (int uses, float uses, int defs, float defs) *)
let uses_defs (i : Isa.ins) =
  match i with
  | Isa.Nop | Isa.Halt | Isa.Ret | Isa.Jmp _ -> ([], [], [], [])
  | Isa.Li (rd, _) -> ([], [], [ rd ], [])
  | Isa.Mov (rd, rs) -> ([ rs ], [], [ rd ], [])
  | Isa.Bin (_, rd, rs, o) -> (rs :: operand_reg o, [], [ rd ], [])
  | Isa.Fli (fd, _) -> ([], [], [], [ fd ])
  | Isa.Fmov (fd, fs) -> ([], [ fs ], [], [ fd ])
  | Isa.Fbin (_, fd, fa, fb) -> ([], [ fa; fb ], [], [ fd ])
  | Isa.Fun (_, fd, fs) -> ([], [ fs ], [], [ fd ])
  | Isa.Fcmp (_, rd, fa, fb) -> ([], [ fa; fb ], [ rd ], [])
  | Isa.I2f (fd, rs) -> ([ rs ], [], [], [ fd ])
  | Isa.F2i (rd, fs) -> ([], [ fs ], [ rd ], [])
  | Isa.Load { dst; base; pred; _ } -> (base :: pred_reg pred, [], [ dst ], [])
  | Isa.Loads { dst; base; _ } -> ([ base ], [], [ dst ], [])
  | Isa.Store { src; base; pred; _ } -> (src :: base :: pred_reg pred, [], [], [])
  | Isa.Fload { dst; base; pred; _ } -> (base :: pred_reg pred, [], [], [ dst ])
  | Isa.Fstore { src; base; pred; _ } -> (base :: pred_reg pred, [ src ], [], [])
  | Isa.Prefetch { base; _ } -> ([ base ], [], [], [])
  | Isa.Movs { dst; src; len } -> ([ dst; src; len ], [], [], [])
  | Isa.Jr r -> ([ r ], [], [], [])
  | Isa.Bz (r, _) | Isa.Bnz (r, _) -> ([ r ], [], [], [])
  | Isa.Call _ -> ([], [], [ Isa.reg_rv ], [ Isa.freg_rv ])
  | Isa.Callr r -> ([ r ], [], [ Isa.reg_rv ], [ Isa.freg_rv ])
  | Isa.Syscall _ -> ([], [], [ Isa.reg_rv ], [])

(* Integer registers an instruction may leave with an unpredictable value.
   Calls additionally clobber every caller-saved temporary: the callee uses
   them freely, so a value that "survives" a call in the symbolic world must
   not survive here. *)
let int_clobbers (i : Isa.ins) =
  let _, _, wi, _ = uses_defs i in
  let wi =
    match i with
    | Isa.Call _ | Isa.Callr _ ->
        List.init Isa.num_temps (fun k -> Isa.reg_t0 + k) @ wi
    | _ -> wi
  in
  List.sort_uniq compare (List.filter (fun r -> r <> Isa.reg_zero) wi)

(* ---------- the symbolic value domain ---------- *)

type cell = Stack of int | Data of int

type term = Tcell of cell | Tload of int

type lin = { sp : int; terms : (term * int) list; k : int }

type value = Lin of lin | Cmp of Isa.binop * lin * lin | Top

let const k = { sp = 0; terms = []; k }
let lin_const k = Lin (const k)

let string_of_cell = function
  | Stack o -> Printf.sprintf "[entry%+d]" o
  | Data a -> Printf.sprintf "[0x%x]" a

let merge_terms ta tb =
  let add acc (t, c) =
    match List.assoc_opt t acc with
    | Some c0 -> (t, c0 + c) :: List.remove_assoc t acc
    | None -> (t, c) :: acc
  in
  List.fold_left add ta tb
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort compare

let lin_add a b =
  { sp = a.sp + b.sp; terms = merge_terms a.terms b.terms; k = a.k + b.k }

let lin_scale a n =
  if n = 0 then const 0
  else { sp = a.sp * n; terms = List.map (fun (t, c) -> (t, c * n)) a.terms; k = a.k * n }

let lin_sub a b = lin_add a (lin_scale b (-1))

let lin_of = function Lin l -> Some l | Cmp _ | Top -> None

let lin_is_const l = l.sp = 0 && l.terms = []

let cell_of_lin l =
  if l.terms <> [] then None
  else if l.sp = 1 then Some (Stack l.k)
  else if l.sp = 0 then Some (Data l.k)
  else None

let has_load_term l =
  List.exists (fun (t, _) -> match t with Tload _ -> true | _ -> false) l.terms

(* ---------- symbolic evaluation: a forward register fixpoint ---------- *)

(* Register environments per block, solved by {!Cfg.forward}: at entry sp is
   the entry stack pointer and every other register is unknown; where paths
   meet, a register keeps its value only if all of them agree.  Unreachable
   blocks are evaluated once from an all-[Top] environment.  [lookup]
   optionally folds a load from a known cell into a constant (supplied by a
   previous constant-propagation pass).  The result answers [value_before i
   r]: the value of register [r] just before instruction [i]. *)
let make_eval (cfg : Cfg.t) ~trust_data ~lookup =
  let code = cfg.Cfg.code in
  let get env r = if r = Isa.reg_zero then lin_const 0 else env.(r) in
  let opaque j = Lin { sp = 0; terms = [ (Tload j, 1) ]; k = 0 } in
  let eval_load env j ~base ~off =
    match lin_of (get env base) with
    | None -> opaque j
    | Some a -> (
        let a = lin_add a (const off) in
        match cell_of_lin a with
        | Some (Data _) when not trust_data ->
            (* pre-link code collapses every data symbol onto one
               placeholder address; cell identity would alias *)
            opaque j
        | Some c -> (
            match lookup j c with
            | Some v -> lin_const v
            | None -> Lin { sp = 0; terms = [ (Tcell c, 1) ]; k = 0 })
        | None -> opaque j)
  in
  let eval_bin env j op rs o =
    let a = get env rs in
    let b = match o with Isa.Imm k -> lin_const k | Isa.Reg rr -> get env rr in
    match (lin_of a, lin_of b) with
    | Some la, Some lb -> (
        let fold =
          if lin_is_const la && lin_is_const lb then
            Option.map lin_const (Isa.eval_iop op la.k lb.k)
          else None
        in
        match op with
        | Isa.Add -> Lin (lin_add la lb)
        | Isa.Sub -> Lin (lin_sub la lb)
        | Isa.Mul ->
            if lin_is_const lb then Lin (lin_scale la lb.k)
            else if lin_is_const la then Lin (lin_scale lb la.k)
            else opaque j
        | Isa.Sll when lin_is_const lb && lb.k >= 0 && lb.k < 62 ->
            Lin (lin_scale la (1 lsl lb.k))
        | Isa.Sll | Isa.Div | Isa.Rem | Isa.And | Isa.Or | Isa.Xor | Isa.Srl
        | Isa.Sra ->
            (* a zero divisor traps: no constant *)
            Option.value fold ~default:(opaque j)
        | Isa.Slt | Isa.Sle | Isa.Sgt | Isa.Sge | Isa.Seq | Isa.Sne | Isa.Sltu
          -> (
            (* unsigned comparisons stay symbolic *)
            match fold with
            | Some v when op <> Isa.Sltu -> v
            | _ -> Cmp (op, la, lb)))
    | _ -> (
        (* the code generator booleanizes comparisons ([sne r, r, 0]) and
           negates them ([seq r, r, 0]); fold both so loop guards stay
           reconstructible through the chain *)
        match (op, a, b) with
        | Isa.Sne, Cmp (c, x, y), Lin z when lin_is_const z && z.k = 0 ->
            Cmp (c, x, y)
        | Isa.Seq, Cmp (c, x, y), Lin z when lin_is_const z && z.k = 0 -> (
            match Isa.negate_cmp c with Some c' -> Cmp (c', x, y) | None -> Top)
        | _ -> Top)
  in
  let value_of_def env j r =
    match code.Rcode.ins.(j) with
    | Isa.Li (rd_, n) when rd_ = r -> lin_const n
    | Isa.Mov (rd_, rs) when rd_ = r -> get env rs
    | Isa.Bin (op, rd_, rs, o) when rd_ = r -> eval_bin env j op rs o
    | Isa.Load { width = Isa.W8; dst; base; off; pred = None } when dst = r ->
        eval_load env j ~base ~off
    | Isa.Loads { width = Isa.W8; dst; base; off } when dst = r ->
        eval_load env j ~base ~off
    | Isa.Load { dst; _ } when dst = r -> opaque j
    | Isa.Loads { dst; _ } when dst = r -> opaque j
    | _ -> Top (* calls, syscalls, fcmp, f2i, clobbers *)
  in
  (* instruction [j]'s effect, in place *)
  let step env j =
    List.map (fun r -> (r, value_of_def env j r)) (int_clobbers code.Rcode.ins.(j))
    |> List.iter (fun (r, v) -> env.(r) <- v)
  in
  let transfer (blk : Cfg.block) env =
    let env = Array.copy env in
    for j = blk.Cfg.first to blk.Cfg.last do
      step env j
    done;
    env
  in
  let entry = Array.make Isa.num_regs Top in
  entry.(Isa.reg_sp) <- Lin { sp = 1; terms = []; k = 0 };
  let ins =
    Cfg.forward cfg ~entry
      ~join:(Array.map2 (fun x y -> if x = y then x else Top))
      ~equal:( = ) ~transfer
  in
  let before = Array.make (Rcode.n code) [||] in
  Array.iteri
    (fun b (blk : Cfg.block) ->
      let env =
        match ins.(b) with
        | Some env -> Array.copy env
        | None -> Array.make Isa.num_regs Top
      in
      for j = blk.Cfg.first to blk.Cfg.last do
        before.(j) <- Array.copy env;
        step env j
      done)
    cfg.Cfg.blocks;
  fun i r -> get before.(i) r

(* ---------- frame shape and escape ---------- *)

(* The code generator's prologue: sub sp,8; store fp; mov fp,sp; sub
   sp,frame.  When present, locals live in [entry-8-frame, entry-9] and
   everything a callee can touch is strictly below that window. *)
let detect_frame (cfg : Cfg.t) =
  let code = cfg.Cfg.code in
  let n = Rcode.n code in
  let rec scan i =
    if i >= n - 1 || i > 8 then None
    else
      match (code.Rcode.ins.(i), code.Rcode.ins.(i + 1)) with
      | Isa.Mov (rd, rs), Isa.Bin (Isa.Sub, rd2, rs2, Isa.Imm f)
        when rd = Isa.reg_fp && rs = Isa.reg_sp && rd2 = Isa.reg_sp
             && rs2 = Isa.reg_sp ->
          Some f
      | Isa.Mov (rd, rs), _ when rd = Isa.reg_fp && rs = Isa.reg_sp -> Some 0
      | _ -> scan (i + 1)
  in
  scan 0

(* Does the address of any frame slot leave the frame?  A stored value,
   block-copy source or syscall argument that is sp-relative means a callee
   (or the kernel) may read or write the frame through the pointer. *)
module IntSet = Set.Make (Int)

(* Which locals a callee (or syscall) could legitimately write: the
   precisely-named stack cells whose address was taken ([&x] evaluates to
   entry+k with no symbolic part), or the whole frame when an address-of
   value could not be pinned to one offset. *)
type esc = Esc_offsets of IntSet.t | Esc_all

let esc_any = function
  | Esc_all -> true
  | Esc_offsets s -> not (IntSet.is_empty s)

let esc_mem e o =
  match e with Esc_all -> true | Esc_offsets s -> IntSet.mem o s

let compute_escapes (cfg : Cfg.t) eval =
  let code = cfg.Cfg.code in
  let esc = ref (Esc_offsets IntSet.empty) in
  let note v =
    match !esc with
    | Esc_all -> ()
    | Esc_offsets s -> (
        match v with
        | Lin l when l.sp <> 0 ->
            if l.sp = 1 && l.terms = [] then
              esc := Esc_offsets (IntSet.add l.k s)
            else esc := Esc_all
        | _ -> ())
  in
  Array.iteri
    (fun i ins ->
      if cfg.Cfg.reachable.(cfg.Cfg.block_of.(i)) then
        match ins with
        | Isa.Store { src; _ } -> note (eval i src)
        | Isa.Movs { src; _ } -> note (eval i src)
        | Isa.Syscall _ ->
            for a = Isa.reg_a0 to Isa.reg_a0 + 3 do
              note (eval i a)
            done
        | _ -> ())
    code.Rcode.ins;
  !esc

(* ---------- flow-sensitive cell constant propagation ---------- *)

module CellMap = Map.Make (struct
  type t = cell

  let compare = compare
end)

(* [transfer] over instructions [first .. upto - 1] *)
let run_ins transfer st first upto =
  let st = ref st in
  for j = first to upto - 1 do
    st := transfer !st j
  done;
  !st

type cp = {
  cp_in : int CellMap.t option array;  (* per block; None = unreached *)
  cp_transfer : int CellMap.t -> int -> int CellMap.t;
      (* apply instruction [i]'s effect *)
}

let constprop (cfg : Cfg.t) ~eval ~trust_data ~escapes ~frame_size =
  let code = cfg.Cfg.code in
  let addr_cell i base off =
    match lin_of (eval i base) with
    | None -> `Top
    | Some a -> (
        let a = lin_add a (const off) in
        match cell_of_lin a with
        | Some (Data _) when not trust_data -> `Wild_data
        | Some c -> `Cell c
        | None -> if a.sp <> 0 then `Wild_stack else `Wild_data)
  in
  let drop_stack st = CellMap.filter (fun c _ -> match c with Stack _ -> false | _ -> true) st in
  let drop_data st = CellMap.filter (fun c _ -> match c with Data _ -> false | _ -> true) st in
  let call_clobber st =
    let st = drop_data st in
    match frame_size with
    | Some f when escapes <> Esc_all ->
        (* callees stay strictly below the local-variable window, except
           for the cells whose address escaped to them *)
        CellMap.filter
          (fun c _ ->
            match c with
            | Stack o -> o >= -(8 + f) && not (esc_mem escapes o)
            | Data _ -> true)
          st
    | _ -> drop_stack st
  in
  let transfer st i =
    match code.Rcode.ins.(i) with
    | Isa.Store { width; src; base; off; pred } -> (
        match addr_cell i base off with
        | `Cell c ->
            if pred <> None then CellMap.remove c st
            else if width = Isa.W8 then (
              match eval i src with
              | Lin l when lin_is_const l -> CellMap.add c l.k st
              | _ -> CellMap.remove c st)
            else CellMap.remove c st
        | `Wild_stack -> drop_stack st
        | `Wild_data -> drop_data st
        | `Top -> CellMap.empty)
    | Isa.Fstore { base; off; _ } -> (
        match addr_cell i base off with
        | `Cell c -> CellMap.remove c st
        | `Wild_stack -> drop_stack st
        | `Wild_data -> drop_data st
        | `Top -> CellMap.empty)
    | Isa.Movs _ -> CellMap.empty
    | Isa.Call _ | Isa.Callr _ -> call_clobber st
    | Isa.Syscall _ -> CellMap.empty
    | _ -> st
  in
  let cp_in =
    Cfg.forward cfg ~entry:CellMap.empty
      ~join:
        (CellMap.merge (fun _ x y ->
             match (x, y) with Some v, Some w when v = w -> Some v | _ -> None))
        (* semantic equality: two equal maps can differ in tree shape *)
      ~equal:(CellMap.equal ( = ))
      ~transfer:(fun blk st ->
        run_ins transfer st blk.Cfg.first (blk.Cfg.last + 1))
  in
  { cp_in; cp_transfer = transfer }

(* the content of cell [c] in block [b] just before instruction [upto] *)
let cp_before (cfg : Cfg.t) cp b upto c =
  Option.bind cp.cp_in.(b) (fun st ->
      CellMap.find_opt c
        (run_ins cp.cp_transfer st cfg.Cfg.blocks.(b).Cfg.first upto))

let cp_at (cfg : Cfg.t) cp i c = cp_before cfg cp cfg.Cfg.block_of.(i) i c

let cp_out (cfg : Cfg.t) cp b c =
  cp_before cfg cp b (cfg.Cfg.blocks.(b).Cfg.last + 1) c

(* ---------- the analysis record ---------- *)

type t = {
  cfg : Cfg.t;
  trust_data : bool;
  frame_size : int option;
  escapes : esc;
  eval : int -> int -> value;
  cp : cp;
}

let registers (cfg : Cfg.t) =
  make_eval cfg
    ~trust_data:(cfg.Cfg.code.Rcode.base_addr <> None)
    ~lookup:(fun _ _ -> None)

let analyze (cfg : Cfg.t) =
  let trust_data = cfg.Cfg.code.Rcode.base_addr <> None in
  let eval0 = registers cfg in
  let escapes = compute_escapes cfg eval0 in
  let frame_size = detect_frame cfg in
  (* two rounds: constants found by round one feed loads evaluated in round
     two (e.g. i = 0; j = i), then a final evaluator folds both *)
  let cp1 = constprop cfg ~eval:eval0 ~trust_data ~escapes ~frame_size in
  let eval1 =
    make_eval cfg ~trust_data ~lookup:(fun i c -> cp_at cfg cp1 i c)
  in
  let cp2 = constprop cfg ~eval:eval1 ~trust_data ~escapes ~frame_size in
  let eval2 =
    make_eval cfg ~trust_data ~lookup:(fun i c -> cp_at cfg cp2 i c)
  in
  { cfg; trust_data; frame_size; escapes; eval = eval2; cp = cp2 }

let cfg t = t.cfg
let trust_data t = t.trust_data
let frame_size t = t.frame_size
let escapes t = esc_any t.escapes
let escaped_offset t o = esc_mem t.escapes o
let value_before t i r = t.eval i r

let cell_const_out_join t blocks c =
  match blocks with
  | [] -> None
  | _ -> (
      let vals = List.map (fun b -> cp_out t.cfg t.cp b c) blocks in
      match vals with
      | Some v :: rest when List.for_all (fun x -> x = Some v) rest -> Some v
      | _ -> None)

(* ---------- memory-access view ---------- *)

type access = {
  a_index : int;
  a_width : int;
  a_is_store : bool;
  a_pred : bool;
  a_addr : value;
  a_cell : cell option;
}

type mem_op = {
  m_base : int;
  m_off : int;
  m_width : Isa.width;
  m_store : bool;
  m_pred : int option;
}

let mem_op (i : Isa.ins) =
  let mk ~base ~off ~width ~store ~pred =
    Some { m_base = base; m_off = off; m_width = width; m_store = store; m_pred = pred }
  in
  match i with
  | Isa.Load { width; base; off; pred; _ } -> mk ~base ~off ~width ~store:false ~pred
  | Isa.Loads { width; base; off; _ } -> mk ~base ~off ~width ~store:false ~pred:None
  | Isa.Store { width; base; off; pred; _ } -> mk ~base ~off ~width ~store:true ~pred
  | Isa.Fload { base; off; pred; _ } -> mk ~base ~off ~width:Isa.W8 ~store:false ~pred
  | Isa.Fstore { base; off; pred; _ } -> mk ~base ~off ~width:Isa.W8 ~store:true ~pred
  | _ -> None

let access t i =
  Option.map
    (fun m ->
      let addr =
        match lin_of (t.eval i m.m_base) with
        | Some a -> Lin (lin_add a (const m.m_off))
        | None -> Top
      in
      let cell =
        match addr with
        | Lin a -> (
            match cell_of_lin a with
            | Some (Data _) when not t.trust_data -> None
            | c -> c)
        | _ -> None
      in
      {
        a_index = i;
        a_width = Isa.width_bytes m.m_width;
        a_is_store = m.m_store;
        a_pred = m.m_pred <> None;
        a_addr = addr;
        a_cell = cell;
      })
    (mem_op t.cfg.Cfg.code.Rcode.ins.(i))

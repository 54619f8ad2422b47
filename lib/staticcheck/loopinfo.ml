module Isa = Tq_isa.Isa

(* ---------- trip counts ---------- *)

type trip =
  | Tconst of int
  | Taffine of { cell : Dataflow.cell; num : int; den : int; off : int }
      (* trips = max 0 (floor ((num * content(cell) + off) / den)) *)
  | Tunknown of string

let trip_to_string = function
  | Tconst n -> string_of_int n
  | Taffine { cell; num; den; off } ->
      let c = Dataflow.string_of_cell cell in
      if num = 1 && den = 1 && off = 0 then c
      else
        let nums =
          if num = 1 then c
          else if num = -1 then "-" ^ c
          else Printf.sprintf "%d*%s" num c
        in
        let offs = if off = 0 then "" else Printf.sprintf "%+d" off in
        if den = 1 then Printf.sprintf "max(0,%s%s)" nums offs
        else Printf.sprintf "max(0,(%s%s)/%d)" nums offs den
  | Tunknown why -> "unknown: " ^ why

(* ---------- loops ---------- *)

type store_rec = {
  s_index : int;
  s_block : int;
  s_cell : Dataflow.cell;
  s_pred : bool;
  s_value : Dataflow.value;  (** stored value; [Top] for float stores *)
  s_is_int_w8 : bool;
}

type loop = {
  l_nest : Cfg.loop;
  l_exits : int list;  (** body blocks with a successor outside *)
  l_has_call : bool;
  l_has_syscall : bool;
  l_wild_stack : bool;  (** a store through a computed address may hit the stack *)
  l_wild_data : bool;
  l_stores : store_rec list;  (** fixed-cell stores in the body *)
  l_ivs : (Dataflow.cell * int) list;  (** induction variable, step *)
  l_trip : trip;
}

type t = { df : Dataflow.t; loops : loop array }

(* Per-loop facts over the nest's body: exits, calls, wild and fixed-cell
   stores.  Induction variables and the trip count come later. *)
let build_loop (df : Dataflow.t) (cfg : Cfg.t) (nest : Cfg.loop) =
  let exits =
    List.filter
      (fun b -> List.exists (fun s -> not nest.Cfg.body.(s)) cfg.Cfg.blocks.(b).Cfg.succs)
      nest.Cfg.blocks
  in
  let has_call = ref false
  and has_syscall = ref false
  and wild_stack = ref false
  and wild_data = ref false
  and stores = ref [] in
  List.iter
    (fun b ->
      let blk = cfg.Cfg.blocks.(b) in
      for i = blk.Cfg.first to blk.Cfg.last do
        (match cfg.Cfg.code.Rcode.ins.(i) with
        | Isa.Call _ | Isa.Callr _ -> has_call := true
        | Isa.Syscall _ -> has_syscall := true
        | Isa.Movs _ ->
            wild_stack := true;
            wild_data := true
        | _ -> ());
        match Dataflow.access df i with
        | Some a when a.Dataflow.a_is_store -> (
            match a.Dataflow.a_cell with
            | Some c ->
                stores :=
                  {
                    s_index = i;
                    s_block = b;
                    s_cell = c;
                    s_pred = a.Dataflow.a_pred;
                    s_value =
                      (match cfg.Cfg.code.Rcode.ins.(i) with
                      | Isa.Store { src; _ } -> Dataflow.value_before df i src
                      | _ -> Dataflow.Top);
                    s_is_int_w8 =
                      (match cfg.Cfg.code.Rcode.ins.(i) with
                      | Isa.Store { width = Isa.W8; _ } -> true
                      | _ -> false);
                  }
                  :: !stores
            | None -> (
                match a.Dataflow.a_addr with
                | Dataflow.Lin l ->
                    (* a computed address without an sp component is taken
                       to stay on the data side — loaded or masked pointer
                       values are assumed not to alias the stack (see the
                       soundness caveats in DESIGN.md) *)
                    if l.Dataflow.sp <> 0 then wild_stack := true
                    else wild_data := true
                | _ ->
                    wild_stack := true;
                    wild_data := true))
        | _ -> ()
      done)
    nest.Cfg.blocks;
  {
    l_nest = nest;
    l_exits = exits;
    l_has_call = !has_call;
    l_has_syscall = !has_syscall;
    l_wild_stack = !wild_stack;
    l_wild_data = !wild_data;
    l_stores = !stores;
    l_ivs = [];
    l_trip = Tunknown "not analyzed";
  }

(* May anything in loop [l] other than its recorded fixed-cell stores
   write cell [c]? *)
let cell_clobbered_in df l c =
  match c with
  | Dataflow.Data _ ->
      (not (Dataflow.trust_data df))
      || l.l_wild_data || l.l_has_call || l.l_has_syscall
  | Dataflow.Stack o ->
      l.l_wild_stack
      || (l.l_has_call
         &&
         match Dataflow.frame_size df with
         | Some f -> o < -(8 + f) || Dataflow.escaped_offset df o
         | None -> true)
      || (l.l_has_syscall && Dataflow.escaped_offset df o)

let invariant_cell t l c =
  (not (List.exists (fun s -> s.s_cell = c) l.l_stores))
  && not (cell_clobbered_in t.df l c)

let iv_step t l c =
  ignore t;
  List.assoc_opt c l.l_ivs

(* ---------- induction variables ---------- *)

let find_ivs df li l =
  let cfg = Dataflow.cfg df in
  let cells =
    List.sort_uniq compare (List.map (fun s -> s.s_cell) l.l_stores)
  in
  List.filter_map
    (fun c ->
      match List.filter (fun s -> s.s_cell = c) l.l_stores with
      | [ s ]
        when s.s_is_int_w8 && (not s.s_pred)
             && cfg.Cfg.innermost.(s.s_block) = li
             && List.for_all (Cfg.dominates cfg s.s_block) l.l_nest.Cfg.latches
             && not (cell_clobbered_in df l c) -> (
          match s.s_value with
          | Dataflow.Lin { sp = 0; terms = [ (Dataflow.Tcell c', 1) ]; k }
            when c' = c && k <> 0 ->
              Some (c, k)
          | _ -> None)
      | _ -> None)
    cells

(* ---------- trip-count inference ---------- *)

let max_sim_trips = 1 lsl 20

(* Simulate [x := i0; while test x do x := x + s], counting iterations. *)
let simulate ~i0 ~s ~test =
  let rec go x count =
    if count > max_sim_trips then None
    else if test x then go (x + s) (count + 1)
    else Some count
  in
  go i0 0

let infer_trip df l =
  let cfg = Dataflow.cfg df in
  let code = cfg.Cfg.code in
  match l.l_exits with
  | [] -> Tunknown "no exit from loop"
  | _ :: _ :: _ -> Tunknown "multiple loop exits"
  | [ e ] -> (
      if not (List.for_all (Cfg.dominates cfg e) l.l_nest.Cfg.latches) then
        Tunknown "exit block does not dominate the loop latches"
      else
        let last = cfg.Cfg.blocks.(e).Cfg.last in
        match cfg.Cfg.code.Rcode.flow.(last) with
        | Rcode.Branch tgt -> (
            let guard =
              match code.Rcode.ins.(last) with
              | Isa.Bz (r, _) -> Some (r, true)  (* taken when zero *)
              | Isa.Bnz (r, _) -> Some (r, false)
              | _ -> None
            in
            match guard with
            | None -> Tunknown "loop exit is not a conditional branch"
            | Some (r, taken_when_zero) -> (
                let n = Rcode.n code in
                let taken_b = cfg.Cfg.block_of.(tgt) in
                let fall_b =
                  if last + 1 < n then Some cfg.Cfg.block_of.(last + 1) else None
                in
                let exit_taken = not l.l_nest.Cfg.body.(taken_b) in
                let exit_fall =
                  match fall_b with Some f -> not l.l_nest.Cfg.body.(f) | None -> false
                in
                if exit_taken = exit_fall then Tunknown "odd exit shape"
                else
                  (* continue condition: guard is truthy / falsy.  If the
                     exit is the taken branch of a bz (taken when zero), the
                     loop continues while the guard is non-zero — truthy. *)
                  let continue_truthy =
                    if exit_taken then taken_when_zero else not taken_when_zero
                  in
                  match Dataflow.value_before df last r with
                  | Dataflow.Top -> Tunknown "loop guard not reconstructible"
                  | v -> (
                      let op, d =
                        match v with
                        | Dataflow.Cmp (op, a, b) -> (op, Dataflow.lin_sub a b)
                        | Dataflow.Lin lv -> (Isa.Sne, lv)
                        | Dataflow.Top -> assert false
                      in
                      let opc =
                        if continue_truthy then Some op else Isa.negate_cmp op
                      in
                      match opc with
                      | None -> Tunknown "unsigned loop guard"
                      | Some opc -> (
                          (* normalize to  d OP 0  with OP in {<, <=, =, <>},
                             then to {<, =, <>} *)
                          let opc, d =
                            match opc with
                            | Isa.Sgt -> (Isa.Slt, Dataflow.lin_scale d (-1))
                            | Isa.Sge -> (Isa.Sle, Dataflow.lin_scale d (-1))
                            | o -> (o, d)
                          in
                          let opc, d =
                            match opc with
                            | Isa.Sle ->
                                (Isa.Slt, Dataflow.lin_add d (Dataflow.const (-1)))
                            | o -> (o, d)
                          in
                          if d.Dataflow.sp <> 0 then
                            Tunknown "stack-pointer-relative loop guard"
                          else if
                            List.exists
                              (fun (t, _) ->
                                match t with
                                | Dataflow.Tload j ->
                                    l.l_nest.Cfg.body.(cfg.Cfg.block_of.(j))
                                | _ -> false)
                              d.Dataflow.terms
                          then Tunknown "loop guard depends on an in-loop load"
                          else if Dataflow.has_load_term d then
                            Tunknown "loop bound comes from a computed load"
                          else
                            let ivs, rest =
                              List.partition
                                (fun (t, _) ->
                                  match t with
                                  | Dataflow.Tcell c ->
                                      List.mem_assoc c l.l_ivs
                                  | _ -> false)
                                d.Dataflow.terms
                            in
                            if
                              List.exists
                                (fun (t, _) ->
                                  match t with
                                  | Dataflow.Tcell c ->
                                      List.exists
                                        (fun s -> s.s_cell = c)
                                        l.l_stores
                                      || cell_clobbered_in df l c
                                  | _ -> true)
                                rest
                            then Tunknown "loop bound is modified inside the loop"
                            else
                              match ivs with
                              | [] -> Tunknown "no induction variable in the loop guard"
                              | _ :: _ :: _ ->
                                  Tunknown "guard mixes several induction variables"
                              | [ (Dataflow.Tcell c, a) ] -> (
                                  let s = List.assoc c l.l_ivs in
                                  (* where does the test sit relative to the
                                     step store? *)
                                  let step_store =
                                    List.find
                                      (fun st -> st.s_cell = c)
                                      l.l_stores
                                  in
                                  let pos =
                                    if e = l.l_nest.Cfg.header then
                                      if step_store.s_block = l.l_nest.Cfg.header then
                                        `Bad
                                      else `Pre
                                    else if List.mem e l.l_nest.Cfg.latches then `Post
                                    else `Mid
                                  in
                                  match pos with
                                  | `Bad -> Tunknown "step executes before the test"
                                  | `Mid -> Tunknown "loop exits mid-iteration"
                                  | (`Pre | `Post) as pos -> (
                                      let i0 =
                                        let pre =
                                          List.filter
                                            (fun p ->
                                              not l.l_nest.Cfg.body.(p)
                                              && cfg.Cfg.reachable.(p))
                                            cfg.Cfg.preds.(l.l_nest.Cfg.header)
                                        in
                                        Dataflow.cell_const_out_join df pre c
                                      in
                                      match i0 with
                                      | None ->
                                          Tunknown
                                            "loop-entry value of the induction \
                                             variable is unknown"
                                      | Some i0 -> (
                                          let i0 =
                                            match pos with
                                            | `Pre -> i0
                                            | `Post -> i0 + s
                                          in
                                          let rest_k = d.Dataflow.k in
                                          match rest with
                                          | [] -> (
                                              (* constant bound: simulate *)
                                              let test x =
                                                let dv = (a * x) + rest_k in
                                                match opc with
                                                | Isa.Slt -> dv < 0
                                                | Isa.Seq -> dv = 0
                                                | Isa.Sne -> dv <> 0
                                                | _ -> false
                                              in
                                              match simulate ~i0 ~s ~test with
                                              | Some t ->
                                                  Tconst
                                                    (match pos with
                                                    | `Pre -> t
                                                    | `Post -> t + 1)
                                              | None ->
                                                  Tunknown
                                                    "trip count exceeds the \
                                                     simulation cap")
                                          | [ (Dataflow.Tcell p, cp) ] ->
                                              if opc <> Isa.Slt then
                                                Tunknown
                                                  "equality test against a \
                                                   symbolic bound"
                                              else if a * s <= 0 then
                                                Tunknown
                                                  "step moves away from the \
                                                   bound"
                                              else
                                                (* continue while a*x + cp*p +
                                                   rest_k < 0; trips =
                                                   ceil((-cp*p - rest_k - a*i0)
                                                        / (a*s)) *)
                                                let den = a * s in
                                                let base_off =
                                                  -rest_k - (a * i0) + den - 1
                                                in
                                                let off =
                                                  match pos with
                                                  | `Pre -> base_off
                                                  | `Post ->
                                                      base_off + den
                                                in
                                                Taffine
                                                  {
                                                    cell = p;
                                                    num = -cp;
                                                    den;
                                                    off;
                                                  }
                                          | _ ->
                                              Tunknown
                                                "loop bound combines several \
                                                 values")))
                              | _ -> Tunknown "no induction variable in the loop guard"))))
        | _ -> Tunknown "loop exit is not a conditional branch")

(* ---------- top level ---------- *)

let analyze (df : Dataflow.t) =
  let cfg = Dataflow.cfg df in
  let loop li nest =
    let l = build_loop df cfg nest in
    let l = { l with l_ivs = find_ivs df li l } in
    { l with l_trip = infer_trip df l }
  in
  { df; loops = Array.mapi loop cfg.Cfg.loops }

let loops t = t.loops

let header_addr t l =
  let cfg = Dataflow.cfg t.df in
  Rcode.addr_of cfg.Cfg.code cfg.Cfg.blocks.(l.l_nest.Cfg.header).Cfg.first

module Isa = Tq_isa.Isa

type pattern =
  | Scalar
  | Sequential
  | Strided of int
  | Indirect
  | Unknown of string

let pattern_to_string = function
  | Scalar -> "scalar"
  | Sequential -> "sequential"
  | Strided k -> Printf.sprintf "strided(%+d)" k
  | Indirect -> "indirect"
  | Unknown why -> "unknown: " ^ why

type acc = {
  index : int;
  addr : int option;  (** code address *)
  width : int;
  is_store : bool;
  loop : int option;  (** innermost containing loop index *)
  pattern : pattern;
}

type loop_report = {
  lr_index : int;
  lr_head_addr : int option;
  lr_depth : int;
  lr_trip : Loopinfo.trip;
  lr_ivs : (Dataflow.cell * int) list;
}

type routine = {
  name : string;
  loops : loop_report list;
  accesses : acc list;
}

(* Stride of the address expression w.r.t. one iteration of the innermost
   loop: induction variables advance by their step, invariant cells and the
   stack pointer stand still, anything else poisons the access. *)
let classify li (l : Loopinfo.loop) (a : Dataflow.access) =
  match a.Dataflow.a_addr with
  | Dataflow.Top -> Unknown "address not reconstructible"
  | Dataflow.Cmp _ -> Unknown "address is a comparison result"
  | Dataflow.Lin lin ->
      if Dataflow.has_load_term lin then Indirect
      else
        let exception Poison of pattern in
        (try
           let stride =
             List.fold_left
               (fun acc (t, coef) ->
                 match t with
                 | Dataflow.Tload _ -> raise (Poison Indirect)
                 | Dataflow.Tcell c -> (
                     match Loopinfo.iv_step li l c with
                     | Some s -> acc + (coef * s)
                     | None ->
                         if Loopinfo.invariant_cell li l c then acc
                         else
                           (* the cell is rewritten in the loop but is not a
                              simple induction variable *)
                           let indirect =
                             List.exists
                               (fun sr ->
                                 sr.Loopinfo.s_cell = c
                                 &&
                                 match sr.Loopinfo.s_value with
                                 | Dataflow.Lin lv -> Dataflow.has_load_term lv
                                 | _ -> false)
                               l.Loopinfo.l_stores
                           in
                           if indirect then raise (Poison Indirect)
                           else
                             raise
                               (Poison
                                  (Unknown
                                     "address depends on a non-affine \
                                      in-loop value"))))
               0 lin.Dataflow.terms
           in
           if stride = 0 then Scalar
           else if stride = a.Dataflow.a_width then Sequential
           else Strided stride
         with Poison p -> p)

let analyze (cfg : Cfg.t) =
  let df = Dataflow.analyze cfg in
  let li = Loopinfo.analyze df in
  let loops = Loopinfo.loops li in
  let inner = cfg.Cfg.innermost in
  let code = cfg.Cfg.code in
  let n = Rcode.n code in
  let accesses = ref [] in
  for i = n - 1 downto 0 do
    if cfg.Cfg.reachable.(cfg.Cfg.block_of.(i)) then
      match Dataflow.access df i with
      | None -> ()
      | Some a ->
          let b = cfg.Cfg.block_of.(i) in
          let lidx = inner.(b) in
          let loop, pattern =
            if lidx < 0 then (None, Scalar)
            else (Some lidx, classify li loops.(lidx) a)
          in
          accesses :=
            {
              index = i;
              addr = Rcode.addr_of code i;
              width = a.Dataflow.a_width;
              is_store = a.Dataflow.a_is_store;
              loop;
              pattern;
            }
            :: !accesses
  done;
  let loop_reports =
    Array.to_list
      (Array.mapi
         (fun j l ->
           {
             lr_index = j;
             lr_head_addr = Loopinfo.header_addr li l;
             lr_depth = l.Loopinfo.l_nest.Cfg.depth;
             lr_trip = l.Loopinfo.l_trip;
             lr_ivs = l.Loopinfo.l_ivs;
           })
         loops)
  in
  (li, { name = code.Rcode.name; loops = loop_reports; accesses = !accesses })

let analyze_program (prog : Tq_vm.Program.t) =
  let symtab = prog.Tq_vm.Program.symtab in
  let out = ref [] in
  Tq_vm.Symtab.iter
    (fun r ->
      if r.Tq_vm.Symtab.size > 0 && r.Tq_vm.Symtab.is_main_image then begin
        let rc = Rcode.of_routine prog r in
        let cfg = Cfg.build rc in
        out := snd (analyze cfg) :: !out
      end)
    symtab;
  List.rev !out

(* ---------- aggregate statistics ---------- *)

type stats = {
  st_loops : int;
  st_const : int;
  st_affine : int;
  st_unknown : int;
  st_accesses : int;
  st_in_loop : int;
  st_classified : int;  (** in-loop accesses with a non-unknown pattern *)
  st_scalar : int;
  st_sequential : int;
  st_strided : int;
  st_indirect : int;
  st_unknown_acc : int;
}

let stats routines =
  let z =
    {
      st_loops = 0;
      st_const = 0;
      st_affine = 0;
      st_unknown = 0;
      st_accesses = 0;
      st_in_loop = 0;
      st_classified = 0;
      st_scalar = 0;
      st_sequential = 0;
      st_strided = 0;
      st_indirect = 0;
      st_unknown_acc = 0;
    }
  in
  List.fold_left
    (fun st r ->
      let st =
        List.fold_left
          (fun st lr ->
            match lr.lr_trip with
            | Loopinfo.Tconst _ ->
                { st with st_loops = st.st_loops + 1; st_const = st.st_const + 1 }
            | Loopinfo.Taffine _ ->
                {
                  st with
                  st_loops = st.st_loops + 1;
                  st_affine = st.st_affine + 1;
                }
            | Loopinfo.Tunknown _ ->
                {
                  st with
                  st_loops = st.st_loops + 1;
                  st_unknown = st.st_unknown + 1;
                })
          st r.loops
      in
      List.fold_left
        (fun st a ->
          let st = { st with st_accesses = st.st_accesses + 1 } in
          let st =
            match a.loop with
            | Some _ -> { st with st_in_loop = st.st_in_loop + 1 }
            | None -> st
          in
          let st =
            match (a.loop, a.pattern) with
            | Some _, Unknown _ -> st
            | Some _, _ -> { st with st_classified = st.st_classified + 1 }
            | None, _ -> st
          in
          match a.pattern with
          | Scalar -> { st with st_scalar = st.st_scalar + 1 }
          | Sequential -> { st with st_sequential = st.st_sequential + 1 }
          | Strided _ -> { st with st_strided = st.st_strided + 1 }
          | Indirect -> { st with st_indirect = st.st_indirect + 1 }
          | Unknown _ -> { st with st_unknown_acc = st.st_unknown_acc + 1 })
        st r.accesses)
    z routines

(* ---------- rendering ---------- *)

let render routines =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      if r.loops <> [] || List.exists (fun a -> a.loop <> None) r.accesses then begin
        Buffer.add_string buf (Printf.sprintf "routine %s:\n" r.name);
        List.iter
          (fun lr ->
            let where =
              match lr.lr_head_addr with
              | Some a -> Printf.sprintf "0x%x" a
              | None -> "?"
            in
            let ivs =
              match lr.lr_ivs with
              | [] -> ""
              | l ->
                  "  iv "
                  ^ String.concat ", "
                      (List.map
                         (fun (c, s) ->
                           Printf.sprintf "%s%+d" (Dataflow.string_of_cell c) s)
                         l)
            in
            Buffer.add_string buf
              (Printf.sprintf "  loop @%s depth %d: trips %s%s\n" where
                 lr.lr_depth
                 (Loopinfo.trip_to_string lr.lr_trip)
                 ivs))
          r.loops;
        List.iter
          (fun a ->
            match a.loop with
            | None -> ()
            | Some _ ->
                let where =
                  match a.addr with
                  | Some ad -> Printf.sprintf "0x%x" ad
                  | None -> Printf.sprintf "i%d" a.index
                in
                Buffer.add_string buf
                  (Printf.sprintf "  %s %s w%d: %s\n" where
                     (if a.is_store then "store" else "load")
                     a.width
                     (pattern_to_string a.pattern)))
          r.accesses
      end)
    routines;
  let st = stats routines in
  if st.st_loops > 0 || st.st_accesses > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "loops: %d (%d const, %d affine, %d unknown)  in-loop accesses: %d \
          (%d classified, %.0f%%)\n"
         st.st_loops st.st_const st.st_affine st.st_unknown st.st_in_loop
         st.st_classified
         (if st.st_in_loop = 0 then 100.
          else 100. *. float_of_int st.st_classified /. float_of_int st.st_in_loop));
  Buffer.contents buf

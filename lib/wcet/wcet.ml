module Symtab = Tq_vm.Symtab
module Program = Tq_vm.Program
module Cfg = Tq_staticcheck.Cfg
module Rcode = Tq_staticcheck.Rcode

exception Analysis_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Analysis_error s)) fmt

type loop_info = { header_addr : int; body_blocks : int; depth : int }

(* The routine's CFG, refused when its control flow cannot be bounded:
   dynamic transfers, or targets that are not instructions of the routine
   (jumps) or not a routine's entry (calls). *)
let cfg_of prog name =
  let r =
    match Symtab.by_name prog.Program.symtab name with
    | Some r -> r
    | None -> fail "unknown routine %s" name
  in
  let code = Rcode.of_routine prog r in
  Array.iteri
    (fun i f ->
      let at = Option.get (Rcode.addr_of code i) in
      match f with
      | Rcode.Dynamic_jump -> fail "%s: dynamic jump (jr) at 0x%x" name at
      | Dynamic_call -> fail "%s: dynamic call (callr) at 0x%x" name at
      | Jump_bad t | Branch_bad t ->
          fail "%s: branch target 0x%x at 0x%x is not an instruction of the routine"
            name t at
      | Call_bad t -> fail "%s: call to unknown target 0x%x at 0x%x" name t at
      | Seq | Jump _ | Branch _ | Call_known _ | Call_sym _ | Return | Stop -> ())
    code.Rcode.flow;
  Cfg.build code

let header_addr (cfg : Cfg.t) (l : Cfg.loop) =
  Option.get (Rcode.addr_of cfg.Cfg.code cfg.Cfg.blocks.(l.Cfg.header).Cfg.first)

let loops prog name =
  let cfg = cfg_of prog name in
  Array.to_list cfg.Cfg.loops
  |> List.map (fun (l : Cfg.loop) ->
         {
           header_addr = header_addr cfg l;
           body_blocks = List.length l.Cfg.blocks;
           depth = l.Cfg.depth;
         })

(* ---------- structural longest path over the loop nest ---------- *)

(* Checked arithmetic on the non-negative instruction counts: a bound past
   [max_int] is refused rather than wrapped, since a wrapped bound is no
   longer an upper bound. *)
let too_large ctx = fail "%s: WCET bound exceeds %d instructions" ctx max_int
let add ctx a b = if a > max_int - b then too_large ctx else a + b
let mul ctx a b = if b <> 0 && a > max_int / b then too_large ctx else a * b

(* Longest path from [entry] in a DAG given node costs and an edge function;
   raises on a residual cycle (irreducible flow). *)
let dag_longest ~n ~cost ~succs ~entry ~ctx =
  let memo = Array.make n None in
  let visiting = Array.make n false in
  let rec go v =
    match memo.(v) with
    | Some c -> c
    | None ->
        if visiting.(v) then fail "irreducible control flow in %s" ctx;
        visiting.(v) <- true;
        let best_succ = List.fold_left (fun acc s -> max acc (go s)) 0 (succs v) in
        visiting.(v) <- false;
        let c = add ctx (cost v) best_succ in
        memo.(v) <- Some c;
        c
  in
  go entry

let analyze prog ~bounds entry_name =
  let memo : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec routine_wcet name =
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
        if Hashtbl.mem in_progress name then
          fail "recursion through %s is not supported (no recursion bound)" name;
        Hashtbl.replace in_progress name ();
        let cfg = cfg_of prog name in
        let loops = cfg.Cfg.loops in
        (* consume this routine's bound list in header-address order *)
        let blist = bounds name in
        if List.length blist < Array.length loops then
          fail "%s: %d loop bound(s) supplied, %d loop(s) found (headers: %s)"
            name (List.length blist) (Array.length loops)
            (String.concat ", "
               (Array.to_list
                  (Array.map (fun l -> Printf.sprintf "0x%x" (header_addr cfg l)) loops)));
        let bound = Array.init (Array.length loops) (List.nth blist) in
        if Array.exists (fun b -> b < 0) bound then
          fail "%s: negative loop bound" name;
        (* base block costs: instructions + callee bounds *)
        let base_cost =
          Array.map
            (fun (b : Cfg.block) ->
              let c = ref (b.Cfg.last - b.Cfg.first + 1) in
              for i = b.Cfg.first to b.Cfg.last do
                match cfg.Cfg.code.Rcode.flow.(i) with
                | Rcode.Call_known callee ->
                    c := add name !c (routine_wcet callee)
                | _ -> ()
              done;
              !c)
            cfg.Cfg.blocks
        in
        (* Worst path through a region — the whole routine (-1) or one
           iteration of a loop — with each loop nested directly in it
           contracted to its header and charged bound x worst iteration. *)
        let rec region_cost region =
          let entry = if region < 0 then 0 else loops.(region).Cfg.header in
          let inside b = region < 0 || loops.(region).Cfg.body.(b) in
          (* the node standing for block [v] here: [v] itself, or the
             header of the child loop holding it *)
          let rec child l =
            if loops.(l).Cfg.parent = region then l else child loops.(l).Cfg.parent
          in
          let rep v =
            let l = cfg.Cfg.innermost.(v) in
            if l = region then v else loops.(child l).Cfg.header
          in
          let cost v =
            let l = cfg.Cfg.innermost.(v) in
            if l = region then base_cost.(v)
            else mul name bound.(l) (region_cost l)
          in
          (* successors through representatives, excluding back edges to
             the region's entry and edges leaving the region *)
          let succs v =
            let l = cfg.Cfg.innermost.(v) in
            (if l = region then [ v ] else loops.(l).Cfg.blocks)
            |> List.concat_map (fun o -> cfg.Cfg.blocks.(o).Cfg.succs)
            |> List.filter inside
            |> List.map rep
            |> List.filter (fun s -> s <> entry && s <> v)
            |> List.sort_uniq compare
          in
          let ctx =
            if region < 0 then name else Printf.sprintf "%s loop@B%d" name entry
          in
          dag_longest ~n:(Cfg.n_blocks cfg) ~cost ~succs ~entry ~ctx
        in
        let total = if Cfg.n_blocks cfg = 0 then 0 else region_cost (-1) in
        Hashtbl.remove in_progress name;
        Hashtbl.replace memo name total;
        total
  in
  routine_wcet entry_name

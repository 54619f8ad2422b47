module Isa = Tq_isa.Isa
module Symtab = Tq_vm.Symtab
module Program = Tq_vm.Program
module Event = Tq_trace.Event

type category = Load | Store | Block_move | Int_alu | Float_alu | Branch
              | Call_ret | Syscall | Other

let categories =
  [ Load; Store; Block_move; Int_alu; Float_alu; Branch; Call_ret; Syscall; Other ]

let category_name = function
  | Load -> "load"
  | Store -> "store"
  | Block_move -> "block-move"
  | Int_alu -> "int-alu"
  | Float_alu -> "float-alu"
  | Branch -> "branch"
  | Call_ret -> "call/ret"
  | Syscall -> "syscall"
  | Other -> "other"

let index c =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = c then i else go (i + 1) rest
  in
  go 0 categories

let classify = function
  | Isa.Load _ | Isa.Loads _ | Isa.Fload _ | Isa.Prefetch _ -> Load
  | Isa.Store _ | Isa.Fstore _ -> Store
  | Isa.Movs _ -> Block_move
  | Isa.Li _ | Isa.Mov _ | Isa.Bin _ -> Int_alu
  | Isa.Fli _ | Isa.Fmov _ | Isa.Fbin _ | Isa.Fun _ | Isa.Fcmp _ | Isa.I2f _
  | Isa.F2i _ ->
      Float_alu
  | Isa.Jmp _ | Isa.Jr _ | Isa.Bz _ | Isa.Bnz _ -> Branch
  | Isa.Call _ | Isa.Callr _ | Isa.Ret -> Call_ret
  | Isa.Syscall _ -> Syscall
  | Isa.Nop | Isa.Halt -> Other

let n_cat = List.length categories

(* Per-block classification summary, computed once per distinct block: blocks
   are re-executed constantly, so classifying their instructions on every
   [Block_exec] would repeat the same static work (the original live tool
   classified at instrument time for the same reason).  The hot path only
   bumps [b_execs]; the per-category multiplies happen once, at report
   time. *)
type block_sum = {
  b_n : int;  (** instruction count the summary was built for *)
  b_cats : int array;  (** per-category totals over one execution *)
  b_per : (int * int array) list;  (** routine id -> per-category counts *)
  mutable b_execs : int;  (** times this block was dispatched *)
}

type t = {
  program : Program.t;
  symtab : Symtab.t;
  blocks : block_sum option array;
      (** indexed by code index (block addresses are instruction-aligned
          text addresses, so the mapping is dense and O(1)) *)
  mutable displaced : block_sum list;
      (** summaries displaced by a re-summarized block (same address,
          different length): their execution counts still belong in the
          totals, so [snapshot] folds over these too *)
}

type config = unit
type seed = unit

let create () program =
  {
    program;
    symtab = program.Program.symtab;
    blocks = Array.make (Array.length program.Program.code) None;
    displaced = [];
  }

let summarize t addr n =
  let b_cats = Array.make n_cat 0 in
  let per = ref [] in
  for j = 0 to n - 1 do
    let pc = addr + (j * Isa.ins_bytes) in
    let c = index (classify (Program.fetch t.program pc)) in
    b_cats.(c) <- b_cats.(c) + 1;
    match Symtab.find t.symtab pc with
    | None -> ()
    | Some r ->
        let a =
          match List.assoc_opt r.Symtab.id !per with
          | Some a -> a
          | None ->
              let a = Array.make n_cat 0 in
              per := (r.Symtab.id, a) :: !per;
              a
        in
        a.(c) <- a.(c) + 1
  done;
  { b_n = n; b_cats; b_per = List.rev !per; b_execs = 0 }

(* [Block_exec] carries the block's address and retired-instruction count;
   a dispatched block always retires all of them, so refetching from the
   program image reproduces the executed stream exactly. *)
let slot addr = (addr - Tq_vm.Layout.text_base) / Isa.ins_bytes

let block t ~addr ~n =
  let i = slot addr in
  match t.blocks.(i) with
  | Some s when s.b_n = n -> s.b_execs <- s.b_execs + 1
  | prev ->
      let s = summarize t addr n in
      (match prev with
      | Some old -> t.displaced <- old :: t.displaced
      | None -> ());
      t.blocks.(i) <- Some s;
      s.b_execs <- 1

let consume t (ev : Event.t) =
  match ev with Event.Block_exec { addr; n; _ } -> block t ~addr ~n | _ -> ()

(* a block's address is in the [ea] column, its length in [size] *)
let consume_plain t (c : Tq_trace.Cols.t) =
  for i = 0 to Tq_trace.Cols.length c - 1 do
    if Tq_trace.Cols.tag c i = 6 (* block_exec *) then
      block t ~addr:c.ea.(i) ~n:c.size.(i)
  done

let interest = Event.[ KBlock_exec ]

(* A record's [Block_exec]s are structural — the same address and length
   every iteration — so every record is taken: iteration 0 goes through
   [consume], and when each body block then finds its own summary (no two
   body blocks share an address with different lengths), the other
   [iters - 1] iterations only add to the execution counts. *)
let consume_repeat t (r : Tq_trace.Squash.repeat) =
  Array.iter (consume t) r.body;
  let own = function
    | Event.Block_exec { addr; n; _ } -> (
        match t.blocks.(slot addr) with Some s -> s.b_n = n | None -> false)
    | _ -> true
  in
  if Array.for_all own r.body then
    Array.iter
      (function
        | Event.Block_exec { addr; _ } -> (
            match t.blocks.(slot addr) with
            | Some s -> s.b_execs <- s.b_execs + r.iters - 1
            | None -> ())
        | _ -> ())
      r.body
  else
    for _ = 2 to r.iters do
      Array.iter (consume t) r.body
    done

(* Execution counts add per block; a block re-summarized at a different
   length in the later range displaces the earlier summary exactly as a
   sequential run would, and [snapshot]'s totals are commutative sums over
   summaries, so displaced-list order is immaterial. *)
let merge_into a b =
  Array.iteri
    (fun i sb ->
      match sb with
      | None -> ()
      | Some sb -> (
          match a.blocks.(i) with
          | Some sa when sa.b_n = sb.b_n ->
              sa.b_execs <- sa.b_execs + sb.b_execs
          | Some sa ->
              a.displaced <- sa :: a.displaced;
              a.blocks.(i) <- Some sb
          | None -> a.blocks.(i) <- Some sb))
    b.blocks;
  a.displaced <- b.displaced @ a.displaced

(* Block summaries carry no cross-range state: shards need no seed. *)
let shard =
  Some
    {
      Tq_trace.Tool.prefix_wants = [];
      prefix =
        (fun () _ ->
          ( { Tq_trace.Replay.on_event = ignore; on_plain = ignore;
              on_repeat = ignore },
            Fun.id ));
      seeded = (fun () program () -> create () program);
      merge_into;
    }

(* Fold every block summary (weighted by its execution count) into overall
   and per-kernel category totals. *)
let snapshot t =
  let totals = Array.make n_cat 0 in
  let kernels = Array.make (Symtab.count t.symtab) None in
  let fold s =
    if s.b_execs > 0 then begin
      for c = 0 to n_cat - 1 do
        totals.(c) <- totals.(c) + (s.b_cats.(c) * s.b_execs)
      done;
      List.iter
        (fun (id, cats) ->
          let a =
            match kernels.(id) with
            | Some a -> a
            | None ->
                let a = Array.make n_cat 0 in
                kernels.(id) <- Some a;
                a
          in
          for c = 0 to n_cat - 1 do
            a.(c) <- a.(c) + (cats.(c) * s.b_execs)
          done)
        s.b_per
    end
  in
  Array.iter (function Some s -> fold s | None -> ()) t.blocks;
  List.iter fold t.displaced;
  (totals, kernels)

let attach = Tq_trace.Tool.attach ~wants:interest (create ()) consume

let per_kernel t =
  let _, kernels = snapshot t in
  let out = ref [] in
  Array.iteri
    (fun id a ->
      match a with
      | Some counts -> out := (Symtab.by_id t.symtab id, counts) :: !out
      | None -> ())
    kernels;
  List.rev !out

let render t =
  let buf = Buffer.create 1024 in
  let totals, _ = snapshot t in
  let grand = Array.fold_left ( + ) 0 totals in
  Buffer.add_string buf (Printf.sprintf "instruction mix (%d retired):\n" grand);
  List.iteri
    (fun i c ->
      if totals.(i) > 0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-10s %10d  %5.1f%%\n" (category_name c)
             totals.(i)
             (100. *. float_of_int totals.(i) /. float_of_int (max 1 grand))))
    categories;
  Buffer.contents buf

open Tq_vm

type action = unit -> unit

module Ins_view = struct
  type view = {
    v_ins : Tq_isa.Isa.ins;
    v_addr : int;
    v_routine : Symtab.routine option;
  }

  let ins v = v.v_ins
  let addr v = v.v_addr
  let routine v = v.v_routine

  let is_routine_entry v =
    match v.v_routine with Some r -> r.Symtab.entry = v.v_addr | None -> false
end

(* Instrumented-but-not-compiled representation: one (analysis actions,
   instruction) pair per slot.  The reference path ([~use_code_cache:false])
   interprets this directly through [Machine.exec]; the code-cache path
   closure-compiles it into a {!ctrace}. *)
type slot = { actions : action array; s_ins : Tq_isa.Isa.ins }

(* Closure-compiled (threaded-code) trace: [body.(i)] is one fused closure
   running slot [i]'s analysis actions followed by the specialized
   instruction closure from {!Machine.compile_ins}.  Traces ending in a
   direct transfer ([Jmp]/[Bz]/[Bnz]/[Call], a [Syscall]'s fall-through, or
   a max-length cut) are [chainable]: their successor traces are cached in
   [succ1]/[succ2] on first dispatch, so steady-state execution follows
   links and never touches the hashtable.  Links are validated by start
   address against the actual post-trace [ip], so a conditional branch
   chains both ways and a wrong link can never misdispatch.  Indirect
   transfers ([Jr]/[Callr]/[Ret]) always go through the hashtable. *)
type ctrace = {
  c_addr : int;
  body : action array;
  chainable : bool;
  mutable succ1 : ctrace option;
  mutable succ2 : ctrace option;
}

type stats = {
  compiled_traces : int;
  compiled_instructions : int;
  lookups : int;
  misses : int;
  chain_hits : int;
  closure_instructions : int;
}

type t = {
  m : Machine.t;
  use_code_cache : bool;
  cache : (int, ctrace) Hashtbl.t;
  mutable ins_instrumenters : (Ins_view.view -> action list) list; (* reversed *)
  mutable rtn_instrumenters : (Symtab.routine -> action list) list;
  mutable trace_instrumenters : (Ins_view.view array -> (int * action) list) list;
  mutable running : bool;
  mutable n_traces : int;
  mutable n_compiled_ins : int;
  mutable n_lookups : int;
  mutable n_misses : int;
  mutable n_chain_hits : int;
  mutable n_closure_ins : int;
}

let create ?(use_code_cache = true) m =
  {
    m;
    use_code_cache;
    cache = Hashtbl.create 1024;
    ins_instrumenters = [];
    rtn_instrumenters = [];
    trace_instrumenters = [];
    running = false;
    n_traces = 0;
    n_compiled_ins = 0;
    n_lookups = 0;
    n_misses = 0;
    n_chain_hits = 0;
    n_closure_ins = 0;
  }

let machine t = t.m

let add_ins_instrumenter t f =
  if t.running then invalid_arg "Engine: cannot add instrumenter while running";
  t.ins_instrumenters <- f :: t.ins_instrumenters

let add_rtn_instrumenter t f =
  if t.running then invalid_arg "Engine: cannot add instrumenter while running";
  t.rtn_instrumenters <- f :: t.rtn_instrumenters

let add_trace_instrumenter t f =
  if t.running then invalid_arg "Engine: cannot add instrumenter while running";
  t.trace_instrumenters <- f :: t.trace_instrumenters

let predicated t v a =
  match Tq_isa.Isa.predicate_of (Ins_view.ins v) with
  | None -> a
  | Some p ->
      let m = t.m in
      fun () -> if Machine.reg m p <> 0 then a ()

let max_trace_len = 128

(* Instrumentation step, shared by both paths: walk the basic block at
   [addr0] into instruction views, show the whole block to the trace
   callbacks and every instruction to the routine and instruction
   callbacks, and collect each slot's analysis actions in that order.  Runs
   once per block per compile. *)
let compile t addr0 =
  let prog = Machine.program t.m in
  let symtab = prog.Program.symtab in
  let views = ref [] in
  let n = ref 0 in
  let addr = ref addr0 in
  let stop = ref false in
  while not !stop do
    let ins = Program.fetch prog !addr in
    let routine = Symtab.find symtab !addr in
    views := { Ins_view.v_ins = ins; v_addr = !addr; v_routine = routine } :: !views;
    incr n;
    if Tq_isa.Isa.is_control ins || !n >= max_trace_len then stop := true
    else addr := !addr + Tq_isa.Isa.ins_bytes
  done;
  let views = Array.of_list (List.rev !views) in
  let n = Array.length views in
  (* per slot, the trace callbacks' actions, reversed *)
  let block = Array.make n [] in
  List.iter
    (fun f ->
      List.iter
        (fun (i, a) ->
          if i < 0 || i >= n then
            invalid_arg "Engine: trace action outside its block";
          block.(i) <- a :: block.(i))
        (f views))
    (List.rev t.trace_instrumenters);
  let ins_fns = List.rev t.ins_instrumenters in
  let rtn_fns = List.rev t.rtn_instrumenters in
  let trace =
    Array.mapi
      (fun i view ->
        let rtn_actions =
          match view.Ins_view.v_routine with
          | Some r when Ins_view.is_routine_entry view ->
              List.concat_map (fun f -> f r) rtn_fns
          | _ -> []
        in
        let ins_actions = List.concat_map (fun f -> f view) ins_fns in
        {
          actions =
            Array.of_list (List.rev_append block.(i) (rtn_actions @ ins_actions));
          s_ins = view.v_ins;
        })
      views
  in
  t.n_traces <- t.n_traces + 1;
  t.n_compiled_ins <- t.n_compiled_ins + n;
  trace

(* Closure-compile an instrumented block: fuse each slot's action array with
   the specialized instruction closure so an uninstrumented slot is exactly
   one closure call — zero action-array iterations. *)
let closure_compile t addr0 =
  let slots = compile t addr0 in
  let m = t.m in
  let n = Array.length slots in
  let body =
    Array.mapi
      (fun i slot ->
        let next = addr0 + ((i + 1) * Tq_isa.Isa.ins_bytes) in
        let exec_c = Machine.compile_ins m slot.s_ins ~next in
        match slot.actions with
        | [||] -> exec_c
        | [| a |] ->
            fun () ->
              a ();
              exec_c ()
        | [| a; b |] ->
            fun () ->
              a ();
              b ();
              exec_c ()
        | acts ->
            let k = Array.length acts in
            fun () ->
              for j = 0 to k - 1 do
                (Array.unsafe_get acts j) ()
              done;
              exec_c ())
      slots
  in
  t.n_closure_ins <- t.n_closure_ins + n;
  let chainable =
    match slots.(n - 1).s_ins with
    | Tq_isa.Isa.Jmp _ | Bz _ | Bnz _ | Call _ | Syscall _ -> true
    | Jr _ | Callr _ | Ret | Halt -> false
    | _ -> true (* max-length cut: falls through to a static address *)
  in
  { c_addr = addr0; body; chainable; succ1 = None; succ2 = None }

let clookup t addr =
  match Hashtbl.find_opt t.cache addr with
  | Some tr -> tr
  | None ->
      t.n_misses <- t.n_misses + 1;
      let tr = closure_compile t addr in
      Hashtbl.replace t.cache addr tr;
      tr

(* Code-cache path: threaded-code dispatch with trace chaining.  A direct
   transfer can only reach (at most) two static targets, so two link slots
   per trace suffice; the start-address compare against the live [ip] keeps
   dispatch correct whatever ends up cached. *)
let run_cached t fuel =
  let m = t.m in
  let executed = ref 0 in
  let prev : ctrace option ref = ref None in
  while not (Machine.halted m) do
    let ip = Machine.ip m in
    let tr =
      match !prev with
      | Some p when p.chainable -> (
          match p.succ1 with
          | Some s when s.c_addr = ip ->
              t.n_chain_hits <- t.n_chain_hits + 1;
              s
          | _ -> (
              match p.succ2 with
              | Some s when s.c_addr = ip ->
                  t.n_chain_hits <- t.n_chain_hits + 1;
                  s
              | _ ->
                  let s = clookup t ip in
                  (match p.succ1 with
                  | None -> p.succ1 <- Some s
                  | Some _ -> (
                      match p.succ2 with
                      | None -> p.succ2 <- Some s
                      | Some _ -> ()));
                  s))
      | _ -> clookup t ip
    in
    t.n_lookups <- t.n_lookups + 1;
    let body = tr.body in
    for i = 0 to Array.length body - 1 do
      (Array.unsafe_get body i) ();
      incr executed;
      if !executed > fuel then raise (Executor.Out_of_fuel !executed)
    done;
    prev := Some tr
  done

(* Reference path: re-instrument every block and interpret it through
   [Machine.exec].  Kept verbatim as the oracle the differential tests (and
   the ablation bench) compare the threaded-code path against. *)
let run_reference t fuel =
  let m = t.m in
  let executed = ref 0 in
  while not (Machine.halted m) do
    t.n_lookups <- t.n_lookups + 1;
    t.n_misses <- t.n_misses + 1;
    let trace = compile t (Machine.ip m) in
    let len = Array.length trace in
    let i = ref 0 in
    while !i < len && not (Machine.halted m) do
      let slot = trace.(!i) in
      let acts = slot.actions in
      for k = 0 to Array.length acts - 1 do
        acts.(k) ()
      done;
      Machine.exec m slot.s_ins;
      incr executed;
      if !executed > fuel then raise (Executor.Out_of_fuel !executed);
      incr i
    done
  done

let run ?(fuel = 2_000_000_000) t =
  t.running <- true;
  (try
     Machine.guard t.m (fun () ->
         if t.use_code_cache then run_cached t fuel else run_reference t fuel)
   with e ->
     t.running <- false;
     raise e);
  t.running <- false

let stats t =
  {
    compiled_traces = t.n_traces;
    compiled_instructions = t.n_compiled_ins;
    lookups = t.n_lookups;
    misses = t.n_misses;
    chain_hits = t.n_chain_hits;
    closure_instructions = t.n_closure_ins;
  }

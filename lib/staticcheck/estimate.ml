module Isa = Tq_isa.Isa
module Symtab = Tq_vm.Symtab
module Program = Tq_vm.Program

(* the floor weight of a loop whose trip count is not resolved *)
let loop_weight = 32.

(* Weighted bytes by access pattern (call/ret and other implicit stack
   traffic lands in [bk_scalar]). *)
type buckets = {
  bk_sequential : float;
  bk_strided : float;
  bk_indirect : float;
  bk_scalar : float;
  bk_unknown : float;
}

let bk_zero =
  {
    bk_sequential = 0.;
    bk_strided = 0.;
    bk_indirect = 0.;
    bk_scalar = 0.;
    bk_unknown = 0.;
  }

let bk_add a b =
  {
    bk_sequential = a.bk_sequential +. b.bk_sequential;
    bk_strided = a.bk_strided +. b.bk_strided;
    bk_indirect = a.bk_indirect +. b.bk_indirect;
    bk_scalar = a.bk_scalar +. b.bk_scalar;
    bk_unknown = a.bk_unknown +. b.bk_unknown;
  }

let bk_scale a w =
  {
    bk_sequential = a.bk_sequential *. w;
    bk_strided = a.bk_strided *. w;
    bk_indirect = a.bk_indirect *. w;
    bk_scalar = a.bk_scalar *. w;
    bk_unknown = a.bk_unknown *. w;
  }

let bk_total a =
  a.bk_sequential +. a.bk_strided +. a.bk_indirect +. a.bk_scalar
  +. a.bk_unknown

type row = {
  routine : Symtab.routine;
  reads : float;
  writes : float;
  loops : int;
  trips_known : int;  (** loops with a constant or affine trip count *)
  trips_total : int;
  patterns : buckets;
}

let bytes row = row.reads +. row.writes

(* Statically-known bytes of one instruction, under the profilers' rules:
   prefetches are discarded, block moves have a dynamic length (counted as
   0 — a known imprecision), call/ret stack traffic counts (the dynamic
   totals we compare against are stack-inclusive). *)
let ins_bytes i =
  if Isa.is_prefetch i then (0, 0)
  else (Isa.mem_read_bytes i, Isa.mem_write_bytes i)

(* Per-routine weighting context: how much one execution of a block counts,
   and what pattern each explicit access has. *)
type ctx = {
  block_weight : int -> float;
  pattern_of : int -> Access.pattern option;
  c_trips_known : int;
  c_trips_total : int;
  c_max_const : int;  (** largest constant trip count in the routine *)
}

(* [unknown_w] is shared across the program's routines: loops whose trip
   count the dataflow layer cannot pin down are weighted by the largest
   constant trip resolved anywhere in the main image (floored at
   [loop_weight]).  A data-dependent scan — a pointer chase, a
   sentinel-terminated copy — usually walks the very structures the
   resolved loops built, so its iteration count is of that order, not of
   a flat per-nesting-level guess. *)
let ctx_of (cfg : Cfg.t) ~unknown_w =
  let li, rep = Access.analyze cfg in
  let loops = Loopinfo.loops li in
  let pat = Hashtbl.create 32 in
  List.iter
    (fun (a : Access.acc) -> Hashtbl.replace pat a.Access.index a.Access.pattern)
    rep.Access.accesses;
  let known = ref 0 and max_const = ref 0 in
  Array.iter
    (fun l ->
      match l.Loopinfo.l_trip with
      | Loopinfo.Tconst n ->
          incr known;
          if n > !max_const then max_const := n
      | Loopinfo.Taffine _ -> incr known
      | Loopinfo.Tunknown _ -> ())
    loops;
  (* product of the trip weights of every enclosing loop, outermost
     first *)
  let rec weight j =
    if j < 0 then 1.0
    else
      let f =
        match loops.(j).Loopinfo.l_trip with
        | Loopinfo.Tconst n -> float_of_int (max n 0)
        | _ -> !unknown_w
      in
      weight loops.(j).Loopinfo.l_nest.Cfg.parent *. f
  in
  {
    block_weight = (fun b -> weight cfg.Cfg.innermost.(b));
    pattern_of = Hashtbl.find_opt pat;
    c_trips_known = !known;
    c_trips_total = Array.length loops;
    c_max_const = !max_const;
  }

(* Weighted (reads, writes, pattern buckets) of a routine's own code, plus
   its library call sites with the weight of the calling block. *)
let weigh (cfg : Cfg.t) ctx =
  let code = cfg.Cfg.code in
  let reads = ref 0. and writes = ref 0. in
  let bks = ref bk_zero in
  let call_sites = ref [] in
  Array.iter
    (fun (b : Cfg.block) ->
      if cfg.Cfg.reachable.(b.Cfg.id) then begin
        let w = ctx.block_weight b.Cfg.id in
        for i = b.Cfg.first to b.Cfg.last do
          let r, wr = ins_bytes code.Rcode.ins.(i) in
          reads := !reads +. (w *. float_of_int r);
          writes := !writes +. (w *. float_of_int wr);
          (if r + wr > 0 then
             let wb = w *. float_of_int (r + wr) in
             bks :=
               match ctx.pattern_of i with
               | Some Access.Sequential ->
                   { !bks with bk_sequential = !bks.bk_sequential +. wb }
               | Some (Access.Strided _) ->
                   { !bks with bk_strided = !bks.bk_strided +. wb }
               | Some Access.Indirect ->
                   { !bks with bk_indirect = !bks.bk_indirect +. wb }
               | Some Access.Scalar | None ->
                   { !bks with bk_scalar = !bks.bk_scalar +. wb }
               | Some (Access.Unknown _) ->
                   { !bks with bk_unknown = !bks.bk_unknown +. wb });
          match code.Rcode.flow.(i) with
          | Rcode.Call_known callee -> call_sites := (callee, w) :: !call_sites
          | _ -> ()
        done
      end)
    cfg.Cfg.blocks;
  (!reads, !writes, !bks, !call_sites)

let per_kernel prog =
  let symtab = prog.Program.symtab in
  let cfgs = Hashtbl.create 32 in
  Symtab.iter
    (fun r ->
      if r.Symtab.size > 0 then
        Hashtbl.replace cfgs r.Symtab.name
          (r, Cfg.build (Rcode.of_routine prog r)))
    symtab;
  let ctxs = Hashtbl.create 32 in
  let unknown_w = ref loop_weight in
  let ctx_for name cfg =
    match Hashtbl.find_opt ctxs name with
    | Some c -> c
    | None ->
        let c = ctx_of cfg ~unknown_w in
        Hashtbl.replace ctxs name c;
        c
  in
  (* calibrate the unresolved-loop weight over the main image before any
     block is weighed (block_weight reads [unknown_w] at use time) *)
  let mx = ref 0 in
  Hashtbl.iter
    (fun name ((r : Symtab.routine), cfg) ->
      if r.Symtab.is_main_image then begin
        let c = ctx_for name cfg in
        if c.c_max_const > !mx then mx := c.c_max_const
      end)
    cfgs;
  unknown_w := Float.max loop_weight (float_of_int !mx);
  (* flat weighted bytes of a library routine, with callees folded in
     (librt routines are leaves today, but stay safe under recursion) *)
  let memo = Hashtbl.create 32 in
  let rec flat visiting name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
        if List.mem name visiting then (0., 0., bk_zero)
        else
          let v =
            match Hashtbl.find_opt cfgs name with
            | None -> (0., 0., bk_zero)
            | Some (_, cfg) ->
                let r, w, bk, calls = weigh cfg (ctx_for name cfg) in
                List.fold_left
                  (fun (r, w, bk) (callee, cw) ->
                    let cr, cww, cbk = flat (name :: visiting) callee in
                    ( r +. (cw *. cr),
                      w +. (cw *. cww),
                      bk_add bk (bk_scale cbk cw) ))
                  (r, w, bk) calls
          in
          Hashtbl.replace memo name v;
          v
  in
  let rows = ref [] in
  Symtab.iter
    (fun r ->
      if r.Symtab.is_main_image && r.Symtab.size > 0 then begin
        let _, cfg = Hashtbl.find cfgs r.Symtab.name in
        let ctx = ctx_for r.Symtab.name cfg in
        let reads, writes, bks, calls = weigh cfg ctx in
        (* fold in library callees only: main-image callees are kernels of
           their own, mirroring tQUAD's Main_image_only attribution *)
        let reads, writes, bks =
          List.fold_left
            (fun (rd, wr, bk) (callee, cw) ->
              match Symtab.by_name symtab callee with
              | Some c when c.Symtab.is_main_image -> (rd, wr, bk)
              | _ ->
                  let cr, cww, cbk = flat [ r.Symtab.name ] callee in
                  ( rd +. (cw *. cr),
                    wr +. (cw *. cww),
                    bk_add bk (bk_scale cbk cw) ))
            (reads, writes, bks) calls
        in
        rows :=
          {
            routine = r;
            reads;
            writes;
            loops = Array.length cfg.Cfg.loops;
            trips_known = ctx.c_trips_known;
            trips_total = ctx.c_trips_total;
            patterns = bks;
          }
          :: !rows
      end)
    symtab;
  List.rev !rows

let render rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "static bandwidth model (dataflow trip counts; weight >= %g where \
        unresolved):\n"
       loop_weight);
  Buffer.add_string buf
    (Printf.sprintf "  %-24s %6s %6s %14s %14s  %5s %5s %5s\n" "kernel" "loops"
       "trips" "est. read B" "est. write B" "%seq" "%str" "%ind");
  List.iter
    (fun row ->
      let total = bk_total row.patterns in
      let pct x = if total <= 0. then 0. else 100. *. x /. total in
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %6d %3d/%-3d %14.0f %14.0f  %5.1f %5.1f %5.1f\n"
           row.routine.Symtab.name row.loops row.trips_known row.trips_total
           row.reads row.writes
           (pct row.patterns.bk_sequential)
           (pct row.patterns.bk_strided)
           (pct row.patterns.bk_indirect)))
    rows;
  Buffer.contents buf

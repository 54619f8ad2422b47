module Symtab = Tq_vm.Symtab

let names = [ "tquad"; "quad"; "gprof"; "mix"; "cache"; "footprint" ]

let render_gprof g =
  Tq_report.Report.flat_profile (Tq_gprofsim.Gprofsim.flat_profile g)

let render_quad q =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Tq_report.Report.quad_table (Tq_quad.Quad.rows q));
  Buffer.add_string buf "\nbindings (heaviest first):\n";
  List.iteri
    (fun i (b : Tq_quad.Quad.binding) ->
      if i < 20 then
        Buffer.add_string buf
          (Printf.sprintf "  %-24s -> %-24s %12d B (incl), %10d UnMA\n"
             b.producer.Symtab.name b.consumer.Symtab.name b.bytes_incl b.unma))
    (Tq_quad.Quad.bindings q);
  Buffer.contents buf

let render_tquad ~slice t =
  let buf = Buffer.create 4096 in
  let kernels = Tq_tquad.Tquad.kernels t in
  Buffer.add_string buf
    (Printf.sprintf "%d time slices of %d instructions; %d kernels\n"
       (Tq_tquad.Tquad.total_slices t) slice (List.length kernels));
  List.iter
    (fun r ->
      let tot = Tq_tquad.Tquad.totals t r in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-24s slices %6d-%-6d act %6d  R %9d/%9d  W %9d/%9d  max RW \
            %8.4f B/ins\n"
           r.Symtab.name tot.Tq_tquad.Tquad.first_slice tot.last_slice
           tot.activity_span tot.read_incl tot.read_excl tot.write_incl
           tot.write_excl
           (Tq_tquad.Tquad.max_rw_bpi t r ~incl:true)))
    kernels;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Tq_report.Report.figure t ~metric:Tq_tquad.Tquad.Read_incl ~kernels
       ~title:"read bandwidth (stack incl.)" ());
  Buffer.contents buf

let render_mix mix =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Tq_prof.Ins_mix.render mix);
  Buffer.add_string buf "\nper kernel:\n";
  List.iter
    (fun (r, counts) ->
      let total = Array.fold_left ( + ) 0 counts in
      if total > 0 then begin
        Buffer.add_string buf (Printf.sprintf "  %-24s %9d:" r.Symtab.name total);
        List.iteri
          (fun i c ->
            if counts.(i) > 0 then
              Buffer.add_string buf
                (Printf.sprintf " %s %d" (Tq_prof.Ins_mix.category_name c)
                   counts.(i)))
          Tq_prof.Ins_mix.categories;
        Buffer.add_char buf '\n'
      end)
    (Tq_prof.Ins_mix.per_kernel mix);
  Buffer.contents buf

(* One row per tool: its module, config and renderer.  [Tool.job] derives
   the rest — wants, the plain path and, for every tool but cache (its
   replacement state has no merge, so it replays on the ordered walk), the
   shard spec [Replay.parallel] splits the trace with. *)
let job ~prog ~slice ~period name =
  let open Tq_prof in
  let row (type c t)
      (module T : Tq_trace.Tool.S with type config = c and type t = t)
      (config : c) render =
    Ok (Tq_trace.Tool.job (module T) name config prog ~render)
  in
  let policy = Call_stack.Main_image_only in
  match name with
  | "tquad" ->
      row (module Tq_tquad.Tquad)
        { Tq_tquad.Tquad.slice_interval = slice; policy }
        (render_tquad ~slice)
  | "quad" -> row (module Tq_quad.Quad) policy render_quad
  | "gprof" -> row (module Tq_gprofsim.Gprofsim) period render_gprof
  | "mix" -> row (module Ins_mix) () render_mix
  | "cache" ->
      row (module Cache_sim)
        { Cache_sim.geometry = Cache_sim.default_l1; policy }
        Cache_sim.render
  | "footprint" -> row (module Footprint) policy Footprint.render
  | other ->
      Error
        (Printf.sprintf "unknown tool %s (have: %s)" other
           (String.concat ", " names))

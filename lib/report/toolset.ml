module Symtab = Tq_vm.Symtab
module Json = Tq_obs.Json
module Reader = Tq_trace.Reader
module Replay = Tq_trace.Replay

let render_gprof g =
  Report.flat_profile (Tq_gprofsim.Gprofsim.flat_profile g)

let render_quad q =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Report.quad_table (Tq_quad.Quad.rows q));
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
    (Report.figure t ~metric:Tq_tquad.Tquad.Read_incl ~kernels
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

(* One row per tool, in canonical order: its module, config and renderer,
   given the tquad slice, the gprof period and the memory tools' call-stack
   policy.  [Tool.job] derives the rest — wants, the plain path and, for
   every tool but cache (its replacement state has no merge, so it replays
   on the ordered walk), the shard spec [Replay.parallel] splits the trace
   with. *)
let table =
  let open Tq_prof in
  let row (type c t)
      (module T : Tq_trace.Tool.S with type config = c and type t = t)
      (config : c) render ~prog name =
    Tq_trace.Tool.job (module T) name config prog ~render
  in
  [ ( "tquad",
      fun ~slice ~period:_ ~policy ->
        row (module Tq_tquad.Tquad)
          { Tq_tquad.Tquad.slice_interval = slice; policy }
          (render_tquad ~slice) );
    ( "quad",
      fun ~slice:_ ~period:_ ~policy ->
        row (module Tq_quad.Quad) policy render_quad );
    ( "gprof",
      fun ~slice:_ ~period ~policy:_ ->
        row (module Tq_gprofsim.Gprofsim) period render_gprof );
    ( "mix",
      fun ~slice:_ ~period:_ ~policy:_ -> row (module Ins_mix) () render_mix );
    ( "cache",
      fun ~slice:_ ~period:_ ~policy ->
        row (module Cache_sim)
          { Cache_sim.geometry = Cache_sim.default_l1; policy }
          Cache_sim.render );
    ( "footprint",
      fun ~slice:_ ~period:_ ~policy ->
        row (module Footprint) policy Footprint.render ) ]

let names = List.map fst table

let job ?(policy = Tq_prof.Call_stack.Main_image_only) ~prog ~slice ~period
    name =
  match List.assoc_opt name table with
  | Some row -> Ok (row ~slice ~period ~policy ~prog name)
  | None ->
      Error
        (Printf.sprintf "unknown tool %s (have: %s)" name
           (String.concat ", " names))

(* ---------- shared manifest sections ---------- *)

let trace_section ?(extra = []) r =
  let salvage =
    match Reader.salvage_info r with
    | None -> []
    | Some s ->
        [ ( "salvage",
            Json.Obj
              [ ("salvaged_chunks", Json.Int s.Reader.salvaged_chunks);
                ("dropped_chunks", Json.Int s.dropped_chunks);
                ("dropped_bytes", Json.Int s.dropped_bytes);
                ("reason", Json.Str s.reason) ] ) ]
  in
  (* the v4 redundancy-suppression accounting; present for every version
     (a v3 trace reports stored = events and zero repeat/body chunks) so
     consumers need no version-conditional parsing *)
  let compression =
    [ ("stored_events", Json.Int (Reader.stored_events r));
      ("plain_chunks", Json.Int (Reader.plain_chunks r));
      ("repeat_chunks", Json.Int (Reader.repeat_chunks r));
      ("body_chunks", Json.Int (Reader.body_chunks r));
      ("event_ratio", Json.Float (Reader.event_ratio r)) ]
  in
  Json.Obj
    ([ ("version", Json.Int (Reader.version r));
       ("events", Json.Int (Reader.n_events r));
       ("chunks", Json.Int (Reader.n_chunks r));
       ("bytes", Json.Int (Reader.byte_size r));
       ("fingerprint", Json.Str (Printf.sprintf "%016Lx" (Reader.fingerprint r)));
       ("last_icount", Json.Int (Reader.last_icount r)) ]
    @ compression @ salvage @ extra)

let replay_section (s : Replay.run_stats) =
  Json.Obj
    [ ("domains", Json.Int s.rs_domains);
      ("shards", Json.Int s.rs_shards);
      ("batch", Json.Int s.rs_batch);
      ("chunks", Json.Int s.rs_chunks);
      ("events", Json.Int s.rs_events);
      ("peak_live_chunks", Json.Int s.rs_peak_live_chunks);
      ("repeats", Json.Int s.rs_repeats);
      ( "stage_s",
        Json.Obj
          [ ("decode", Json.Float s.rs_decode_s);
            ("ordered", Json.Float s.rs_ordered_s);
            ("shard", Json.Float s.rs_shard_s);
            ("merge", Json.Float s.rs_merge_s) ] ) ]

type policy = Track_all | Main_image_only

type frame = { routine : Tq_vm.Symtab.routine; entry_sp : int }

type t = {
  policy : policy;
  symtab : Tq_vm.Symtab.t;
  main : bool array;  (** per routine id: in the main image *)
  mutable frames : frame list;
}

let create symtab policy =
  {
    policy;
    symtab;
    main =
      Array.init (Tq_vm.Symtab.count symtab) (fun id ->
          (Tq_vm.Symtab.by_id symtab id).is_main_image);
    frames = [];
  }

let copy t = { t with policy = t.policy }

let charged_to_itself policy (r : Tq_vm.Symtab.routine) =
  match policy with Track_all -> true | Main_image_only -> r.is_main_image

let on_entry t routine ~sp =
  if charged_to_itself t.policy routine then
    t.frames <- { routine; entry_sp = sp } :: t.frames

let on_ret t ~sp =
  match t.frames with
  | { entry_sp; _ } :: rest when entry_sp = sp -> t.frames <- rest
  | _ -> ()

let top t =
  match t.frames with [] -> None | f :: _ -> Some f.routine

(* The kernel an access is charged to, over routine ids with [-1] meaning
   "no routine"; allocation-free, for the per-access hot path. *)
let attribute_id t static =
  match t.policy with
  | Track_all -> static
  | Main_image_only ->
      if static >= 0 && t.main.(static) then static
      else (
        match t.frames with
        | [] -> -1
        | f :: _ -> f.routine.Tq_vm.Symtab.id)

let attribute t access s (ev : Tq_trace.Event.t) =
  match ev with
  | Load { icount; static; ea; size; sp } ->
      let k = attribute_id t static in
      if k >= 0 then access s k ~write:false ~icount ~sp ~ea ~size
  | Store { icount; static; ea; size; sp } ->
      let k = attribute_id t static in
      if k >= 0 then access s k ~write:true ~icount ~sp ~ea ~size
  | Block_copy { icount; static; src; dst; len; sp } ->
      let k = attribute_id t static in
      if k >= 0 then begin
        access s k ~write:false ~icount ~sp ~ea:src ~size:len;
        access s k ~write:true ~icount ~sp ~ea:dst ~size:len
      end
  | Rtn_entry { routine; sp; _ } ->
      on_entry t (Tq_vm.Symtab.by_id t.symtab routine) ~sp
  | Ret { sp; _ } ->
      (* emitted after the ret's own 8-byte stack read, which is therefore
         charged to the returning routine *)
      on_ret t ~sp
  | Prefetch _ | Block_exec _ | End _ -> ()

(* [attribute] over a plain chunk's columns (see [Tq_trace.Cols] for which
   column holds which field), with [attribute_record]'s prefetch hook.  The
   arrays are read once per chunk; [i < n] is within every column. *)
let attribute_plain t access prefetch s (c : Tq_trace.Cols.t) =
  let icount = c.icount and static = c.static and ea = c.ea in
  let size = c.size and sp = c.sp and dst = c.dst in
  for i = 0 to Tq_trace.Cols.length c - 1 do
    match Tq_trace.Cols.tag c i with
    | 2 (* load *) ->
        let k = attribute_id t static.(i) in
        if k >= 0 then
          access s k ~write:false ~icount:icount.(i) ~sp:sp.(i) ~ea:ea.(i)
            ~size:size.(i)
    | 3 (* store *) ->
        let k = attribute_id t static.(i) in
        if k >= 0 then
          access s k ~write:true ~icount:icount.(i) ~sp:sp.(i) ~ea:ea.(i)
            ~size:size.(i)
    | 4 (* block copy: the source read, then the destination write *) ->
        let k = attribute_id t static.(i) in
        if k >= 0 then begin
          let icount = icount.(i) and len = size.(i) and sp = sp.(i) in
          access s k ~write:false ~icount ~sp ~ea:ea.(i) ~size:len;
          access s k ~write:true ~icount ~sp ~ea:dst.(i) ~size:len
        end
    | 0 (* rtn_entry *) ->
        on_entry t (Tq_vm.Symtab.by_id t.symtab static.(i)) ~sp:sp.(i)
    | 1 (* ret *) -> on_ret t ~sp:sp.(i)
    | 5 (* prefetch *) -> prefetch s ~ea:ea.(i) ~size:size.(i)
    | _ (* block_exec, end *) -> ()
  done

(* [attribute] over the events [Squash.expand r] yields, without building
   them: the structure of body event [k] (constructor, [static], [size],
   [routine]) and its numeric fields of iteration [i], read from the
   walk's [vals] in {!Event.num_fields} order. *)
let attribute_record t access prefetch s (r : Tq_trace.Squash.repeat) =
  let foff, v = Tq_trace.Squash.fields r in
  let body = r.body in
  for i = 0 to r.iters - 1 do
    if i > 0 then Tq_trace.Squash.advance r v i;
    for k = 0 to Array.length body - 1 do
      let f = foff.(k) in
      match body.(k) with
      | Load { static; size; _ } ->
          let kn = attribute_id t static in
          if kn >= 0 then
            access s kn ~write:false ~icount:v.(f) ~sp:v.(f + 2)
              ~ea:v.(f + 1) ~size
      | Store { static; size; _ } ->
          let kn = attribute_id t static in
          if kn >= 0 then
            access s kn ~write:true ~icount:v.(f) ~sp:v.(f + 2)
              ~ea:v.(f + 1) ~size
      | Block_copy { static; _ } ->
          let kn = attribute_id t static in
          if kn >= 0 then begin
            let icount = v.(f) and len = v.(f + 3) and sp = v.(f + 4) in
            access s kn ~write:false ~icount ~sp ~ea:v.(f + 1) ~size:len;
            access s kn ~write:true ~icount ~sp ~ea:v.(f + 2) ~size:len
          end
      | Rtn_entry { routine; _ } ->
          on_entry t (Tq_vm.Symtab.by_id t.symtab routine) ~sp:v.(f + 1)
      | Ret _ -> on_ret t ~sp:v.(f + 1)
      | Prefetch { size; _ } -> prefetch s ~ea:v.(f + 1) ~size
      | Block_exec _ | End _ -> ()
    done
  done

let no_prefetch _ ~ea:_ ~size:_ = ()

(* A body is taken in closed form when it cannot move the stack (no
   [Rtn_entry]/[Ret], so every access keeps its kernel across iterations)
   and every field an access reads is affine, with a block copy's length
   constant.  [f] walks the body's fields in {!Event.num_fields} order. *)
let affine_body (r : Tq_trace.Squash.repeat) =
  let affine g = not r.literal.(g) in
  let ok = ref true and k = ref 0 and f = ref 0 in
  while !ok && !k < Array.length r.body do
    let ev = r.body.(!k) in
    let f0 = !f in
    (match ev with
    | Rtn_entry _ | Ret _ -> ok := false
    | Load _ | Store _ -> ok := affine f0 && affine (f0 + 1) && affine (f0 + 2)
    | Block_copy _ ->
        for g = f0 to f0 + 4 do
          if not (affine g) then ok := false
        done;
        if r.stride.(f0 + 3) <> 0 then ok := false
    | Prefetch _ | Block_exec _ | End _ -> ());
    f := f0 + Tq_trace.Event.num_fields ev;
    incr k
  done;
  !ok

(* A record off the closed form is walked in order, prefetches ignored as
   [attribute] ignores them. *)
let attribute_repeat t access run s (r : Tq_trace.Squash.repeat) =
  if not (affine_body r) then attribute_record t access no_prefetch s r
  else
    let st = r.stride and iters = r.iters in
    let f = ref 0 in
    Array.iter
      (fun (ev : Tq_trace.Event.t) ->
        let f0 = !f in
        (match ev with
        | Load { icount; static; ea; size; sp } ->
            let k = attribute_id t static in
            if k >= 0 then
              run s k ~write:false ~iters ~icount ~d_icount:st.(f0) ~sp
                ~d_sp:st.(f0 + 2) ~ea ~d_ea:st.(f0 + 1) ~size
        | Store { icount; static; ea; size; sp } ->
            let k = attribute_id t static in
            if k >= 0 then
              run s k ~write:true ~iters ~icount ~d_icount:st.(f0) ~sp
                ~d_sp:st.(f0 + 2) ~ea ~d_ea:st.(f0 + 1) ~size
        | Block_copy { icount; static; src; dst; len; sp } ->
            let k = attribute_id t static in
            if k >= 0 then begin
              run s k ~write:false ~iters ~icount ~d_icount:st.(f0) ~sp
                ~d_sp:st.(f0 + 4) ~ea:src ~d_ea:st.(f0 + 1) ~size:len;
              run s k ~write:true ~iters ~icount ~d_icount:st.(f0) ~sp
                ~d_sp:st.(f0 + 4) ~ea:dst ~d_ea:st.(f0 + 2) ~size:len
            end
        | Rtn_entry _ | Ret _ | Prefetch _ | Block_exec _ | End _ -> ());
        f := f0 + Tq_trace.Event.num_fields ev)
      r.body

let interest = Tq_trace.Event.[ KRtn_entry; KRet; KLoad; KStore; KBlock_copy ]

let moves_stack (r : Tq_trace.Squash.repeat) =
  Array.exists
    (function Tq_trace.Event.Rtn_entry _ | Ret _ -> true | _ -> false)
    r.body

let no_access () _ ~write:_ ~icount:_ ~sp:_ ~ea:_ ~size:_ = ()

let prefix symtab policy =
  let st = create symtab policy in
  let on_event (ev : Tq_trace.Event.t) =
    match ev with
    | Rtn_entry { routine; sp; _ } ->
        on_entry st (Tq_vm.Symtab.by_id symtab routine) ~sp
    | Ret { sp; _ } -> on_ret st ~sp
    | _ -> ()
  in
  (* a chunk without a call or return leaves the stack as it is *)
  let on_plain (c : Tq_trace.Cols.t) =
    if c.calls > 0 then
      for i = 0 to Tq_trace.Cols.length c - 1 do
        match Tq_trace.Cols.tag c i with
        | 0 (* rtn_entry *) ->
            on_entry st (Tq_vm.Symtab.by_id symtab c.static.(i)) ~sp:c.sp.(i)
        | 1 (* ret *) -> on_ret st ~sp:c.sp.(i)
        | _ -> ()
      done
  in
  (* a record that cannot move the stack leaves it as it is *)
  let on_repeat r =
    if moves_stack r then attribute_record st no_access no_prefetch () r
  in
  ({ Tq_trace.Replay.on_event; on_plain; on_repeat }, fun () -> copy st)

let shard policy_of ~seeded ~merge_into =
  Some
    {
      Tq_trace.Tool.prefix_wants = Tq_trace.Event.[ KRtn_entry; KRet ];
      prefix =
        (fun config prog ->
          prefix prog.Tq_vm.Program.symtab (policy_of config));
      seeded;
      merge_into;
    }

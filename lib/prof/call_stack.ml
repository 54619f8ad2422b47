type policy = Track_all | Main_image_only

type frame = { routine : Tq_vm.Symtab.routine; entry_sp : int }

type t = {
  policy : policy;
  mutable frames : frame list;
}

let create policy = { policy; frames = [] }
let copy t = { t with policy = t.policy }
let policy t = t.policy

let tracked t (r : Tq_vm.Symtab.routine) =
  match t.policy with Track_all -> true | Main_image_only -> r.is_main_image

let on_entry t routine ~sp =
  if tracked t routine then t.frames <- { routine; entry_sp = sp } :: t.frames

let on_ret t ~sp =
  match t.frames with
  | { entry_sp; _ } :: rest when entry_sp = sp -> t.frames <- rest
  | _ -> ()

let top t =
  match t.frames with [] -> None | f :: _ -> Some f.routine

let attribute_id t symtab static =
  match t.policy with
  | Track_all -> static
  | Main_image_only ->
      if static >= 0 && (Tq_vm.Symtab.by_id symtab static).is_main_image then
        static
      else (
        match t.frames with
        | [] -> -1
        | f :: _ -> f.routine.Tq_vm.Symtab.id)

let prefix symtab policy =
  let st = create policy in
  let sink (ev : Tq_trace.Event.t) =
    match ev with
    | Rtn_entry { routine; sp; _ } ->
        on_entry st (Tq_vm.Symtab.by_id symtab routine) ~sp
    | Ret { sp; _ } -> on_ret st ~sp
    | _ -> ()
  in
  (sink, fun () -> copy st)

type block = { id : int; first : int; last : int; succs : int list }

type loop = {
  header : int;
  body : bool array;
  blocks : int list;
  latches : int list;
  parent : int;
  depth : int;
}

type t = {
  code : Rcode.t;
  blocks : block array;
  block_of : int array;
  preds : int list array;
  reachable : bool array;
  idom : int array;
  loops : loop array;
  innermost : int array;
}

let ends_block (f : Rcode.flow) =
  match f with
  | Rcode.Jump _ | Branch _ | Jump_bad _ | Branch_bad _ | Dynamic_jump
  | Return | Stop ->
      true
  | Seq | Call_known _ | Call_sym _ | Call_bad _ | Dynamic_call -> false

(* does block [a] dominate block [b]? walk [b]'s idom chain *)
let dominated ~idom ~reachable a b =
  let rec up x = x = a || (x > 0 && up idom.(x)) in
  reachable.(b) && up b

let build (code : Rcode.t) =
  let n = Rcode.n code in
  if n = 0 then
    {
      code;
      blocks = [||];
      block_of = [||];
      preds = [||];
      reachable = [||];
      idom = [||];
      loops = [||];
      innermost = [||];
    }
  else begin
    (* leaders: entry, every control-flow target, every instruction after a
       block-ending one *)
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i f ->
        (match f with
        | Rcode.Jump t | Branch t -> leader.(t) <- true
        | _ -> ());
        if ends_block f && i + 1 < n then leader.(i + 1) <- true)
      code.Rcode.flow;
    let starts = ref [] in
    for i = n - 1 downto 0 do
      if leader.(i) then starts := i :: !starts
    done;
    let starts = Array.of_list !starts in
    let nb = Array.length starts in
    let block_of = Array.make n 0 in
    Array.iteri
      (fun b s ->
        let e = if b + 1 < nb then starts.(b + 1) - 1 else n - 1 in
        for i = s to e do
          block_of.(i) <- b
        done)
      starts;
    let blocks =
      Array.init nb (fun b ->
          let first = starts.(b) in
          let last = if b + 1 < nb then starts.(b + 1) - 1 else n - 1 in
          let succs =
            match code.Rcode.flow.(last) with
            | Rcode.Jump t -> [ block_of.(t) ]
            | Branch t ->
                let fall = if last + 1 < n then [ block_of.(last + 1) ] else [] in
                List.sort_uniq compare (block_of.(t) :: fall)
            | Branch_bad _ ->
                if last + 1 < n then [ block_of.(last + 1) ] else []
            | Jump_bad _ | Dynamic_jump | Return | Stop -> []
            | Seq | Call_known _ | Call_sym _ | Call_bad _ | Dynamic_call ->
                if last + 1 < n then [ block_of.(last + 1) ] else []
          in
          { id = b; first; last; succs })
    in
    let preds = Array.make nb [] in
    Array.iter
      (fun b -> List.iter (fun s -> preds.(s) <- b.id :: preds.(s)) b.succs)
      blocks;
    Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
    (* reachability from the entry block *)
    let reachable = Array.make nb false in
    let rec dfs b =
      if not reachable.(b) then begin
        reachable.(b) <- true;
        List.iter dfs blocks.(b).succs
      end
    in
    dfs 0;
    (* reverse postorder over reachable blocks *)
    let rpo = ref [] in
    let seen = Array.make nb false in
    let rec post b =
      if not seen.(b) then begin
        seen.(b) <- true;
        List.iter post blocks.(b).succs;
        rpo := b :: !rpo
      end
    in
    post 0;
    let rpo = Array.of_list !rpo in
    let rpo_index = Array.make nb (-1) in
    Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
    (* iterative dominators (Cooper-Harvey-Kennedy) *)
    let idom = Array.make nb (-1) in
    idom.(0) <- 0;
    let rec intersect a b =
      if a = b then a
      else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> 0 then begin
            let new_idom =
              List.fold_left
                (fun acc p ->
                  if (not reachable.(p)) || idom.(p) = -1 then acc
                  else match acc with None -> Some p | Some a -> Some (intersect a p))
                None preds.(b)
            in
            match new_idom with
            | Some d when idom.(b) <> d ->
                idom.(b) <- d;
                changed := true
            | _ -> ()
          end)
        rpo
    done;
    idom.(0) <- -1;
    let dom = dominated ~idom ~reachable in
    (* back edges u -> h (h dominates u), grouped by header *)
    let latches = Array.make nb [] in
    for u = nb - 1 downto 0 do
      if reachable.(u) then
        List.iter
          (fun h -> if dom h u then latches.(h) <- u :: latches.(h))
          blocks.(u).succs
    done;
    (* natural loop of header h: h plus the reachable predecessor closure of
       its latches that does not pass through h *)
    let loops =
      List.init nb Fun.id
      |> List.filter (fun h -> latches.(h) <> [])
      |> List.map (fun h ->
             let body = Array.make nb false in
             body.(h) <- true;
             let rec pull u =
               if not body.(u) then begin
                 body.(u) <- true;
                 List.iter (fun p -> if reachable.(p) then pull p) preds.(u)
               end
             in
             List.iter pull latches.(h);
             let blocks = List.filter (fun b -> body.(b)) (List.init nb Fun.id) in
             { header = h; body; blocks; latches = latches.(h); parent = -1; depth = 1 })
      |> Array.of_list
    in
    (* nest: visit loops outermost-first (a loop is strictly larger than any
       loop nested in it); the parent of a loop is whichever loop last
       claimed its header *)
    let innermost = Array.make nb (-1) in
    let size i = List.length loops.(i).blocks in
    List.init (Array.length loops) Fun.id
    |> List.stable_sort (fun i j -> compare (size j) (size i))
    |> List.iter (fun i ->
           let l = loops.(i) in
           let parent = innermost.(l.header) in
           let depth = if parent < 0 then 1 else loops.(parent).depth + 1 in
           loops.(i) <- { l with parent; depth };
           List.iter (fun b -> innermost.(b) <- i) l.blocks);
    { code; blocks; block_of; preds; reachable; idom; loops; innermost }
  end

let n_blocks t = Array.length t.blocks

let dominates t = dominated ~idom:t.idom ~reachable:t.reachable

let forward t ~entry ~join ~equal ~transfer =
  let nb = n_blocks t in
  let in_ = Array.make nb None and out = Array.make nb None in
  let dirty = Array.init nb (fun b -> b = 0) in
  let pending = ref true in
  while !pending do
    pending := false;
    for b = 0 to nb - 1 do
      if dirty.(b) then begin
        dirty.(b) <- false;
        (* the old in-state joined with every reached predecessor's out:
           in-states only rise *)
        let init = match in_.(b) with None when b = 0 -> Some entry | o -> o in
        let st =
          List.fold_left
            (fun acc p ->
              match (acc, out.(p)) with
              | acc, None -> acc
              | None, s -> s
              | Some a, Some s -> Some (join a s))
            init t.preds.(b)
        in
        match (in_.(b), st) with
        | Some old, Some st when equal old st -> ()
        | _, None -> ()
        | _, Some st ->
            in_.(b) <- Some st;
            out.(b) <- Some (transfer t.blocks.(b) st);
            List.iter
              (fun s ->
                dirty.(s) <- true;
                pending := true)
              t.blocks.(b).succs
      end
    done
  done;
  in_

let backward t ~exit ~join ~equal ~transfer =
  let nb = n_blocks t in
  let out = Array.make nb exit and in_ = Array.make nb None in
  let dirty = Array.copy t.reachable in
  let pending = ref true in
  while !pending do
    pending := false;
    for b = nb - 1 downto 0 do
      if dirty.(b) then begin
        dirty.(b) <- false;
        let st =
          List.fold_left
            (fun acc s -> match in_.(s) with None -> acc | Some x -> join acc x)
            out.(b) t.blocks.(b).succs
        in
        if Option.is_none in_.(b) || not (equal out.(b) st) then begin
          out.(b) <- st;
          in_.(b) <- Some (transfer t.blocks.(b) st);
          List.iter
            (fun p ->
              if t.reachable.(p) then begin
                dirty.(p) <- true;
                pending := true
              end)
            t.preds.(b)
        end
      end
    done
  done;
  out

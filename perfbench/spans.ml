(* In-memory spans around the benchmark's own calls into the libraries.

   A span is a name, a start, an end and the span that was open on the same
   thread when it started (its parent; 0 for a root).  Spans stay in memory
   and are written once, when the run ends.  While [enabled] is false,
   [with_] is the wrapped call and nothing else. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let enabled = ref false
let lock = Mutex.create ()
let closed = ref []
let next_id = ref 0

(* open span ids per thread, innermost first *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

(* named samples that are not durations: counts, ratios, per-round deltas *)
let notes : (string, float list) Hashtbl.t = Hashtbl.create 64

let with_ name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      Mutex.protect lock (fun () ->
          incr next_id;
          let stack =
            Option.value (Hashtbl.find_opt stacks tid) ~default:[]
          in
          Hashtbl.replace stacks tid (!next_id :: stack);
          (!next_id, match stack with p :: _ -> p | [] -> 0))
    in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        Mutex.protect lock (fun () ->
            (match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ());
            closed := { id; parent; name; start; stop } :: !closed))
  end

let note name v =
  if !enabled then
    Mutex.protect lock (fun () ->
        let l = Option.value (Hashtbl.find_opt notes name) ~default:[] in
        Hashtbl.replace notes name (v :: l))

let durations name =
  Mutex.protect lock (fun () ->
      List.filter_map
        (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
        !closed)

let noted name =
  Mutex.protect lock (fun () ->
      Option.value (Hashtbl.find_opt notes name) ~default:[])

let to_json () =
  let module J = Tq_obs.Json in
  let spans = List.sort (fun a b -> compare a.id b.id) !closed in
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  J.Obj
    [ ( "spans",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [ ("id", J.Int s.id);
                   ("parent", J.Int s.parent);
                   ("name", J.Str s.name);
                   ("start_s", J.Float (s.start -. t0));
                   ("end_s", J.Float (s.stop -. t0)) ])
             spans) );
      ( "notes",
        J.Obj
          (Hashtbl.fold
             (fun k v acc -> (k, J.List (List.rev_map (fun x -> J.Float x) v)) :: acc)
             notes []
          |> List.sort compare) ) ]

type ('config, 'seed, 't) shard = {
  prefix_wants : Event.kind list;
  prefix : 'config -> Tq_vm.Program.t -> Replay.sink * (unit -> 'seed);
  seeded : 'config -> Tq_vm.Program.t -> 'seed -> 't;
  merge_into : 't -> 't -> unit;
}

module type S = sig
  type t
  type config
  type seed

  val interest : Event.kind list
  val consume : t -> Event.t -> unit
  val consume_plain : t -> Cols.t -> unit
  val consume_repeat : t -> Squash.repeat -> unit
  val create : config -> Tq_vm.Program.t -> t
  val shard : (config, seed, t) shard option
end

let job (type c t) (module T : S with type config = c and type t = t) name
    (config : c) prog ~render =
  let sink t =
    {
      Replay.on_event = T.consume t;
      on_plain = T.consume_plain t;
      on_repeat = T.consume_repeat t;
    }
  in
  let sharded =
    Option.map
      (fun sh ->
        Replay.Sharded
          {
            prefix_wants = sh.prefix_wants;
            prefix = (fun () -> sh.prefix config prog);
            shard =
              (fun seed ->
                let t = sh.seeded config prog seed in
                (sink t, fun () -> t));
            merge = sh.merge_into;
            render;
          })
      T.shard
  in
  {
    Replay.name;
    wants = T.interest;
    sharded;
    make =
      (fun () ->
        let t = T.create config prog in
        (sink t, fun () -> render t));
  }

let attach ?claim ~wants create consume engine =
  let t = create (Tq_vm.Machine.program (Tq_dbi.Engine.machine engine)) in
  Probe.attach ~wants ?claim:(Option.map (fun f -> f t) claim) engine
    (consume t);
  t

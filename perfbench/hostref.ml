(* The host reference: a fixed amount of work that uses none of the
   repository's code, timed beside every round and set-up.

   The VM this benchmark was tuned on changes speed for minutes at a time:
   whole runs of wfs-live took 0.54 s or 0.80 s per round.  A tight
   arithmetic loop does not follow these changes (its per-run medians
   moved against the rounds, correlation -0.92).  Two kinds of work do:
   a small register-machine interpreter (branchy dispatch and dependent
   loads, as in the simulated VM, the replay decoders and the tools) and
   short-lived allocation (a hash table and a list, as the event path and
   the reports allocate).  A sample runs both.  The benchmark reports its
   times rescaled by [nominal_s /. median sample], that is, in seconds of
   a host on which one sample takes [nominal_s].  The dune file compiles
   this module with fixed flags, so that a change to the build flags of
   the code under test cannot move the reference. *)

type ins =
  | Li of int * int  (** r.(d) <- v *)
  | Ld of int * int  (** r.(d) <- mem.(r.(a)) *)
  | St of int * int  (** mem.(r.(a)) <- r.(s) *)
  | Add of int * int * int
  | Mul of int * int * int
  | And of int * int * int
  | Dec of int
  | Jnz of int * int  (** if r.(c) <> 0 then jump *)

(* an LCG walking a 64K-word memory, read-modify-write at each step *)
let program =
  [| Li (0, 1_000_000); Li (1, 1); Li (2, 65535); Li (5, 1103515245); Li (6, 12345);
     Mul (1, 1, 5); Add (1, 1, 6); And (3, 1, 2); Ld (4, 3); Add (4, 4, 0);
     St (3, 4); Dec 0; Jnz (0, 5) |]

let mem = Array.make 65536 0

let interpret () =
  let r = Array.make 8 0 in
  let pc = ref 0 in
  let n = Array.length program in
  while !pc < n do
    match program.(!pc) with
    | Li (d, v) -> r.(d) <- v; incr pc
    | Ld (d, a) -> r.(d) <- mem.(r.(a)); incr pc
    | St (a, s) -> mem.(r.(a)) <- r.(s); incr pc
    | Add (d, a, b) -> r.(d) <- r.(a) + r.(b); incr pc
    | Mul (d, a, b) -> r.(d) <- r.(a) * r.(b) land 0x3fffffff; incr pc
    | And (d, a, b) -> r.(d) <- r.(a) land r.(b); incr pc
    | Dec d -> r.(d) <- r.(d) - 1; incr pc
    | Jnz (c, t) -> if r.(c) <> 0 then pc := t else incr pc
  done;
  r.(1)

(* a table of 60k keys, each bound to a fresh one-element list, and a
   list of 100k pairs with a fresh string each, reversed *)
let allocate () =
  let h = Hashtbl.create 16 in
  for i = 0 to 60_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) [ float_of_int i ]
  done;
  let l = List.init 100_000 (fun i -> (i, string_of_int i)) in
  Hashtbl.length h + List.length (List.rev l)

(* one sample's time on the host the reported times are expressed in *)
let nominal_s = 0.05

let samples = ref []

(* Time one run of both and keep the sample. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (interpret ()));
  ignore (Sys.opaque_identity (allocate ()));
  let dt = Unix.gettimeofday () -. t0 in
  samples := dt :: !samples;
  dt

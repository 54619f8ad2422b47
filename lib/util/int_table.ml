include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Fibonacci multiply, then fold the high half down: [Hashtbl] indexes
     its buckets with the low bits of the hash, and the low bits of a
     product depend only on the low bits of the key.  Packed keys differ in
     their high bits (a producer id sits above bit 20), so those must reach
     the bucket index too. *)
  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

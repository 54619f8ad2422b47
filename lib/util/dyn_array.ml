type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) ~dummy () =
  let capacity = max 1 capacity in
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let grow_to t n =
  if n > Array.length t.data then begin
    let cap = ref (max 8 (Array.length t.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  grow_to t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Dyn_array: index %d out of bounds [0,%d)" i t.len)

let get t i =
  check t i;
  t.data.(i)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len

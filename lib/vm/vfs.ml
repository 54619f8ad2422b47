type file = { mutable data : Bytes.t; mutable size : int }

type t = { files : (string, file) Hashtbl.t }

type fd = { file : file; mutable pos : int; writable : bool; path : string }

let create () = { files = Hashtbl.create 16 }

let install t path contents =
  Hashtbl.replace t.files path
    { data = Bytes.of_string contents; size = String.length contents }

let contents t path =
  Hashtbl.find_opt t.files path
  |> Option.map (fun f -> Bytes.sub_string f.data 0 f.size)

let list t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort compare

let openf t path ~writable =
  if writable then begin
    let file = { data = Bytes.make 256 '\000'; size = 0 } in
    Hashtbl.replace t.files path file;
    Ok { file; pos = 0; writable; path }
  end
  else
    match Hashtbl.find_opt t.files path with
    | None -> Error (Printf.sprintf "no such file: %s" path)
    | Some file -> Ok { file; pos = 0; writable; path }

let max_file_size = 64 * 1024 * 1024

let read fd len =
  (* at or past the end of the file (a seek may leave the position there)
     there is nothing to read *)
  let n = min len (fd.file.size - fd.pos) in
  if n <= 0 then Bytes.empty
  else begin
    let out = Bytes.sub fd.file.data fd.pos n in
    fd.pos <- fd.pos + n;
    out
  end

let ensure_capacity file n =
  if n > Bytes.length file.data then begin
    let cap = ref (max 256 (Bytes.length file.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Bytes.make !cap '\000' in
    Bytes.blit file.data 0 data 0 file.size;
    file.data <- data
  end

let write fd buf =
  let len = Bytes.length buf in
  if not fd.writable then Ok 0
  else if len > max_file_size - fd.pos then
    Error
      (Printf.sprintf "write of %d bytes at %d passes the %d-byte file budget"
         len fd.pos max_file_size)
  else begin
    ensure_capacity fd.file (fd.pos + len);
    Bytes.blit buf 0 fd.file.data fd.pos len;
    fd.pos <- fd.pos + len;
    if fd.pos > fd.file.size then fd.file.size <- fd.pos;
    Ok len
  end

let seek fd pos =
  if pos < 0 || pos > max_file_size then
    Error
      (Printf.sprintf "seek to %d outside the %d-byte file budget" pos
         max_file_size)
  else Ok (fd.pos <- pos)

let fd_size fd = fd.file.size
let close _t _fd = ()

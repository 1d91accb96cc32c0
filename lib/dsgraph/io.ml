let to_edge_list g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# n %d\n" (Graph.n g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let of_edge_list text =
  let n = ref (-1) in
  let edges = ref [] in
  let max_node = ref (-1) in
  String.split_on_char '\n' text
  |> List.iteri (fun lineno line ->
         let line = String.trim line in
         if line = "" then ()
         else if String.length line >= 1 && line.[0] = '#' then begin
           (* header: "# n <count>" *)
           match String.split_on_char ' ' line with
           | [ "#"; "n"; count ] -> (
               match int_of_string_opt count with
               | Some c -> n := c
               | None ->
                   invalid_arg
                     (Printf.sprintf "Io.of_edge_list: bad header line %d"
                        (lineno + 1)))
           | _ -> ()
         end
         else
           match
             line |> String.split_on_char ' '
             |> List.filter (fun s -> s <> "")
             |> List.map int_of_string_opt
           with
           | [ Some u; Some v ] ->
               edges := (u, v) :: !edges;
               if u > !max_node then max_node := u;
               if v > !max_node then max_node := v
           | _ ->
               invalid_arg
                 (Printf.sprintf "Io.of_edge_list: malformed line %d: %S"
                    (lineno + 1) line));
  let n = if !n >= 0 then !n else !max_node + 1 in
  Graph.of_edge_seq ~n (List.to_seq (List.rev !edges))

let save path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_edge_list g))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len |> of_edge_list)

(* ------------------------------------------------------------------ *)
(* Binary CSR format                                                   *)
(* ------------------------------------------------------------------ *)

(* A 64-byte header of eight native-endian 64-bit words, then the two CSR
   buffers verbatim: [n+1] offset words followed by [2m] target words.

     word 0   magic "DSGCSR01" (eight ASCII bytes)
     word 1   endianness marker 0x0123456789ABCDEF (native order)
     word 2   format version (currently 1)
     word 3   n
     word 4   m
     word 5   checksum over the payload words (62-bit splitmix fold)
     words 6-7  reserved, zero

   Because the payload is exactly the in-memory representation, loading
   is two [Unix.map_file] slices over one mapping: O(1) regardless of
   graph size, no parsing, pages faulted in on first touch. A file
   written on a platform with the other byte order fails the marker
   check rather than decoding garbage. *)

let csr_magic = "DSGCSR01"
let csr_version = 1L
let csr_endian_marker = 0x0123456789ABCDEFL
let csr_header_bytes = 64

let checksum_mix h x =
  let h = h lxor x in
  let h = h * 0x2545F4914F6CDD1 in
  h lxor (h lsr 29)

let checksum_csr ~n ~m (offsets : Graph.int_array1)
    (targets : Graph.int_array1) =
  let h = ref (checksum_mix 0 ((n lsl 20) lxor m)) in
  for i = 0 to n do
    h := checksum_mix !h offsets.{i}
  done;
  for i = 0 to (2 * m) - 1 do
    h := checksum_mix !h targets.{i}
  done;
  !h land 0x3FFF_FFFF_FFFF_FFFF

let map_words fd ~shared words =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int csr_header_bytes) Bigarray.int
       Bigarray.c_layout shared [| words |])

let really_read fd buf len =
  let got = ref 0 in
  let eof = ref false in
  while !got < len && not !eof do
    let r = Unix.read fd buf !got (len - !got) in
    if r = 0 then eof := true else got := !got + r
  done;
  !got

let save_csr path g =
  let n = Graph.n g and m = Graph.m g in
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let words = n + 1 + (2 * m) in
  let header = Bytes.make csr_header_bytes '\000' in
  Bytes.blit_string csr_magic 0 header 0 8;
  Bytes.set_int64_ne header 8 csr_endian_marker;
  Bytes.set_int64_ne header 16 csr_version;
  Bytes.set_int64_ne header 24 (Int64.of_int n);
  Bytes.set_int64_ne header 32 (Int64.of_int m);
  Bytes.set_int64_ne header 40
    (Int64.of_int (checksum_csr ~n ~m offsets targets));
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let wrote = Unix.write fd header 0 csr_header_bytes in
      if wrote <> csr_header_bytes then
        failwith "Io.save_csr: short header write";
      let map = map_words fd ~shared:true words in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub offsets 0 (n + 1))
        (Bigarray.Array1.sub map 0 (n + 1));
      if m > 0 then
        Bigarray.Array1.blit
          (Bigarray.Array1.sub targets 0 (2 * m))
          (Bigarray.Array1.sub map (n + 1) (2 * m)))

let load_csr ?(verify = false) path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < csr_header_bytes then
        invalid_arg "Io.load_csr: truncated header";
      let header = Bytes.make csr_header_bytes '\000' in
      if really_read fd header csr_header_bytes <> csr_header_bytes then
        invalid_arg "Io.load_csr: truncated header";
      if Bytes.sub_string header 0 8 <> csr_magic then
        invalid_arg "Io.load_csr: bad magic (not a CSR graph file)";
      if Bytes.get_int64_ne header 8 <> csr_endian_marker then
        invalid_arg "Io.load_csr: endianness mismatch";
      let version = Bytes.get_int64_ne header 16 in
      if version <> csr_version then
        invalid_arg
          (Printf.sprintf "Io.load_csr: unsupported version %Ld" version);
      let n64 = Bytes.get_int64_ne header 24
      and m64 = Bytes.get_int64_ne header 32 in
      if n64 < 0L || m64 < 0L then invalid_arg "Io.load_csr: negative sizes";
      (* bound both before any arithmetic: an unchecked [m] near 2^59
         wraps the byte count below to a small, plausible file size *)
      if n64 > Int64.shift_left 1L 31 then
        invalid_arg
          (Printf.sprintf "Io.load_csr: n = %Ld exceeds the 2^31 node limit"
             n64);
      let n = Int64.to_int n64 in
      let max_m = (((max_int - csr_header_bytes) / 8) - (n + 1)) / 2 in
      if m64 > Int64.of_int max_m then
        invalid_arg
          (Printf.sprintf
             "Io.load_csr: m = %Ld overflows the payload byte count" m64);
      let m = Int64.to_int m64 in
      let words = n + 1 + (2 * m) in
      let expected = csr_header_bytes + (8 * words) in
      if size <> expected then
        invalid_arg
          (Printf.sprintf "Io.load_csr: truncated file (expected %d bytes, \
                           found %d)"
             expected size);
      let map = map_words fd ~shared:false words in
      let offsets = Bigarray.Array1.sub map 0 (n + 1) in
      let targets = Bigarray.Array1.sub map (n + 1) (2 * m) in
      if verify then begin
        let stored = Int64.to_int (Bytes.get_int64_ne header 40) in
        if checksum_csr ~n ~m offsets targets <> stored then
          invalid_arg "Io.load_csr: checksum mismatch"
      end;
      let g = Graph.of_csr_unchecked ~n ~m ~offsets ~targets in
      (if verify then
         match Graph.validate g with
         | Ok () -> ()
         | Error msg -> invalid_arg ("Io.load_csr: " ^ msg));
      g)

let palette =
  [|
    "#a6cee3"; "#1f78b4"; "#b2df8a"; "#33a02c"; "#fb9a99"; "#e31a1c";
    "#fdbf6f"; "#ff7f00"; "#cab2d6"; "#6a3d9a"; "#ffff99"; "#b15928";
  |]
[@@domain_unsafe
  "module-level color table for dot output; written nowhere after module \
   init, read-only sharing is safe"]

let to_dot ?cluster_of g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph g {\n  node [style=filled];\n";
  List.iter
    (fun v ->
      let color =
        match cluster_of with
        | None -> "#ffffff"
        | Some f ->
            let c = f v in
            if c < 0 then "#ffffff"
            else palette.(c mod Array.length palette)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d [fillcolor=\"%s\"];\n" v color))
    (Graph.nodes g);
  Graph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

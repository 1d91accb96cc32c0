(* Tests for the binary CSR on-disk format (Io.save_csr / Io.load_csr):
   qcheck round-trips, header validation (magic / endianness / version),
   truncation errors, checksum verification, and byte-identical files
   from seeded large-scale generators. *)

open Dsgraph

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let with_tmp f =
  let path = Filename.temp_file "csr_test" ".dsg" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* byte-level header/payload tampering for the rejection tests *)
let patch path ~pos bytes =
  let s = Bytes.of_string (read_file path) in
  Bytes.blit_string bytes 0 s pos (String.length bytes);
  write_file path (Bytes.to_string s)

let save_star path =
  let g = Gen.star 5 in
  Io.save_csr path g;
  g

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_basic () =
  with_tmp (fun path ->
      let g = Gen.grid 7 9 in
      Io.save_csr path g;
      let g' = Io.load_csr path in
      check bool "equal" true (Graph.equal g g');
      let g'' = Io.load_csr ~verify:true path in
      check bool "equal under verify" true (Graph.equal g g''))

let test_roundtrip_empty () =
  with_tmp (fun path ->
      let g = Graph.of_edge_seq ~n:0 Seq.empty in
      Io.save_csr path g;
      check int "n" 0 (Graph.n (Io.load_csr ~verify:true path)));
  with_tmp (fun path ->
      let g = Graph.of_edge_seq ~n:6 Seq.empty in
      Io.save_csr path g;
      let g' = Io.load_csr ~verify:true path in
      check int "isolated nodes survive" 6 (Graph.n g');
      check int "no edges" 0 (Graph.m g'))

let prop_roundtrip =
  QCheck.Test.make ~name:"save_csr/load_csr is the identity" ~count:80
    (QCheck.make
       ~print:(fun (seed, n, pct) ->
         Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
       QCheck.Gen.(triple (int_bound 100_000) (int_range 1 60) (int_range 0 50)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      with_tmp (fun path ->
          Io.save_csr path g;
          Graph.equal g (Io.load_csr ~verify:true path)))

(* ------------------------------------------------------------------ *)
(* Header and payload rejection                                        *)
(* ------------------------------------------------------------------ *)

let test_rejects_bad_magic () =
  with_tmp (fun path ->
      ignore (save_star path);
      patch path ~pos:0 "NOTAGRPH";
      Alcotest.check_raises "magic"
        (Invalid_argument "Io.load_csr: bad magic (not a CSR graph file)")
        (fun () -> ignore (Io.load_csr path)))

let test_rejects_foreign_endianness () =
  with_tmp (fun path ->
      ignore (save_star path);
      (* byte-swap the endian marker: what the same file would look like
         to a reader of the opposite endianness *)
      let s = read_file path in
      let swapped = String.init 8 (fun i -> s.[8 + (7 - i)]) in
      patch path ~pos:8 swapped;
      Alcotest.check_raises "endianness"
        (Invalid_argument "Io.load_csr: endianness mismatch") (fun () ->
          ignore (Io.load_csr path)))

let test_rejects_unknown_version () =
  with_tmp (fun path ->
      ignore (save_star path);
      let v2 = Bytes.create 8 in
      Bytes.set_int64_ne v2 0 2L;
      patch path ~pos:16 (Bytes.to_string v2);
      Alcotest.check_raises "version"
        (Invalid_argument "Io.load_csr: unsupported version 2") (fun () ->
          ignore (Io.load_csr path)))

let test_rejects_truncated_header () =
  with_tmp (fun path ->
      ignore (save_star path);
      let s = read_file path in
      write_file path (String.sub s 0 10);
      Alcotest.check_raises "header"
        (Invalid_argument "Io.load_csr: truncated header") (fun () ->
          ignore (Io.load_csr path)))

let test_rejects_truncated_payload () =
  with_tmp (fun path ->
      let g = save_star path in
      let words = Graph.n g + 1 + (2 * Graph.m g) in
      let expected = 64 + (8 * words) in
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s - 8));
      Alcotest.check_raises "payload"
        (Invalid_argument
           (Printf.sprintf
              "Io.load_csr: truncated file (expected %d bytes, found %d)"
              expected (expected - 8)))
        (fun () -> ignore (Io.load_csr path)))

let test_checksum_catches_bit_rot () =
  with_tmp (fun path ->
      ignore (save_star path);
      (* flip a word in the targets payload, past the offsets block *)
      let s = read_file path in
      let pos = String.length s - 8 in
      let corrupt = Bytes.create 8 in
      Bytes.set_int64_ne corrupt 0 0x7FL;
      patch path ~pos (Bytes.to_string corrupt);
      Alcotest.check_raises "checksum"
        (Invalid_argument "Io.load_csr: checksum mismatch") (fun () ->
          ignore (Io.load_csr ~verify:true path)))

(* A 72-byte file whose header claims m = 2^59: 8 * (n + 1 + 2m) wraps
   to 8, so an unbounded size check sees exactly the bytes it expects
   and the load dies inside map_file instead of naming the bad header. *)
let header_claiming ~n ~m =
  let h = Bytes.make 64 '\000' in
  Bytes.blit_string "DSGCSR01" 0 h 0 8;
  Bytes.set_int64_ne h 8 0x0123456789ABCDEFL;
  Bytes.set_int64_ne h 16 1L;
  Bytes.set_int64_ne h 24 n;
  Bytes.set_int64_ne h 32 m;
  Bytes.to_string h

let test_rejects_wrapping_sizes () =
  with_tmp (fun path ->
      write_file path (header_claiming ~n:0L ~m:(Int64.shift_left 1L 59)
                       ^ String.make 8 '\000');
      Alcotest.check_raises "m = 2^59"
        (Invalid_argument
           "Io.load_csr: m = 576460752303423488 overflows the payload byte \
            count") (fun () -> ignore (Io.load_csr path)));
  with_tmp (fun path ->
      write_file path (header_claiming ~n:(Int64.of_int ((1 lsl 31) + 1)) ~m:0L);
      Alcotest.check_raises "n = 2^31 + 1"
        (Invalid_argument
           "Io.load_csr: n = 2147483649 exceeds the 2^31 node limit")
        (fun () -> ignore (Io.load_csr path)));
  with_tmp (fun path ->
      write_file path (header_claiming ~n:Int64.min_int ~m:0L);
      Alcotest.check_raises "n = -2^63"
        (Invalid_argument "Io.load_csr: negative sizes") (fun () ->
          ignore (Io.load_csr path)))

(* ------------------------------------------------------------------ *)
(* Every generator family, pinned to its CSR checksum                   *)
(* ------------------------------------------------------------------ *)

(* The checksums were taken from the boxed splitmix64 generator before
   its draws went allocation-free; a change to any of them means a
   generator, the Rng stream or the CSR build changed its output. *)
let pinned_families : (string * (Rng.t -> Graph.t) * int * int) list =
  [
    ("path", (fun _ -> Gen.path 50), 964466958884967185, 964466958884967185);
    ("cycle", (fun _ -> Gen.cycle 50), 1049845319147116782, 1049845319147116782);
    ("complete", (fun _ -> Gen.complete 12), 3994194945695597402, 3994194945695597402);
    ("star", (fun _ -> Gen.star 20), 4097908371876809039, 4097908371876809039);
    ("grid", (fun _ -> Gen.grid 9 7), 2230399973135219973, 2230399973135219973);
    ("torus", (fun _ -> Gen.torus 6 5), 3304445357540518988, 3304445357540518988);
    ("binary_tree", (fun _ -> Gen.binary_tree 40), 1860977089369532426, 1860977089369532426);
    ("random_tree", (fun r -> Gen.random_tree r 200), 1855804046589675517, 3766897843748027776);
    ("hypercube", (fun _ -> Gen.hypercube 5), 356787091162292581, 356787091162292581);
    ("erdos_renyi", (fun r -> Gen.erdos_renyi r 120 0.05), 3250154662440329563, 1806625434079045910);
    ("random_regular", (fun r -> Gen.random_regular r 60 4), 4553741347016580665, 3628190704059370841);
    ("random_regular_odd", (fun r -> Gen.random_regular r 31 4), 2580235663209244836, 1447782825819520948);
    ("expander", (fun r -> Gen.expander r 64), 3138201767361524459, 1318262928215259980);
    ("subdivide", (fun r -> Gen.subdivide (Gen.expander r 16) 3), 118244109456075704, 4114265322806470846);
    ("ring_of_cliques", (fun _ -> Gen.ring_of_cliques 5 4), 2002844458249052404, 2002844458249052404);
    ("barbell", (fun _ -> Gen.barbell 5 6), 4363383065666538414, 4363383065666538414);
    ("caterpillar", (fun r -> Gen.caterpillar r 30 40), 2152273379406759292, 4444816657607870715);
    ("lollipop", (fun _ -> Gen.lollipop 6 9), 217717414650009081, 217717414650009081);
    ("barabasi_albert", (fun r -> Gen.barabasi_albert r 200 3), 1312863961506930996, 858568978347765687);
    ("planted_partition", (fun r -> Gen.planted_partition r 4 25 0.3 0.02), 3020072267468312044, 2103769192569576678);
    ("disjoint_union", (fun r -> Gen.disjoint_union (Gen.random_tree r 20) (Gen.cycle 9)), 2307496257463688158, 4033942023738343765);
    ("ensure_connected", (fun r -> Gen.ensure_connected r (Gen.erdos_renyi r 80 0.015)), 3815358458897807093, 1347082520221371277);
    ("rmat", (fun r -> Gen.rmat r ~n:1024 ~m:8000), 2194619409897743669, 221182986252983828);
    ("rmat_skewed", (fun r -> Gen.rmat ~a:0.45 ~b:0.25 ~c:0.0 r ~n:256 ~m:3000), 4357332169060830461, 714332751634198489);
    ("power_law", (fun r -> Gen.power_law r ~n:1000 ~m:5000), 2764246840659994659, 3576833055670452758);
    ("pref_attach", (fun r -> Gen.pref_attach r ~n:1000 ~k:3), 1963369401100471318, 2130353627874329174);
  ]

let checksum g =
  Io.checksum_csr ~n:(Graph.n g) ~m:(Graph.m g) (Graph.offsets g)
    (Graph.targets g)

let test_families_pinned () =
  List.iter
    (fun (name, gen, at1, at2) ->
      check int (name ^ ", seed 1") at1 (checksum (gen (Rng.create 1)));
      check int (name ^ ", seed 2") at2 (checksum (gen (Rng.create 2))))
    pinned_families

(* ------------------------------------------------------------------ *)
(* Large-scale generators: determinism down to the file bytes          *)
(* ------------------------------------------------------------------ *)

let save_generated path gen seed =
  let rng = Rng.create seed in
  Io.save_csr path (gen rng)

let bytes_identical gen seed =
  with_tmp (fun p1 ->
      with_tmp (fun p2 ->
          save_generated p1 gen seed;
          save_generated p2 gen seed;
          read_file p1 = read_file p2))

let test_rmat_deterministic () =
  let gen rng = Gen.rmat rng ~n:131_072 ~m:400_000 in
  check bool "same seed, same bytes" true (bytes_identical gen 42);
  with_tmp (fun p1 ->
      with_tmp (fun p2 ->
          save_generated p1 gen 42;
          save_generated p2 gen 43;
          check bool "different seed, different bytes" false
            (read_file p1 = read_file p2)))

let test_power_law_deterministic () =
  let gen rng = Gen.power_law rng ~n:100_000 ~m:300_000 in
  check bool "same seed, same bytes" true (bytes_identical gen 7)

let test_pref_attach_deterministic () =
  let gen rng = Gen.pref_attach rng ~n:100_000 ~k:3 in
  check bool "same seed, same bytes" true (bytes_identical gen 7)

let test_rmat_shape () =
  let rng = Rng.create 5 in
  let g = Gen.rmat rng ~n:1024 ~m:4096 in
  check int "n" 1024 (Graph.n g);
  (* m samples minus self-loops and duplicates *)
  check bool "m close to requested" true
    (Graph.m g > 3_000 && Graph.m g <= 4096);
  Alcotest.check_raises "power of two"
    (Invalid_argument "Gen.rmat: n must be a power of two >= 2") (fun () ->
      ignore (Gen.rmat rng ~n:1000 ~m:10))

let test_power_law_shape () =
  let rng = Rng.create 5 in
  let g = Gen.power_law rng ~n:2_000 ~m:8_000 in
  check int "n" 2_000 (Graph.n g);
  check bool "m close to requested" true
    (Graph.m g > 6_000 && Graph.m g <= 8_000)

let test_pref_attach_shape () =
  let rng = Rng.create 5 in
  let g = Gen.pref_attach rng ~n:3_000 ~k:4 in
  check int "n" 3_000 (Graph.n g);
  (* every non-seed node brings k (possibly duplicated) edges *)
  check bool "m lower bound" true (Graph.m g >= 3_000);
  check bool "connected" true
    (Array.for_all (fun d -> d >= 0) (Bfs.distances g ~source:0))

(* Two minimized files that loaded silently while [~verify] refolded
   only the checksum: 4x4 grids whose node 0 row, [1; 4], became [1; 21]
   (21 >= n = 16) and [1; 5] (node 5 does not list 0), each with its
   checksum refolded. The plain load stays O(1) and takes them. *)
let test_rejects_bad_structure () =
  List.iter
    (fun (file, msg) ->
      let path = Filename.concat "fixtures" file in
      check int (file ^ " loads unverified") 16 (Graph.n (Io.load_csr path));
      Alcotest.check_raises file (Invalid_argument ("Io.load_csr: " ^ msg))
        (fun () -> ignore (Io.load_csr ~verify:true path)))
    [
      ( "csr_target_out_of_range.csr",
        "target 21 of node 0 out of range (n = 16)" );
      ( "csr_asymmetric_row.csr",
        "not symmetric: edge 0 -> 5 has no reverse" );
    ]

let raw_csr offsets targets =
  let ba = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout in
  Graph.of_csr_unchecked
    ~n:(Array.length offsets - 1)
    ~m:(Array.length targets / 2)
    ~offsets:(ba offsets) ~targets:(ba targets)

let test_validate () =
  let verdict = Alcotest.(result unit string) in
  List.iter
    (fun (name, g) -> Alcotest.check verdict name (Ok ()) (Graph.validate g))
    [
      ("path", raw_csr [| 0; 1; 3; 4 |] [| 1; 0; 2; 1 |]);
      ("grid", Gen.grid 7 9);
      ("rmat", Gen.rmat (Rng.create 3) ~n:256 ~m:1500);
      ( "edited",
        Graph.apply_edits (Gen.grid 4 4) ~del:[ (0, 1); (5, 6) ]
          ~add:[ (0, 15); (3, 12) ] );
    ];
  List.iter
    (fun (msg, g) -> Alcotest.check verdict msg (Error msg) (Graph.validate g))
    [
      ("offsets not monotone at node 1", raw_csr [| 0; 2; 1; 2 |] [| 1; 0 |]);
      ("self-loop at node 0", raw_csr [| 0; 1; 2 |] [| 0; 1 |]);
      ( "row of node 0 not strictly sorted",
        raw_csr [| 0; 2; 4; 6 |] [| 2; 1; 0; 2; 0; 1 |] );
      ( "row of node 0 not strictly sorted",
        raw_csr [| 0; 2; 3; 4 |] [| 1; 1; 0; 0 |] );
    ]

let () =
  Alcotest.run "csr"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "basic" `Quick test_roundtrip_basic;
          Alcotest.test_case "empty graphs" `Quick test_roundtrip_empty;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "bad magic" `Quick test_rejects_bad_magic;
          Alcotest.test_case "foreign endianness" `Quick
            test_rejects_foreign_endianness;
          Alcotest.test_case "unknown version" `Quick
            test_rejects_unknown_version;
          Alcotest.test_case "truncated header" `Quick
            test_rejects_truncated_header;
          Alcotest.test_case "truncated payload" `Quick
            test_rejects_truncated_payload;
          Alcotest.test_case "checksum catches bit rot" `Quick
            test_checksum_catches_bit_rot;
          Alcotest.test_case "sizes that wrap the byte count" `Quick
            test_rejects_wrapping_sizes;
          Alcotest.test_case "verify rejects bad structure" `Quick
            test_rejects_bad_structure;
          Alcotest.test_case "validate names the broken invariant" `Quick
            test_validate;
        ] );
      ( "generators",
        [
          Alcotest.test_case "rmat deterministic at 10^5" `Quick
            test_rmat_deterministic;
          Alcotest.test_case "power_law deterministic at 10^5" `Quick
            test_power_law_deterministic;
          Alcotest.test_case "pref_attach deterministic at 10^5" `Quick
            test_pref_attach_deterministic;
          Alcotest.test_case "rmat shape" `Quick test_rmat_shape;
          Alcotest.test_case "power_law shape" `Quick test_power_law_shape;
          Alcotest.test_case "pref_attach shape" `Quick test_pref_attach_shape;
          Alcotest.test_case "every family pinned at two seeds" `Quick
            test_families_pinned;
        ] );
    ]

(* Bechamel micro-benchmarks: wall-clock throughput of the hot paths.
   One Test.make per mechanism; run with --bechamel (they take ~20s). *)

open Bechamel
open Toolkit
module Server = Afs_core.Server
module Store = Afs_core.Store
module Page = Afs_core.Page
module Flags = Afs_core.Flags
module P = Afs_util.Pagepath

let ok = function Ok v -> v | Error e -> failwith (Afs_core.Errors.to_string e)
let bytes = Bytes.of_string

let sample_page ~nrefs ~data_bytes =
  let secret = Afs_util.Capability.secret_of_seed 1 in
  let cap obj =
    Afs_util.Capability.mint secret ~port:(Afs_util.Capability.port_of_int 1) ~obj
      ~rights:Afs_util.Capability.rights_all
  in
  let refs = Array.init nrefs (fun i -> { Page.block = i + 1; flags = Flags.clear }) in
  Page.make_version_page ~file_cap:(cap 2) ~version_cap:(cap 3) ~base_ref:(Some 7)
    ~parent_ref:None ~refs ~data:(Bytes.make data_bytes 'd')

(* F3 support: codec throughput. [with_data] sheds the encode memo, so
   each iteration pays a real serialisation (plus one record copy); the
   memo-hit and arithmetic-size benches pin the costs the hot path
   actually sees after the encode-once work. *)
let test_encode_fresh =
  let page = sample_page ~nrefs:64 ~data_bytes:4096 in
  Test.make ~name:"page-encode-fresh-4K+64refs"
    (Staged.stage (fun () -> ignore (Page.encode (Page.with_data page page.Page.data))))

let test_encode_memo_hit =
  let page = sample_page ~nrefs:64 ~data_bytes:4096 in
  ignore (Page.encode page);
  Test.make ~name:"page-encode-memo-hit" (Staged.stage (fun () -> ignore (Page.encode page)))

let test_encoded_size =
  let page = sample_page ~nrefs:64 ~data_bytes:4096 in
  Test.make ~name:"page-encoded-size-arith"
    (Staged.stage (fun () -> ignore (Page.encoded_size page)))

let test_decode =
  let image = Page.encode (sample_page ~nrefs:64 ~data_bytes:4096) in
  Test.make ~name:"page-decode-4K+64refs"
    (Staged.stage (fun () -> match Page.decode image with Ok _ -> () | Error _ -> assert false))

let test_flags_nibble =
  let all = Array.of_list Flags.all in
  Test.make ~name:"flags-nibble-roundtrip"
    (Staged.stage (fun () ->
         Array.iter (fun f -> ignore (Flags.of_nibble (Flags.to_nibble f))) all))

(* F5 support: the uncontended one-page update cycle. *)
let test_commit_fastpath =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = ok (Server.create_file srv ~data:(bytes "seed") ()) in
  Test.make ~name:"update-cycle-one-page"
    (Staged.stage (fun () ->
         let v = ok (Server.create_version srv f) in
         ok (Server.write_page srv v P.root (bytes "payload"));
         ok (Server.commit srv v)))

(* F6/C4 support: serialisability test + merge of two 4-page updates on a
   64-page file. *)
let test_serialise_merge =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Exp_util.file_with_pages srv 64 in
  Test.make ~name:"intercepted-commit-merge"
    (Staged.stage (fun () ->
         let va = ok (Server.create_version srv f) in
         let vb = ok (Server.create_version srv f) in
         for i = 0 to 3 do
           ok (Server.write_page srv va (P.of_list [ i ]) (bytes "a"));
           ok (Server.write_page srv vb (P.of_list [ 32 + i ]) (bytes "b"))
         done;
         ok (Server.commit srv va);
         ok (Server.commit srv vb)))

(* C3 support: validation of a warm, unshared file. *)
let test_validation_null_op =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Exp_util.file_with_pages srv 16 in
  let basis = ok (Server.current_block_of_file srv f) in
  Test.make ~name:"cache-validate-null-op"
    (Staged.stage (fun () ->
         ignore (ok (Afs_core.Cache.server_validate srv ~file:f ~basis_block:basis))))

(* The stable-storage envelope: the checksum alone, then one §4 write
   with both legs (seal, companion disk, seal, local disk). *)
let test_crc32 n =
  let data = Bytes.init n (fun i -> Char.chr (i land 0xFF)) in
  Test.make ~name:(Printf.sprintf "crc32-%dK" (n / 1024))
    (Staged.stage (fun () -> ignore (Afs_util.Wire.crc32 data)))

let test_stable_pair_write =
  let module S = Afs_stable.Stable_pair in
  let pair = S.create ~media:Afs_disk.Media.electronic ~blocks:4 ~block_size:1024 () in
  let payload = Bytes.make 1024 'p' in
  let b =
    match (S.allocate_write pair 0 payload).S.result with
    | Ok b -> b
    | Error e -> failwith (Fmt.str "%a" S.pp_error e)
  in
  Test.make ~name:"stable-pair-write-1K"
    (Staged.stage (fun () -> ignore (S.write pair 0 b payload)))

let all_tests =
  [ test_encode_fresh; test_encode_memo_hit; test_encoded_size; test_decode;
    test_flags_nibble; test_commit_fastpath; test_serialise_merge; test_validation_null_op;
    test_crc32 1024; test_crc32 4096; test_stable_pair_write ]

(* [smoke] trades precision for speed (CI runs it on shared runners just
   to catch order-of-magnitude regressions and keep the artifact fresh). *)
let run ?(smoke = false) () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "[micro] Bechamel wall-clock benchmarks of the hot paths%s\n"
    (if smoke then " (smoke mode)" else "");
  Printf.printf "%s\n" (String.make 78 '-');
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:500 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = analyze raw in
      Afs_util.Det.iter_sorted
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/op\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    all_tests

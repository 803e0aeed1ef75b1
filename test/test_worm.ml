(* Store.worm_hybrid: the §6 optical configuration. *)

open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let ok_str = Helpers.ok_str
let path = Helpers.path

let fresh ?(blocks = 4096) ?(block_size = 4096) () =
  Store.worm_hybrid ~blocks ~block_size ()

let test_first_write_goes_to_bulk () =
  let store, stats = fresh () in
  let b = ok_str (store.Store.allocate ()) in
  ok_str (store.Store.write b (bytes "etched"));
  let s = stats () in
  Alcotest.(check int) "bulk write" 1 s.Store.bulk_writes;
  Alcotest.(check int) "no index traffic" 0 s.Store.index_writes;
  Helpers.check_bytes "readable" "etched" (ok_str (store.Store.read b))

let test_rewrite_migrates_to_index () =
  let store, stats = fresh () in
  let b = ok_str (store.Store.allocate ()) in
  ok_str (store.Store.write b (bytes "v1"));
  ok_str (store.Store.write b (bytes "v2"));
  ok_str (store.Store.write b (bytes "v3"));
  let s = stats () in
  Alcotest.(check int) "one bulk etch" 1 s.Store.bulk_writes;
  Alcotest.(check int) "rewrites absorbed" 2 s.Store.index_writes;
  Alcotest.(check int) "one migrated block" 1 s.Store.index_blocks;
  Helpers.check_bytes "index copy wins" "v3" (ok_str (store.Store.read b))

let test_free_reclaims_index_not_bulk () =
  let store, stats = fresh () in
  let b1 = ok_str (store.Store.allocate ()) in
  ok_str (store.Store.write b1 (bytes "once"));
  let b2 = ok_str (store.Store.allocate ()) in
  ok_str (store.Store.write b2 (bytes "first"));
  ok_str (store.Store.write b2 (bytes "again"));
  ok_str (store.Store.free b1);
  ok_str (store.Store.free b2);
  let s = stats () in
  Alcotest.(check int) "bulk space stays occupied" 2 s.Store.bulk_blocks;
  Alcotest.(check int) "index space reclaimed" 0 s.Store.index_blocks;
  Alcotest.(check (list int)) "allocation table empty" [] (ok_str (store.Store.list_blocks ()));
  Alcotest.(check bool) "freed bulk block reads as gone" true
    (Result.is_error (store.Store.read b1));
  Alcotest.(check bool) "freed index block reads as gone" true
    (Result.is_error (store.Store.read b2));
  (* A write never allocates: freed and never-allocated blocks refuse it
     and stay out of the listing. *)
  Alcotest.(check bool) "write to a freed block refused" true
    (Result.is_error (store.Store.write b1 (bytes "back")));
  Alcotest.(check bool) "write to a never-allocated block refused" true
    (Result.is_error (store.Store.write 99 (bytes "new")));
  Alcotest.(check (list int)) "still empty" [] (ok_str (store.Store.list_blocks ()))

let test_full_file_service_on_worm () =
  let store, stats = fresh ~block_size:32768 () in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 4 in
  for i = 1 to 20 do
    let v = ok (Server.create_version srv f) in
    ok (Server.write_page srv v (path [ i mod 4 ]) (bytes (Printf.sprintf "r%d" i)));
    ok (Server.commit srv v)
  done;
  ok (Pagestore.flush (Server.pagestore srv));
  (* All history remains readable — the WORM platter keeps everything. *)
  let chain = ok (Server.committed_chain srv f) in
  Alcotest.(check int) "22 versions" 22 (List.length chain);
  let oldest = ok (Server.version_of_block srv (List.hd chain)) in
  Helpers.check_bytes "oldest readable" "root" (ok (Server.read_page srv oldest P.root));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "newest readable" "r20" (ok (Server.read_page srv cur (path [ 0 ])));
  (* Only version pages migrated: data pages are written exactly once. *)
  let s = stats () in
  Alcotest.(check bool)
    (Printf.sprintf "index blocks (%d) only the version pages (%d)" s.Store.index_blocks
       (List.length chain))
    true
    (s.Store.index_blocks <= List.length chain)

let test_crash_recovery_on_worm () =
  let store, _ = fresh ~block_size:32768 () in
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "committed before crash"));
  ok (Server.commit srv v);
  Server.crash srv;
  let srv2 = Server.create ~seed:7 store in
  ignore (ok (Server.recover_from_blocks srv2 (ok_str (store.Store.list_blocks ()))));
  match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "state recovered from platter" "committed before crash"
        (ok (Server.read_page srv2 cur (path [ 0 ])))
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l)

let test_locks_work () =
  let store, _ = fresh () in
  let b = ok_str (store.Store.allocate ()) in
  Alcotest.(check bool) "lock" true (store.Store.lock b);
  Alcotest.(check bool) "contended" false (store.Store.lock b);
  store.Store.unlock b;
  Alcotest.(check bool) "relock" true (store.Store.lock b)

let () =
  Alcotest.run "worm_hybrid"
    [
      ( "semantics",
        [
          quick "first write to bulk" test_first_write_goes_to_bulk;
          quick "rewrite migrates to index" test_rewrite_migrates_to_index;
          quick "free reclaims only index" test_free_reclaims_index_not_bulk;
          quick "locks" test_locks_work;
        ] );
      ( "file service",
        [
          quick "full service on worm" test_full_file_service_on_worm;
          quick "crash recovery on worm" test_crash_recovery_on_worm;
        ] );
    ]

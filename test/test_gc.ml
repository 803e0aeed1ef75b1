open Afs_core
module P = Afs_util.Pagepath

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok
let path = Helpers.path

let block_count store = List.length (Helpers.ok_str (store.Store.list_blocks ()))

let commit_write srv f p s =
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path p) (bytes s));
  ok (Server.commit srv v)

let test_collect_on_quiet_system_frees_nothing_live () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  let before = block_count store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 10; reshare = false } srv) in
  Alcotest.(check int) "nothing freed" 0 stats.Gc.blocks_freed;
  Alcotest.(check int) "store unchanged" before (block_count store);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "data intact" "p2" (ok (Server.read_page srv cur (path [ 2 ])))

let test_prune_respects_retention () =
  let _, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 9 do
    commit_write srv f [] (Printf.sprintf "v%d" i)
  done;
  Alcotest.(check int) "10 versions" 10 (List.length (ok (Server.committed_chain srv f)));
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 3; reshare = false } srv) in
  Alcotest.(check int) "7 pruned" 7 stats.Gc.versions_pruned;
  Alcotest.(check int) "3 retained" 3 (List.length (ok (Server.committed_chain srv f)));
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "current intact" "v9" (ok (Server.read_page srv cur P.root))

let test_pruned_blocks_are_freed () =
  let store, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 9 do
    commit_write srv f [] (Printf.sprintf "v%d" i)
  done;
  let before = block_count store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = false } srv) in
  Alcotest.(check bool) "blocks freed" true (stats.Gc.blocks_freed > 0);
  Alcotest.(check bool) "store shrank" true (block_count store < before)

let test_shared_pages_survive_prune () =
  (* Old versions share pages with newer ones; pruning the old versions
     must not free pages the retained chain still references. *)
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 6 in
  (* Touch only page 0 repeatedly: pages 1..5 stay shared across all
     versions, including the ones about to be pruned. *)
  for i = 1 to 6 do
    commit_write srv f [ 0 ] (Printf.sprintf "round%d" i)
  done;
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = 1; reshare = false } srv));
  let cur = ok (Server.current_version srv f) in
  for p = 1 to 5 do
    Helpers.check_bytes
      (Printf.sprintf "shared page %d" p)
      (Printf.sprintf "p%d" p)
      (ok (Server.read_page srv cur (path [ p ])))
  done;
  Helpers.check_bytes "latest write" "round6" (ok (Server.read_page srv cur (path [ 0 ])))

let test_aborted_version_blocks_swept () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  (* Simulate a client crash mid-update: version created, pages copied,
     never committed, server then loses track of it (crash). *)
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "orphaned"));
  ok (Server.write_page srv v (path [ 1 ]) (bytes "orphaned"));
  ok (Pagestore.flush (Server.pagestore srv));
  Server.crash srv;
  let before = block_count store in
  let stats = ok (Gc.collect srv) in
  Alcotest.(check bool) "orphans freed" true (stats.Gc.blocks_freed >= 3);
  Alcotest.(check bool) "store shrank" true (block_count store < before);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "committed state untouched" "p0" (ok (Server.read_page srv cur (path [ 0 ])))

let test_uncommitted_versions_survive_gc () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 0 ]) (bytes "in flight"));
  let stats = ok (Gc.collect srv) in
  Alcotest.(check int) "nothing freed" 0 stats.Gc.blocks_freed;
  (* The in-flight update is unharmed and can still commit. *)
  ok (Server.commit srv v);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "landed" "in flight" (ok (Server.read_page srv cur (path [ 0 ])))

(* Version records of swept versions must go with their blocks: across
   many churn-and-collect cycles the server keeps records only for the
   retained chain and the update still in flight, and a capability for a
   swept version stays dead — also on the WORM store, whose freed bulk
   blocks keep their bits. *)
let test_collect_forgets_swept_versions store () =
  let srv = Server.create ~seed:7 store in
  let f = Helpers.file_with_pages srv 3 in
  let created = ref [] in
  let create () =
    let v = ok (Server.create_version srv f) in
    created := ok (Server.version_block srv v) :: !created;
    v
  in
  let records () =
    List.length
      (List.filter
         (fun b -> Result.is_ok (Server.version_of_block srv b))
         (List.sort_uniq compare !created))
  in
  let no_such_version name v =
    (match Server.version_status srv v with
    | Error (Errors.No_such_version _) -> ()
    | Error e -> Alcotest.failf "%s: unexpected error %s" name (Errors.to_string e)
    | Ok _ -> Alcotest.failf "%s: still known after collection" name);
    match Server.write_page srv v (path [ 0 ]) (bytes "stale") with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: write_page accepted after collection" name
  in
  let policy = { Gc.retain_committed = 2; reshare = true } in
  let held = ref None in
  for cycle = 1 to 40 do
    (match !held with Some v -> ok (Server.commit srv v) | None -> ());
    let committed =
      List.init 4 (fun i ->
          let v = create () in
          ok (Server.write_page srv v (path [ i mod 3 ]) (bytes (Printf.sprintf "c%d.%d" cycle i)));
          ok (Server.commit srv v);
          v)
    in
    let aborted = create () in
    ok (Server.write_page srv aborted (path [ 0 ]) (bytes "aborted"));
    ok (Server.abort_version srv aborted);
    let in_flight = create () in
    ok (Server.write_page srv in_flight (path [ 1 ]) (bytes (Printf.sprintf "held%d" cycle)));
    held := Some in_flight;
    ignore (ok (Gc.collect ~policy srv));
    (* Two retained versions plus the one in flight. *)
    Alcotest.(check int) (Printf.sprintf "records after cycle %d" cycle) 3 (records ());
    no_such_version "pruned" (List.hd committed);
    no_such_version "aborted" aborted;
    let retained = List.nth committed 3 in
    Alcotest.(check bool) "retained still committed" true
      (ok (Server.version_status srv retained) = Server.Committed);
    Helpers.check_bytes "retained reads" (Printf.sprintf "c%d.3" cycle)
      (ok (Server.read_page srv retained (path [ 0 ])))
  done;
  Alcotest.(check int) "versions created" 240 (List.length !created)

let test_reshare_read_only_copies () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 4 in
  (* A read-modify-write of page 0 also read pages 1..3, creating read
     copies of them. *)
  let v = ok (Server.create_version srv f) in
  for p = 1 to 3 do
    ignore (ok (Server.read_page srv v (path [ p ])))
  done;
  ok (Server.write_page srv v (path [ 0 ]) (bytes "w"));
  ok (Server.commit srv v);
  let vb = ok (Server.version_block srv v) in
  let reshared = ok (Gc.reshare_version srv vb) in
  Alcotest.(check int) "three read copies reshared" 3 reshared;
  (* Data is unchanged after resharing. *)
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "write kept" "w" (ok (Server.read_page srv cur (path [ 0 ])));
  for p = 1 to 3 do
    Helpers.check_bytes
      (Printf.sprintf "page %d reshared content" p)
      (Printf.sprintf "p%d" p)
      (ok (Server.read_page srv cur (path [ p ])))
  done

let test_reshare_then_sweep_reclaims_space () =
  let store, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 8 in
  let v = ok (Server.create_version srv f) in
  for p = 0 to 7 do
    ignore (ok (Server.read_page srv v (path [ p ])))
  done;
  ok (Server.commit srv v);
  ok (Pagestore.flush (Server.pagestore srv));
  let before = block_count store in
  let stats = ok (Gc.collect ~policy:{ Gc.retain_committed = 16; reshare = true } srv) in
  Alcotest.(check int) "8 reshared" 8 stats.Gc.pages_reshared;
  Alcotest.(check bool) "8 copies swept" true (stats.Gc.blocks_freed >= 8);
  Alcotest.(check int) "space reclaimed" (before - stats.Gc.blocks_freed) (block_count store)

let test_reshare_keeps_written_subtrees () =
  let _, srv = Helpers.fresh_server () in
  let f = Helpers.file_with_pages srv 3 in
  let v = ok (Server.create_version srv f) in
  ok (Server.write_page srv v (path [ 1 ]) (bytes "must stay"));
  ok (Server.commit srv v);
  let vb = ok (Server.version_block srv v) in
  let reshared = ok (Gc.reshare_version srv vb) in
  Alcotest.(check int) "nothing reshared" 0 reshared;
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "write intact" "must stay" (ok (Server.read_page srv cur (path [ 1 ])))

let test_gc_safety_never_frees_live () =
  (* Random workload, then GC; every block the mark phase reports live
     must still be readable, and all file contents must survive. *)
  let store, srv = Helpers.fresh_server () in
  let rng = Afs_util.Xrng.create 99 in
  let files = Array.init 3 (fun _ -> Helpers.file_with_pages srv 5) in
  let expected = Array.make_matrix 3 5 "" in
  for fi = 0 to 2 do
    for p = 0 to 4 do
      expected.(fi).(p) <- Printf.sprintf "p%d" p
    done
  done;
  for round = 1 to 30 do
    let fi = Afs_util.Xrng.int rng 3 in
    let p = Afs_util.Xrng.int rng 5 in
    let v = ok (Server.create_version srv files.(fi)) in
    (* Mix reads in to generate read copies. *)
    let rp = Afs_util.Xrng.int rng 5 in
    ignore (ok (Server.read_page srv v (path [ rp ])));
    let value = Printf.sprintf "r%d" round in
    ok (Server.write_page srv v (path [ p ]) (bytes value));
    ok (Server.commit srv v);
    expected.(fi).(p) <- value
  done;
  let live = ok (Gc.live_blocks srv) in
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = true } srv));
  let remaining = Helpers.ok_str (store.Store.list_blocks ()) in
  (* Everything the pre-collect mark called live for the retained window
     is either still allocated or was superseded by reshare/prune; the
     real safety check is that all current data is readable. *)
  ignore live;
  ignore remaining;
  for fi = 0 to 2 do
    let cur = ok (Server.current_version srv files.(fi)) in
    for p = 0 to 4 do
      Helpers.check_bytes
        (Printf.sprintf "file %d page %d" fi p)
        expected.(fi).(p)
        (ok (Server.read_page srv cur (path [ p ])))
    done
  done

let test_recovery_after_gc () =
  (* GC rewrites base references when pruning; recovery from raw blocks
     must still find the chain root. *)
  let store, srv = Helpers.fresh_server () in
  let f = ok (Server.create_file srv ()) in
  for i = 1 to 6 do
    commit_write srv f [] (Printf.sprintf "v%d" i)
  done;
  ignore (ok (Gc.collect ~policy:{ Gc.retain_committed = 2; reshare = false } srv));
  ok (Pagestore.flush (Server.pagestore srv));
  let srv2 = Server.create store in
  let blocks = Helpers.ok_str (store.Store.list_blocks ()) in
  Alcotest.(check int) "file recovered" 1 (ok (Server.recover_from_blocks srv2 blocks));
  match Server.list_files srv2 with
  | [ fc ] ->
      let cur = ok (Server.current_version srv2 fc) in
      Helpers.check_bytes "current readable" "v6" (ok (Server.read_page srv2 cur P.root))
  | l -> Alcotest.failf "expected 1 file, got %d" (List.length l)

let test_retain_must_be_positive () =
  let _, srv = Helpers.fresh_server () in
  Alcotest.check_raises "zero retention"
    (Invalid_argument "Gc.collect: retain_committed must be >= 1") (fun () ->
      ignore (Gc.collect ~policy:{ Gc.retain_committed = 0; reshare = false } srv))

let test_background_collector_in_sim () =
  (* The collector as its own simulated process, interleaved with a
     client workload: space stays bounded and no committed data is lost. *)
  let engine = Afs_sim.Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Helpers.file_with_pages srv 8 in
  let totals =
    Gc.background ~policy:{ Gc.retain_committed = 2; reshare = true } engine srv
      ~period_ms:50.0 ~until_ms:2_000.0
  in
  let writer =
    Afs_sim.Proc.spawn ~name:"writer" engine (fun () ->
        for i = 1 to 100 do
          Afs_sim.Proc.delay 20.0;
          let v = ok (Server.create_version srv f) in
          ok (Server.write_page srv v (path [ i mod 8 ]) (bytes (string_of_int i)));
          ok (Server.commit srv v)
        done)
  in
  ignore writer;
  Afs_sim.Engine.run engine;
  let stats = totals () in
  Alcotest.(check bool) "collector ran" true (stats.Gc.blocks_freed > 0);
  Alcotest.(check bool) "versions pruned" true (stats.Gc.versions_pruned > 50);
  let cur = ok (Server.current_version srv f) in
  Helpers.check_bytes "latest commit intact" "100" (ok (Server.read_page srv cur (path [ 4 ])));
  (* Space is near the live set, not the 100-commit history. *)
  let used = block_count store in
  Alcotest.(check bool) (Printf.sprintf "%d blocks bounded" used) true (used < 60)

let () =
  Alcotest.run "gc"
    [
      ( "sweep",
        [
          quick "quiet system untouched" test_collect_on_quiet_system_frees_nothing_live;
          quick "prune respects retention" test_prune_respects_retention;
          quick "pruned blocks freed" test_pruned_blocks_are_freed;
          quick "shared pages survive prune" test_shared_pages_survive_prune;
          quick "aborted versions swept" test_aborted_version_blocks_swept;
          quick "uncommitted versions survive" test_uncommitted_versions_survive_gc;
          quick "swept versions forgotten" (test_collect_forgets_swept_versions (Store.memory ()));
          quick "swept versions forgotten (worm)"
            (test_collect_forgets_swept_versions
               (fst (Store.worm_hybrid ~blocks:4096 ~block_size:32768 ())));
        ] );
      ( "reshare",
        [
          quick "read-only copies reshared" test_reshare_read_only_copies;
          quick "reshare + sweep reclaims" test_reshare_then_sweep_reclaims_space;
          quick "written subtrees kept" test_reshare_keeps_written_subtrees;
        ] );
      ( "safety",
        [
          quick "never loses live data" test_gc_safety_never_frees_live;
          quick "recovery after gc" test_recovery_after_gc;
          quick "retention validated" test_retain_must_be_positive;
        ] );
      ( "background",
        [ quick "collector as simulated process" test_background_collector_in_sim ] );
    ]

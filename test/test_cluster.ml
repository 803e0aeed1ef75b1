(* The cluster layer: routing, single-shard equivalence, shard fault
   isolation and recovery, and — the property everything hinges on — that
   online migration racing live committers never loses a committed
   update. *)

open Afs_cluster
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Capability = Afs_util.Capability
module Xrng = Afs_util.Xrng
module Stats = Afs_util.Stats
module P = Afs_util.Pagepath
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok

(* Run [body] as a simulated process and return its result. *)
let in_sim body =
  let engine = Engine.create () in
  let result = ref None in
  let _ = Proc.spawn engine (fun () -> result := Some (body engine)) in
  Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* A cluster plus a process-scoped client, for tests that live entirely
   inside one simulation. *)
let in_cluster ?(latency_ms = 1.0) ~shards body =
  in_sim (fun engine ->
      let cluster = Cluster.create ~latency_ms engine ~shards in
      body cluster (Cluster_client.connect cluster))

(* {2 Forward-marker codec} *)

let gen_cap =
  QCheck2.Gen.(
    let* port = int_bound 0xFFFFFF in
    let* obj = int_bound 100_000 in
    let* rights = int_bound 255 in
    let* check = int_bound 0x3FFFFFFF in
    return
      {
        Capability.port = Capability.port_of_int port;
        obj;
        rights = Capability.rights_of_int rights;
        check;
      })

let prop_forward_roundtrip =
  QCheck2.Test.make ~name:"forward marker: decode . encode = Some" ~count:200
    ~print:(Fmt.str "%a" Capability.pp) gen_cap (fun cap ->
      match Forward.decode (Forward.encode cap) with
      | Some cap' -> Capability.equal cap cap'
      | None -> false)

let test_forward_rejects_data () =
  Alcotest.(check bool) "plain data" false (Forward.is_marker (bytes "hello world"));
  Alcotest.(check bool) "empty" false (Forward.is_marker Bytes.empty);
  Alcotest.(check bool)
    "prefix but garbage" false
    (Forward.is_marker (bytes (Forward.prefix ^ "not:numbers")))

(* {2 Routing} *)

(* Routing is total over cluster-minted capabilities and deterministic:
   the same capability always routes, twice, to the same shard — and that
   shard's port is the capability's port. *)
let prop_routing_total =
  QCheck2.Test.make ~name:"routing: total and stable over minted files" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 1 6) (int_range 1 12))
    (fun (nshards, nfiles) ->
      let engine = Engine.create () in
      let cluster = Cluster.create engine ~shards:nshards in
      let files =
        List.init nfiles (fun _ -> ok (Cluster.create_file_direct cluster ()))
      in
      List.for_all
        (fun cap ->
          match
            (Cluster.shard_of_cap cluster cap, Cluster.shard_of_cap cluster cap)
          with
          | Ok (c1, s1), Ok (c2, s2) ->
              Capability.equal c1 c2
              && Shard.id s1 = Shard.id s2
              && Capability.port_to_int cap.Capability.port
                 = Capability.port_to_int (Shard.port s1)
          | _ -> false)
        files)

let test_routing_foreign_port () =
  let engine = Engine.create () in
  let cluster = Cluster.create engine ~shards:2 in
  let foreign =
    {
      Capability.port = Capability.port_of_int 0xDEAD;
      obj = 1;
      rights = Capability.rights_all;
      check = 0;
    }
  in
  match Cluster.shard_of_cap cluster foreign with
  | Error Errors.Invalid_capability -> ()
  | Ok _ -> Alcotest.fail "foreign capability routed"
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)

let test_router_forward_cycle_safe () =
  (* A forward cycle can only arise from a corrupted cache, but resolve
     must still terminate on one. *)
  let router =
    Router.create ~ports:[ Capability.port_of_int 1; Capability.port_of_int 2 ]
  in
  let cap port obj =
    {
      Capability.port = Capability.port_of_int port;
      obj;
      rights = Capability.rights_all;
      check = 0;
    }
  in
  Router.note_forward router ~old:(cap 1 7) (cap 2 7);
  Router.note_forward router ~old:(cap 2 7) (cap 1 7);
  let resolved = Router.resolve router (cap 1 7) in
  Alcotest.(check bool)
    "terminates on a cycle member" true
    (Capability.equal resolved (cap 1 7) || Capability.equal resolved (cap 2 7))

let test_round_robin_placement () =
  let engine = Engine.create () in
  let cluster = Cluster.create engine ~shards:3 in
  let homes =
    List.init 6 (fun _ ->
        let cap = ok (Cluster.create_file_direct cluster ()) in
        match Cluster.shard_of_cap cluster cap with
        | Ok (_, s) -> Shard.id s
        | Error e -> Alcotest.failf "routing failed: %s" (Errors.to_string e))
  in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 0; 1; 2 ] homes

(* {2 Single-shard equivalence} *)

(* A one-shard cluster must produce a driver report bit-identical to the
   bare remote server: shard 0 keeps the default seed (same capabilities),
   the location check adds no RPCs and no simulated time, and the SUT
   adapter issues the same request sequence. *)
let test_single_shard_identical () =
  let open Afs_workload in
  let shape = { Workload.small_updates with nfiles = 16; pages_per_file = 8 } in
  let config =
    { Driver.default_config with clients = 8; duration_ms = 1_500.0; think_ms = 10.0 }
  in
  let gen = Workload.make shape in
  let bare =
    let engine = Engine.create () in
    let server = Server.create (Afs_core.Store.memory ()) in
    let files = ok (Workload.setup_pages server shape ~initial:(bytes "0")) in
    let host = Remote.host ~latency_ms:2.0 engine ~name:"afs" server in
    Driver.run engine config
      (Sut.afs_remote (Remote.connect [ host ]) ~fallback:server ~files)
      ~gen
  in
  let clustered =
    let engine = Engine.create () in
    let cluster = Cluster.create ~latency_ms:2.0 engine ~shards:1 in
    let files = ok (Workload.setup_cluster cluster shape ~initial:(bytes "0")) in
    Driver.run engine config
      (Sut.afs_cluster (Cluster_client.connect cluster) ~files)
      ~gen
  in
  Alcotest.(check int) "committed" bare.Driver.committed clustered.Driver.committed;
  Alcotest.(check int) "given up" bare.Driver.given_up clustered.Driver.given_up;
  Alcotest.(check int) "attempts" bare.Driver.attempts clustered.Driver.attempts;
  Alcotest.(check (float 0.0))
    "mean" bare.Driver.mean_latency_ms clustered.Driver.mean_latency_ms;
  Alcotest.(check (float 0.0)) "p50" bare.Driver.p50_ms clustered.Driver.p50_ms;
  Alcotest.(check (float 0.0)) "p95" bare.Driver.p95_ms clustered.Driver.p95_ms;
  Alcotest.(check (float 0.0)) "p99" bare.Driver.p99_ms clustered.Driver.p99_ms;
  Alcotest.(check (list (pair int int)))
    "retry histogram" bare.Driver.retry_histogram clustered.Driver.retry_histogram

(* {2 Fault isolation and recovery} *)

let test_crash_isolated_and_recoverable () =
  in_cluster ~shards:2 (fun cluster client ->
      let f0 = ok (Cluster_client.create_file ~data:(bytes "on shard 0") client) in
      let f1 = ok (Cluster_client.create_file ~data:(bytes "on shard 1") client) in
      List.iter
        (fun f ->
          ok
            (Cluster_client.update client f (fun txn ->
                 let open Errors in
                 let* _ =
                   Cluster_client.Txn.insert txn ~parent:P.root ~index:0
                     ~data:(bytes "committed") ()
                 in
                 Ok ())))
        [ f0; f1 ];
      Shard.crash (Cluster.shard cluster 0);
      (* Shard 1 is untouched: its file still reads. *)
      Helpers.check_bytes "shard 1 unaffected" "committed"
        (ok (Cluster_client.read_current client f1 (P.of_list [ 0 ])));
      (* Shard 0 is gone: the RPC layer reports failure, not a hang. *)
      (match Cluster_client.read_current client f0 (P.of_list [ 0 ]) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "crashed shard served a read");
      let recovered = ok (Shard.recover (Cluster.shard cluster 0)) in
      Alcotest.(check bool) "files recovered on shard 0" true (recovered >= 1);
      Helpers.check_bytes "committed data back after recovery" "committed"
        (ok (Cluster_client.read_current client f0 (P.of_list [ 0 ]))))

(* {2 The redo loop} *)

(* [update ~retries:n] runs the body at most [n] times, as
   {!Afs_core.Client.update} does: here every run is beaten by an
   interfering commit that lands between the body and its commit. *)
let test_update_stops_at_retries () =
  in_cluster ~shards:1 (fun _cluster client ->
      let f = ok (Cluster_client.create_file ~data:(bytes "v0") client) in
      let runs = ref 0 in
      let result =
        Cluster_client.update ~retries:3 client f (fun txn ->
            let open Errors in
            incr runs;
            let* () =
              Cluster_client.update client f (fun other ->
                  Cluster_client.Txn.write other P.root (bytes "interferer"))
            in
            Cluster_client.Txn.write txn P.root (bytes "beaten"))
      in
      (match result with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "a beaten body committed"
      | Error e -> Alcotest.failf "expected Conflict, got %s" (Errors.to_string e));
      Alcotest.(check int) "body runs" 3 !runs)

(* {2 Migration} *)

let test_migrate_moves_data_and_leaves_tombstone () =
  in_cluster ~shards:2 (fun cluster client ->
      let f = ok (Cluster_client.create_file ~data:(bytes "rootdata") client) in
      ok
        (Cluster_client.update client f (fun txn ->
             let open Errors in
             let* _ =
               Cluster_client.Txn.insert txn ~parent:P.root ~index:0 ~data:(bytes "a") ()
             in
             let* _ =
               Cluster_client.Txn.insert txn ~parent:P.root ~index:1 ~data:(bytes "b") ()
             in
             Ok ()));
      let moved = ok (Migration.migrate cluster ~file:f ~dst:1) in
      Alcotest.(check int)
        "new home is shard 1"
        (Capability.port_to_int (Shard.port (Cluster.shard cluster 1)))
        (Capability.port_to_int moved.Capability.port);
      (* Data identical at the new home. *)
      Helpers.check_bytes "root data" "rootdata"
        (ok (Cluster_client.read_current client moved P.root));
      Helpers.check_bytes "child 0" "a"
        (ok (Cluster_client.read_current client moved (P.of_list [ 0 ])));
      Helpers.check_bytes "child 1" "b"
        (ok (Cluster_client.read_current client moved (P.of_list [ 1 ])));
      (* The old home answers Moved with the new capability — exercised
         directly on the source conn, because the shared router means a
         cluster client normally resolves before ever hitting the
         tombstone. *)
      (match Remote.create_version (Cluster.conn cluster 0) f with
      | Error (Errors.Moved target) ->
          Alcotest.(check bool)
            "tombstone names the copy" true
            (Capability.equal target moved)
      | Ok _ -> Alcotest.fail "tombstone still serves versions"
      | Error e -> Alcotest.failf "expected Moved, got %s" (Errors.to_string e));
      (* The old capability keeps working through the client. *)
      Helpers.check_bytes "old cap still reads" "a"
        (ok (Cluster_client.read_current client f (P.of_list [ 0 ])));
      (* The tombstone no longer counts as resident. *)
      Alcotest.(check int)
        "shard 0 resident files" 0
        (List.length (Shard.resident_files (Cluster.shard cluster 0)));
      Alcotest.(check int)
        "shard 1 resident files" 1
        (List.length (Shard.resident_files (Cluster.shard cluster 1))))

(* A version opened before the flip must lose its commit afterwards: the
   location check put R on its root, the flip's commit wrote W there.
   The file has no children, so this also covers the flip's dummy
   insert+remove path (its only source of an M flag on the root). *)
let test_migration_fences_prior_versions () =
  in_cluster ~shards:2 (fun cluster client ->
      let f = ok (Cluster_client.create_file ~data:(bytes "v0") client) in
      let h = ok (Cluster_client.begin_txn client f) in
      let moved = ok (Migration.migrate cluster ~file:f ~dst:1) in
      ok (Cluster_client.Txn.write h.Cluster_client.txn P.root (bytes "stale"));
      (match Cluster_client.commit client h with
      | Error Errors.Conflict -> ()
      | Ok () -> Alcotest.fail "pre-flip version committed over the tombstone"
      | Error e -> Alcotest.failf "expected Conflict, got %s" (Errors.to_string e));
      (* The migrated copy is untouched and the tombstone intact. *)
      Helpers.check_bytes "copy unaffected" "v0"
        (ok (Cluster_client.read_current client moved P.root));
      match Remote.create_version (Cluster.conn cluster 0) f with
      | Error (Errors.Moved _) -> ()
      | _ -> Alcotest.fail "tombstone damaged")

(* The headline safety property, attacked with concurrency: writers
   increment a counter page while the file is migrated back and forth.
   Whatever interleaving the seed produces, the final counter value must
   equal the number of successfully committed increments — a lost update
   would leave it short. *)
let migration_race_one_seed seed =
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:2 in
  let commits = ref 0 in
  let gave_up = ref 0 in
  let migrations = ref 0 in
  let file = ref None in
  let _ =
    Proc.spawn engine (fun () ->
        let client = Cluster_client.connect cluster in
        let f = ok (Cluster_client.create_file ~data:(bytes "counter") client) in
        ok
          (Cluster_client.update client f (fun txn ->
               let open Errors in
               let* _ =
                 Cluster_client.Txn.insert txn ~parent:P.root ~index:0 ~data:(bytes "0")
                   ()
               in
               Ok ()));
        file := Some f;
        let rng = Xrng.create seed in
        let writer () =
          let wrng = Xrng.split rng in
          fun () ->
            for _ = 1 to 12 do
              Proc.delay (Xrng.float wrng 4.0);
              match
                Cluster_client.update ~retries:24 client f (fun txn ->
                    let open Errors in
                    let* v = Cluster_client.Txn.read txn (P.of_list [ 0 ]) in
                    match int_of_string_opt (Bytes.to_string v) with
                    | None -> Error (Errors.Store_failure "corrupt counter")
                    | Some n ->
                        let* () =
                          Cluster_client.Txn.write txn (P.of_list [ 0 ])
                            (bytes (string_of_int (n + 1)))
                        in
                        Ok ())
              with
              | Ok () -> incr commits
              | Error Errors.Conflict -> incr gave_up
              | Error e -> Alcotest.failf "writer failed: %s" (Errors.to_string e)
            done
        in
        let spawn_joined, join_all = Proc.joinable engine in
        for _ = 1 to 4 do
          ignore (spawn_joined (writer ()))
        done;
        ignore
          (spawn_joined (fun () ->
               for round = 1 to 6 do
                 Proc.delay 7.0;
                 match
                   Migration.migrate ~retries:3 cluster ~file:f ~dst:(round mod 2)
                 with
                 | Ok _ -> incr migrations
                 | Error Errors.Conflict -> () (* writers won every race: fine *)
                 | Error e -> Alcotest.failf "migrate failed: %s" (Errors.to_string e)
               done));
        join_all ())
  in
  Engine.run engine;
  let f = match !file with Some f -> f | None -> Alcotest.fail "setup never ran" in
  (* Read the final value at the file's true home, chasing tombstones
     directly on the servers (no router state involved). *)
  let rec final_value cap hops =
    if hops > 8 then Alcotest.fail "tombstone chain too long"
    else
      match Cluster.shard_of_cap cluster cap with
      | Error e -> Alcotest.failf "routing failed: %s" (Errors.to_string e)
      | Ok (cap, shard) -> (
          let server = Shard.server shard in
          match Shard.moved_target server cap with
          | Some target -> final_value target (hops + 1)
          | None ->
              let v = ok (Server.current_version server cap) in
              Bytes.to_string (ok (Server.read_page server v (P.of_list [ 0 ]))))
  in
  let final = final_value f 0 in
  Alcotest.(check string)
    (Printf.sprintf "seed %d: final counter = %d commits (%d given up, %d migrations)"
       seed !commits !gave_up !migrations)
    (string_of_int !commits) final

let test_migration_race_never_loses_commits () =
  List.iter migration_race_one_seed [ 1; 7; 42; 1234; 9999 ]

(* {2 Rebalancer} *)

let test_rebalancer_moves_hot_files () =
  in_cluster ~shards:2 (fun cluster client ->
      (* Six files; round-robin puts 0,2,4 on shard 0 and 1,3,5 on
         shard 1. Hammer the shard-0 residents so the load skews. *)
      let files =
        List.init 6 (fun i ->
            ok (Cluster_client.create_file ~data:(bytes (Printf.sprintf "f%d" i)) client))
      in
      List.iteri
        (fun i f ->
          let hits = if i mod 2 = 0 then 8 else 1 in
          for _ = 1 to hits do
            ok
              (Cluster_client.update client f (fun txn ->
                   Cluster_client.Txn.write txn P.root (bytes "hit")))
          done)
        files;
      let reb = Rebalancer.create ~threshold:1.5 ~max_moves:2 cluster in
      let moved = Rebalancer.step reb in
      Alcotest.(check bool) "rebalancer moved at least one file" true (moved >= 1);
      Alcotest.(check int)
        "counter agrees" moved
        (Stats.Counter.get (Cluster.counters cluster) "rebalancer.moves");
      let r0 = List.length (Shard.resident_files (Cluster.shard cluster 0)) in
      let r1 = List.length (Shard.resident_files (Cluster.shard cluster 1)) in
      Alcotest.(check int) "no file lost" 6 (r0 + r1);
      Alcotest.(check bool) "shard 0 shed files" true (r0 < 3))

(* Regression: the drained load window routinely spans a migration, so
   entries recorded under a file's old capability must be attributed to
   its *current* shard. Before the fix, the hot file's traffic kept
   counting against its old shard and the stale capability became an
   "already home" migration candidate — step reported moves that moved
   nothing, while the real hot shard kept its load. *)
let test_rebalancer_resolves_stale_loads () =
  in_cluster ~shards:2 (fun cluster client ->
      (* Round-robin: f0,f2 on shard 0; f1,f3 on shard 1. *)
      let files =
        List.init 4 (fun i ->
            ok (Cluster_client.create_file ~data:(bytes (Printf.sprintf "f%d" i)) client))
      in
      let f0 = List.nth files 0 in
      (* Hammer f0 while it still lives on shard 0; light traffic elsewhere. *)
      List.iteri
        (fun i f ->
          let hits = if i = 0 then 9 else 1 in
          for _ = 1 to hits do
            ok
              (Cluster_client.update client f (fun txn ->
                   Cluster_client.Txn.write txn P.root (bytes "hit")))
          done)
        files;
      (* A migration lands inside the load window: f0 moves to shard 1,
         but its 9 loads are recorded under the old capability. *)
      let f0' = ok (Migration.migrate cluster ~file:f0 ~dst:1) in
      let migrations_before = Cluster.migrations cluster in
      let reb = Rebalancer.create ~threshold:1.5 ~max_moves:2 cluster in
      let moved = Rebalancer.step reb in
      let migrations_delta = Cluster.migrations cluster - migrations_before in
      (* Stale-cap loads follow the file: shard 1 is the hot one now, so
         the step migrates f0 back — a real migration, not a phantom. *)
      Alcotest.(check int) "every counted move is a real migration" moved migrations_delta;
      Alcotest.(check int) "counter agrees" moved
        (Stats.Counter.get (Cluster.counters cluster) "rebalancer.moves");
      Alcotest.(check bool) "the hot file actually moved" true (moved >= 1);
      let home cap =
        match Cluster.shard_of_cap cluster cap with
        | Ok (_, s) -> Shard.id s
        | Error e -> Alcotest.failf "routing failed: %s" (Errors.to_string e)
      in
      Alcotest.(check int) "hot file followed its traffic home" 0 (home f0');
      Alcotest.(check int) "old capability resolves to the same place" 0 (home f0))

let () =
  Alcotest.run "cluster"
    [
      ( "forward",
        [
          QCheck_alcotest.to_alcotest prop_forward_roundtrip;
          quick "markers reject ordinary data" test_forward_rejects_data;
        ] );
      ( "routing",
        [
          QCheck_alcotest.to_alcotest prop_routing_total;
          quick "foreign ports rejected" test_routing_foreign_port;
          quick "forward cycles terminate" test_router_forward_cycle_safe;
          quick "round-robin placement" test_round_robin_placement;
        ] );
      ( "equivalence",
        [ quick "one-shard cluster == bare server" test_single_shard_identical ] );
      ( "faults",
        [ quick "crash isolated; recovery restores" test_crash_isolated_and_recoverable ]
      );
      ( "update", [ quick "stops after retries runs" test_update_stops_at_retries ] );
      ( "migration",
        [
          quick "moves data, leaves tombstone" test_migrate_moves_data_and_leaves_tombstone;
          quick "fences versions opened pre-flip" test_migration_fences_prior_versions;
          quick "racing commits never lost" test_migration_race_never_loses_commits;
        ] );
      ( "rebalancer",
        [
          quick "moves hot files off the hot shard" test_rebalancer_moves_hot_files;
          quick "stale loads follow the file" test_rebalancer_resolves_stale_loads;
        ] );
    ]

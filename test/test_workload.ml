open Afs_workload
module Engine = Afs_sim.Engine
module Server = Afs_core.Server
module Store = Afs_core.Store
module Remote = Afs_rpc.Remote
module Xrng = Afs_util.Xrng

let quick = Helpers.quick
let ok = Helpers.ok

(* {2 Generators} *)

let test_generator_shapes_txns () =
  let shape = { Workload.small_updates with nfiles = 4; pages_per_file = 8 } in
  let gen = Workload.make shape in
  let rng = Xrng.create 1 in
  for _ = 1 to 100 do
    let spec = gen rng in
    Alcotest.(check bool) "file in range" true (spec.Sut.file >= 0 && spec.Sut.file < 4);
    Alcotest.(check int) "op count" (shape.Workload.read_pages + shape.Workload.rmw_pages)
      (List.length spec.Sut.ops);
    let pages =
      List.map
        (function Sut.Read p -> p | Sut.Write (p, _) -> p | Sut.Rmw (p, _) -> p)
        spec.Sut.ops
    in
    Alcotest.(check int) "pages distinct" (List.length pages)
      (List.length (List.sort_uniq compare pages));
    List.iter
      (fun p -> Alcotest.(check bool) "page in range" true (p >= 0 && p < 8))
      pages
  done

let test_generator_rejects_oversized_txn () =
  Alcotest.check_raises "too many pages"
    (Invalid_argument "Workload.make: transaction larger than a file") (fun () ->
      let _gen : Workload.generator =
        Workload.make
          { Workload.small_updates with pages_per_file = 2; read_pages = 2; rmw_pages = 1 }
      in
      ())

let test_setup_pages_layout () =
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 3; pages_per_file = 5 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "init")) in
  Alcotest.(check int) "three files" 3 (Array.length files);
  Array.iter
    (fun f ->
      let cur = ok (Server.current_version srv f) in
      let info = ok (Server.page_info srv cur Afs_util.Pagepath.root) in
      Alcotest.(check int) "five pages" 5 info.Server.nrefs;
      Helpers.check_bytes "initial content" "init"
        (ok (Server.read_page srv cur (Helpers.path [ 4 ]))))
    files

(* {2 SUT adapters execute transactions correctly} *)

let afs_local_sut shape =
  let _, srv = Helpers.fresh_server () in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  Sut.afs_local srv ~files

let test_afs_local_sut_rmw () =
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 2 } in
  let sut = afs_local_sut shape in
  let incr_op old = Helpers.bytes (string_of_int (int_of_string (Helpers.str old) + 1)) in
  for _ = 1 to 10 do
    let r =
      sut.Sut.exec { Sut.file = 0; ops = [ Sut.Rmw (0, incr_op) ]; parts = [] } ~max_retries:4
    in
    Alcotest.(check bool) "committed" true r.Sut.committed
  done;
  Helpers.check_bytes "ten increments" "10" (sut.Sut.read_page 0 0);
  Helpers.check_bytes "other page untouched" "0" (sut.Sut.read_page 0 1)

let test_twopl_sut_exec () =
  let engine = Engine.create () in
  let backend = Afs_baseline.Twopl.create ~clock:(fun () -> Engine.now engine) () in
  let sut = Sut.twopl backend ~pages_per_file:4 ~retry_wait_ms:1.0 in
  let result = ref None in
  let _ =
    Afs_sim.Proc.spawn engine (fun () ->
        result :=
          Some
            (sut.Sut.exec
               { Sut.file = 0; ops = [ Sut.Write (1, Helpers.bytes "locked in") ]; parts = [] }
               ~max_retries:4))
  in
  Engine.run engine;
  (match !result with
  | Some r -> Alcotest.(check bool) "committed" true r.Sut.committed
  | None -> Alcotest.fail "never ran");
  Helpers.check_bytes "value stored" "locked in" (sut.Sut.read_page 0 1)

let test_tsorder_sut_exec () =
  let backend = Afs_baseline.Tsorder.create () in
  let sut = Sut.tsorder backend ~pages_per_file:4 in
  let r =
    sut.Sut.exec { Sut.file = 2; ops = [ Sut.Write (3, Helpers.bytes "stamped") ]; parts = [] }
      ~max_retries:4
  in
  Alcotest.(check bool) "committed" true r.Sut.committed;
  Helpers.check_bytes "value stored" "stamped" (sut.Sut.read_page 2 3)

(* {2 The optimistic loop's outcome table} *)

(* Run [body] as a simulated process and return its result. *)
let in_sim engine body =
  let result = ref None in
  let _ = Afs_sim.Proc.spawn engine (fun () -> result := Some (body ())) in
  Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

let one_write = { Sut.file = 0; ops = [ Sut.Write (0, Helpers.bytes "w") ]; parts = [] }

(* File 0 sits inside a super-file whose live update has entered it, so
   every version creation answers [Locked_out]. *)
let locked_out_server () =
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 2 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  let sf = ok (Afs_core.Superfile.make srv ~subfiles:[ files.(0) ] ()) in
  let u = ok (Afs_core.Superfile.begin_update srv sf) in
  let _ = ok (Afs_core.Superfile.touch_subfile u ~index:0) in
  (srv, files)

let check_gave_up name r =
  Alcotest.(check bool) (name ^ ": not committed") false r.Sut.committed;
  Alcotest.(check int) (name ^ ": attempts = max_retries") 3 r.Sut.attempts

let test_locked_out_gives_up () =
  let srv, files = locked_out_server () in
  check_gave_up "afs_local" ((Sut.afs_local srv ~files).Sut.exec one_write ~max_retries:3);
  let srv, files = locked_out_server () in
  let engine = Engine.create () in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  check_gave_up "afs_remote" (in_sim engine (fun () -> sut.Sut.exec one_write ~max_retries:3))

let expect_fatal what f =
  match f () with
  | exception Sut.Fatal _ -> ()
  | (_ : Sut.exec_result) -> Alcotest.failf "%s: expected Sut.Fatal" what

let test_remote_host_down_is_fatal () =
  let engine = Engine.create () in
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 2 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  Remote.crash_host host;
  expect_fatal "host down" (fun () ->
      in_sim engine (fun () -> sut.Sut.exec one_write ~max_retries:3))

let test_cluster_backs_off_across_crash () =
  let module Cluster = Afs_cluster.Cluster in
  let module Shard = Afs_cluster.Shard in
  let engine = Engine.create () in
  let cluster = Cluster.create ~latency_ms:1.0 engine ~shards:1 in
  let shape = { Workload.small_updates with nfiles = 1; pages_per_file = 2 } in
  let files = ok (Workload.setup_cluster cluster shape ~initial:(Helpers.bytes "0")) in
  let shard = Cluster.shard cluster 0 in
  Shard.crash shard;
  let _ =
    Afs_sim.Proc.spawn engine (fun () ->
        Afs_sim.Proc.delay 40.0;
        ignore (ok (Shard.recover shard)))
  in
  let r =
    in_sim engine (fun () ->
        let sut = Sut.afs_cluster (Afs_cluster.Cluster_client.connect cluster) ~files in
        sut.Sut.exec one_write ~max_retries:100)
  in
  Alcotest.(check bool) "committed after recovery" true r.Sut.committed;
  Alcotest.(check bool) "backed off at least once" true (r.Sut.attempts > 1);
  Alcotest.(check bool) "paused until recovery" true (Engine.now engine >= 40.0)

let test_local_refuses_multi_part () =
  let _, srv = Helpers.fresh_server () in
  let shape = { Workload.small_updates with nfiles = 2; pages_per_file = 2 } in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "0")) in
  let sut = Sut.afs_local srv ~files in
  expect_fatal "multi-part" (fun () ->
      sut.Sut.exec
        { Sut.file = 0; ops = []; parts = [ (0, one_write.Sut.ops); (1, one_write.Sut.ops) ] }
        ~max_retries:3)

(* {2 The driver under contention: serialisability invariants} *)

let bank_invariant_holds sut_of_engine name =
  let params = { Bank.default with branches = 2; accounts = 8 } in
  let engine = Engine.create () in
  let sut = sut_of_engine engine params in
  let config =
    { Driver.default_config with clients = 8; duration_ms = 2_000.0; think_ms = 5.0 }
  in
  let report = Driver.run engine config sut ~gen:(Bank.generator params) in
  Alcotest.(check bool) (name ^ ": work done") true (report.Driver.committed > 50);
  Alcotest.(check int)
    (name ^ ": money conserved")
    (Bank.expected_total params)
    (Bank.total_money sut params)

let test_bank_invariant_afs () =
  bank_invariant_holds
    (fun engine params ->
      let store = Store.memory () in
      let srv = Server.create store in
      let shape =
        { Workload.small_updates with nfiles = params.Bank.branches;
          pages_per_file = params.Bank.accounts }
      in
      let files = ok (Workload.setup_pages srv shape ~initial:(Bank.initial_page params)) in
      let host = Remote.host engine ~name:"afs" srv in
      Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files)
    "afs-occ"

let test_bank_invariant_twopl () =
  bank_invariant_holds
    (fun engine params ->
      let backend = Afs_baseline.Twopl.create ~clock:(fun () -> Engine.now engine) () in
      let sut = Sut.twopl backend ~pages_per_file:params.Bank.accounts ~retry_wait_ms:2.0 in
      (* Pre-load balances. *)
      for b = 0 to params.Bank.branches - 1 do
        for a = 0 to params.Bank.accounts - 1 do
          let txn = Afs_baseline.Twopl.begin_ backend in
          (match
             Afs_baseline.Twopl.write backend txn ~obj:((b * 65536) + a)
               (Bank.initial_page params)
           with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload denied");
          match Afs_baseline.Twopl.commit backend txn with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload commit denied"
        done
      done;
      sut)
    "xdfs-2pl"

let test_bank_invariant_tsorder () =
  bank_invariant_holds
    (fun _engine params ->
      let backend = Afs_baseline.Tsorder.create () in
      let sut = Sut.tsorder backend ~pages_per_file:params.Bank.accounts in
      for b = 0 to params.Bank.branches - 1 do
        for a = 0 to params.Bank.accounts - 1 do
          let txn = Afs_baseline.Tsorder.begin_ backend in
          (match
             Afs_baseline.Tsorder.write backend txn ~obj:((b * 65536) + a)
               (Bank.initial_page params)
           with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload late");
          match Afs_baseline.Tsorder.commit backend txn with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "preload commit late"
        done
      done;
      sut)
    "swallow-ts"

let test_bank_invariant_two_balanced_servers () =
  (* The §5.2 configuration: two servers over one store, transactions
     rotated across them. Money conservation proves the cross-server
     commit protocol (store-level test-and-set + cache refresh) is safe. *)
  bank_invariant_holds
    (fun engine params ->
      let store = Store.memory () in
      let ports = Afs_core.Ports.create () in
      let srv1 = Server.create ~seed:7 ~ports store in
      let srv2 = Server.create ~seed:7 ~ports store in
      let shape =
        { Workload.small_updates with nfiles = params.Bank.branches;
          pages_per_file = params.Bank.accounts }
      in
      let files = ok (Workload.setup_pages srv1 shape ~initial:(Bank.initial_page params)) in
      let host1 = Remote.host engine ~name:"afs-1" srv1 in
      let host2 = Remote.host engine ~name:"afs-2" srv2 in
      let conn = Remote.connect ~balance:true [ host1; host2 ] in
      Sut.afs_remote ~name:"afs-2srv" conn ~fallback:srv1 ~files)
    "afs-2srv"

let test_airline_seats_conserved () =
  let params =
    { Airline.default with flights = 4; classes = 2; seats_per_class = 10_000 }
  in
  let engine = Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let shape =
    { Workload.small_updates with nfiles = params.Airline.flights;
      pages_per_file = params.Airline.classes }
  in
  let files = ok (Workload.setup_pages srv shape ~initial:(Airline.initial_page params)) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let config =
    { Driver.default_config with clients = 6; duration_ms = 2_000.0; think_ms = 5.0 }
  in
  let report = Driver.run engine config sut ~gen:(Airline.generator params) in
  let initial_total =
    params.Airline.flights * params.Airline.classes * params.Airline.seats_per_class
  in
  let remaining = Airline.total_seats sut params in
  let booked = initial_total - remaining in
  Alcotest.(check bool) "some bookings" true (booked > 0);
  (* Every committed booking removed exactly one seat: bookings committed
     cannot exceed total commits, and no seats can be lost otherwise. *)
  Alcotest.(check bool)
    (Printf.sprintf "booked %d <= committed %d" booked report.Driver.committed)
    true
    (booked <= report.Driver.committed)

let test_driver_reports_sane_numbers () =
  let shape = { Workload.small_updates with nfiles = 8; pages_per_file = 4 } in
  let engine = Engine.create () in
  let store = Store.memory () in
  let srv = Server.create store in
  let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "x")) in
  let host = Remote.host engine ~name:"afs" srv in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
  let config =
    { Driver.default_config with clients = 4; duration_ms = 1_000.0; think_ms = 10.0 }
  in
  let report = Driver.run engine config sut ~gen:(Workload.make shape) in
  Alcotest.(check bool) "committed > 0" true (report.Driver.committed > 0);
  Alcotest.(check bool) "attempts >= committed" true
    (report.Driver.attempts >= report.Driver.committed);
  Alcotest.(check bool) "throughput positive" true (report.Driver.throughput_per_s > 0.0);
  Alcotest.(check bool) "latency positive" true (report.Driver.mean_latency_ms > 0.0);
  Alcotest.(check bool) "p50 <= p99" true (report.Driver.p50_ms <= report.Driver.p99_ms);
  Alcotest.(check bool) "elapsed covers duration" true (report.Driver.elapsed_ms >= 1_000.0)

let test_driver_deterministic () =
  let run_once () =
    let shape = { Workload.small_updates with nfiles = 4 } in
    let engine = Engine.create () in
    let store = Store.memory () in
    let srv = Server.create store in
    let files = ok (Workload.setup_pages srv shape ~initial:(Helpers.bytes "x")) in
    let host = Remote.host engine ~name:"afs" srv in
    let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
    let config =
      { Driver.default_config with clients = 3; duration_ms = 500.0; seed = 7 }
    in
    let r = Driver.run engine config sut ~gen:(Workload.make shape) in
    (r.Driver.committed, r.Driver.attempts)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check (pair int int)) "identical runs" a b

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          quick "txn shapes" test_generator_shapes_txns;
          quick "oversized rejected" test_generator_rejects_oversized_txn;
          quick "setup layout" test_setup_pages_layout;
        ] );
      ( "suts",
        [
          quick "afs local rmw" test_afs_local_sut_rmw;
          quick "twopl exec" test_twopl_sut_exec;
          quick "tsorder exec" test_tsorder_sut_exec;
        ] );
      ( "outcomes",
        [
          quick "Locked_out gives up after max_retries" test_locked_out_gives_up;
          quick "remote host down is fatal" test_remote_host_down_is_fatal;
          quick "cluster backs off across a crash" test_cluster_backs_off_across_crash;
          quick "local refuses multi-part" test_local_refuses_multi_part;
        ] );
      ( "invariants",
        [
          quick "bank money conserved (afs)" test_bank_invariant_afs;
          quick "bank money conserved (2 balanced servers)"
            test_bank_invariant_two_balanced_servers;
          quick "bank money conserved (2pl)" test_bank_invariant_twopl;
          quick "bank money conserved (ts)" test_bank_invariant_tsorder;
          quick "airline seats conserved" test_airline_seats_conserved;
        ] );
      ( "driver",
        [
          quick "sane numbers" test_driver_reports_sane_numbers;
          quick "deterministic" test_driver_deterministic;
        ] );
    ]

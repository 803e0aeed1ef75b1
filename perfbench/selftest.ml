(* Self-tests of the benchmark: short runs of each workload.

   They check what the benchmark's numbers rest on: a seed fixes the
   virtual metrics exactly, a different seed changes the inputs, the
   percentile is exact with given-up transactions ranked worst, the
   tracing observer decides nothing, and the durability and
   conservation gates can actually fail. *)

open Perfbench
module H = Harness
module Sut = Afs_workload.Sut
module Store = Afs_core.Store
module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Xrng = Afs_util.Xrng

let short kind =
  let duration_ms =
    match kind with H.Stable_1k -> 10_000.0 | H.Zipf_4shard -> 3_000.0 | H.Xshard_bank -> 20_000.0
  in
  { (H.spec kind) with H.duration_ms }

let run ?probe ?store_hook kind ~seed =
  let sys = H.setup ?probe ?store_hook kind in
  (sys, H.run (short kind) ~seed ?probe sys)

let virtual_values kind o =
  List.map (fun m -> (m.H.name, m.H.value)) (H.virtual_metrics (short kind) o)

let same_seed_same_metrics kind () =
  let _, a = run kind ~seed:5 in
  let _, b = run kind ~seed:5 in
  Alcotest.(check bool) "fingerprints equal" true (H.fingerprint a = H.fingerprint b);
  Alcotest.(check (list (pair string (float 0.0)))) "virtual metrics equal"
    (virtual_values kind a) (virtual_values kind b)

let traced_run_decides_the_same kind () =
  let _, untraced = run kind ~seed:6 in
  let probe = H.probe () in
  let _, traced = run ~probe kind ~seed:6 in
  Alcotest.(check bool) "traced = untraced" true (H.fingerprint untraced = H.fingerprint traced);
  Alcotest.(check bool) "the sink saw commit spans" true (probe.H.commit_spans > 0)

(* The generated inputs, with the write closures reduced to page numbers. *)
let inputs kind ~seed =
  let sys = H.setup kind in
  let rng = Xrng.create seed in
  let op = function Sut.Read p -> ("r", p) | Sut.Write (p, _) -> ("w", p) | Sut.Rmw (p, _) -> ("m", p) in
  List.init 50 (fun _ ->
      let spec = sys.H.gen rng in
      (spec.Sut.file, List.map op spec.Sut.ops, List.map (fun (f, ops) -> (f, List.map op ops)) spec.Sut.parts))

let seed_changes_inputs kind () =
  Alcotest.(check bool) "same seed, same inputs" true (inputs kind ~seed:1 = inputs kind ~seed:1);
  Alcotest.(check bool) "other seed, other inputs" false (inputs kind ~seed:1 = inputs kind ~seed:2);
  let _, a = run kind ~seed:1 in
  let _, b = run kind ~seed:2 in
  Alcotest.(check bool) "other seed, other run" false (H.fingerprint a = H.fingerprint b)

let percentiles () =
  let check name expected values p =
    Alcotest.(check (float 0.0)) name expected (H.percentile values p)
  in
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" 50.0 hundred 0.50;
  check "p99 of 1..100" 99.0 hundred 0.99;
  check "p100 of 1..100" 100.0 hundred 1.0;
  check "p1 of 1..100" 1.0 hundred 0.01;
  check "single sample" 7.0 [| 7.0 |] 0.99;
  let with_failures = [| 3.0; infinity; 1.0; 2.0 |] in
  check "p50 skips the failure" 2.0 with_failures 0.50;
  check "p75 is the last success" 3.0 with_failures 0.75;
  check "p99 is the failure" infinity with_failures 0.99;
  Alcotest.check_raises "empty" (Invalid_argument "percentile: no samples") (fun () ->
      ignore (H.percentile [||] 0.5));
  Alcotest.check_raises "p = 0" (Invalid_argument "percentile: p must be in (0, 1]") (fun () ->
      ignore (H.percentile hundred 0.0))

(* Run one more transaction through the system's client, after the run. *)
let one_more sys spec =
  let committed = ref false in
  ignore (Proc.spawn sys.H.engine (fun () ->
      committed := (sys.H.sut.Sut.exec spec ~max_retries:8).Sut.committed));
  Engine.run sys.H.engine;
  Alcotest.(check bool) "extra transaction committed" true !committed

(* A store that can forget its last write after acknowledging it: it
   keeps the overwritten image of the last block written. *)
let forgetful () =
  let last = ref None in
  let hook (s : Store.t) =
    let remember b = last := Some (b, s.Store.read b) in
    {
      s with
      Store.write = (fun b data -> remember b; s.Store.write b data);
      write_batch =
        (fun writes ->
          (match List.rev writes with (b, _) :: _ -> remember b | [] -> ());
          s.Store.write_batch writes);
    }
  in
  let forget (s : Store.t) =
    match !last with
    | Some (b, Ok old) -> ignore (s.Store.write b old)
    | Some (_, Error _) | None -> Alcotest.fail "no overwritten block to forget"
  in
  (hook, forget)

let fails_with ~prefix = function
  | Ok () -> Alcotest.fail "the gate passed"
  | Error msg ->
      if not (String.starts_with ~prefix msg) then Alcotest.failf "unexpected failure: %s" msg

let durability_gate_fails () =
  let hook, forget = forgetful () in
  let store = ref None in
  let store_hook s =
    let s = hook s in
    store := Some s;
    s
  in
  let sys, _ = run ~store_hook H.Stable_1k ~seed:3 in
  one_more sys { Sut.file = 0; ops = [ Sut.Write (0, Bytes.make 1024 'L') ]; parts = [] };
  Alcotest.(check bool) "intact store passes" true (Result.is_ok (sys.H.gate ()));
  let sys, _ = run ~store_hook H.Stable_1k ~seed:3 in
  one_more sys { Sut.file = 0; ops = [ Sut.Write (0, Bytes.make 1024 'L') ]; parts = [] };
  forget (Option.get !store);
  fails_with ~prefix:"durability:" (sys.H.gate ())

let conservation_gate_fails () =
  let sys, _ = run H.Xshard_bank ~seed:3 in
  Alcotest.(check bool) "honest run passes" true (Result.is_ok (sys.H.gate ()));
  let sys, _ = run H.Xshard_bank ~seed:3 in
  one_more sys { Sut.file = 0; ops = []; parts = [ (0, [ Sut.Write (0, Bytes.of_string "999999") ]) ] };
  fails_with ~prefix:"conservation:" (sys.H.gate ())

let per_workload name f = (name, List.map (fun k -> Alcotest.test_case (H.name k) `Quick (f k)) H.kinds)

let () =
  Alcotest.run "perfbench"
    [
      per_workload "same seed, same virtual metrics" same_seed_same_metrics;
      per_workload "traced run decides the same" traced_run_decides_the_same;
      per_workload "seed changes inputs" seed_changes_inputs;
      ("percentile", [ Alcotest.test_case "exact, failures worst" `Quick percentiles ]);
      ( "gates can fail",
        [
          Alcotest.test_case "durability" `Quick durability_gate_fails;
          Alcotest.test_case "conservation" `Quick conservation_gate_fails;
        ] );
    ]

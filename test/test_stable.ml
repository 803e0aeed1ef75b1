open Afs_stable
module S = Stable_pair
module Disk = Afs_disk.Disk

let quick = Helpers.quick
let bytes = Helpers.bytes

let fresh ?(blocks = 64) ?(block_size = 512) ?(seed = 1) () =
  S.create ~seed ~blocks ~block_size ()

let ok (o : 'a S.outcome) =
  match o.S.result with
  | Ok v -> v
  | Error e -> Alcotest.failf "stable error: %s" (Fmt.str "%a" S.pp_error e)

let expect name pred (o : 'a S.outcome) =
  match o.S.result with
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> Alcotest.(check bool) name true (pred e)

let ok_disk (o : 'a Disk.outcome) =
  match o.Disk.result with
  | Ok v -> v
  | Error e -> Alcotest.failf "disk error: %s" (Fmt.str "%a" Disk.pp_error e)

let check_invariant t =
  match S.verify_companion_invariant t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* {2 Basic duplexed storage} *)

let test_allocate_write_read () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "duplexed")) in
  Helpers.check_bytes "read via 0" "duplexed" (ok (S.read t 0 b));
  Helpers.check_bytes "read via 1" "duplexed" (ok (S.read t 1 b));
  check_invariant t

let test_both_disks_hold_copy () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "x")) in
  Alcotest.(check bool) "disk 0 has it" true (Disk.is_written (S.disk t 0) b);
  Alcotest.(check bool) "disk 1 has it" true (Disk.is_written (S.disk t 1) b)

let test_update_via_either_server () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  ignore (ok (S.write t 1 b (bytes "v2")));
  Helpers.check_bytes "updated" "v2" (ok (S.read t 0 b));
  check_invariant t

let test_free () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "gone soon")) in
  ignore (ok (S.free t 0 b));
  expect "read freed" (function S.Not_allocated _ -> true | _ -> false) (S.read t 0 b);
  expect "read freed via companion" (function S.Not_allocated _ -> true | _ -> false)
    (S.read t 1 b)

let test_read_unallocated () =
  let t = fresh () in
  expect "unallocated" (function S.Not_allocated 3 -> true | _ -> false) (S.read t 0 3)

(* {2 Corruption repair} *)

let test_corruption_repaired_from_companion () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "precious")) in
  Alcotest.(check bool) "corrupted" true (Disk.corrupt (S.disk t 0) b ~xor_byte:'\xFF');
  Helpers.check_bytes "repaired read" "precious" (ok (S.read t 0 b));
  (* The local copy was repaired in passing. *)
  Helpers.check_bytes "second read clean" "precious" (ok (S.read t 0 b));
  check_invariant t

let test_corrupt_both_detected () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "doomed")) in
  ignore (Disk.corrupt (S.disk t 0) b ~xor_byte:'\xFF');
  ignore (Disk.corrupt (S.disk t 1) b ~xor_byte:'\xFF');
  expect "both corrupt" (function S.Corrupt_both _ -> true | _ -> false) (S.read t 0 b)

(* {2 The sealed image on disk} *)

let golden_payload n = Bytes.init n (fun i -> Char.chr (((i * 31) + 7) land 0xFF))

let raw_image t i b =
  match (Disk.read (S.disk t i) b).Disk.result with
  | Ok image -> image
  | Error e -> Alcotest.failf "raw read: %s" (Fmt.str "%a" Disk.pp_error e)

(* A block written [writes] times through server 0, so its seq is [writes]. *)
let sealed_block ~writes payload =
  let t = fresh ~blocks:4 ~block_size:2048 () in
  let b = ok (S.allocate_write t 0 payload) in
  for _ = 2 to writes do
    ignore (ok (S.write t 0 b payload))
  done;
  (t, b)

(* Magic 0x5AB1, seq, the payload's CRC-32 (all little-endian), then a
   varint length and the payload. The CRCs are those of any standard
   CRC-32 implementation over [golden_payload n]. *)
let test_sealed_image_golden () =
  List.iter
    (fun (n, crc_bytes, varint_bytes) ->
      let payload = golden_payload n in
      let t, b = sealed_block ~writes:300 payload in
      let header =
        [ 0xB1; 0x5A; 0x2C; 0x01; 0; 0; 0; 0; 0; 0 ] @ crc_bytes @ varint_bytes
      in
      let expected =
        Bytes.cat (Bytes.of_string (String.of_seq (List.to_seq (List.map Char.chr header)))) payload
      in
      List.iter
        (fun i ->
          let image = raw_image t i b in
          Alcotest.(check int) (Printf.sprintf "%d-byte image length on disk %d" n i)
            (Bytes.length expected) (Bytes.length image);
          Bytes.iteri
            (fun j c ->
              Alcotest.(check int) (Printf.sprintf "%d-byte image, disk %d, byte %d" n i j)
                (Char.code c) (Char.code (Bytes.get image j)))
            expected)
        [ 0; 1 ])
    [ (100, [ 0xFC; 0x35; 0xA9; 0xB5 ], [ 0x64 ]); (1200, [ 0x89; 0xDA; 0x85; 0x04 ], [ 0xB0; 0x09 ]) ]

let flip_byte t i b j =
  let image = raw_image t i b in
  Bytes.set image j (Char.chr (Char.code (Bytes.get image j) lxor 0xFF));
  ignore (ok_disk (Disk.write (S.disk t i) b image))

(* Every byte but the seq's is covered by a check: the magic, the CRC,
   the length (a wrong one fails the CRC or runs past the image) and the
   payload. The seq is not checksummed; a flipped one still unseals. *)
let is_seq_byte j = j >= 2 && j < 10

let test_every_byte_flip_detected () =
  List.iter
    (fun n ->
      let payload = golden_payload n in
      let image_len = Bytes.length (raw_image (fst (sealed_block ~writes:1 payload)) 0 0) in
      for j = 0 to image_len - 1 do
        let name = Printf.sprintf "%d-byte payload, byte %d" n j in
        let t, b = sealed_block ~writes:1 payload in
        let clean = raw_image t 0 b in
        flip_byte t 0 b j;
        Helpers.check_bytes name (Bytes.to_string payload) (ok (S.read t 0 b));
        if not (is_seq_byte j) then
          Alcotest.(check bool) (name ^ " repaired") true (Bytes.equal clean (raw_image t 0 b));
        let t, b = sealed_block ~writes:1 payload in
        flip_byte t 0 b j;
        flip_byte t 1 b j;
        if is_seq_byte j then Helpers.check_bytes (name ^ " both") (Bytes.to_string payload) (ok (S.read t 0 b))
        else expect (name ^ " both") (function S.Corrupt_both _ -> true | _ -> false) (S.read t 0 b)
      done)
    [ 100; 1200 ]

(* {2 Allocate collisions} *)

let test_interleaved_allocate_collision () =
  (* Drive the protocol steps by hand: both servers tentatively choose the
     same block, then shadow-write; the companion detects the collision
     before any primary copy is damaged. *)
  let t = fresh ~blocks:1 () in
  let b0 = ok (S.tentative_allocate t 0) in
  let b1 = ok (S.tentative_allocate t 1) in
  Alcotest.(check int) "same block chosen" b0 b1;
  (* Server 0's shadow write arrives at server 1, which holds a tentative
     claim on the same block: collision. *)
  expect "collision detected" (function S.Collision _ -> true | _ -> false)
    (S.shadow_write t ~primary:0 ~fresh:true b0 (bytes "from-0"));
  S.abort_tentative t 0 b0;
  (* Server 1 now completes unhindered. *)
  let seq = ok (S.shadow_write t ~primary:1 ~fresh:true b1 (bytes "from-1")) in
  ignore (ok (S.local_write_seq t 1 b1 (bytes "from-1") seq));
  Helpers.check_bytes "winner's data" "from-1" (ok (S.read t 1 b1));
  check_invariant t

let test_allocate_write_retries_internally () =
  (* With a single-block address space and a pre-claimed tentative slot at
     the companion, allocate_write must retry and eventually give up. *)
  let t = fresh ~blocks:1 () in
  let b = ok (S.tentative_allocate t 1) in
  expect "exhausts retries" (function S.No_free_blocks -> true | _ -> false)
    (S.allocate_write t 0 (bytes "loser"));
  S.abort_tentative t 1 b;
  let b2 = ok (S.allocate_write t 0 (bytes "winner")) in
  Helpers.check_bytes "eventually lands" "winner" (ok (S.read t 0 b2))

(* {2 Crashes} *)

let test_write_with_companion_down () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  S.crash t 1;
  ignore (ok (S.write t 0 b (bytes "v2-solo")));
  Helpers.check_bytes "local serves" "v2-solo" (ok (S.read t 0 b));
  (* Companion comes back and compares notes. *)
  let repaired = ok (S.restart t 1) in
  Alcotest.(check bool) "repaired blocks" true (repaired >= 1);
  Helpers.check_bytes "companion caught up" "v2-solo" (ok (S.read t 1 b));
  check_invariant t

let test_crashed_server_refuses () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "x")) in
  S.crash t 0;
  expect "crashed refuses" (function S.Unavailable 0 -> true | _ -> false) (S.read t 0 b);
  Alcotest.(check (option int)) "other online" (Some 1) (S.some_online t)

let test_full_disk_loss_recovery () =
  let t = fresh () in
  let blocks = List.init 10 (fun i -> ok (S.allocate_write t 0 (bytes (Printf.sprintf "block-%d" i)))) in
  S.wipe_and_crash t 0;
  let repaired = ok (S.restart t 0) in
  Alcotest.(check int) "all blocks repaired" 10 repaired;
  List.iteri
    (fun i b ->
      Helpers.check_bytes (Printf.sprintf "block %d" i) (Printf.sprintf "block-%d" i)
        (ok (S.read t 0 b)))
    blocks;
  check_invariant t

let test_both_down_then_lone_restart () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "survivor")) in
  S.crash t 0;
  S.crash t 1;
  Alcotest.(check (option int)) "none online" None (S.some_online t);
  ignore (ok (S.restart t 0));
  Helpers.check_bytes "lone server serves own disk" "survivor" (ok (S.read t 0 b))

let test_crash_between_shadow_and_local () =
  (* The §4 ordering: companion first, then local. Crash the primary in
     between: the companion has the newer copy and recovery propagates. *)
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  let seq = ok (S.shadow_write t ~primary:0 ~fresh:false b (bytes "v2")) in
  (* Primary dies before its local write. *)
  ignore seq;
  S.crash t 0;
  Helpers.check_bytes "companion already has v2" "v2" (ok (S.read t 1 b));
  let _ = ok (S.restart t 0) in
  Helpers.check_bytes "recovered primary has v2" "v2" (ok (S.read t 0 b));
  check_invariant t

let test_intention_list_discharged () =
  let t = fresh () in
  let b1 = ok (S.allocate_write t 0 (bytes "a1")) in
  S.crash t 1;
  ignore (ok (S.write t 0 b1 (bytes "a2")));
  let b2 = ok (S.allocate_write t 0 (bytes "fresh-during-outage")) in
  let repaired = ok (S.restart t 1) in
  Alcotest.(check bool) "two repairs" true (repaired >= 2);
  Helpers.check_bytes "update propagated" "a2" (ok (S.read t 1 b1));
  Helpers.check_bytes "new block propagated" "fresh-during-outage" (ok (S.read t 1 b2));
  check_invariant t

let test_seq_monotonic_across_restart () =
  let t = fresh () in
  let b = ok (S.allocate_write t 0 (bytes "v1")) in
  S.crash t 0;
  ignore (ok (S.write t 1 b (bytes "v2")));
  ignore (ok (S.restart t 0));
  ignore (ok (S.write t 0 b (bytes "v3")));
  Helpers.check_bytes "latest wins everywhere" "v3" (ok (S.read t 1 b));
  check_invariant t

let test_cost_reported () =
  let t = fresh () in
  let o = S.allocate_write t 0 (bytes "paid for") in
  Alcotest.(check bool) "cost positive" true (o.S.cost_ms > 0.0)

let () =
  Alcotest.run "stable_pair"
    [
      ( "duplex",
        [
          quick "allocate/write/read" test_allocate_write_read;
          quick "both disks hold copy" test_both_disks_hold_copy;
          quick "update via either server" test_update_via_either_server;
          quick "free" test_free;
          quick "read unallocated" test_read_unallocated;
        ] );
      ( "corruption",
        [
          quick "repair from companion" test_corruption_repaired_from_companion;
          quick "both corrupt detected" test_corrupt_both_detected;
          quick "every byte flip detected" test_every_byte_flip_detected;
        ] );
      ( "envelope",
        [
          quick "sealed image golden bytes" test_sealed_image_golden;
        ] );
      ( "collisions",
        [
          quick "interleaved allocate collision" test_interleaved_allocate_collision;
          quick "allocate_write retries" test_allocate_write_retries_internally;
        ] );
      ( "crashes",
        [
          quick "write with companion down" test_write_with_companion_down;
          quick "crashed server refuses" test_crashed_server_refuses;
          quick "full disk loss recovery" test_full_disk_loss_recovery;
          quick "both down, lone restart" test_both_down_then_lone_restart;
          quick "crash between shadow and local" test_crash_between_shadow_and_local;
          quick "intentions discharged" test_intention_list_discharged;
          quick "sequence monotonic" test_seq_monotonic_across_restart;
          quick "cost reported" test_cost_reported;
        ] );
    ]

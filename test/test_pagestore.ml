open Afs_core

let quick = Helpers.quick
let bytes = Helpers.bytes
let ok = Helpers.ok

let fresh ?cache ?capacity () =
  let store = Store.memory ~block_size:1024 () in
  (store, Pagestore.create ?cache ?capacity store)

let counter ps name = Afs_util.Stats.Counter.get (Pagestore.counters ps) name

let page_with_data s = Page.with_data Page.empty (bytes s)

let read_data ps b = Helpers.str (ok (Pagestore.read ps b)).Page.data

let test_write_read_cached () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "cached")));
  Alcotest.(check string) "read hits cache" "cached" (read_data ps b)

let test_write_is_deferred () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "dirty")));
  Alcotest.(check int) "dirty count" 1 (Pagestore.dirty_count ps);
  (match store.Store.read b with
  | Error _ -> () (* Not durable yet: exactly the §5.4 point. *)
  | Ok _ -> Alcotest.fail "write reached the store before flush");
  ignore (ok (Pagestore.flush ps));
  Alcotest.(check int) "clean after flush" 0 (Pagestore.dirty_count ps);
  match store.Store.read b with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "not durable after flush: %s" msg

let test_write_through_immediate () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "now")));
  Alcotest.(check int) "not dirty" 0 (Pagestore.dirty_count ps);
  match store.Store.read b with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "not durable: %s" msg

let test_flush_block_single () =
  let _, ps = fresh () in
  let b1 = ok (Pagestore.allocate ps) in
  let b2 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b1 (page_with_data "one")));
  ignore (ok (Pagestore.write ps b2 (page_with_data "two")));
  ignore (ok (Pagestore.flush_block ps b1));
  Alcotest.(check int) "one still dirty" 1 (Pagestore.dirty_count ps)

let test_crash_loses_unflushed () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "will vanish")));
  Pagestore.drop_volatile ps;
  Alcotest.(check int) "dirty gone" 0 (Pagestore.dirty_count ps);
  match Pagestore.read ps b with
  | Error (Errors.Store_failure _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "unflushed write survived the crash"

let test_crash_keeps_flushed () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "durable")));
  ignore (ok (Pagestore.flush ps));
  Pagestore.drop_volatile ps;
  Alcotest.(check string) "reloaded from store" "durable" (read_data ps b)

let test_page_too_large () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  match Pagestore.write ps b (page_with_data (String.make 2000 'x')) with
  | Error (Errors.Page_too_large { limit = 1024; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok () -> Alcotest.fail "oversized page accepted"

let test_overwrite_dirty_keeps_one_dirty_count () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "a")));
  ignore (ok (Pagestore.write ps b (page_with_data "b")));
  Alcotest.(check int) "counted once" 1 (Pagestore.dirty_count ps);
  Alcotest.(check string) "latest wins" "b" (read_data ps b)

let test_invalidate () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "v1")));
  (* Another server writes the block behind our back. *)
  (match store.Store.write b (Page.encode (page_with_data "v2")) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "stale cache serves v1" "v1" (read_data ps b);
  Pagestore.invalidate ps b;
  Alcotest.(check string) "fresh after invalidate" "v2" (read_data ps b)

let test_invalidate_dirty_discards () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "doomed")));
  Pagestore.invalidate ps b;
  Alcotest.(check int) "dirty count adjusted" 0 (Pagestore.dirty_count ps)

let test_free_drops_cache () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "x")));
  Pagestore.free ps b;
  match Pagestore.read ps b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "freed block still readable"

let test_uncached_mode () =
  let store, ps = fresh ~cache:false () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "direct")));
  Alcotest.(check int) "never dirty" 0 (Pagestore.dirty_count ps);
  (match store.Store.read b with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "write-through failed: %s" msg);
  Alcotest.(check string) "reads via store" "direct" (read_data ps b)

let test_decode_error_surfaces () =
  let store, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  (match store.Store.write b (bytes "garbage block") with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match Pagestore.read ps b with
  | Error (Errors.Store_failure _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok _ -> Alcotest.fail "decoded garbage"

let test_locks_pass_through () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  Alcotest.(check bool) "first lock" true (Pagestore.lock ps b);
  Alcotest.(check bool) "second denied" false (Pagestore.lock ps b);
  Pagestore.unlock ps b;
  Alcotest.(check bool) "relock after unlock" true (Pagestore.lock ps b)

(* {2 Bounded capacity: eviction, write-back, pinning} *)

let test_eviction_writes_back_dirty () =
  let store, ps = fresh ~capacity:2 () in
  let blocks = List.init 4 (fun i -> (i, ok (Pagestore.allocate ps))) in
  List.iter
    (fun (i, b) -> ignore (ok (Pagestore.write ps b (page_with_data (Printf.sprintf "d%d" i)))))
    blocks;
  (* Capacity 2, four dirty inserts: two evictions, each written back. *)
  Alcotest.(check int) "evictions" 2 (counter ps "cache.evictions");
  Alcotest.(check int) "writebacks" 2 (counter ps "cache.writebacks");
  Alcotest.(check int) "dirty entries left" 2 (Pagestore.dirty_count ps);
  (* The evicted writes reached the store without any flush. *)
  let b0 = List.assoc 0 blocks in
  (match store.Store.read b0 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "evicted dirty block not written back: %s" msg);
  (* Re-reading the evictee is a miss but sees the written-back data. *)
  Alcotest.(check string) "write-back preserved data" "d0" (read_data ps b0)

let test_eviction_order_is_lru () =
  let _, ps = fresh ~capacity:2 () in
  let b0 = ok (Pagestore.allocate ps) in
  let b1 = ok (Pagestore.allocate ps) in
  let b2 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b0 (page_with_data "a")));
  ignore (ok (Pagestore.write ps b1 (page_with_data "b")));
  ignore (read_data ps b0) (* touch b0: b1 becomes the LRU *);
  let m0 = counter ps "cache.misses" in
  ignore (ok (Pagestore.write ps b2 (page_with_data "c")));
  ignore (read_data ps b0);
  Alcotest.(check int) "b0 still cached after b2 insert" m0 (counter ps "cache.misses");
  ignore (read_data ps b1);
  Alcotest.(check int) "b1 was the evictee" (m0 + 1) (counter ps "cache.misses")

let test_locked_block_never_evicted () =
  let _, ps = fresh ~capacity:1 () in
  let b0 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b0 (page_with_data "pinned")));
  Alcotest.(check bool) "lock" true (Pagestore.lock ps b0);
  (* Push many other blocks through the one-slot cache. *)
  for i = 1 to 5 do
    let b = ok (Pagestore.allocate ps) in
    ignore (ok (Pagestore.write ps b (page_with_data (string_of_int i))))
  done;
  let h0 = counter ps "cache.hits" in
  Alcotest.(check string) "pinned entry survived" "pinned" (read_data ps b0);
  Alcotest.(check int) "served from cache" (h0 + 1) (counter ps "cache.hits");
  Pagestore.unlock ps b0;
  (* Unpinned now: the next insert evicts it (write-back keeps the data). *)
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b (page_with_data "x")));
  let m0 = counter ps "cache.misses" in
  Alcotest.(check string) "data survives via write-back" "pinned" (read_data ps b0);
  Alcotest.(check int) "read after unlock misses" (m0 + 1) (counter ps "cache.misses")

let test_hit_miss_counters () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "x")));
  Pagestore.invalidate ps b;
  ignore (read_data ps b);
  ignore (read_data ps b);
  Alcotest.(check int) "one miss" 1 (counter ps "cache.misses");
  Alcotest.(check int) "one hit" 1 (counter ps "cache.hits")

let test_flush_then_evict_no_second_write () =
  let _, ps = fresh ~capacity:1 () in
  let b0 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b0 (page_with_data "v")));
  ignore (ok (Pagestore.flush ps));
  (* Clean after flush: evicting it must not write back again. *)
  let b1 = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write ps b1 (page_with_data "w")));
  Alcotest.(check int) "no write-back of clean evictee" 0 (counter ps "cache.writebacks");
  Alcotest.(check int) "evicted" 1 (counter ps "cache.evictions")

(* {2 Encode-once: each page value is serialised at most once} *)

let encodes_during f =
  let before = Page.fresh_encodes () in
  f ();
  Page.fresh_encodes () - before

let test_one_encode_per_write () =
  let _, ps = fresh () in
  let blocks = List.init 3 (fun _ -> ok (Pagestore.allocate ps)) in
  let n =
    encodes_during (fun () ->
        List.iteri
          (fun i b -> ignore (ok (Pagestore.write ps b (page_with_data (string_of_int i)))))
          blocks;
        ignore (ok (Pagestore.flush ps)))
  in
  Alcotest.(check int) "one encode per written page" 3 n;
  Alcotest.(check int) "second flush encodes nothing" 0
    (encodes_during (fun () -> ignore (ok (Pagestore.flush ps))))

let test_one_encode_write_through () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  let n =
    encodes_during (fun () -> ignore (ok (Pagestore.write_through ps b (page_with_data "x"))))
  in
  (* The historical bug this guards against: [write_through] used to pay
     one encode for the size check and a second for the store write. *)
  Alcotest.(check int) "write_through encodes exactly once" 1 n

let test_batch_encodes_k () =
  let _, ps = fresh () in
  let entries =
    List.init 4 (fun i -> (ok (Pagestore.allocate ps), page_with_data (string_of_int i)))
  in
  let n = encodes_during (fun () -> ignore (ok (Pagestore.write_through_batch ps entries))) in
  Alcotest.(check int) "batch of k encodes k" 4 n

let test_faulted_page_rewrites_free () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "v")));
  Pagestore.drop_volatile ps;
  (* Fault the page in (decode seeds the memo), write the same value back
     and flush: the round trip must not serialise at all. *)
  let n =
    encodes_during (fun () ->
        let p = ok (Pagestore.read ps b) in
        ignore (ok (Pagestore.write ps b p));
        ignore (ok (Pagestore.flush ps)))
  in
  Alcotest.(check int) "fault-in/flush-out costs zero encodes" 0 n

let test_refresh_revalidates_in_place () =
  let _, ps = fresh () in
  let b = ok (Pagestore.allocate ps) in
  ignore (ok (Pagestore.write_through ps b (page_with_data "same")));
  let p0 = ok (Pagestore.read ps b) in
  Pagestore.refresh ps b;
  let m0 = counter ps "cache.misses" in
  let p1 = ok (Pagestore.read ps b) in
  (* The store image is unchanged, so revalidation must reuse the decoded
     page (physically: the memo comparison short-circuits the decode) while
     still accounting the store round trip as a miss. *)
  Alcotest.(check bool) "same decoded page reused" true (p0 == p1);
  Alcotest.(check int) "revalidation counts as a miss" (m0 + 1) (counter ps "cache.misses");
  let h0 = counter ps "cache.hits" in
  ignore (ok (Pagestore.read ps b));
  Alcotest.(check int) "entry is fresh again" (h0 + 1) (counter ps "cache.hits")

(* A cache hit promotes its LRU node by relinking existing cells and
   returns the entry's prebuilt result: it allocates nothing. Cycling over
   four blocks makes every hit a real promotion, not a hit on the head. *)
let test_hit_allocates_nothing () =
  let _, ps = fresh ~capacity:8 () in
  let blocks =
    Array.init 4 (fun i ->
        let b = ok (Pagestore.allocate ps) in
        ignore (ok (Pagestore.write_through ps b (page_with_data (string_of_int i))));
        b)
  in
  (* Warm up: the hit counter is registered at its first bump. *)
  Array.iter (fun b -> ignore (ok (Pagestore.read ps b))) blocks;
  let n = 10_000 in
  let hits0 = counter ps "cache.hits" in
  let before = Stdlib.Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Pagestore.read ps blocks.(i land 3)))
  done;
  let words = Stdlib.Gc.minor_words () -. before in
  Alcotest.(check int) "all hits" n (counter ps "cache.hits" - hits0);
  (* A few words of slack for boxing the measurement's own floats. *)
  if words > 16.0 then
    Alcotest.failf "cache hits allocate %.0f words over %d reads (want 0)" words n

(* {2 Property: cached reads ≡ decode-from-image, under random eviction} *)

(* Drive a tiny (capacity 2) pagestore with random writes, reads, flushes
   and stale-markings over 6 blocks, mirroring every write in a plain
   model map. Whatever the eviction/revalidation sequence did, a read must
   return a page structurally equal to the model's last write, and after a
   final flush the store image must decode to the same value. *)
let prop_cache_reads_equal_model =
  let open QCheck2 in
  let nblocks = 6 in
  let op_gen =
    Gen.(
      oneof
        [
          map2 (fun b s -> `Write (b, s)) (int_bound (nblocks - 1)) (small_string ~gen:printable);
          map (fun b -> `Read b) (int_bound (nblocks - 1));
          return `Flush;
          map (fun b -> `Refresh b) (int_bound (nblocks - 1));
          map (fun b -> `Invalidate b) (int_bound (nblocks - 1));
        ])
  in
  Test.make ~name:"cached reads = decode-from-image under random eviction" ~count:200
    Gen.(list_size (int_range 1 60) op_gen)
    (fun ops ->
      let store = Store.memory ~block_size:1024 () in
      let ps = Pagestore.create ~capacity:2 store in
      let blocks = Array.init nblocks (fun _ -> ok (Pagestore.allocate ps)) in
      let model = Array.make nblocks None in
      (* Seed every block so reads are always defined. *)
      Array.iteri
        (fun i b ->
          let p = page_with_data (Printf.sprintf "init%d" i) in
          ignore (ok (Pagestore.write_through ps b p));
          model.(i) <- Some p)
        blocks;
      List.iter
        (function
          | `Write (i, s) ->
              let p = page_with_data s in
              ignore (ok (Pagestore.write ps blocks.(i) p));
              model.(i) <- Some p
          | `Read i -> (
              let p = ok (Pagestore.read ps blocks.(i)) in
              match model.(i) with
              | Some m when Page.equal p m -> ()
              | _ -> Test.fail_reportf "read of block %d diverged from model" i)
          | `Flush -> ignore (ok (Pagestore.flush ps))
          | `Refresh i -> Pagestore.refresh ps blocks.(i)
          | `Invalidate i ->
              Pagestore.invalidate ps blocks.(i);
              (* Invalidate discards a pending dirty write (§3.1: the commit
                 path trusts nothing unread) — the durable image wins. *)
              model.(i) <-
                (match Page.decode (Helpers.ok_str (store.Store.read blocks.(i))) with
                | Ok p -> Some p
                | Error _ -> model.(i)))
        ops;
      ignore (ok (Pagestore.flush ps));
      Array.iteri
        (fun i b ->
          let cached = ok (Pagestore.read ps b) in
          let durable =
            match Page.decode (Helpers.ok_str (store.Store.read b)) with
            | Ok p -> p
            | Error msg -> Test.fail_reportf "store image undecodable: %s" msg
          in
          match model.(i) with
          | Some m ->
              if not (Page.equal cached m) then
                Test.fail_reportf "final cached read of block %d diverged" i;
              if not (Page.equal durable m) then
                Test.fail_reportf "final store image of block %d diverged" i
          | None -> ())
        blocks;
      true)

let () =
  Alcotest.run "pagestore"
    [
      ( "write-back cache",
        [
          quick "write/read cached" test_write_read_cached;
          quick "writes deferred until flush" test_write_is_deferred;
          quick "write_through immediate" test_write_through_immediate;
          quick "flush single block" test_flush_block_single;
          quick "crash loses unflushed" test_crash_loses_unflushed;
          quick "crash keeps flushed" test_crash_keeps_flushed;
          quick "overwrite dirty counted once" test_overwrite_dirty_keeps_one_dirty_count;
          quick "uncached mode" test_uncached_mode;
        ] );
      ( "coherence",
        [
          quick "invalidate" test_invalidate;
          quick "invalidate dirty" test_invalidate_dirty_discards;
          quick "free drops cache" test_free_drops_cache;
        ] );
      ( "bounded capacity",
        [
          quick "dirty eviction writes back" test_eviction_writes_back_dirty;
          quick "eviction order is LRU" test_eviction_order_is_lru;
          quick "locked block never evicted" test_locked_block_never_evicted;
          quick "hit/miss counters" test_hit_miss_counters;
          quick "hit allocates nothing" test_hit_allocates_nothing;
          quick "clean evictee not rewritten" test_flush_then_evict_no_second_write;
        ] );
      ( "errors",
        [
          quick "page too large" test_page_too_large;
          quick "decode error surfaces" test_decode_error_surfaces;
          quick "locks pass through" test_locks_pass_through;
        ] );
      ( "encode-once",
        [
          quick "one encode per write" test_one_encode_per_write;
          quick "write_through encodes once" test_one_encode_write_through;
          quick "batch of k encodes k" test_batch_encodes_k;
          quick "fault-in/flush-out is encode-free" test_faulted_page_rewrites_free;
          quick "refresh revalidates in place" test_refresh_revalidates_in_place;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_cache_reads_equal_model ] );
    ]

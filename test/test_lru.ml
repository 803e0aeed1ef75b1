(* The bounded LRU index under Pagestore's write-back cache: recency
   order, pinning, and the owner-driven eviction protocol. *)

module Lru = Afs_util.Lru

let find l k = match Lru.find l k with v -> Some v | exception Not_found -> None

let candidate l =
  match Lru.lru_unpinned l with Some (k, _) -> Some k | None -> None

let test_set_find_promotes () =
  let l = Lru.create ~capacity:8 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Lru.set l 3 "c";
  Alcotest.(check (option string)) "find" (Some "a") (find l 1);
  (* 1 was just used: the eviction candidate is now 2. *)
  Alcotest.(check (option int)) "lru after find" (Some 2) (candidate l)

let test_peek_does_not_promote () =
  let l = Lru.create ~capacity:8 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Alcotest.(check (option string)) "peek" (Some "a") (Lru.peek l 1);
  Alcotest.(check (option int)) "lru unchanged" (Some 1) (candidate l)

let test_replace_promotes () =
  let l = Lru.create ~capacity:8 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Lru.set l 1 "a2";
  Alcotest.(check int) "length" 2 (Lru.length l);
  Alcotest.(check (option string)) "replaced" (Some "a2") (find l 1);
  Alcotest.(check (option int)) "2 became lru" (Some 2) (candidate l)

let test_never_self_evicts () =
  let l = Lru.create ~capacity:2 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Lru.set l 3 "c";
  Alcotest.(check int) "over capacity until drained" 3 (Lru.length l);
  Alcotest.(check bool) "needs eviction" true (Lru.needs_eviction l);
  (* The owner drains. *)
  (match candidate l with
  | Some k -> Lru.remove l k
  | None -> Alcotest.fail "expected a candidate");
  Alcotest.(check int) "drained" 2 (Lru.length l);
  Alcotest.(check bool) "within capacity" false (Lru.needs_eviction l)

let test_pin_skips_candidate () =
  let l = Lru.create ~capacity:2 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Lru.set l 3 "c";
  Alcotest.(check bool) "pin oldest" true (Lru.pin l 1);
  Alcotest.(check (option int)) "candidate skips pinned" (Some 2) (candidate l);
  Lru.unpin l 1;
  Alcotest.(check (option int)) "unpinned is candidate again" (Some 1) (candidate l)

let test_all_pinned () =
  let l = Lru.create ~capacity:1 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  ignore (Lru.pin l 1);
  ignore (Lru.pin l 2);
  Alcotest.(check (option int)) "no candidate when all pinned" None (candidate l);
  Lru.unpin l 2;
  Alcotest.(check (option int)) "candidate reappears" (Some 2) (candidate l)

let test_pin_absent () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check bool) "pin of absent key" false (Lru.pin l 42)

let test_remove_and_clear () =
  let l = Lru.create ~capacity:4 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Lru.remove l 1;
  Alcotest.(check bool) "removed" false (Lru.mem l 1);
  Alcotest.(check int) "length" 1 (Lru.length l);
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.length l);
  Alcotest.(check (option int)) "no candidate" None (candidate l)

let test_fold_recency_order () =
  let l = Lru.create ~capacity:8 in
  Lru.set l 1 "a";
  Lru.set l 2 "b";
  Lru.set l 3 "c";
  ignore (Lru.find l 1);
  let order = List.rev (Lru.fold (fun k _ acc -> k :: acc) l []) in
  Alcotest.(check (list int)) "MRU first" [ 1; 3; 2 ] order

let test_eviction_sequence () =
  (* Fill far past capacity, draining after each insert like Pagestore
     does: exactly the oldest unpinned entries disappear. *)
  let l = Lru.create ~capacity:3 in
  for k = 1 to 10 do
    Lru.set l k (string_of_int k);
    while Lru.needs_eviction l do
      match candidate l with
      | Some victim -> Lru.remove l victim
      | None -> Alcotest.fail "unpinned candidate expected"
    done
  done;
  let keys = List.sort compare (Lru.fold (fun k _ acc -> k :: acc) l []) in
  Alcotest.(check (list int)) "newest 3 survive" [ 8; 9; 10 ] keys

let test_invalid_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Lru.create ~capacity:0))

let () =
  Alcotest.run "lru"
    [
      ( "basics",
        [
          Helpers.quick "set/find promotes" test_set_find_promotes;
          Helpers.quick "peek does not promote" test_peek_does_not_promote;
          Helpers.quick "replace promotes" test_replace_promotes;
          Helpers.quick "remove and clear" test_remove_and_clear;
          Helpers.quick "fold is recency order" test_fold_recency_order;
          Helpers.quick "invalid capacity" test_invalid_capacity;
        ] );
      ( "eviction protocol",
        [
          Helpers.quick "never self-evicts" test_never_self_evicts;
          Helpers.quick "pin skips candidate" test_pin_skips_candidate;
          Helpers.quick "all pinned" test_all_pinned;
          Helpers.quick "pin of absent key" test_pin_absent;
          Helpers.quick "eviction sequence" test_eviction_sequence;
        ] );
    ]

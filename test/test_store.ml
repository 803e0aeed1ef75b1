(* Store.memory against a reference model: random operation sequences run
   on the store and on a stdlib-Hashtbl model of the Store.t contract,
   and every answer must agree. The unit tests pin the cases a random
   walk reaches rarely: growth past the initial 1024-slot arrays, freed
   blocks, and the replication stream's allocation replay check. *)

open Afs_core

let quick = Helpers.quick
let ok_str = Helpers.ok_str
let bytes = Helpers.bytes
let block_size = 64

let refused what = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error (_ : string) -> ()

(* {2 The reference model} *)

(* Allocated blocks map to their image, [None] until first written;
   numbers come from a counter that [free] never rewinds. *)
type model = { images : (int, bytes option) Hashtbl.t; mutable next : int }

let model () = { images = Hashtbl.create 16; next = 0 }

let m_allocate m =
  let b = m.next in
  m.next <- b + 1;
  Hashtbl.replace m.images b None;
  Ok b

let m_free m b =
  Hashtbl.remove m.images b;
  Ok ()

let m_read m b =
  match Hashtbl.find_opt m.images b with
  | Some (Some data) -> Ok (Bytes.copy data)
  | Some None -> Error "never written"
  | None -> Error "not allocated"

let m_write m b data =
  if not (Hashtbl.mem m.images b) then Error "not allocated"
  else if Bytes.length data > block_size then Error "too large"
  else begin
    Hashtbl.replace m.images b (Some (Bytes.copy data));
    Ok ()
  end

let rec m_write_batch m = function
  | [] -> Ok ()
  | (b, data) :: rest -> ( match m_write m b data with Ok () -> m_write_batch m rest | e -> e)

let m_list m = Ok (List.sort compare (Hashtbl.fold (fun b _ acc -> b :: acc) m.images []))

let rec m_apply_ops m = function
  | [] -> Ok ()
  | op :: rest -> (
      let r =
        match op with
        | Store.Alloc b -> (
            match m_allocate m with Ok b' when b' = b -> Ok () | _ -> Error "alloc replay")
        | Store.Free b -> m_free m b
        | Store.Write (b, data) -> m_write m b data
      in
      match r with Ok () -> m_apply_ops m rest | e -> e)

(* {2 Operations} *)

type op =
  | Allocate of int  (** that many allocations in a row *)
  | Free of int
  | Read of int
  | Write of int * string
  | Write_batch of (int * string) list
  | List_blocks
  | Apply_ops of [ `Alloc of int | `Free of int | `Write of int * string ] list

let show_op = function
  | Allocate n -> Printf.sprintf "allocate x%d" n
  | Free b -> Printf.sprintf "free %d" b
  | Read b -> Printf.sprintf "read %d" b
  | Write (b, s) -> Printf.sprintf "write %d (%d bytes)" b (String.length s)
  | Write_batch l ->
      Printf.sprintf "write_batch [%s]"
        (String.concat ";" (List.map (fun (b, _) -> string_of_int b) l))
  | List_blocks -> "list_blocks"
  | Apply_ops l -> Printf.sprintf "apply_ops (%d ops)" (List.length l)

(* Block operands cluster on the first few dozen numbers so that reads,
   writes and frees keep hitting allocated, freed and never-allocated
   blocks alike; a rare long allocation run crosses the 1024 boundary. *)
let op_gen =
  let open QCheck2.Gen in
  let block = int_range (-1) 40 in
  let data = string_size ~gen:char (int_range 0 (block_size + 4)) in
  let alloc_op =
    oneof
      [
        map (fun b -> `Alloc b) (int_range 0 45);
        map (fun b -> `Free b) block;
        map2 (fun b s -> `Write (b, s)) block data;
      ]
  in
  frequency
    [
      (4, map (fun n -> Allocate n) (int_range 1 4));
      (1, map (fun n -> Allocate n) (int_range 500 1100));
      (3, map (fun b -> Free b) block);
      (5, map (fun b -> Read b) block);
      (5, map2 (fun b s -> Write (b, s)) block data);
      (2, map (fun l -> Write_batch l) (list_size (int_range 0 4) (pair block data)));
      (1, return List_blocks);
      (2, map (fun l -> Apply_ops l) (list_size (int_range 0 5) alloc_op));
    ]

let same_outcome what store_r model_r eq =
  match (store_r, model_r) with
  | Ok a, Ok b -> if not (eq a b) then QCheck2.Test.fail_reportf "%s: values differ" what
  | Error _, Error _ -> ()
  | Ok _, Error e -> QCheck2.Test.fail_reportf "%s: store accepted, model refused (%s)" what e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "%s: store refused (%s), model accepted" what e

let run_op store m op =
  let what = show_op op in
  let unit_eq () () = true in
  match op with
  | Allocate n ->
      for _ = 1 to n do
        same_outcome what (store.Store.allocate ()) (m_allocate m) Int.equal
      done
  | Free b -> same_outcome what (store.Store.free b) (m_free m b) unit_eq
  | Read b -> same_outcome what (store.Store.read b) (m_read m b) Bytes.equal
  | Write (b, s) ->
      same_outcome what (store.Store.write b (bytes s)) (m_write m b (bytes s)) unit_eq
  | Write_batch l ->
      let l = List.map (fun (b, s) -> (b, bytes s)) l in
      same_outcome what (store.Store.write_batch l) (m_write_batch m l) unit_eq
  | List_blocks ->
      same_outcome what (store.Store.list_blocks ()) (m_list m) (List.equal Int.equal)
  | Apply_ops l ->
      let ops =
        List.map
          (function
            | `Alloc b -> Store.Alloc b
            | `Free b -> Store.Free b
            | `Write (b, s) -> Store.Write (b, bytes s))
          l
      in
      same_outcome what (Store.apply_ops store ops) (m_apply_ops m ops) unit_eq

let prop_memory_matches_model =
  QCheck2.Test.make ~name:"Store.memory answers as the Hashtbl model does" ~count:150
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck2.Gen.(list_size (int_range 1 80) op_gen)
    (fun ops ->
      let store = Store.memory ~block_size () in
      let m = model () in
      List.iter (run_op store m) ops;
      (* Every block ever numbered reads back as the model says. *)
      for b = 0 to m.next do
        same_outcome (Printf.sprintf "final read %d" b) (store.Store.read b) (m_read m b)
          Bytes.equal
      done;
      same_outcome "final list_blocks" (store.Store.list_blocks ()) (m_list m)
        (List.equal Int.equal);
      true)

(* {2 Pinned cases} *)

let test_growth () =
  let store = Store.memory ~block_size () in
  let n = 3000 in
  for i = 0 to n - 1 do
    Alcotest.(check int) "counter order" i (ok_str (store.Store.allocate ()));
    ok_str (store.Store.write i (bytes (string_of_int i)))
  done;
  for i = 0 to n - 1 do
    if i mod 3 = 0 then ok_str (store.Store.free i)
  done;
  for i = 0 to n - 1 do
    match store.Store.read i with
    | Ok data when i mod 3 <> 0 ->
        Alcotest.(check string) "image kept across growth" (string_of_int i)
          (Bytes.to_string data)
    | Error _ when i mod 3 = 0 -> ()
    | Ok _ -> Alcotest.failf "freed block %d still reads" i
    | Error e -> Alcotest.failf "block %d lost: %s" i e
  done;
  let listed = ok_str (store.Store.list_blocks ()) in
  Alcotest.(check int) "listing size" (n - (n / 3)) (List.length listed);
  Alcotest.(check (list int)) "listing ascending" (List.sort compare listed) listed

let test_freed_block_is_gone () =
  let store = Store.memory ~block_size () in
  let b = ok_str (store.Store.allocate ()) in
  ok_str (store.Store.write b (bytes "live"));
  ok_str (store.Store.free b);
  refused "read after free" (Result.map ignore (store.Store.read b));
  refused "write after free" (store.Store.write b (bytes "again"));
  refused "batch write after free" (store.Store.write_batch [ (b, bytes "again") ]);
  Alcotest.(check (list int)) "not listed" [] (ok_str (store.Store.list_blocks ()));
  Alcotest.(check int) "numbers are not reused" (b + 1) (ok_str (store.Store.allocate ()))

let test_unallocated_write_refused () =
  let store = Store.memory ~block_size () in
  refused "never allocated" (store.Store.write 5 (bytes "x"));
  refused "negative block" (store.Store.write (-1) (bytes "x"));
  Alcotest.(check (list int)) "nothing allocated by the refused writes" []
    (ok_str (store.Store.list_blocks ()));
  let b = ok_str (store.Store.allocate ()) in
  refused "allocated, never written" (Result.map ignore (store.Store.read b))

let test_alloc_replay_check () =
  let store = Store.memory ~block_size () in
  ok_str (Store.apply_ops store [ Store.Alloc 0; Store.Write (0, bytes "a"); Store.Alloc 1 ]);
  (match Store.apply_ops store [ Store.Alloc 5 ] with
  | Ok () -> Alcotest.fail "replay accepted a diverged allocation frontier"
  | Error _ -> ());
  refused "write to a block the stream never allocated"
    (Store.apply_ops store [ Store.Write (7, bytes "x") ]);
  Alcotest.(check string) "replayed image" "a" (Bytes.to_string (ok_str (store.Store.read 0)))

let () =
  Alcotest.run "store"
    [
      ( "memory",
        [
          quick "growth past the initial capacity" test_growth;
          quick "freed block is gone" test_freed_block_is_gone;
          quick "write to an unallocated block refused" test_unallocated_write_refused;
          quick "alloc replay check" test_alloc_replay_check;
          QCheck_alcotest.to_alcotest prop_memory_matches_model;
        ] );
    ]

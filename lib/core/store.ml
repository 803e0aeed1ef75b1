module Block_server = Afs_block.Block_server
module Stable_pair = Afs_stable.Stable_pair
module Itbl = Afs_util.Itbl

type t = {
  block_size : int;
  allocate : unit -> (int, string) result;
  free : int -> (unit, string) result;
  read : int -> (bytes, string) result;
  write : int -> bytes -> (unit, string) result;
  write_batch : (int * bytes) list -> (unit, string) result;
  lock : int -> bool;
  unlock : int -> unit;
  list_blocks : unit -> (int list, string) result;
}

type op = Alloc of int | Free of int | Write of int * bytes

let apply_op t = function
  | Alloc b -> (
      (* Replaying an allocation must land on the same block number: the
         shipped stream carries absolute block ids, so the applying
         store's allocation frontier has to track the origin's exactly. *)
      match t.allocate () with
      | Ok b' when b' = b -> Ok ()
      | Ok b' -> Error (Printf.sprintf "alloc replay: expected block %d, got %d" b b')
      | Error _ as e -> e)
  | Free b -> t.free b
  | Write (b, data) -> t.write b data

(* Consecutive writes ride one [write_batch] (the stable pair amortises
   its companion hop across them); alloc/free replay one at a time. *)
let apply_ops t ops =
  let flush = function
    | [] -> Ok ()
    | run -> t.write_batch (List.rev run)
  in
  let rec go run = function
    | [] -> flush run
    | Write (b, data) :: rest -> go ((b, data) :: run) rest
    | op :: rest -> (
        match flush run with
        | Error _ as e -> e
        | Ok () -> ( match apply_op t op with Ok () -> go [] rest | Error _ as e -> e))
  in
  go [] ops

(* Default batch write: the single writes in order, stopping at the first
   error so the durable state is always a prefix of the batch. Backends
   with a real amortisation opportunity (the stable pair's companion hop)
   override this. *)
let sequential_batch write entries =
  let rec go = function
    | [] -> Ok ()
    | (b, data) :: rest -> ( match write b data with Ok () -> go rest | Error _ as e -> e)
  in
  go entries

(* The commit section's test-and-set locks, for backends with no lock of
   their own. *)
let lock_table () =
  let locks : unit Itbl.t = Itbl.create 16 in
  let lock b =
    if Itbl.mem locks b then false
    else begin
      Itbl.replace locks b ();
      true
    end
  in
  (lock, Itbl.remove locks)

(* Block numbers come from a counter, so the memory store needs no hash:
   two arrays indexed by block number hold the image ([unwritten] until
   the first write) and the allocation bit, both doubling when the
   counter reaches their end. *)
let memory ?(block_size = 32768) () =
  let unwritten = Bytes.create 0 in
  let images = ref (Array.make 1024 unwritten) in
  let allocated = ref (Bytes.make 1024 '\000') in
  let lock, unlock = lock_table () in
  let next = ref 0 in
  let is_allocated b = b >= 0 && b < !next && Bytes.get !allocated b <> '\000' in
  let grow () =
    let n = Array.length !images in
    let bigger = Array.make (2 * n) unwritten in
    Array.blit !images 0 bigger 0 n;
    images := bigger;
    allocated := Bytes.extend !allocated 0 n;
    Bytes.fill !allocated n n '\000'
  in
  let write b data =
    if not (is_allocated b) then Error (Printf.sprintf "block %d not allocated" b)
    else if Bytes.length data > block_size then Error "block too large"
    else begin
      (* A fresh copy, so never physically [unwritten]. *)
      !images.(b) <- Bytes.copy data;
      Ok ()
    end
  in
  {
    block_size;
    allocate =
      (fun () ->
        let b = !next in
        if b = Array.length !images then grow ();
        incr next;
        Bytes.set !allocated b '\001';
        Ok b);
    free =
      (fun b ->
        if is_allocated b then begin
          Bytes.set !allocated b '\000';
          !images.(b) <- unwritten
        end;
        Ok ());
    read =
      (fun b ->
        if not (is_allocated b) then Error (Printf.sprintf "block %d not allocated" b)
        else if !images.(b) == unwritten then Error (Printf.sprintf "block %d never written" b)
        else Ok (Bytes.copy !images.(b)));
    write;
    write_batch = sequential_batch write;
    lock;
    unlock;
    list_blocks =
      (fun () ->
        let rec scan b acc =
          if b < 0 then acc else scan (b - 1) (if is_allocated b then b :: acc else acc)
        in
        Ok (scan (!next - 1) []));
  }

let string_of_block_error = Fmt.str "%a" Block_server.pp_error

let of_block_server server ~account =
  let lift : type a. a Block_server.outcome -> (a, string) result =
   fun outcome -> Result.map_error string_of_block_error outcome.Block_server.result
  in
  let write b data = lift (Block_server.write server account b data) in
  {
    block_size = Block_server.block_size server;
    allocate = (fun () -> lift (Block_server.allocate server account));
    free = (fun b -> lift (Block_server.deallocate server account b));
    read = (fun b -> lift (Block_server.read server account b));
    write;
    write_batch = sequential_batch write;
    lock =
      (fun b ->
        match (Block_server.lock server account b).Block_server.result with
        | Ok () -> true
        | Error _ -> false);
    unlock = (fun b -> ignore (Block_server.unlock server account b));
    list_blocks = (fun () -> Ok (Block_server.owned_blocks server account));
  }

let string_of_stable_error = Fmt.str "%a" Stable_pair.pp_error

let of_stable_pair pair =
  (* Block-server-style locks are not part of the stable pair; the file
     service's commit section still needs mutual exclusion, so we keep it
     here, colocated with the routing. A real deployment would put it in
     the block servers (§5.2: "if the disk server implements a test-and-set
     operation, any server can be allowed to carry out a commit"). *)
  let lock, unlock = lock_table () in
  let allocated : unit Itbl.t = Itbl.create 1024 in
  let via f =
    match Stable_pair.some_online pair with
    | None -> Error "no stable server online"
    | Some i -> f i
  in
  let lift : type a. a Stable_pair.outcome -> (a, string) result =
   fun outcome -> Result.map_error string_of_stable_error outcome.Stable_pair.result
  in
  {
    block_size = Stable_pair.block_size pair;
    allocate =
      (fun () ->
        (* The stable pair allocates on first write; pin the number by
           allocating with an empty payload. *)
        via (fun i ->
            match lift (Stable_pair.allocate_write pair i Bytes.empty) with
            | Ok b ->
                Itbl.replace allocated b ();
                Ok b
            | Error _ as e -> e));
    free =
      (fun b ->
        via (fun i ->
            Itbl.remove allocated b;
            lift (Stable_pair.free pair i b)));
    read = (fun b -> via (fun i -> lift (Stable_pair.read pair i b)));
    write = (fun b data -> via (fun i -> lift (Stable_pair.write pair i b data)));
    (* The whole batch rides one A→B→A round trip: the companion hop is
       charged once however many commit references the batch carries. *)
    write_batch = (fun entries -> via (fun i -> lift (Stable_pair.write_batch pair i entries)));
    lock;
    unlock;
    list_blocks = (fun () -> Ok (Itbl.sorted_keys allocated));
  }

type worm_stats = {
  bulk_writes : int;
  bulk_blocks : int;
  index_writes : int;
  index_blocks : int;
}

let worm_hybrid ?(bulk_media = Afs_disk.Media.optical)
    ?(index_media = Afs_disk.Media.magnetic) ~blocks ~block_size () =
  let module Disk = Afs_disk.Disk in
  let bulk = Disk.create ~media:bulk_media ~blocks ~block_size () in
  let index = Disk.create ~media:index_media ~blocks ~block_size () in
  let redirected : unit Itbl.t = Itbl.create 64 in
  let allocated : unit Itbl.t = Itbl.create 1024 in
  let lock, unlock = lock_table () in
  let next = ref 0 in
  let lift_disk : type a. a Disk.outcome -> (a, string) result =
   fun o -> Result.map_error (Fmt.str "%a" Disk.pp_error) o.Disk.result
  in
  let write b data =
    if not (Itbl.mem allocated b) then Error (Printf.sprintf "block %d not allocated" b)
    else if Itbl.mem redirected b then lift_disk (Disk.write index b data)
    else if Disk.is_written bulk b then begin
      Itbl.replace redirected b ();
      lift_disk (Disk.write index b data)
    end
    else lift_disk (Disk.write bulk b data)
  in
  let store =
    {
      block_size;
      allocate =
        (fun () ->
          let b = !next in
          incr next;
          Itbl.replace allocated b ();
          Ok b);
      free =
        (fun b ->
          Itbl.remove allocated b;
          (* Bulk space is write-once and stays occupied; index space is
             reclaimable. *)
          if Itbl.mem redirected b then begin
            Itbl.remove redirected b;
            ignore (Disk.erase index b)
          end;
          Ok ());
      read =
        (fun b ->
          (* A freed bulk block keeps its bits; it must still read as gone,
             as a freed block does on every other store. *)
          if not (Itbl.mem allocated b) then Error (Printf.sprintf "block %d not allocated" b)
          else if Itbl.mem redirected b then lift_disk (Disk.read index b)
          else lift_disk (Disk.read bulk b));
      write;
      write_batch = sequential_batch write;
      lock;
      unlock;
      list_blocks = (fun () -> Ok (Itbl.sorted_keys allocated));
    }
  in
  let stats () =
    let b = Disk.stats bulk and ix = Disk.stats index in
    {
      bulk_writes = b.Disk.writes;
      bulk_blocks = b.Disk.blocks_in_use;
      index_writes = ix.Disk.writes;
      index_blocks = Itbl.length redirected;
    }
  in
  (store, stats)

let counting inner =
  let reads = ref 0 and writes = ref 0 in
  ( {
      inner with
      read =
        (fun b ->
          incr reads;
          inner.read b);
      write =
        (fun b data ->
          incr writes;
          inner.write b data);
      write_batch =
        (fun entries ->
          writes := !writes + List.length entries;
          inner.write_batch entries);
    },
    fun () -> (!reads, !writes) )

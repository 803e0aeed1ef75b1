module Xrng = Afs_util.Xrng
module Zipf = Afs_util.Zipf
module Pagepath = Afs_util.Pagepath
module Server = Afs_core.Server

type shape = {
  nfiles : int;
  pages_per_file : int;
  read_pages : int;
  rmw_pages : int;
  payload_bytes : int;
  file_theta : float;
  page_theta : float;
}

let small_updates =
  {
    nfiles = 64;
    pages_per_file = 16;
    read_pages = 1;
    rmw_pages = 1;
    payload_bytes = 64;
    file_theta = 0.0;
    page_theta = 0.0;
  }


type generator = Xrng.t -> Sut.txn_spec

let payload rng size =
  let b = Bytes.create size in
  Xrng.fill_printable rng b;
  b

(* Sample [count] distinct pages through the Zipf sampler (rejection on
   duplicates; count is required to be at most the page population). *)
let distinct_pages rng zipf count taken =
  let rec draw acc remaining =
    if remaining = 0 then acc
    else
      let p = Zipf.sample zipf rng in
      if Hashtbl.mem taken p then draw acc remaining
      else begin
        Hashtbl.replace taken p ();
        draw (p :: acc) (remaining - 1)
      end
  in
  draw [] count

let make shape =
  if shape.read_pages + shape.rmw_pages > shape.pages_per_file then
    invalid_arg "Workload.make: transaction larger than a file";
  let file_zipf = Zipf.create ~n:shape.nfiles ~theta:shape.file_theta in
  let page_zipf = Zipf.create ~n:shape.pages_per_file ~theta:shape.page_theta in
  (* One distinctness table per generator, reset per transaction: the
     per-call [Hashtbl.create] showed up in million-transaction runs.
     Only membership is ever queried, so traversal order cannot leak. *)
  let taken = Hashtbl.create 16 in
  fun rng ->
    let file = Zipf.sample file_zipf rng in
    Hashtbl.reset taken;
    let reads = distinct_pages rng page_zipf shape.read_pages taken in
    let writes = distinct_pages rng page_zipf shape.rmw_pages taken in
    let data = payload rng shape.payload_bytes in
    let ops =
      List.map (fun p -> Sut.Read p) reads
      @ List.map (fun p -> Sut.Rmw (p, fun _old -> data)) writes
    in
    { Sut.file; ops; parts = [] }

let setup_file server shape ~initial =
  let open Afs_core.Errors in
  let* cap = Server.create_file server () in
  let* version = Server.create_version server cap in
  let rec add_pages p =
    if p >= shape.pages_per_file then Ok ()
    else
      let* _ =
        Server.insert_page server version ~parent:Pagepath.root ~index:p ~data:initial ()
      in
      add_pages (p + 1)
  in
  let* () = add_pages 0 in
  let* () = Server.commit server version in
  Ok cap

let setup_pages server shape ~initial =
  let open Afs_core.Errors in
  let rec make_files i acc =
    if i >= shape.nfiles then Ok (Array.of_list (List.rev acc))
    else
      let* cap = setup_file server shape ~initial in
      make_files (i + 1) (cap :: acc)
  in
  make_files 0 []

let setup_cluster cluster shape ~initial =
  let open Afs_core.Errors in
  let rec make_files i acc =
    if i >= shape.nfiles then Ok (Array.of_list (List.rev acc))
    else
      let shard = Afs_cluster.Cluster.place cluster in
      let* cap = setup_file (Afs_cluster.Shard.server shard) shape ~initial in
      make_files (i + 1) (cap :: acc)
  in
  make_files 0 []

(* {2 The cross-shard banking mix (scenario S2)}

   Accounts are one-page files whose page 0 holds a decimal balance;
   moves shuffle opaque object files that live outside the conservation
   sum. Placement is the round-robin of [setup_cluster] on a fresh
   cluster, so file [i] lives on shard [i mod shards] — the fact the
   generator uses to steer a partner on or off the debited shard. *)

type transfer_shape = {
  accounts : int;
  objects : int;
  shards : int;
  cross_ratio : float;
  move_ratio : float;
  account_theta : float;
  amount : int;
}

let bank_transfers =
  {
    accounts = 64;
    objects = 16;
    shards = 4;
    cross_ratio = 0.5;
    move_ratio = 0.1;
    account_theta = 0.6;
    amount = 5;
  }

let balance data =
  (* Anything unparsable counts as zero: a corrupted balance then shows
     up as a conservation violation instead of a harness crash. *)
  match int_of_string_opt (String.trim (Bytes.to_string data)) with
  | Some n -> n
  | None -> 0

let encode_balance n = Bytes.of_string (string_of_int n)

let transfer shape =
  if shape.shards < 1 then invalid_arg "Workload.transfer: no shards";
  if shape.accounts < 2 * shape.shards then
    invalid_arg "Workload.transfer: need two accounts per shard";
  if shape.move_ratio > 0.0 && shape.objects > 0 && shape.objects < 2 * shape.shards
  then invalid_arg "Workload.transfer: need two objects per shard for moves";
  let account_zipf = Zipf.create ~n:shape.accounts ~theta:shape.account_theta in
  let shard_of i = i mod shape.shards in
  (* Uniform partner with the shard-crossing constraint, by rejection;
     the population checks above make both branches feasible. *)
  let partner rng ~base ~count ~avoid ~cross =
    let rec pick () =
      let p = base + Xrng.int rng count in
      if p = avoid then pick ()
      else if cross <> (shard_of p <> shard_of avoid) then pick ()
      else p
    in
    pick ()
  in
  fun rng ->
    let cross = shape.shards > 1 && Xrng.float rng 1.0 < shape.cross_ratio in
    if shape.objects >= 2 && Xrng.float rng 1.0 < shape.move_ratio then begin
      (* A rename/move: blind writes — tombstone at the source object,
         payload at the destination. Objects stay outside the
         conservation sum, so the blind pair cannot disturb it. *)
      let src = shape.accounts + Xrng.int rng shape.objects in
      let dst =
        partner rng ~base:shape.accounts ~count:shape.objects ~avoid:src ~cross
      in
      let data = payload rng 32 in
      {
        Sut.file = src;
        ops = [];
        parts =
          [
            (src, [ Sut.Write (0, Bytes.of_string "moved") ]);
            (dst, [ Sut.Write (0, data) ]);
          ];
      }
    end
    else begin
      let from_acct = Zipf.sample account_zipf rng in
      let to_acct =
        partner rng ~base:0 ~count:shape.accounts ~avoid:from_acct ~cross
      in
      let debit = Sut.Rmw (0, fun old -> encode_balance (balance old - shape.amount)) in
      let credit = Sut.Rmw (0, fun old -> encode_balance (balance old + shape.amount)) in
      {
        Sut.file = from_acct;
        ops = [];
        parts = [ (from_acct, [ debit ]); (to_acct, [ credit ]) ];
      }
    end

let setup_accounts cluster shape ~initial_balance =
  let file_shape =
    { small_updates with nfiles = shape.accounts + shape.objects; pages_per_file = 1 }
  in
  setup_cluster cluster file_shape ~initial:(encode_balance initial_balance)

let total_balance sut shape =
  let total = ref 0 in
  for i = 0 to shape.accounts - 1 do
    total := !total + balance (sut.Sut.read_page i 0)
  done;
  !total

module Disk = Afs_disk.Disk
module Itbl = Afs_util.Itbl

type account = int

type error =
  | No_free_blocks
  | Not_allocated of int
  | Not_owner of { block : int; owner : account; caller : account }
  | Locked of { block : int; holder : account }
  | Not_locked of int
  | Disk_error of Disk.error

let pp_error ppf = function
  | No_free_blocks -> Fmt.string ppf "no free blocks"
  | Not_allocated b -> Fmt.pf ppf "block %d not allocated" b
  | Not_owner { block; owner; caller } ->
      Fmt.pf ppf "block %d owned by account %d, not %d" block owner caller
  | Locked { block; holder } -> Fmt.pf ppf "block %d locked by account %d" block holder
  | Not_locked b -> Fmt.pf ppf "block %d not locked" b
  | Disk_error e -> Disk.pp_error ppf e

type 'a outcome = { result : ('a, error) result; cost_ms : float }

type allocation_policy = Sequential | Randomised of Afs_util.Xrng.t

(* The server's own CPU/queueing cost per request, on top of disk time. *)
let request_overhead_ms = 0.1

module Trace = Afs_trace.Trace

type t = {
  disk : Disk.t;
  policy : allocation_policy;
  owners : account Itbl.t;
  locks : account Itbl.t;
  mutable free_count : int;
  mutable next_hint : int;
  mutable trace : Trace.t;
}

let create ?(policy = Sequential) ?(trace = Trace.null) ~disk () =
  {
    disk;
    policy;
    owners = Itbl.create 1024;
    locks = Itbl.create 64;
    free_count = Disk.block_count disk;
    next_hint = 0;
    trace;
  }

let set_trace t tr =
  t.trace <- tr;
  Disk.set_trace t.disk tr

let disk t = t.disk
let block_size t = Disk.block_size t.disk
let free_blocks t = t.free_count
let allocated_blocks t = Itbl.length t.owners

let ok ?(cost = request_overhead_ms) v = { result = Ok v; cost_ms = cost }
let fail ?(cost = request_overhead_ms) e = { result = Error e; cost_ms = cost }

let is_free t b = not (Itbl.mem t.owners b)

let find_free_sequential t =
  let n = Disk.block_count t.disk in
  let rec scan tried b =
    if tried >= n then None
    else if is_free t b then Some b
    else scan (tried + 1) ((b + 1) mod n)
  in
  scan 0 t.next_hint

let find_free_random t rng =
  let n = Disk.block_count t.disk in
  (* A few random probes, then fall back to a scan: keeps allocation O(1)
     while the disk is mostly empty, which is when collisions matter. *)
  let rec probe attempts =
    if attempts = 0 then find_free_sequential t
    else
      let b = Afs_util.Xrng.int rng n in
      if is_free t b then Some b else probe (attempts - 1)
  in
  probe 8

let allocate t account =
  if t.free_count = 0 then fail No_free_blocks
  else
    let candidate =
      match t.policy with
      | Sequential -> find_free_sequential t
      | Randomised rng -> find_free_random t rng
    in
    match candidate with
    | None -> fail No_free_blocks
    | Some b ->
        Itbl.replace t.owners b account;
        t.free_count <- t.free_count - 1;
        t.next_hint <- (b + 1) mod Disk.block_count t.disk;
        ok b

let allocate_at t account b =
  if b < 0 || b >= Disk.block_count t.disk then fail (Not_allocated b)
  else if not (is_free t b) then fail (Not_allocated b)
  else begin
    Itbl.replace t.owners b account;
    t.free_count <- t.free_count - 1;
    ok ()
  end

let check_owner t account b =
  match Itbl.find_opt t.owners b with
  | None -> Error (Not_allocated b)
  | Some owner when owner <> account -> Error (Not_owner { block = b; owner; caller = account })
  | Some _ -> Ok ()

let check_lock t account b =
  match Itbl.find_opt t.locks b with
  | Some holder when holder <> account -> Error (Locked { block = b; holder })
  | _ -> Ok ()

let deallocate t account b =
  match check_owner t account b with
  | Error e -> fail e
  | Ok () -> (
      match check_lock t account b with
      | Error e -> fail e
      | Ok () ->
          Itbl.remove t.owners b;
          Itbl.remove t.locks b;
          t.free_count <- t.free_count + 1;
          (* Erase is refused on write-once media; the block simply stays
             unreferenced there, as §6 expects for optical stores. *)
          let _ = Disk.erase t.disk b in
          ok ())

let read t account b =
  match check_owner t account b with
  | Error e -> fail e
  | Ok () ->
      let { Disk.result; cost_ms } = Disk.read t.disk b in
      let cost = request_overhead_ms +. cost_ms in
      (match result with
      | Ok data -> ok ~cost data
      | Error e -> fail ~cost (Disk_error e))

let write t account b data =
  match check_owner t account b with
  | Error e -> fail e
  | Ok () -> (
      match check_lock t account b with
      | Error e -> fail e
      | Ok () ->
          let { Disk.result; cost_ms } = Disk.write t.disk b data in
          let cost = request_overhead_ms +. cost_ms in
          (match result with
          | Ok () -> ok ~cost ()
          | Error e -> fail ~cost (Disk_error e)))

let lock t account b =
  let note won =
    if Trace.enabled t.trace then Trace.point t.trace (Trace.Block_lock { block = b; won })
  in
  match check_owner t account b with
  | Error e -> fail e
  | Ok () -> (
      match Itbl.find_opt t.locks b with
      | Some holder when holder <> account ->
          note false;
          fail (Locked { block = b; holder })
      | Some _ ->
          note true;
          ok () (* Re-entrant for the same account. *)
      | None ->
          Itbl.replace t.locks b account;
          note true;
          ok ())

let unlock t account b =
  match Itbl.find_opt t.locks b with
  | None -> fail (Not_locked b)
  | Some holder when holder <> account -> fail (Locked { block = b; holder })
  | Some _ ->
      Itbl.remove t.locks b;
      ok ()

let locked_by t b = Itbl.find_opt t.locks b

let owned_blocks t account =
  Itbl.fold (fun b owner acc -> if owner = account then b :: acc else acc) t.owners []
  |> List.sort compare

let owner_of t b = Itbl.find_opt t.owners b

let clear_locks t = Itbl.reset t.locks

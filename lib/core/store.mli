(** The storage abstraction the file service runs on.

    A [Store.t] is a first-class bundle of block operations. The same file
    service code runs over an in-memory table (unit tests, benchmarks), a
    {!Afs_block.Block_server} on a simulated disk, or an
    {!Afs_stable.Stable_pair} (crash experiments) — that separation of file
    service from block service is itself a design point of the paper (§4).

    [lock]/[unlock] expose the block server's simple locking facility, used
    only for the commit critical section: "lock and read a block, examine
    and modify it, then write and unlock the block again". *)

type t = {
  block_size : int;
  allocate : unit -> (int, string) result;
  free : int -> (unit, string) result;
  read : int -> (bytes, string) result;
      (** Fails on a block that is not allocated, on every backend — also
          where the medium keeps a freed block's bits. The server relies on
          this: a capability for a freed version must not read back. *)
  write : int -> bytes -> (unit, string) result;
      (** Fails on a block that is not allocated, on every backend: a
          write never allocates, so a freed block stays freed and out of
          {!field:list_blocks}. The stable pair checks the allocation view
          of the server the write is routed to, as {!field:read} does. *)
  write_batch : (int * bytes) list -> (unit, string) result;
      (** The writes in order, stopping at the first error, so the durable
          state is always a prefix of the batch. Plain backends perform
          the single writes; the stable pair amortises its companion hop
          across the whole batch (one A→B→A round trip) — the leg the
          group-commit publish stage rides. *)
  lock : int -> bool;  (** False when another holder has it; no queueing. *)
  unlock : int -> unit;
  list_blocks : unit -> (int list, string) result;
      (** All allocated blocks — the §4 per-account recovery listing. The
          garbage collector's sweep and crash recovery both rely on it. *)
}

type op = Alloc of int | Free of int | Write of int * bytes
(** One store mutation, as recorded and replayed by the replication
    commit stream: block numbers are absolute, so a replayed [Alloc]
    checks that the applying store hands back the same number. *)

val apply_op : t -> op -> (unit, string) result
(** Replay one operation. [Alloc b] allocates and fails if the store's
    frontier does not yield exactly [b]. *)

val apply_ops : t -> op list -> (unit, string) result
(** Replay a batch in order, stopping at the first error. Consecutive
    [Write]s are coalesced into one {!field:write_batch} call, so a
    stable-pair replica pays its companion hop once per run of writes. *)

val memory : ?block_size:int -> unit -> t
(** Unbounded in-memory store (default block size 32768). Blocks are
    numbered by a counter and never reused, so the store is a pair of
    arrays indexed by block number that double as the counter grows. *)

val of_block_server :
  Afs_block.Block_server.t -> account:Afs_block.Block_server.account -> t
(** All operations performed under the given account; the block server's
    per-account protection applies. *)

val of_stable_pair : Afs_stable.Stable_pair.t -> t
(** Routes each operation to a currently-online server of the pair, so the
    file service keeps running across single-server crashes (§5.4.1). *)

val counting : t -> t * (unit -> int * int)
(** [counting s] wraps [s]; the second component returns (reads, writes)
    performed through the wrapper — used by experiments that report page
    I/O rather than time. *)

type worm_stats = {
  bulk_writes : int;  (** Blocks etched onto the write-once medium. *)
  bulk_blocks : int;
  index_writes : int;  (** Rewrites absorbed by the magnetic index. *)
  index_blocks : int;  (** Blocks that migrated to the index. *)
}

val worm_hybrid :
  ?bulk_media:Afs_disk.Media.t ->
  ?index_media:Afs_disk.Media.t ->
  blocks:int ->
  block_size:int ->
  unit ->
  t * (unit -> worm_stats)
(** The §6 optical configuration as Figure 2 implies it: a write-once bulk
    medium plus a small rewritable index. A block is etched onto the bulk
    medium on first write and silently migrates to the index the first
    time it needs rewriting — in practice only version pages do (commit
    references and flags), so "the top of the tree" ends up on magnetic
    media while data pages are written exactly once. Freeing a bulk block
    merely unlinks it: WORM space is unreclaimable by design. *)

(** A sharded file service: N independent {!Shard}s (each its own server,
    store and RPC host) plus the client-side {!Router} and the shared
    bookkeeping the {!Rebalancer} feeds on.

    There is no coordinator and no cross-shard protocol: every file lives
    entirely on one shard, capabilities route by port, and the only
    cross-shard operation — {!Migration.migrate} — is built from ordinary
    single-shard optimistic commits. *)

type t

val default_base_seed : int
(** Equal to the bare {!Afs_core.Server} default seed, so shard 0 of any
    cluster mints the same capabilities a bare server would. *)

val create :
  ?latency_ms:float ->
  ?proc_ms:float ->
  ?cache_capacity:int ->
  ?group_commit:int ->
  ?base_seed:int ->
  ?replicas:int ->
  ?apply_interval_ms:float ->
  ?trace:Afs_trace.Trace.t ->
  Afs_sim.Engine.t ->
  shards:int ->
  t
(** [shards] ≥ 1 servers with well-separated seeds (shard [i] gets
    [base_seed + i·2^32]), all sharing [trace] — their spans stay
    separable through each server's ["shard-<i>"] name label.
    [group_commit] gives every shard the same commit batch window: each
    shard's RPC host keeps its own queue, so batches form per shard
    (default 1 — no batching).

    [replicas] (default 0) gives every shard that many log-shipping
    replicas: the shard's server runs over a capture store whose commit
    stream is gated through {!Afs_replica.Replica.Source}, and each
    replica applies it asynchronously ([apply_interval_ms] behind, see
    {!Afs_replica.Replica.create}). With [replicas = 0] the cluster is
    bit-identical to an unreplicated one — no capture store, no gate,
    no epoch register. *)

val engine : t -> Afs_sim.Engine.t
val nshards : t -> int
val shard : t -> int -> Shard.t
val shards : t -> Shard.t list

val conn : t -> int -> Afs_rpc.Remote.conn
(** The cluster's own administrative connection to shard [i] (used by
    migration and the rebalancer; clients hold their own). *)

val router : t -> Router.t
val counters : t -> Afs_util.Stats.Counter.t

val resolve : t -> Afs_util.Capability.t -> Afs_util.Capability.t

val shard_of_cap :
  t -> Afs_util.Capability.t -> (Afs_util.Capability.t * Shard.t) Afs_core.Errors.r
(** Resolve forwards, then route by port: the capability as currently
    believed plus its owning shard. [Invalid_capability] for a port no
    shard owns. *)

val place : t -> Shard.t
(** Round-robin placement for a new file. *)

val create_file_direct : t -> ?data:bytes -> unit -> Afs_util.Capability.t Afs_core.Errors.r
(** Direct (non-RPC) file creation on the next placement shard — for
    workload setup outside the simulation, mirroring how bare-server
    harnesses call {!Afs_core.Server.create_file} directly. *)

(** {2 Load accounting}

    Committed-update counts, kept cluster-side because commits from every
    client must aggregate somewhere the {!Rebalancer} can see. Per-shard
    totals live in {!counters} under ["shard<i>.commits"]; per-file counts
    accumulate in a window drained by each rebalancer step. *)

val note_load : t -> shard:Shard.t -> Afs_util.Capability.t -> unit
(** Record one committed update of [file] on [shard]. *)

val drain_loads : t -> (Afs_util.Capability.t * int) list
(** Per-file committed-update counts since the last drain, in a
    deterministic (port, obj) order; resets the window. *)

val migrations : t -> int

(** {2 Replication and failover} *)

val generation : t -> int
(** Bumped on every promotion. Clients compare it against the generation
    they connected under and rebuild their per-shard connections when it
    moved — the connection-level analogue of chasing [Moved]. *)

val replicas_of : t -> int -> Afs_replica.Replica.t list
(** Shard [i]'s replicas in promotion order ([[]] when unreplicated). *)

val replication_source : t -> int -> Afs_replica.Replica.Source.source option
(** Shard [i]'s primary-side commit-stream source. *)

val flush_replication : t -> unit
(** Cut every source's captured-but-unshipped operations and drain every
    replica synchronously — the deterministic quiesce tests compare
    store digests after. *)

type promotion = { epoch : int; watermark : int; recovered_files : int }

val promote : t -> int -> promotion Afs_core.Errors.r
(** Fail shard [i] over to its first replica; must run inside a
    simulation process. Test-and-sets the shared epoch register via the
    replica's RPC endpoint (losing with [Conflict] if the epoch already
    moved), drains the replica, re-homes the sibling replicas, rebuilds
    the shard's server over the promoted store with the {e same} seed —
    same secret and port, so outstanding capabilities and the router's
    port table stay valid — and bumps {!generation}. The deposed
    primary, if still running, can never publish again: its gate loses
    every subsequent test-and-set. *)

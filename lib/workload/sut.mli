(** The system-under-test abstraction the workload driver runs against.

    A transaction is a file plus a list of page operations
    ({!Afs_core.Pageop}); [Rmw] makes the written value depend on the
    read one, which is what lets the test-suite check serialisability by
    invariant (conserved totals) on every backend.

    The single-file Amoeba backends ({!afs_local}, {!afs_remote},
    {!afs_cluster}) run one optimistic loop — open a version, walk the
    ops, commit, redo — over each backend's own client surface, with one
    outcome table:
    - [Locked_out] on open: pause 5 ms of simulated time (none on
      {!afs_local}), then redo;
    - [Store_failure] on {!afs_cluster}: a transport outage at every step
      — pause and redo, first aborting the version if the outage hit its
      ops. On {!afs_local} and {!afs_remote} it is {!Fatal};
    - [Conflict] at commit: redo at once;
    - anything else: {!Fatal}, first aborting the version if the error
      hit its ops.
    Each redo is one more attempt, up to [max_retries]. The cross-shard
    backends and the XDFS-style locking and SWALLOW-style timestamp
    baselines encode their own redo/wait policies. *)

exception Fatal of { where : string; error : Afs_core.Errors.t }
(** A reply the workload can never legitimately see: a harness bug or
    corrupted protocol state, never an outcome a backend may report.
    Raised so it escapes the engine loop and fails the run loudly
    instead of miscounting; carries the protocol {!Afs_core.Errors.t}
    (lint rule P1: no stringly [failwith] in protocol paths). *)

type 'p page_op = 'p Afs_core.Pageop.t =
  | Read of 'p
  | Write of 'p * bytes
  | Rmw of 'p * (bytes -> bytes)  (** Read page, write the transform. *)

type op = int page_op
(** Pages are named by child index under the file's root. *)

type txn_spec = {
  file : int;
  ops : op list;
  parts : (int * op list) list;
      (** Non-empty makes this a multi-file transaction — one
          [(file, ops)] participant per entry, honoured only by the
          cross-shard backends ({!afs_txn}, {!afs_twopc}); [file]/[ops]
          are ignored then. Single-file backends refuse multi-part specs
          with {!Fatal}. *)
}

type exec_result = {
  committed : bool;
  attempts : int;  (** 1 = first try succeeded. *)
  local_aborts : int;
      (** Retries forced by an ordinary one-shard OCC race. *)
  cross_aborts : int;
      (** Retries forced cross-shard: a fully staged (or fully prepared)
          transaction aborted at its coordinator. Always 0 on
          single-file backends. *)
}

type t = {
  name : string;
  exec : txn_spec -> max_retries:int -> exec_result;
      (** Runs one transaction to completion, including the backend's own
          waiting/redo policy. Inside a simulation process this advances
          virtual time. *)
  stats : unit -> (string * int) list;
  read_page : int -> int -> bytes;
      (** [read_page file page] outside any transaction, for invariant
          checks. *)
}

val afs_local : Afs_core.Server.t -> files:Afs_util.Capability.t array -> t
(** Direct calls, no simulated time: for logic tests and CPU benchmarks.
    Pages are the children [0..n-1] of each file's root. *)

val afs_remote :
  ?name:string ->
  Afs_rpc.Remote.conn ->
  fallback:Afs_core.Server.t ->
  files:Afs_util.Capability.t array ->
  t
(** Over simulated RPC. [fallback] is only used for out-of-band
    invariant reads. *)

val afs_cluster : Afs_cluster.Cluster_client.t -> files:Afs_util.Capability.t array -> t
(** Over a shard cluster, location-transparently: the one loop with a
    local port-routing lookup (no simulated time) in front of each
    version creation, so a one-shard cluster sends {!afs_remote}'s RPC
    sequence and reports bit-identically on the same engine and seed.
    Tolerates concurrent migrations: [Moved] answers are chased inside
    version creation, and invariant reads follow tombstones. *)

val afs_txn :
  ?trace:Afs_trace.Trace.t ->
  Afs_cluster.Cluster_client.t ->
  files:Afs_util.Capability.t array ->
  t
(** {!afs_cluster} plus multi-part transactions via lib/txn's optimistic
    coordinator (stage/decide/flip). Single-part specs take the fast
    path: the same RPC sequence as {!afs_cluster}, walked by the same
    {!Afs_core.Pageop.run}. [local_aborts] counts participant stages
    losing ordinary one-shard races; [cross_aborts] counts staged
    transactions force-aborted at the coordinator record. *)

val afs_twopc : Afs_cluster.Cluster_client.t -> files:Afs_util.Capability.t array -> t
(** The blocking two-phase-commit baseline over the same cluster:
    participant versions are prepared in canonical file order (each
    parking the server's commit pipeline, base lock held), then decided.
    Competitors colliding with a prepare window back off on
    [Store_failure] — the lock-holding cost {!afs_txn} avoids. *)

val twopl :
  ?remote:Afs_sim.Engine.t ->
  Afs_baseline.Twopl.t -> pages_per_file:int -> retry_wait_ms:float -> t
(** Lock denials wait [retry_wait_ms] of simulated time and retry,
    prodding vulnerable holders; a bounded number of waits, then abort
    and redo. Must run inside a simulation process. With [remote], every
    operation is one request to a serialised RPC endpoint with the same
    cost model as {!afs_remote} — the fair-comparison configuration,
    under which lock state genuinely interleaves between clients. *)

val tsorder : ?remote:Afs_sim.Engine.t -> Afs_baseline.Tsorder.t -> pages_per_file:int -> t
(** Late writes abort immediately and redo with a fresh timestamp.
    [remote] as in {!twopl}. *)

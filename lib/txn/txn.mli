(** Cross-shard atomic transactions, composed entirely from ordinary
    optimistic commits (the Migration idiom generalised — no lock is ever
    held across a shard boundary).

    A transaction {e stages} a marker ({!Afs_cluster.Txnmark}) into each
    participant file's root by an ordinary single-shard commit (the
    computed writes ride the marker; no page is touched), {e decides} by
    one more ordinary commit flipping a coordinator record's root data
    from pending to committed — the transaction-wide atomic point — and
    then {e flips} each participant: restore the old root, apply the
    marker's writes in place, commit. Participants' roots carry the
    location check's [R] flag, so a stage conflicts with every
    concurrently opened version in both commit orders; once staged, only
    resolvers can advance the file (ordinary opens answer
    [Txn_in_doubt]). Any client can resolve an in-doubt participant from
    the marker and the record alone — crash recovery is {!sweep}, not a
    log.

    Must run inside a simulation process (everything is RPCs). *)

type 'p page_op = 'p Afs_core.Pageop.t =
  | Read of 'p
  | Write of 'p * bytes
  | Rmw of 'p * (bytes -> bytes)  (** Read the page, write the transform of what was read. *)

type op = Afs_util.Pagepath.t page_op

type part = { file : Afs_util.Capability.t; ops : op list }
(** One participant. A transaction's parts must name distinct files. *)

type failure =
  | Local of Afs_core.Errors.t
      (** A participant stage lost an ordinary single-shard OCC race —
          the same retry situation as a [Conflict] on one shard. *)
  | Cross of Afs_core.Errors.t
      (** The record decision lost to a contender's force-abort: the
          transaction was staged everywhere but aborted cross-shard. *)
  | Failed of Afs_core.Errors.t
      (** Transport or harness trouble; retry policy is the caller's. *)

type crash_point = Before_stage of int | Before_decide | After_decide | Mid_flip of int
(** Deterministic coordinator-kill injection points, by protocol step
    (indices count participants in staging order). *)

exception Crashed
(** Raised by {!exec} at the matching [crash_at] point: the test's model
    of a coordinator dying mid-protocol. Committed state stays put;
    {!sweep} (or any later access) resolves what was left in doubt. *)

type t

val create :
  ?trace:Afs_trace.Trace.t ->
  ?backoff_ms:float ->
  ?pending_patience:int ->
  Afs_cluster.Cluster_client.t ->
  t
(** A coordinator bound to a cluster client. [pending_patience] is how
    many [backoff_ms] waits a resolver grants a still-pending
    coordinator before force-aborting it. The default (32) comfortably
    covers a live coordinator's full stage-decide-flip protocol under
    load, so force-aborts only fire on genuinely dead coordinators;
    crash recovery uses patience 0 via {!sweep}. *)

val exec :
  ?crash_at:crash_point ->
  ?on_record:(Afs_util.Capability.t -> unit) ->
  t ->
  part list ->
  (unit, failure) result
(** Run one transaction to a definite outcome. A single part takes the
    ordinary single-shard path (no record, no marker); multiple parts
    run the stage/decide/flip protocol, staging in capability order.
    [on_record] observes the coordinator record's capability as soon as
    it exists — the hook crash tests use to audit outcomes after a
    {!Crashed} coordinator. Once staged, the outcome is driven to a
    decision even through transient transport errors (bounded patience),
    so a [failure] never hides a committed transaction. *)

val sweep : t -> Afs_util.Capability.t list -> int Afs_core.Errors.r
(** Crash recovery's last mile: resolve every in-doubt file in the list
    with zero patience (a still-pending coordinator is presumed dead).
    Returns how many files needed resolving. *)

(** {2 The decision logic}

    Pure (C1 critical sections): the protocol's brain, exposed for tests
    and for the record audit a crash harness runs. *)

type decision = Pending | Committed | Aborted | Unknown_record

val decide : record_data:bytes -> decision
(** Classify a coordinator record's root data. *)

type action =
  | Forward of Afs_cluster.Txnmark.t
  | Back of Afs_cluster.Txnmark.t
  | Wait of Afs_cluster.Txnmark.t

val resolve : Afs_cluster.Txnmark.t -> decision -> action
(** What a resolver must do to a marker given the record's state. *)

val record_decision : t -> Afs_util.Capability.t -> decision Afs_core.Errors.r
(** Read a record's current state (routed, forward-chasing). *)

(** {2 Accounting} *)

val counters : t -> Afs_util.Stats.Counter.t
(** [txn.committed], [txn.aborted.local], [txn.aborted.cross],
    [txn.coordinated], [txn.fastpath], [txn.round_trips] (client→shard
    messages sent, across all transactions: the coordination overhead
    the S2 bench reports),
    [txn.force_aborts], [txn.resolved.forward], [txn.resolved.back],
    [txn.flip_deferred], [txn.unstage_deferred]. *)

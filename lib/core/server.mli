(** The Amoeba file server (paper §5).

    A server manages files — chains of committed versions plus their
    uncommitted descendants — over a {!Store.t}. Several servers can share
    one store (and one capability [seed]); the commit critical section
    goes through the store's lock facility, so any of them may carry out
    any commit, as §5.2 requires.

    Version lifecycle: {!create_version} gives a private copy-on-write
    view of the current version; page operations record the C/R/W/S/M
    flags; {!commit} runs the optimistic validation and makes the version
    current, or fails with [Conflict], after which the client redoes the
    update on a fresh version. Uncommitted versions are volatile: a
    {!crash} loses them by design, and {!recover_from_blocks} rebuilds the
    file table from the pages alone — no rollback, no intentions lists. *)

type t

type version_status = Uncommitted | Committed | Aborted

type page_info = {
  nrefs : int;
  dsize : int;
  child_flags : Flags.t array;  (** Access flags of each child reference. *)
}

val create :
  ?page_cache:bool ->
  ?cache_capacity:int ->
  ?seed:int ->
  ?ports:Ports.t ->
  ?name:string ->
  ?group_commit:int ->
  ?lock_backoff:(int -> unit) ->
  ?publish_tap:((int * Page.t) list -> (unit, Errors.t) result) ->
  ?trace:Afs_trace.Trace.t ->
  Store.t ->
  t
(** Servers sharing a store must share [seed] (the capability secret) and
    should share [ports]. [cache_capacity] bounds the write-back page
    cache (default {!Pagestore.default_capacity}); the cache's hit, miss,
    eviction and write-back counters land in this server's {!counters}.
    With a [trace], every commit runs inside a [commit] span that records
    each test-and-set of a base's commit reference, the pretest /
    serialise / merge phases and the final outcome; [name] (e.g. the
    owning cluster shard's id) becomes the span's label, so per-shard
    commit traffic is separable in a cluster trace.

    [group_commit] (default 1, must be ≥ 1) is the commit batch window
    the RPC front end may use: how many queued commit requests may share
    one {!commit_batch} pipeline run. The server itself never batches —
    1 preserves the paper's one-at-a-time behaviour exactly.

    [lock_backoff] runs between commit-lock retries with the attempt
    number (0-based); the default does nothing, making lock acquisition
    the old bounded spin. A host sharing the store between servers can
    install a deterministic backoff that lets the holder finish; each
    retry bumps counter [commits.lock_retries].

    [publish_tap] is the replication gate: it receives the commit
    references (base block, updated page) a publish is about to write
    through — the commit stream — before the local store sees them.
    Returning an error vetoes the publish: no reference is written, the
    test-and-set is reported lost and the commit aborts cleanly, which
    is exactly how a deposed primary is fenced after failover. The
    default always succeeds. The tap must be synchronous (it runs inside
    the commit critical section). *)

val name : t -> string

val group_commit : t -> int
(** The batch window [create] was given. *)

val trace : t -> Afs_trace.Trace.t
val set_trace : t -> Afs_trace.Trace.t -> unit

val publish_tap : t -> (int * Page.t) list -> (unit, Errors.t) result
val set_publish_tap : t -> ((int * Page.t) list -> (unit, Errors.t) result) -> unit
(** Replace the replication gate (see {!create}); used when a replica is
    promoted and the surviving server re-homes its commit stream. *)

val pagestore : t -> Pagestore.t
val ports : t -> Ports.t
val port : t -> Afs_util.Capability.port
val counters : t -> Afs_util.Stats.Counter.t

(** {2 Files} *)

val create_file : t -> ?data:bytes -> unit -> Afs_util.Capability.t Errors.r
(** A new file with one committed initial version holding [data]. *)

val current_version : t -> Afs_util.Capability.t -> Afs_util.Capability.t Errors.r
(** Capability of the current committed version (read rights only). *)

val committed_chain : t -> Afs_util.Capability.t -> int list Errors.r
(** Version-page blocks of the committed versions, oldest first — the
    Figure 4 family tree's spine. *)

val uncommitted_versions : t -> Afs_util.Capability.t -> int list Errors.r

val destroy_file : t -> Afs_util.Capability.t -> unit Errors.r
(** Unregister the file (requires the destroy right) and abort its
    uncommitted versions. Its pages become garbage: the next GC sweep
    reclaims everything no other file shares. *)

(** {2 Versions} *)

val create_version :
  ?respect_hints:bool -> ?updater_port:int -> ?holding_port:int -> t ->
  Afs_util.Capability.t -> Afs_util.Capability.t Errors.r
(** Start an update: a new uncommitted version based on the current one,
    initially sharing its whole page tree. [updater_port] is written to
    the current version's top-lock field as the advisory hint of §5.3;
    [respect_hints] makes this call itself honour a live hint by failing
    with [Locked_out] (the "soft-locking scheme"). A live {e inner} lock
    always blocks version creation; a dead one is recovered per §5.3. *)

val abort_version : t -> Afs_util.Capability.t -> unit Errors.r
(** Remove an uncommitted version and free its private pages. *)

val version_status : t -> Afs_util.Capability.t -> version_status Errors.r
val version_block : t -> Afs_util.Capability.t -> int Errors.r
val version_of_block : t -> int -> Afs_util.Capability.t Errors.r

(** {2 Pages}

    Operations take a version capability. On uncommitted versions they
    copy-on-write and record flags; reads of committed versions are plain
    traversals with no side effects. *)

val read_page : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes Errors.r
val write_page : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> bytes -> unit Errors.r

val page_info : t -> Afs_util.Capability.t -> Afs_util.Pagepath.t -> page_info Errors.r
(** Read-only on any version; records no flags. *)

val insert_page :
  t -> Afs_util.Capability.t -> parent:Afs_util.Pagepath.t -> index:int ->
  ?data:bytes -> unit -> Afs_util.Pagepath.t Errors.r
(** Add a fresh page under [parent] at [index] (an explicit reference-
    table modification: sets the parent's [M]); returns its path. *)

val remove_page :
  t -> Afs_util.Capability.t -> parent:Afs_util.Pagepath.t -> index:int -> unit Errors.r

val move_page :
  t -> Afs_util.Capability.t -> src_parent:Afs_util.Pagepath.t -> src_index:int ->
  dst_parent:Afs_util.Pagepath.t -> dst_index:int -> unit Errors.r
(** Detach a subtree and re-attach it elsewhere in the same version.
    Fails if the destination lies inside the moved subtree. *)

val split_page :
  t -> Afs_util.Capability.t -> path:Afs_util.Pagepath.t -> at:int ->
  Afs_util.Pagepath.t Errors.r
(** The §5 "split pages into two" command: children [at..] of the page at
    [path] move (with their subtrees and flags) to a fresh sibling
    inserted immediately after it; returns the sibling's path. The root
    cannot be split (it has no sibling); [at] must be within [0..nrefs]. *)

(** {2 Commit} *)

val commit : t -> Afs_util.Capability.t -> unit Errors.r
(** Flush, then run the §5.2 protocol: test-and-set the base's commit
    reference; on interception, serialisability-test and merge against
    each intervening committed version, retrying until the set succeeds
    or the test fails with [Conflict] (the version is then removed).

    When both the candidate and the intervening version carry the
    incrementally maintained flag map ({!Writeset}), the conflict
    conditions are first decided from the two maps alone — a conflicting
    commit is rejected without reading any page of either tree (counter
    [commits.shortcircuit]); only the no-conflict case still walks the
    trees, to build the merge.

    Internally a commit is the validate → merge → publish pipeline: the
    test-and-set of the base's commit reference under the store lock (the
    only fencing point), the pre-test plus serialisability walk on
    interception, and the durable write of the winning reference. A
    single commit publishes inside the validate lock, exactly the
    behaviour above. *)

val commit_batch : t -> Afs_util.Capability.t list -> unit Errors.r list
(** Group commit: run every capability through validate and merge in
    submission order with publication deferred — winning references
    collect in a batch overlay that later members' test-and-sets consult,
    and a member conflicting with the union of the admitted winners'
    write sets ({!Writeset.union}) is doomed by one pre-test pass without
    dooming the batch — then publish all winners' references in one
    amortised stable-storage leg ({!Pagestore.write_through_batch}).
    Outcomes, counters of record ([commits.ok] / [commits.conflict]) and
    the final store image are identical to committing the members one by
    one; one result per capability, in order. If the publish leg fails,
    the durable prefix of winners is committed on disk but every would-be
    winner gets the store error — recovery reads the truth back. Emits
    one [Trace.Commit_batch] point per batch. *)

val prepare : t -> Afs_util.Capability.t -> unit Errors.r
(** Two-phase-commit baseline, phase one: run the version through
    validate and merge exactly as a deferred group-commit member — the
    winning test-and-set is recorded in a private overlay, nothing
    reaches stable storage, and the base's store lock is {e retained} —
    then park the pipeline state awaiting {!decide}. Until then any other
    commit of the same file exhausts its bounded lock spin and fails with
    [Store_failure "commit lock contention"]: the lock-holding window the
    optimistic coordinator (lib/txn) exists to avoid. Errors (e.g.
    [Conflict]) leave nothing parked and no locks held. *)

val decide : t -> Afs_util.Capability.t -> commit:bool -> unit Errors.r
(** Phase two, for a version previously {!prepare}d here: [commit:true]
    publishes the parked winning reference (the version becomes the
    file's current committed version); [commit:false] discards the
    overlay, frees the locks and aborts the version. Prepared state is
    volatile and keyed by version: after a crash (or a duplicate decide)
    an abort decision succeeds trivially — presumed abort — while a
    commit decision fails with [Store_failure]. *)

(** {2 Crash simulation and recovery} *)

val crash : t -> unit
(** Lose all volatile state: the page cache (unflushed writes vanish) and
    knowledge of uncommitted versions. Committed state is untouched — the
    defining property being reproduced. *)

val recover_from_blocks : t -> int list -> int Errors.r
(** Rebuild the file table by decoding the given blocks (obtained from the
    block server's per-account recovery listing, §4). Returns the number
    of files recovered. Orphaned uncommitted version pages are ignored:
    their owners must redo, as the paper prescribes. *)

(** {2 Introspection for tests, GC and experiments} *)

val written_set : t -> int -> Afs_util.Pagepath.t list Errors.r
(** The write set (§5.4) of the version at the given block, root-first.
    O(pages written) via the incremental administration for versions this
    server created; falls back to the [Serialise.written_paths] flag walk
    for versions learned from the store or recovered after a crash. *)

val tracked_writeset : t -> int -> Writeset.t option
(** The incremental flag map itself, when one is maintained — exposed for
    tests asserting the map-equals-tree-flags invariant. *)

val root_flags_of : t -> int -> Flags.t Errors.r
(** Root flags of the version page at the given block. *)

val read_version_page : t -> int -> Page.t Errors.r

val set_lock_fields :
  t -> int -> top:int option -> inner:int option -> unit Errors.r
(** Update the top/inner lock fields of a version page in place (used by
    the super-file locking layer). [None] leaves a field unchanged. *)

val current_block_of_file : t -> Afs_util.Capability.t -> int Errors.r

val note_pruned_chain : t -> Afs_util.Capability.t -> new_oldest:int -> unit Errors.r
(** Tell the server the GC unlinked committed versions older than
    [new_oldest]; chain walks start there from now on. *)

val forget_unreached : t -> reached:(int -> bool) -> unit
(** Drop the record of every aborted version and of every version whose
    block fails [reached], and their entries in the files' version
    indexes. The collector calls this after its sweep with its mark set,
    so pruned and aborted versions answer [No_such_version] from then
    on: their blocks are freed, and a freed block never reads back (see
    {!Store.t}), so no stale capability can relearn them. *)

val list_files : t -> Afs_util.Capability.t list

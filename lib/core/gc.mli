(** The garbage collector (paper abstract and §5.1).

    Once a version has committed, the information in its R and S flags is
    no longer needed, so pages that were {e copied but not written or
    modified} can be removed and the corresponding page of the base
    version re-shared ({!reshare}). Old committed versions beyond a
    retention window can be pruned from the family tree; a mark-and-sweep
    over the retained version trees then frees every unreachable block.

    Resharing only rewrites references — it never frees blocks itself, so
    a later version that still shares a to-be-reshared copy keeps it alive
    through the mark phase. The collector is safe to run at any quiescent
    point; the simulation harness schedules it as its own process,
    interleaved with client traffic ("independent of, and in parallel
    with, the operation of the system"). *)

type policy = {
  retain_committed : int;
      (** Committed versions kept per file, newest first (>= 1). Older
          versions are unlinked; pages they share with retained versions
          survive the sweep. *)
  reshare : bool;  (** Enable the read-copy resharing pass. *)
}

val default_policy : policy

type stats = {
  versions_pruned : int;
  pages_reshared : int;
  blocks_freed : int;
  blocks_live : int;
}

val pp_stats : stats Fmt.t

val reshare_version : Server.t -> int -> int Errors.r
(** [reshare_version server vblock] re-shares the copied-but-unwritten
    subtrees of the committed version at [vblock] with its base version.
    Returns the number of references rewritten. *)

val collect : ?policy:policy -> Server.t -> stats Errors.r
(** Full cycle: reshare every retained committed version, prune beyond the
    retention window, mark from every file's retained chain and
    uncommitted versions, sweep the store's allocated blocks. *)

val live_blocks : Server.t -> unit Afs_util.Itbl.t Errors.r
(** The mark phase alone (exposed for the safety property test: GC must
    never free a block in this set). *)

val background :
  ?policy:policy ->
  Afs_sim.Engine.t ->
  Server.t ->
  period_ms:float ->
  until_ms:float ->
  (unit -> stats)
(** Spawn a simulated collector process that runs {!collect} every
    [period_ms] of virtual time until the clock passes [until_ms] — the
    abstract's collector "running in parallel with the operation of the
    system", interleaved with client processes at commit granularity.
    The returned thunk reports the accumulated totals. *)

(** Stable storage on a pair of companion block servers (paper §4).

    The paper modifies Lampson & Sturgis: each block is stored by {e two
    servers} on two disks sharing one address space. A write received by
    server [P] is first performed on the companion [Q]'s disk, then on
    [P]'s own — so the companion copy is never older, and a crash between
    the two writes loses nothing. Reads are served locally and fall back
    to the companion on corruption (detected by checksum), repairing the
    local copy. Allocate/write collisions — both servers concurrently
    choosing the same block — are detected at the companion {e before any
    damage is done}; the loser retries. While a companion is down, writes
    are recorded on an intentions list; a restarting server first compares
    notes with its companion and restores its disk before accepting
    requests.

    The protocol steps ({!tentative_allocate}, {!shadow_write},
    {!local_write_seq}) are exposed individually so the RPC layer can
    interleave them between concurrent clients under the event engine; the
    composite operations run all steps back-to-back for synchronous use.
    Every result carries the simulated cost of the disk and message work
    it performed. *)

type t

type id = int
(** Server identity: 0 or 1. [companion id = 1 - id]. *)

type error =
  | Unavailable of id  (** That server is crashed; try the other one. *)
  | No_free_blocks
  | Collision of int  (** Concurrent allocate/write of the same block. *)
  | Not_allocated of int
  | Corrupt_both of int  (** Both copies failed the checksum. *)
  | Recovering of id  (** Server is up but has not finished compare-notes. *)
  | Disk_error of Afs_disk.Disk.error

val pp_error : error Fmt.t

type 'a outcome = { result : ('a, error) result; cost_ms : float }

val create :
  ?seed:int ->
  ?media:Afs_disk.Media.t ->
  ?trace:Afs_trace.Trace.t ->
  blocks:int ->
  block_size:int ->
  unit ->
  t
(** Two fresh online servers over two fresh disks. [seed] drives the
    randomised block choice (which is what makes collisions possible).
    With a trace, each write leg emits a [stable.leg] event — ["shadow"]
    (A→B), ["local"] (back to A), ["companion_read"] and ["repair"] on
    fallback reads — making the A→B→A pattern of §4 visible. *)

val set_trace : t -> Afs_trace.Trace.t -> unit
(** Install a trace handle on the pair and both underlying disks. *)

val block_size : t -> int
val address_space : t -> int
val disk : t -> id -> Afs_disk.Disk.t
val online : t -> id -> bool
val some_online : t -> id option
(** An arbitrary serving (online, recovered) server, if any. *)

(** {2 Composite operations (synchronous client view)} *)

val allocate_write : t -> id -> bytes -> int outcome
(** Full §4 sequence via the given server: choose block, shadow-write at
    the companion, write locally, return the block number. Retries
    internally on collision (bounded), as the paper's "redo the operation
    after a random wait interval". *)

val write : t -> id -> int -> bytes -> unit outcome
(** Update an allocated block: companion first, then local. Works with the
    companion down (intention recorded). *)

val write_batch : t -> id -> (int * bytes) list -> unit outcome
(** Update several allocated blocks in one A→B→A round trip: the
    companion hop is charged once for the whole batch, then every block
    pays only its two disk writes (all companion copies before any local
    copy). Stops at the first failing block, so each block ends fully
    stable, companion-only (repaired at restart) or untouched — never
    torn. The group-commit publish stage uses this to make all winners'
    commit references stable for one hop. *)

val read : t -> id -> int -> bytes outcome
(** Local read with checksum verification; falls back to the companion and
    repairs the local copy on corruption. *)

val free : t -> id -> int -> unit outcome

(** {2 Protocol steps (for interleaved / RPC use)} *)

val tentative_allocate : t -> id -> int outcome
(** Choose and reserve a block number in this server's local view only. *)

val abort_tentative : t -> id -> int -> unit

val shadow_write : t -> primary:id -> fresh:bool -> int -> bytes -> int64 outcome
(** Executed {e at the companion} of [primary]: detects collisions against
    the companion's own allocations ([fresh] marks a new allocation, for
    which an already-allocated block at the companion is a collision),
    then writes the companion copy. Returns the sequence number the
    primary must reuse in {!local_write_seq}. *)

val local_write_seq : t -> id -> int -> bytes -> int64 -> unit outcome
(** The primary's own disk write, performed after a successful shadow,
    with the sequence number the shadow returned. *)

(** {2 Crashes and recovery} *)

val crash : t -> id -> unit
(** Server process dies; its disk stays intact but unreachable. *)

val wipe_and_crash : t -> id -> unit
(** Disk head crash: contents lost, server down. *)

val restart : t -> id -> int outcome
(** Compare notes with the companion and restore this disk before
    accepting requests (returns the number of blocks repaired). If the
    companion is down too, the server comes up alone, trusting its own
    disk (checksums still guard reads). *)

val verify_companion_invariant : t -> (unit, string) result
(** Test hook: checks that for every allocated block the surviving copies
    agree or the companion-written copy is the newer one. *)

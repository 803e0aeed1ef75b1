(** A capacity-bounded LRU index with pinning.

    Keyed by block number. An {!Itbl} + intrusive doubly-linked recency
    list: {!find}, {!set} and
    {!remove} are O(1). The structure never evicts on its own — {!set}
    may push {!length} above {!capacity}, and the owner then drains the
    excess via {!lru_unpinned} + {!remove}, performing whatever write-back
    the evicted value needs first. Pinned entries are skipped as eviction
    candidates (used for blocks held under a commit lock). *)

type 'v t

val create : capacity:int -> 'v t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'v t -> int
val length : 'v t -> int

val find : 'v t -> int -> 'v
(** Lookup that promotes the entry to most-recently-used; raises
    [Not_found] when the key is absent. A hit allocates nothing. *)

val peek : 'v t -> int -> 'v option
(** Lookup without promotion. *)

val mem : 'v t -> int -> bool

val set : 'v t -> int -> 'v -> unit
(** Insert or replace, promoting to most-recently-used. Never evicts;
    check {!needs_eviction} afterwards. *)

val remove : 'v t -> int -> unit

val pin : 'v t -> int -> bool
(** Exempt the entry from eviction; [false] when the key is absent. *)

val unpin : 'v t -> int -> unit
val pinned : 'v t -> int -> bool

val needs_eviction : 'v t -> bool
(** [length t > capacity t]. *)

val lru_unpinned : 'v t -> (int * 'v) option
(** The least-recently-used unpinned entry — the eviction candidate.
    [None] when every entry is pinned (the cache may then transiently
    exceed its capacity). *)

val clear : 'v t -> unit

val fold : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** Recency order, most recent first — deterministic given a deterministic
    access sequence. *)

val iter : (int -> 'v -> unit) -> 'v t -> unit

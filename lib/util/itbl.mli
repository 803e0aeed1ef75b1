(** Hash tables keyed by block or object number.

    [Hashtbl.Make] over [int] with a multiplicative hash: lookups skip the
    polymorphic [caml_hash] and [compare] that the stdlib [Hashtbl] pays
    on every call. Iteration order is as arbitrary as [Hashtbl]'s, so lint
    rule D1 treats [Itbl.iter]/[fold]/[to_seq*] exactly like their
    [Hashtbl] namesakes; the sorted helpers below walk keys in the same
    ascending order as {!Det}. *)

include Hashtbl.S with type key = int

val sorted_keys : 'v t -> int list
(** All keys, ascending. *)

val iter_sorted : (int -> 'v -> unit) -> 'v t -> unit
(** [iter] in ascending key order over a snapshot of the keys; entries
    the callback removes before they are reached are skipped. *)

val fold_sorted : (int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** [fold] in ascending key order over a snapshot of the keys. *)

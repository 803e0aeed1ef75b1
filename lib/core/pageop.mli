(** The page operations of one transaction body, and the one walk that
    applies them to an open version.

    [Rmw] makes the written value depend on the read one, which is what
    lets the test-suite check serialisability by invariant (conserved
    totals). The page key is a parameter: the workload names pages by
    child index under a file's root, the transaction layer by full
    {!Afs_util.Pagepath.t}. *)

type 'p t =
  | Read of 'p
  | Write of 'p * bytes
  | Rmw of 'p * (bytes -> bytes)  (** Read the page, write the transform of what was read. *)

val map : ('p -> 'q) -> 'p t -> 'q t
(** Rename the page key, keeping the operation. *)

val run :
  read:('p -> (bytes, 'e) result) ->
  write:('p -> bytes -> (unit, 'e) result) ->
  'p t list ->
  (unit, 'e) result
(** Apply the operations in order against one version — [Read] reads,
    [Write] writes, [Rmw] reads then writes the transform — stopping at
    the first error. *)

(* Y1 positives through an int-keyed table: the shared container is read,
   the coroutine parks, and the stale value is stored back with
   [Itbl.replace] — directly and through a module alias. *)
module Tbl = Afs_util.Itbl

type t = { counter : int Itbl.t }

let bump t k =
  let seen = Itbl.find t.counter k in
  Proc.delay 1;
  Itbl.replace t.counter k (seen + 1)

let bump_alias t k =
  let seen = Tbl.find t.counter k in
  Proc.delay 1;
  Tbl.replace t.counter k (seen + 1)

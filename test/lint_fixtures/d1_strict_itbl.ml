(* Fixture: a determinism-critical unit built on int-keyed tables. Itbl
   iterates in as arbitrary an order as Hashtbl, so its unordered
   traversals fire the same way, directly and through a module alias;
   sorted helpers, sorted folds and order-free updates stay silent. *)

module Blocks = Afs_util.Itbl

let bad t = Itbl.fold (fun k _ acc -> k :: acc) t []

let bad_alias t = Blocks.iter (fun _ _ -> ()) t

let good t = Itbl.sorted_keys t

let good_sorted t = List.sort compare (Blocks.fold (fun k _ acc -> k :: acc) t [])

let order_free t = Itbl.filter_map_inplace (fun _ v -> Some v) t

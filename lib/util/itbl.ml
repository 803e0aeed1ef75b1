(* Block and object numbers are small non-negative ints, mostly handed
   out by counters. A multiply by an odd 62-bit constant followed by a
   fold of the high half into the low bits spreads consecutive and
   strided (2b, 2b+1) numbers over the bucket mask, and compiles to a
   handful of instructions instead of the C call into [caml_hash]. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)

let sorted_keys t = List.sort Int.compare (fold (fun k _ acc -> k :: acc) t [])

let iter_sorted f t =
  List.iter (fun k -> match find_opt t k with Some v -> f k v | None -> ()) (sorted_keys t)

let fold_sorted f t init =
  List.fold_left
    (fun acc k -> match find_opt t k with Some v -> f k v acc | None -> acc)
    init (sorted_keys t)

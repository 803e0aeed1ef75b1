(* A bounded LRU index: an int-keyed table for O(1) lookup, intrusive
   doubly-linked recency list for O(1) promotion and eviction-candidate
   selection. The structure itself never evicts — the owner asks for
   [lru_unpinned] and removes the entry once whatever write-back the
   eviction requires has succeeded, so a failed write-back never silently
   drops data.

   A list link is a [cell]: [Nil] or the node itself (an inline record),
   so relinking a node on every hit stores existing values and allocates
   nothing, where [node option] links cost a [Some] per store. *)

type 'v cell =
  | Nil
  | Node of {
      key : int;
      mutable value : 'v;
      mutable pinned : bool;
      mutable prev : 'v cell;  (* towards the MRU end *)
      mutable next : 'v cell;  (* towards the LRU end *)
    }

type 'v t = {
  capacity : int;
  table : 'v cell Itbl.t;
  mutable head : 'v cell;  (* most recently used *)
  mutable tail : 'v cell;  (* least recently used *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; table = Itbl.create (min capacity 1024); head = Nil; tail = Nil }

let capacity t = t.capacity
let length t = Itbl.length t.table

(* {2 Intrusive list plumbing} *)

let set_prev c p = match c with Node n -> n.prev <- p | Nil -> ()
let set_next c s = match c with Node n -> n.next <- s | Nil -> ()

let unlink t = function
  | Nil -> ()
  | Node n ->
      (match n.prev with Nil -> t.head <- n.next | p -> set_next p n.next);
      (match n.next with Nil -> t.tail <- n.prev | s -> set_prev s n.prev);
      n.prev <- Nil;
      n.next <- Nil

let push_front t c =
  match c with
  | Nil -> ()
  | Node n ->
      n.prev <- Nil;
      n.next <- t.head;
      (match t.head with Nil -> t.tail <- c | h -> set_prev h c);
      t.head <- c

let touch t c =
  if t.head != c then begin
    unlink t c;
    push_front t c
  end

(* {2 Operations} *)

let find t k =
  match Itbl.find t.table k with
  | Node n as c ->
      touch t c;
      n.value
  | Nil -> raise Not_found

let peek t k =
  match Itbl.find t.table k with Node n -> Some n.value | Nil | (exception Not_found) -> None

let mem t k = Itbl.mem t.table k

let set t k v =
  match Itbl.find t.table k with
  | Node n as c ->
      n.value <- v;
      touch t c
  | Nil | (exception Not_found) ->
      let c = Node { key = k; value = v; pinned = false; prev = Nil; next = Nil } in
      Itbl.add t.table k c;
      push_front t c

let remove t k =
  match Itbl.find t.table k with
  | c ->
      Itbl.remove t.table k;
      unlink t c
  | exception Not_found -> ()

let pin t k =
  match Itbl.find t.table k with
  | Node n ->
      n.pinned <- true;
      true
  | Nil | (exception Not_found) -> false

let unpin t k =
  match Itbl.find t.table k with Node n -> n.pinned <- false | Nil | (exception Not_found) -> ()

let pinned t k =
  match Itbl.find t.table k with Node n -> n.pinned | Nil | (exception Not_found) -> false

let needs_eviction t = length t > t.capacity

(* Oldest unpinned entry: a linear scan from the tail, but the scan only
   passes over pinned entries, of which the owner holds a handful (locked
   commit blocks) at any time. *)
let lru_unpinned t =
  let rec scan = function
    | Nil -> None
    | Node n -> if n.pinned then scan n.prev else Some (n.key, n.value)
  in
  scan t.tail

let clear t =
  Itbl.reset t.table;
  t.head <- Nil;
  t.tail <- Nil

(* Recency order, most recent first — deterministic given a deterministic
   access sequence. *)
let fold f t init =
  let rec go acc = function Nil -> acc | Node n -> go (f n.key n.value acc) n.next in
  go init t.head

let iter f t = fold (fun k v () -> f k v) t ()

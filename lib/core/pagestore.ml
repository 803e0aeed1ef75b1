module Lru = Afs_util.Lru
module Stats = Afs_util.Stats
module Itbl = Afs_util.Itbl

(* [stale] marks a clean entry whose block must be re-read from the
   store before it is believed (set by {!refresh}/{!invalidate}, the
   §3.1 cache-integrity points). The re-read compares the store image
   against the page's memoized encoding: commit references are almost
   always unchanged, and an identical image means the cached decoded
   page — and its memo — can be reused without re-parsing. [hit] is
   always [Ok page], built once per page change ({!set_page}) so a cache
   hit returns it without allocating. *)
type entry = {
  mutable page : Page.t;
  mutable hit : Page.t Errors.r;
  mutable dirty : bool;
  mutable stale : bool;
}

let entry ~dirty page = { page; hit = Ok page; dirty; stale = false }

let set_page e page =
  e.page <- page;
  e.hit <- Ok page

type t = {
  store : Store.t;
  cache_enabled : bool;
  capacity : int;
  cache : entry Lru.t;
  (* Blocks held under a store lock: their cache entries are pinned so the
     commit critical section never loses its block to eviction. *)
  locked : unit Itbl.t;
  (* The dirty set, mirrored from the entries' [dirty] bits. [flush] runs
     at the head of every commit, so it must be O(pages written), not
     O(cache capacity): folding a 4k-entry cache to find half a dozen
     dirty pages was the single largest CPU cost in million-transaction
     runs. *)
  dirty : unit Itbl.t;
  counters : Stats.Counter.t;
  (* Resolved-once cells for the per-read and per-eviction counters,
     forced at first bump so untouched counters stay out of the table
     exactly as with [Counter.incr]. The generic string-keyed bump costs
     a string hash per call, which the cache hit path pays tens of times
     per transaction. *)
  hits : int ref Lazy.t;
  misses : int ref Lazy.t;
  evictions : int ref Lazy.t;
  writebacks : int ref Lazy.t;
}

let default_capacity = 4096

let create ?(cache = true) ?(capacity = default_capacity) ?counters store =
  if capacity < 1 then invalid_arg "Pagestore.create: capacity must be positive";
  let counters = match counters with Some c -> c | None -> Stats.Counter.create () in
  {
    store;
    cache_enabled = cache;
    capacity;
    cache = Lru.create ~capacity;
    locked = Itbl.create 4;
    dirty = Itbl.create 64;
    counters;
    hits = lazy (Stats.Counter.handle counters "cache.hits");
    misses = lazy (Stats.Counter.handle counters "cache.misses");
    evictions = lazy (Stats.Counter.handle counters "cache.evictions");
    writebacks = lazy (Stats.Counter.handle counters "cache.writebacks");
  }

let store t = t.store
let page_size_limit t = t.store.Store.block_size
let capacity t = t.capacity
let counters t = t.counters

let allocate t =
  match t.store.Store.allocate () with
  | Ok b -> Ok b
  | Error msg -> Error (Errors.Store_failure msg)

let store_write t b page =
  let image = Page.encode page in
  match t.store.Store.write b image with
  | Ok () -> Ok ()
  | Error msg -> Error (Errors.Store_failure msg)

(* Bring the cache back within capacity, oldest unpinned entries first.
   A dirty evictee is written back before it is dropped (the §5.4
   write-back contract: eviction must not lose writes), so a store error
   here surfaces to the caller and the entry survives. *)
let rec evict_excess t =
  if not (Lru.needs_eviction t.cache) then Ok ()
  else
    match Lru.lru_unpinned t.cache with
    | None -> Ok () (* Everything pinned: transiently over capacity. *)
    | Some (b, e) ->
        let write_back =
          if e.dirty then
            match store_write t b e.page with
            | Ok () ->
                e.dirty <- false;
                Itbl.remove t.dirty b;
                Stats.Counter.bump t.writebacks;
                Ok ()
            | Error _ as err -> err
          else Ok ()
        in
        (match write_back with
        | Ok () ->
            Lru.remove t.cache b;
            Stats.Counter.bump t.evictions;
            evict_excess t
        | Error _ as err -> err)

(* Insert or refresh a cache entry, pinning it when its block is locked
   (the entry may be created inside the critical section, after the lock
   was taken). *)
let cache_set t b entry =
  Lru.set t.cache b entry;
  if Itbl.mem t.locked b then ignore (Lru.pin t.cache b);
  evict_excess t

let drop_entry_raw t b =
  Itbl.remove t.dirty b;
  Lru.remove t.cache b

(* Re-read a stale entry's block. An image identical to the cached
   page's memoized encoding proves the store still holds exactly what we
   decoded (or wrote) before, so the decoded page is reused as is; this
   counts as a miss, like the drop-and-re-read it replaces, and the
   store read it pays for is the §3.1 integrity check itself. *)
let revalidate t b (e : entry) =
  match t.store.Store.read b with
  | Error msg ->
      drop_entry_raw t b;
      Error (Errors.Store_failure msg)
  | Ok image -> (
      Stats.Counter.bump t.misses;
      match Page.memoized_image e.page with
      | Some memo when Bytes.equal memo image ->
          e.stale <- false;
          e.hit
      | _ -> (
          match Page.decode ~memo:true image with
          | Error msg -> Error (Errors.Store_failure msg)
          | Ok page ->
              set_page e page;
              e.stale <- false;
              e.hit))

(* The hit path allocates nothing: the LRU promotion relinks existing
   nodes and the result is the entry's prebuilt [hit]. *)
let read t b =
  match if t.cache_enabled then Lru.find t.cache b else raise Not_found with
  | e ->
      if e.stale then revalidate t b e
      else begin
        Stats.Counter.bump t.hits;
        e.hit
      end
  | exception Not_found -> (
      match t.store.Store.read b with
      | Error msg -> Error (Errors.Store_failure msg)
      | Ok image -> (
          (* The store hands back a fresh copy of an image this system
             wrote with [Page.encode], so it can seed the page's encode
             memo: a page faulted in and flushed back out costs zero
             serialisations. *)
          match Page.decode ~memo:true image with
          | Error msg -> Error (Errors.Store_failure msg)
          | Ok page ->
              if t.cache_enabled then begin
                Stats.Counter.bump t.misses;
                match cache_set t b (entry ~dirty:false page) with
                | Ok () -> Ok page
                | Error _ as e -> e
              end
              else Ok page))

let check_size t page =
  let bytes = Page.encoded_size page in
  if bytes > page_size_limit t then
    Error (Errors.Page_too_large { bytes; limit = page_size_limit t })
  else Ok bytes

let write t b page =
  match check_size t page with
  | Error _ as e -> e
  | Ok _ ->
      if not t.cache_enabled then store_write t b page
      else (
        match Lru.find t.cache b with
        | e ->
            if not e.dirty then Itbl.replace t.dirty b ();
            set_page e page;
            e.dirty <- true;
            e.stale <- false;
            Ok ()
        | exception Not_found ->
            Itbl.replace t.dirty b ();
            cache_set t b (entry ~dirty:true page))

let write_through t b page =
  match check_size t page with
  | Error _ as e -> e
  | Ok _ -> (
      match store_write t b page with
      | Error _ as e -> e
      | Ok () ->
          Itbl.remove t.dirty b;
          if t.cache_enabled then cache_set t b (entry ~dirty:false page) else Ok ())

let flush_block t b =
  match Lru.peek t.cache b with
  | Some ({ dirty = true; _ } as e) -> (
      match store_write t b e.page with
      | Error _ as err -> err
      | Ok () ->
          e.dirty <- false;
          Itbl.remove t.dirty b;
          Ok ())
  | Some { dirty = false; _ } | None -> Ok ()

let flush t =
  (* The dirty set, in the same deterministic ascending order the old
     whole-cache fold produced, without touching clean entries. *)
  let rec go = function
    | [] -> Ok ()
    | b :: rest -> ( match flush_block t b with Ok () -> go rest | Error _ as e -> e)
  in
  if Itbl.length t.dirty = 0 then Ok () else go (Itbl.sorted_keys t.dirty)

let dirty_count t = Itbl.length t.dirty

let lock t b =
  if t.store.Store.lock b then begin
    Itbl.replace t.locked b ();
    ignore (Lru.pin t.cache b);
    true
  end
  else false

let unlock t b =
  Itbl.remove t.locked b;
  Lru.unpin t.cache b;
  t.store.Store.unlock b

let drop_volatile t =
  Lru.clear t.cache;
  Itbl.reset t.dirty

let drop_entry t b = drop_entry_raw t b

let refresh t b =
  match Lru.peek t.cache b with
  | Some { dirty = true; _ } -> () (* Our own pending write is authoritative. *)
  | Some e -> e.stale <- true
  | None -> ()

(* Unlike {!refresh}, a pending dirty write is dropped too: the caller
   (the commit test-and-set) trusts nothing it has not re-read. *)
let invalidate t b =
  match Lru.peek t.cache b with
  | Some { dirty = true; _ } -> drop_entry t b
  | Some e -> e.stale <- true
  | None -> ()

(* The group-commit publish leg: every page is size-checked and encoded
   before the first store write (a too-large page cannot leave the batch
   half-written), then the whole batch goes to the store in one
   [write_batch] call — one amortised stable-storage round trip when the
   backend is a stable pair. The store writes in order and stops at the
   first error, so on failure the durable state is a prefix of [entries];
   every cached copy of a batch block is dropped then, since we no longer
   know which writes landed. *)
let write_through_batch t entries =
  let rec encode acc = function
    | [] -> Ok (List.rev acc)
    | (b, page) :: rest -> (
        match check_size t page with
        | Error _ as e -> e
        | Ok _ -> encode ((b, Page.encode page) :: acc) rest)
  in
  match encode [] entries with
  | Error _ as e -> e
  | Ok images -> (
      match t.store.Store.write_batch images with
      | Ok () ->
          let rec settle = function
            | [] -> Ok ()
            | (b, page) :: rest -> (
                Itbl.remove t.dirty b;
                if not t.cache_enabled then settle rest
                else
                  match cache_set t b (entry ~dirty:false page) with
                  | Ok () -> settle rest
                  | Error _ as e -> e)
          in
          settle entries
      | Error msg ->
          List.iter (fun (b, _) -> drop_entry t b) entries;
          Error (Errors.Store_failure msg))

let free t b =
  drop_entry t b;
  ignore (t.store.Store.free b)

module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Itbl = Afs_util.Itbl
module Trace = Afs_trace.Trace

open Errors

type version_status = Uncommitted | Committed | Aborted

type page_info = { nrefs : int; dsize : int; child_flags : Flags.t array }

type version_record = {
  vblock : int;
  file_obj : int;
  mutable status : version_status;
  (* The §5.4 concurrency-control administration, maintained incrementally
     as flags are recorded. [Some] only for versions this server created
     itself (the invariant — map = exactly the flags in the page tree —
     cannot be asserted for lazily learned or recovered versions, whose
     flags may predate this server). *)
  mutable wset : Writeset.t option;
}

type file_record = {
  file_obj : int;  (** Even-numbered object: 2 * first version block. *)
  mutable current_hint : int;
  mutable oldest_hint : int;  (** Oldest retained committed version. *)
  uncommitted : unit Itbl.t;  (** Version-page blocks. *)
  (* Every version block ever registered for this file, newest first:
     destroying the file walks this list instead of every version the
     server knows about. *)
  mutable vblocks : int list;
}

(* One commit-pipeline run's mutable state (full story at {2 Commit}
   below). Defined here because the server records prepared-but-undecided
   runs for the two-phase-commit baseline. *)
type commit_ctx = {
  deferred : bool;  (** False: publish inside the validate lock (single commit). *)
  mutable held : int list;
      (** Store locks this pipeline run holds, ascending: the release
          order. Almost always one block, so a list beats a table. *)
  mutable pending : (int * int) list;
      (** Winning test-and-sets not yet durable: base block → successor.
          The overlay later batch members' validates read first. *)
  mutable publish_refs : (int * Page.t) list;  (** Newest first. *)
  mutable winners : version_record list;  (** Newest first. *)
  mutable unions : (int * Writeset.t) list;
      (** Per-file union of the admitted winners' write sets, for the
          one-pass batch pre-test. *)
}

let fresh_ctx ~deferred () =
  {
    deferred;
    held = [];
    pending = [];
    publish_refs = [];
    winners = [];
    unions = [];
  }

(* Resolved-once cells for the counters the request path bumps, forced at
   the first bump (see [Stats.Counter.bump]); rarer events keep the
   string-keyed [bump]. *)
type hot_counters = {
  ok : int ref Lazy.t;
  fastpath : int ref Lazy.t;
  merged : int ref Lazy.t;
  intercepted : int ref Lazy.t;
  shortcircuit : int ref Lazy.t;
  conflict : int ref Lazy.t;
  lock_retries : int ref Lazy.t;
  batches : int ref Lazy.t;
  batch_members : int ref Lazy.t;
  pages_visited : int ref Lazy.t;
  pages_copied : int ref Lazy.t;
  versions_created : int ref Lazy.t;
}

let hot_counters counters =
  let cell name = lazy (Stats.Counter.handle counters name) in
  {
    ok = cell "commits.ok";
    fastpath = cell "commits.fastpath";
    merged = cell "commits.merged";
    intercepted = cell "commits.intercepted";
    shortcircuit = cell "commits.shortcircuit";
    conflict = cell "commits.conflict";
    lock_retries = cell "commits.lock_retries";
    batches = cell "commits.batches";
    batch_members = cell "commits.batch_members";
    pages_visited = cell "serialise.pages_visited";
    pages_copied = cell "pages.copied";
    versions_created = cell "versions.created";
  }

type t = {
  ps : Pagestore.t;
  secret : Capability.secret;
  server_port : Capability.port;
  port_registry : Ports.t;
  files : file_record Itbl.t;
  versions : version_record Itbl.t;  (** Keyed by version block. *)
  (* File objects explicitly destroyed: lazy learning must not resurrect
     them from their still-on-disk pages before the GC sweeps. *)
  destroyed : unit Itbl.t;
  counters : Stats.Counter.t;
  hot : hot_counters;
  name : string;
  (* Commit batch window advertised to the RPC front end: 1 = commit each
     request by itself (the paper's behaviour), n > 1 = let up to n queued
     commits share one validate → merge → publish pipeline run. *)
  group_commit : int;
  (* Invoked between commit-lock retries with the attempt number; the
     default does nothing (a bounded spin, as before). Hosts with a
     scheduler can install a deterministic backoff here. *)
  lock_backoff : int -> unit;
  (* The replication gate: called with the commit references a publish is
     about to write through, before the local store sees them. Returning
     an error vetoes the publish — the references are never written, so
     the commit aborts cleanly. A fenced (deposed) primary's gate always
     errors; the default always succeeds. *)
  mutable publish_tap : (int * Page.t) list -> (unit, Errors.t) result;
  mutable trace : Trace.t;
  (* The two-phase-commit baseline's parked state: pipeline runs admitted
     by [prepare] (validated and merged, publication deferred, base locks
     retained) awaiting the coordinator's [decide]. Keyed by version
     block. Volatile: a crash discards every entry and frees its locks —
     presumed abort. *)
  prepared : (commit_ctx * version_record) Itbl.t;
}

let create ?(page_cache = true) ?cache_capacity ?(seed = 0xA40EBA) ?ports ?(name = "")
    ?(group_commit = 1) ?(lock_backoff = fun _ -> ()) ?(publish_tap = fun _ -> Ok ())
    ?(trace = Trace.null) store =
  if group_commit < 1 then invalid_arg "Server.create: group_commit must be >= 1";
  let port_registry = match ports with Some p -> p | None -> Ports.create () in
  let counters = Stats.Counter.create () in
  {
    (* The server shares its counter set with the page store, so cache
       hit/miss/eviction figures surface alongside the commit counters. *)
    ps = Pagestore.create ~cache:page_cache ?capacity:cache_capacity ~counters store;
    secret = Capability.secret_of_seed seed;
    server_port = Capability.port_of_int (seed land 0xFFFFFFFFFFFF);
    port_registry;
    files = Itbl.create 64;
    versions = Itbl.create 256;
    destroyed = Itbl.create 8;
    counters;
    hot = hot_counters counters;
    name;
    group_commit;
    lock_backoff;
    publish_tap;
    trace;
    prepared = Itbl.create 4;
  }

let name t = t.name
let group_commit t = t.group_commit

let publish_tap t = t.publish_tap
let set_publish_tap t tap = t.publish_tap <- tap

let trace t = t.trace
let set_trace t tr = t.trace <- tr

let tpoint t payload = if Trace.enabled t.trace then Trace.point t.trace payload

let pagestore t = t.ps
let ports t = t.port_registry
let port t = t.server_port
let counters t = t.counters
let bump ?by t name = Stats.Counter.incr ?by t.counters name

(* {2 Capabilities}

   Object numbers share one space: a file is 2*(first version block), a
   version is 2*(version block)+1, so the two kinds cannot be confused. *)

let file_obj_of_block b = 2 * b
let version_obj_of_block b = (2 * b) + 1

let mint_file_cap t first_block =
  Capability.mint t.secret ~port:t.server_port ~obj:(file_obj_of_block first_block)
    ~rights:Capability.rights_all

let mint_version_cap ?(rights = Capability.rights_all) t vblock =
  Capability.mint t.secret ~port:t.server_port ~obj:(version_obj_of_block vblock) ~rights

let validate_cap t cap ~need =
  if
    Capability.validate t.secret cap
    && Capability.port_to_int cap.Capability.port = Capability.port_to_int t.server_port
    && Capability.rights_subset need cap.Capability.rights
  then Ok ()
  else Error Invalid_capability

let fresh_file_record ~file_obj ~current ~oldest ~vblocks =
  { file_obj; current_hint = current; oldest_hint = oldest; uncommitted = Itbl.create 4; vblocks }

(* Register a version block in its file's index (creating the file record
   when the file itself has not been seen yet). *)
let index_version t ~file_obj ~vblock =
  match Itbl.find_opt t.files file_obj with
  | Some f -> f.vblocks <- vblock :: f.vblocks
  | None ->
      Itbl.replace t.files file_obj
        (fresh_file_record ~file_obj ~current:vblock ~oldest:vblock ~vblocks:[ vblock ])

(* Like versions, files can be learned lazily from the store: the file
   capability's object number is derived from its first version block. *)
let learn_file t cap =
  let first = cap.Capability.obj / 2 in
  if Itbl.mem t.destroyed cap.Capability.obj then Error (No_such_file cap.Capability.obj)
  else
  match Pagestore.read t.ps first with
  | Error _ -> Error (No_such_file cap.Capability.obj)
  | Ok page ->
      (match page.Page.header.Page.file_cap with
      | Some fc when fc.Capability.obj = cap.Capability.obj ->
          (* No version of this file is registered yet: every registration
             path creates the file record first. *)
          let f =
            fresh_file_record ~file_obj:cap.Capability.obj ~current:first ~oldest:first
              ~vblocks:[]
          in
          Itbl.replace t.files cap.Capability.obj f;
          Ok f
      | _ -> Error (No_such_file cap.Capability.obj))

let find_file t cap ~need =
  let* () = validate_cap t cap ~need in
  let obj = cap.Capability.obj in
  if obj land 1 = 1 then Error Invalid_capability
  else
    match Itbl.find_opt t.files obj with
    | Some f -> Ok f
    | None -> learn_file t cap

(* A server can be handed a capability for a version another server
   created: any server may serve any object on a store it reaches. Learn
   such versions lazily from their on-disk version page. The version is
   committed iff something points at it — its base's commit reference —
   or it is a chain root; anything else is some client's in-flight
   update. *)
let learn_version t cap =
  let vblock = cap.Capability.obj / 2 in
  match Pagestore.read t.ps vblock with
  | Error _ -> Error (No_such_version cap.Capability.obj)
  | Ok page ->
      (match (page.Page.header.Page.version_cap, page.Page.header.Page.file_cap) with
      | Some vc, Some fc
        when vc.Capability.obj = cap.Capability.obj
             && not (Itbl.mem t.destroyed fc.Capability.obj) ->
          let committed =
            page.Page.header.Page.commit_ref <> None
            ||
            match page.Page.header.Page.base_ref with
            | None -> true
            | Some base -> (
                match Pagestore.read t.ps base with
                | Ok bpage -> bpage.Page.header.Page.commit_ref = Some vblock
                | Error _ -> false)
          in
          let v =
            {
              vblock;
              file_obj = fc.Capability.obj;
              status = (if committed then Committed else Uncommitted);
              (* Another server recorded this version's flags: no
                 incremental administration can be asserted for it. *)
              wset = None;
            }
          in
          Itbl.replace t.versions vblock v;
          index_version t ~file_obj:fc.Capability.obj ~vblock;
          Ok v
      | _ -> Error (No_such_version cap.Capability.obj))

let find_version t cap ~need =
  let* () = validate_cap t cap ~need in
  let obj = cap.Capability.obj in
  if obj land 1 = 0 then Error Invalid_capability
  else
    match Itbl.find_opt t.versions (obj / 2) with
    | Some v -> Ok v
    | None -> learn_version t cap

(* {2 Page plumbing} *)

let read_pg t b = Pagestore.read t.ps b
let write_pg t b p = Pagestore.write t.ps b p

let lift_page_err path r = Result.map_error (fun _ -> Bad_path path) r

(* Follow commit references to the newest committed version. Commit
   references are written in place, possibly by another server sharing
   the store, so a cached version page claiming to be current must be
   re-read from the store before we believe it ("the integrity of the
   cache is checked at the start of a transaction", §3.1). *)
let rec chase_current t block =
  let* page = read_pg t block in
  match page.Page.header.Page.commit_ref with
  | Some successor -> chase_current t successor
  | None -> (
      Pagestore.refresh t.ps block;
      let* page = read_pg t block in
      match page.Page.header.Page.commit_ref with
      | None -> Ok block
      | Some successor -> chase_current t successor)

(* Apply a write-set transform to a version's incremental administration,
   if it carries one. Called only after the corresponding tree write
   succeeded, so the map-equals-tree-flags invariant is preserved. *)
let update_wset (v : version_record) f = v.wset <- Option.map f v.wset

let update_wset_at t vblock f =
  match Itbl.find_opt t.versions vblock with
  | Some v -> update_wset v f
  | None -> ()

(* Record an access at a page's flag location: the version page's own
   root-flags field for the root, the parent's reference entry otherwise.
   [path] names the page within the version so the same recording lands in
   the incremental write set. *)
let record_access_at t ~vblock ~path location access =   let note () = update_wset_at t vblock (fun ws -> Writeset.record ws path access) in
  match location with
  | None ->
      let* page = read_pg t vblock in
      let header = page.Page.header in
      let root_flags = Flags.record header.Page.root_flags access in
      if Flags.equal root_flags header.Page.root_flags then Ok (note ())
      else
        let* () = write_pg t vblock (Page.with_header page { header with Page.root_flags }) in
        Ok (note ())
  | Some (pblock, index) ->
      let* page = read_pg t pblock in
      let* entry = lift_page_err Pagepath.root (Page.get_ref page index) in
      let flags = Flags.record entry.Page.flags access in
      if Flags.equal flags entry.Page.flags then Ok (note ())
      else
        let* page =
          lift_page_err Pagepath.root (Page.with_ref page index { entry with Page.flags })
        in
        let* () = write_pg t pblock page in
        Ok (note ())

(* Copy-on-write of the child at [index] of the page at [pblock]: allocate
   a private block, store the child there with cleared grand-child flags
   and a base reference to the shared original, and repoint the parent. *)
let copy_child t pblock index (entry : Page.ref_entry) =   let* child = read_pg t entry.Page.block in
  let* fresh = Pagestore.allocate t.ps in
  let child = Page.clear_child_flags child in
  let header = { child.Page.header with Page.base_ref = Some entry.Page.block } in
  let child = Page.with_header child header in
  let* () = write_pg t fresh child in
  let* parent = read_pg t pblock in
  let copied_entry =
    { Page.block = fresh; flags = Flags.make ~copied:true () }
  in
  let copied_entry =
    { copied_entry with Page.flags = Flags.union copied_entry.Page.flags entry.Page.flags }
  in
  let* parent = lift_page_err Pagepath.root (Page.with_ref parent index copied_entry) in
  let* () = write_pg t pblock parent in
  Stats.Counter.bump t.hot.pages_copied;
  Ok fresh

(* Descend [path] from the version page at [vblock], copying every page on
   the way (access implies copy, §5.1), recording S on each page whose
   references are consulted and [access] on the target. Returns the
   target's private block. *)
let locate_for_access t vblock path access =   let rec descend location at block = function
    | [] ->
        let* () = record_access_at t ~vblock ~path:at location access in
        Ok block
    | index :: rest ->
        let* () = record_access_at t ~vblock ~path:at location Flags.Search in
        let* page = read_pg t block in
        (match Page.get_ref page index with
        | Error _ ->
            Error (Bad_index { path; index; nrefs = Page.nrefs page })
        | Ok entry ->
            let* child_block =
              if entry.Page.flags.Flags.c then Ok entry.Page.block
              else copy_child t block index entry
            in
            descend (Some (block, index)) (Pagepath.child at index) child_block rest)
  in
  descend None Pagepath.root vblock (Pagepath.to_list path)

(* Plain traversal with no copying and no flag recording, for committed
   versions (and introspection). *)
let locate_plain t vblock path =
  let rec descend block = function
    | [] -> read_pg t block |> Result.map (fun page -> (block, page))
    | index :: rest ->
        let* page = read_pg t block in
        (match Page.get_ref page index with
        | Error _ -> Error (Bad_index { path; index; nrefs = Page.nrefs page })
        | Ok entry -> descend entry.Page.block rest)
  in
  descend vblock (Pagepath.to_list path)

(* {2 Files} *)

let create_file t ?(data = Bytes.empty) () =
  let* vb = Pagestore.allocate t.ps in
  let file_cap = mint_file_cap t vb in
  let version_cap = mint_version_cap t vb in
  let page =
    Page.make_version_page ~file_cap ~version_cap ~base_ref:None ~parent_ref:None
      ~refs:[||] ~data
  in
  let* () = Pagestore.write_through t.ps vb page in
  Itbl.replace t.files (file_obj_of_block vb)
    (fresh_file_record ~file_obj:(file_obj_of_block vb) ~current:vb ~oldest:vb ~vblocks:[ vb ]);
  Itbl.replace t.versions vb
    { vblock = vb; file_obj = file_obj_of_block vb; status = Committed; wset = Some Writeset.empty };
  bump t "files.created";
  Ok file_cap

let current_block_of_file t cap =
  let* file = find_file t cap ~need:Capability.rights_none in
  let* current = chase_current t file.current_hint in
  file.current_hint <- current;
  Ok current

let current_version t cap =
  let* () = validate_cap t cap ~need:Capability.right_read in
  let* current = current_block_of_file t cap in
  Ok (mint_version_cap ~rights:Capability.right_read t current)

let committed_chain t cap =
  let* file = find_file t cap ~need:Capability.rights_none in
  let first = file.oldest_hint in
  let rec walk block acc =
    let* page = read_pg t block in
    match page.Page.header.Page.commit_ref with
    | None -> Ok (List.rev (block :: acc))
    | Some successor -> walk successor (block :: acc)
  in
  walk first []

let uncommitted_versions t cap =
  let* file = find_file t cap ~need:Capability.rights_none in
  Ok (Itbl.sorted_keys file.uncommitted)

(* {2 Versions} *)

let create_version ?(respect_hints = false) ?(updater_port = 0) ?(holding_port = 0) t cap =   let* file = find_file t cap ~need:Capability.right_write in
  let* current = current_block_of_file t cap in
  let* cpage = read_pg t current in
  let header = cpage.Page.header in
  (* A live inner lock means an enclosing super-file update owns this
     subtree: wait (here: fail; callers retry) — unless the caller is that
     very update ([holding_port]). A dead lock is cleared per §5.3. *)
  let* header =
    if header.Page.inner_lock <> 0 && header.Page.inner_lock <> holding_port then
      if Ports.alive t.port_registry header.Page.inner_lock then
        Error (Locked_out { port = header.Page.inner_lock })
      else Ok { header with Page.inner_lock = 0 }
    else Ok header
  in
  let* header =
    if respect_hints && header.Page.top_lock <> 0 then
      if Ports.alive t.port_registry header.Page.top_lock then
        Error (Locked_out { port = header.Page.top_lock })
      else Ok { header with Page.top_lock = 0 }
    else Ok header
  in
  (* Set the advisory top-lock hint. *)
  let header =
    if updater_port <> 0 then { header with Page.top_lock = updater_port } else header
  in
  let* () =
    if header = cpage.Page.header then Ok ()
    else Pagestore.write_through t.ps current (Page.with_header cpage header)
  in
  let* vb = Pagestore.allocate t.ps in
  let version_cap = mint_version_cap t vb in
  let* file_cap_stored =
    match cpage.Page.header.Page.file_cap with
    | Some fc -> Ok fc
    | None -> Error (Store_failure "current version page lacks file capability")
  in
  let vpage =
    Page.make_version_page ~file_cap:file_cap_stored ~version_cap ~base_ref:(Some current)
      ~parent_ref:cpage.Page.header.Page.parent_ref
      ~refs:(Array.map (fun e -> { e with Page.flags = Flags.clear }) cpage.Page.refs)
      ~data:cpage.Page.data
  in
  let* () = write_pg t vb vpage in
  Itbl.replace t.versions vb
    { vblock = vb; file_obj = file.file_obj; status = Uncommitted; wset = Some Writeset.empty };
  file.vblocks <- vb :: file.vblocks;
  Itbl.replace file.uncommitted vb ();
  Stats.Counter.bump t.hot.versions_created;
  Ok version_cap

let version_status t cap =
  let* v = find_version t cap ~need:Capability.rights_none in
  Ok v.status

let version_block t cap =
  let* v = find_version t cap ~need:Capability.rights_none in
  Ok v.vblock

let version_of_block t block =
  match Itbl.find_opt t.versions block with
  | Some v -> Ok (mint_version_cap t v.vblock)
  | None -> Error (No_such_version (version_obj_of_block block))

(* Free the pages private to a version: copies (C set) found by descent,
   then the version page itself. Shared pages (C clear) belong to the base
   and survive. *)
let free_private_pages t vblock =   let rec free_copies page =
    Array.iter
      (fun (e : Page.ref_entry) ->
        if e.Page.flags.Flags.c then begin
          (match read_pg t e.Page.block with Ok child -> free_copies child | Error _ -> ());
          Pagestore.free t.ps e.Page.block
        end)
      page.Page.refs
  in
  (match read_pg t vblock with Ok page -> free_copies page | Error _ -> ());
  Pagestore.free t.ps vblock

let forget_uncommitted file vblock = Itbl.remove file.uncommitted vblock

let destroy_file t cap =
  let* file = find_file t cap ~need:Capability.right_destroy in
  (* Abort in-flight updates and free their private pages eagerly;
     committed history is reclaimed by the next GC sweep once the file is
     no longer a root. *)
  List.iter
    (fun vb ->
      match Itbl.find_opt t.versions vb with
      | Some v when v.status = Uncommitted ->
          free_private_pages t vb;
          v.status <- Aborted;
          v.wset <- None
      | _ -> ())
    (Itbl.sorted_keys file.uncommitted);
  (* Only this file's own version index is walked — not every version the
     server knows about. A freed block may since have been reused by
     another file, hence the ownership check. *)
  List.iter
    (fun vb ->
      match Itbl.find_opt t.versions vb with
      | Some (v : version_record) when v.file_obj = file.file_obj ->
          Itbl.remove t.versions vb
      | _ -> ())
    file.vblocks;
  Itbl.remove t.files file.file_obj;
  Itbl.replace t.destroyed file.file_obj ();
  bump t "files.destroyed";
  Ok ()

let abort_version t cap =
  let* v = find_version t cap ~need:Capability.right_destroy in
  match v.status with
  | Committed | Aborted -> Error Version_not_mutable
  | Uncommitted ->
      (match Itbl.find_opt t.files v.file_obj with
      | Some file -> forget_uncommitted file v.vblock
      | None -> ());
      free_private_pages t v.vblock;
      v.status <- Aborted;
      v.wset <- None;
      bump t "versions.aborted";
      Ok ()

(* {2 Page operations} *)

let mutable_version t cap ~need =
  let* v = find_version t cap ~need in
  match v.status with Uncommitted -> Ok v | Committed | Aborted -> Error Version_not_mutable

let read_page t cap path =   let* v = find_version t cap ~need:Capability.right_read in
  match v.status with
  | Uncommitted ->
      let* block = locate_for_access t v.vblock path Flags.Read in
      let* page = read_pg t block in
      Ok (Bytes.copy page.Page.data)
  | Committed | Aborted ->
      let* _, page = locate_plain t v.vblock path in
      Ok (Bytes.copy page.Page.data)

let write_page t cap path data =   let* v = mutable_version t cap ~need:Capability.right_write in
  let* block = locate_for_access t v.vblock path Flags.Write in
  let* page = read_pg t block in
  write_pg t block (Page.with_data page data)

let page_info t cap path =
  let* v = find_version t cap ~need:Capability.right_read in
  let* _, page = locate_plain t v.vblock path in
  Ok
    {
      nrefs = Page.nrefs page;
      dsize = Page.dsize page;
      child_flags = Array.map (fun (e : Page.ref_entry) -> e.Page.flags) page.Page.refs;
    }

let insert_page t cap ~parent ~index ?(data = Bytes.empty) () =
  let* v = mutable_version t cap ~need:Capability.right_write in
  let* pblock = locate_for_access t v.vblock parent Flags.Modify in
  let* ppage = read_pg t pblock in
  if index < 0 || index > Page.nrefs ppage then
    Error (Bad_index { path = parent; index; nrefs = Page.nrefs ppage })
  else
    let* fresh = Pagestore.allocate t.ps in
    let child = Page.with_data Page.empty data in
    let* () = write_pg t fresh child in
    (* A page that never existed in the base is private and written. *)
    let flags = Flags.record (Flags.record Flags.clear Flags.Write) Flags.Search in
    let entry = { Page.block = fresh; flags } in
    let* ppage = lift_page_err parent (Page.insert_ref ppage index entry) in
    let* () = write_pg t pblock ppage in
    update_wset v (fun ws ->
        let ws = Writeset.open_gap ws ~parent ~index in
        let child = Pagepath.child parent index in
        Writeset.record (Writeset.record ws child Flags.Write) child Flags.Search);
    Ok (Pagepath.child parent index)

let remove_page t cap ~parent ~index =
  let* v = mutable_version t cap ~need:Capability.right_write in
  let* pblock = locate_for_access t v.vblock parent Flags.Modify in
  let* ppage = read_pg t pblock in
  if index < 0 || index >= Page.nrefs ppage then
    Error (Bad_index { path = parent; index; nrefs = Page.nrefs ppage })
  else
    let* ppage = lift_page_err parent (Page.remove_ref ppage index) in
    let* () = write_pg t pblock ppage in
    update_wset v (fun ws -> Writeset.remove_at ws ~parent ~index);
    Ok ()

let move_page t cap ~src_parent ~src_index ~dst_parent ~dst_index =
  let src_path = Pagepath.child src_parent src_index in
  if Pagepath.is_prefix src_path dst_parent then
    Error (Bad_path dst_parent)
  else
    let* v = mutable_version t cap ~need:Capability.right_write in
    let* src_block = locate_for_access t v.vblock src_parent Flags.Modify in
    let* src_page = read_pg t src_block in
    let* entry = lift_page_err src_path (Page.get_ref src_page src_index) in
    let* src_page = lift_page_err src_path (Page.remove_ref src_page src_index) in
    let* () = write_pg t src_block src_page in
    (* The moved subtree's recordings travel with it: extract them (and
       close the gap) before the destination path — whose coordinates are
       post-removal — is even walked, then graft at the landing point. *)
    let moved_recordings = ref Writeset.empty in
    update_wset v (fun ws ->
        let sub, rest = Writeset.extract ws src_path in
        moved_recordings := sub;
        Writeset.close_gap rest ~parent:src_parent ~index:src_index);
    let* dst_block = locate_for_access t v.vblock dst_parent Flags.Modify in
    let* dst_page = read_pg t dst_block in
    if dst_index < 0 || dst_index > Page.nrefs dst_page then
      Error (Bad_index { path = dst_parent; index = dst_index; nrefs = Page.nrefs dst_page })
    else
      let* dst_page = lift_page_err dst_parent (Page.insert_ref dst_page dst_index entry) in
      let* () = write_pg t dst_block dst_page in
      update_wset v (fun ws ->
          let ws = Writeset.open_gap ws ~parent:dst_parent ~index:dst_index in
          Writeset.graft ws ~at:(Pagepath.child dst_parent dst_index) !moved_recordings);
      Ok ()

let split_page t cap ~path ~at =
  match (Pagepath.parent path, Pagepath.last path) with
  | None, _ | _, None -> Error (Bad_path path)
  | Some parent, Some position ->
      let* v = mutable_version t cap ~need:Capability.right_write in
      (* Both the page (its references move out) and the parent (a sibling
         appears) are explicit structure modifications. *)
      let* target_block = locate_for_access t v.vblock path Flags.Modify in
      let* target = read_pg t target_block in
      let n = Page.nrefs target in
      if at < 0 || at > n then Error (Bad_index { path; index = at; nrefs = n })
      else begin
        let moved = Array.sub target.Page.refs at (n - at) in
        let kept = Array.sub target.Page.refs 0 at in
        let target = Page.with_contents target ~refs:kept ~data:target.Page.data in
        let* () = write_pg t target_block target in
        (* Recordings for the children that moved out follow them to the
           sibling (child [at] becomes the sibling's child [0]). *)
        let moved_recordings = ref Writeset.empty in
        update_wset v (fun ws ->
            let sub, rest = Writeset.extract_children_from ws ~parent:path ~from:at in
            moved_recordings := sub;
            rest);
        let* sibling_block = Pagestore.allocate t.ps in
        let sibling = Page.with_contents Page.empty ~refs:moved ~data:Bytes.empty in
        let* () = write_pg t sibling_block sibling in
        let* pblock = locate_for_access t v.vblock parent Flags.Modify in
        let* ppage = read_pg t pblock in
        (* The sibling never existed in the base: private and written. *)
        let flags = Flags.record (Flags.record Flags.clear Flags.Write) Flags.Modify in
        let entry = { Page.block = sibling_block; flags } in
        let* ppage = lift_page_err parent (Page.insert_ref ppage (position + 1) entry) in
        let* () = write_pg t pblock ppage in
        update_wset v (fun ws ->
            let ws = Writeset.open_gap ws ~parent ~index:(position + 1) in
            let spath = Pagepath.child parent (position + 1) in
            let ws = Writeset.record (Writeset.record ws spath Flags.Write) spath Flags.Modify in
            Writeset.graft ws ~at:spath !moved_recordings);
        bump t "pages.split";
        Ok (Pagepath.child parent (position + 1))
      end

(* {2 Commit (§5.2): the validate → merge → publish pipeline}

   A commit is three stages. [validate] is the paper's test-and-set of
   the base version's commit reference under the store lock — the only
   fencing point in the whole pipeline. [merge] handles an interception:
   the write-set pre-test, then the serialisability tree walk that
   rebases the candidate onto the committed successor. [publish] makes
   the winning commit references durable and updates the in-memory
   administration.

   A single commit runs the stages back to back, publishing its
   reference inside the validate lock exactly as before. A group-commit
   batch ([commit_batch]) instead runs each member through validate and
   merge with publication *deferred*: winning references are recorded in
   a batch context (an overlay later members' test-and-sets consult) and
   all base locks are retained, then one [publish] writes every winner's
   reference in a single amortised stable-storage leg. Because members
   run strictly in submission order against the same overlay a
   sequential run would leave on disk, a batch's outcomes — and the
   final store image — are identical to committing its members one by
   one; only the cost is different. *)

(* Bound on commit-lock retries; with the default no-op backoff this is
   the old bounded spin. *)
let lock_retry_limit = 1024

(* The pipeline state type itself ([commit_ctx] / [fresh_ctx]) is defined
   up top, before [type t], so the server can park prepared runs. *)

let acquire_commit_lock t ctx block =
  (* Re-entrant within one pipeline run: a deferred batch keeps its locks
     until publish, and a later member may chain onto a block an earlier
     member already locked. *)
  if List.mem block ctx.held then Ok ()
  else
    (* The critical section is a handful of in-memory operations;
       contention can only come from another server physically sharing
       the store. Between retries the host's backoff hook runs (default:
       nothing, a bounded spin as in this single-threaded harness). *)
    let rec attempt n =
      if Pagestore.lock t.ps block then begin
        ctx.held <- List.merge Int.compare [ block ] ctx.held;
        Ok ()
      end
      else if n >= lock_retry_limit then Error (Store_failure "commit lock contention")
      else begin
        Stats.Counter.bump t.hot.lock_retries;
        t.lock_backoff n;
        attempt (n + 1)
      end
    in
    attempt 0

let release_commit_lock t ctx block =
  ctx.held <- List.filter (fun b -> b <> block) ctx.held;
  Pagestore.unlock t.ps block

let release_all_locks t ctx =
  let held = ctx.held in
  ctx.held <- [];
  List.iter (Pagestore.unlock t.ps) held

let finish_commit t v =
  v.status <- Committed;
  (match Itbl.find_opt t.files v.file_obj with
  | Some file ->
      file.current_hint <- v.vblock;
      forget_uncommitted file v.vblock
  | None -> ());
  Stats.Counter.bump t.hot.ok

(* Stage 1 — the test-and-set of [base_block]'s commit reference, under
   the store lock. [Ok None] = won; [Ok (Some s)] = intercepted by [s].
   Deferred mode records the win in the batch overlay instead of writing
   it through, and keeps the lock for publish. *)
let validate t ctx ~vb base_block =   let* () = acquire_commit_lock t ctx base_block in
  let outcome =
    match List.assoc_opt base_block ctx.pending with
    | Some successor -> Ok (Some successor)
    | None -> (
        Pagestore.invalidate t.ps base_block;
        let* bpage = read_pg t base_block in
        match bpage.Page.header.Page.commit_ref with
        | Some successor -> Ok (Some successor)
        | None ->
            let header = { bpage.Page.header with Page.commit_ref = Some vb } in
            let page = Page.with_header bpage header in
            if ctx.deferred then begin
              ctx.pending <- (base_block, vb) :: ctx.pending;
              ctx.publish_refs <- (base_block, page) :: ctx.publish_refs;
              Ok None
            end
            else
              let* () = t.publish_tap [ (base_block, page) ] in
              let* () = Pagestore.write_through t.ps base_block page in
              Ok None)
  in
  if not ctx.deferred then release_commit_lock t ctx base_block;
  tpoint t
    (Trace.Test_and_set
       { block = base_block; won = (match outcome with Ok None -> true | _ -> false) });
  outcome

let abandon t (v : version_record) outcome_name =
  (match Itbl.find_opt t.files v.file_obj with
  | Some file -> forget_uncommitted file v.vblock
  | None -> ());
  free_private_pages t v.vblock;
  v.status <- Aborted;
  v.wset <- None;
  tpoint t (Trace.Commit_outcome { vblock = v.vblock; outcome = outcome_name });
  Error Conflict

type merge_verdict = Rebased | Doomed of string

(* Stage 2 — an interception by [successor]: the §5.2 write-set pre-test,
   then the serialisability tree walk that rebases the candidate.
   [Rebased] means retry the test-and-set at the successor. *)
let merge t v ~successor =   let vb = v.vblock in
  Stats.Counter.bump t.hot.intercepted;
  (* When both sides carry the incremental administration, the §5.2
     conflict conditions can be decided from the two flag maps alone —
     disjoint (or merely read-shared) updates are told apart without
     reading a single page of either tree. Only the no-conflict answer
     still needs the tree walk, for the merge. *)
  tpoint t (Trace.Commit_phase { vblock = vb; phase = "pretest" });
  let precheck =
    match v.wset with
    | None -> None
    | Some candidate -> (
        match Itbl.find_opt t.versions successor with
        | Some { wset = Some committed; _ } -> Writeset.conflict ~candidate ~committed
        | _ -> None)
  in
  match precheck with
  | Some _ ->
      Stats.Counter.bump t.hot.shortcircuit;
      Stats.Counter.bump t.hot.conflict;
      Ok (Doomed "shortcircuit")
  | None -> (
      tpoint t (Trace.Commit_phase { vblock = vb; phase = "serialise" });
      match Serialise.test_and_merge t.ps ~candidate:vb ~committed:successor with
      | Error e -> Error e
      | Ok (Serialise.Conflict { stats; _ }) ->
          Stats.Counter.bump ~by:stats.Serialise.pages_visited t.hot.pages_visited;
          Stats.Counter.bump t.hot.conflict;
          Ok (Doomed "conflict")
      | Ok (Serialise.Serialisable stats) ->
          Stats.Counter.bump ~by:stats.Serialise.pages_visited t.hot.pages_visited;
          tpoint t (Trace.Commit_phase { vblock = vb; phase = "merge" });
          let* () = Pagestore.flush t.ps in
          Ok Rebased)

(* Stage 3 — durability and administration. All deferred commit
   references go to the store in one [write_through_batch] (one
   amortised stable-storage leg on a stable-pair backend), then the
   winners are finished oldest first and every held lock is released.
   The store writes the references in submission order and stops at the
   first error, so a mid-batch failure leaves a durable prefix: each
   member is either completely committed (its pages were flushed before
   its reference was written) or not committed at all. *)
let publish t ctx =
  let result =
    match List.rev ctx.publish_refs with
    | [] -> Ok ()
    | refs -> (
        match t.publish_tap refs with
        | Error _ as e -> e
        | Ok () -> Pagestore.write_through_batch t.ps refs)
  in
  (match result with
  | Ok () -> List.iter (finish_commit t) (List.rev ctx.winners)
  | Error _ -> ());
  release_all_locks t ctx;
  ctx.publish_refs <- [];
  ctx.pending <- [];
  result

(* Record an admitted batch winner: publication is deferred, and its
   write set joins the per-file union later members pre-test against. *)
let note_batch_winner ctx v =
  ctx.winners <- v :: ctx.winners;
  match v.wset with
  | None -> ()
  | Some ws ->
      let u =
        match List.assoc_opt v.file_obj ctx.unions with
        | Some u -> Writeset.union u ws
        | None -> ws
      in
      ctx.unions <- (v.file_obj, u) :: List.remove_assoc v.file_obj ctx.unions

(* Drive one version through the pipeline. In a deferred batch, a member
   whose write set conflicts with the union of the already-admitted
   winners' write sets is doomed by one [Writeset.conflict] pass —
   conflict against the union is conflict against some member (the
   conditions are monotone in the committed flags), so this is exactly
   the abort the chain walk would reach, attributed per transaction
   without dooming the rest of the batch. *)
let commit_version t ctx v =
  Trace.span t.trace ~kind:"commit" ~label:t.name (fun () ->
      (* "First it ascertains that all of V.b's pages are safely on disk." *)
      let* () = Pagestore.flush t.ps in
      let vb = v.vblock in
      let* vpage = read_pg t vb in
      let* base0 =
        match vpage.Page.header.Page.base_ref with
        | Some b -> Ok b
        | None -> Error (Store_failure "uncommitted version has no base reference")
      in
      let batch_conflict =
        if not ctx.deferred then None
        else
          match (v.wset, List.assoc_opt v.file_obj ctx.unions) with
          | Some candidate, Some committed -> Writeset.conflict ~candidate ~committed
          | _ -> None
      in
      match batch_conflict with
      | Some _ ->
          Stats.Counter.bump t.hot.intercepted;
          tpoint t (Trace.Commit_phase { vblock = vb; phase = "pretest" });
          Stats.Counter.bump t.hot.shortcircuit;
          Stats.Counter.bump t.hot.conflict;
          abandon t v "shortcircuit"
      | None ->
          let rec attempt base_block =
            match validate t ctx ~vb base_block with
            | Error e -> Error e
            | Ok None ->
                let outcome_name = if base_block = base0 then "fastpath" else "merged" in
                Stats.Counter.bump (if base_block = base0 then t.hot.fastpath else t.hot.merged);
                tpoint t (Trace.Commit_outcome { vblock = vb; outcome = outcome_name });
                if ctx.deferred then begin
                  note_batch_winner ctx v;
                  Ok ()
                end
                else begin
                  ctx.winners <- [ v ];
                  publish t ctx
                end
            | Ok (Some successor) -> (
                match merge t v ~successor with
                | Error e -> Error e
                | Ok (Doomed reason) -> abandon t v reason
                | Ok Rebased -> attempt successor)
          in
          attempt base0)

let commit t cap =   let* v = mutable_version t cap ~need:Capability.right_commit in
  commit_version t (fresh_ctx ~deferred:false ()) v

let commit_batch t caps =
  match caps with
  | [] -> []
  | [ cap ] ->
      Stats.Counter.bump t.hot.batches;
      Stats.Counter.bump t.hot.batch_members;
      [ commit t cap ]
  | caps ->
      let size = List.length caps in
      Stats.Counter.bump t.hot.batches;
      Stats.Counter.bump ~by:size t.hot.batch_members;
      let ctx = fresh_ctx ~deferred:true () in
      Trace.span t.trace ~kind:"commit_batch" ~label:t.name (fun () ->
          let results =
            List.map
              (fun cap ->
                match mutable_version t cap ~need:Capability.right_commit with
                | Error e -> Error e
                | Ok v -> commit_version t ctx v)
              caps
          in
          let winners = List.length ctx.winners in
          let aborts =
            List.fold_left (fun n -> function Error Conflict -> n + 1 | _ -> n) 0 results
          in
          match publish t ctx with
          | Ok () ->
              tpoint t (Trace.Commit_batch { size; winners; aborts });
              results
          | Error e ->
              (* The amortised publish leg failed mid-batch. The prefix of
                 winners whose references reached the store is durably
                 committed on disk, but this server can no longer vouch
                 for any member — surface the store failure to every
                 would-be winner; recovery reads the truth back. *)
              tpoint t (Trace.Commit_batch { size; winners = 0; aborts });
              List.map (function Ok () -> Error e | r -> r) results)

(* {2 Two-phase commit baseline (prepare / decide)}

   The occ4txn shape, assembled from the existing pipeline's
   validate/publish split: [prepare] drives the version through validate
   and merge exactly as a deferred batch member would — the winning
   test-and-set lands in the context overlay, nothing reaches stable
   storage, and the base's store lock is retained — then parks the
   context until the coordinator's [decide]. Between the two calls the
   file is effectively locked: any other commit of it exhausts the
   bounded lock spin and fails with [Store_failure], which is exactly the
   blocking behaviour the lock-free coordinator (lib/txn) is measured
   against. Prepared state is volatile — [crash] discards it and frees
   the locks, and a later abort decision for an unknown version succeeds
   trivially (presumed abort). *)

(* Abandon a deferred pipeline run without publishing: forget the overlay
   (its test-and-sets were never written through) and free every held
   lock. *)
let drop_ctx t ctx =
  ctx.publish_refs <- [];
  ctx.winners <- [];
  ctx.unions <- [];
  ctx.pending <- [];
  release_all_locks t ctx

let prepare t cap =
  let* v = mutable_version t cap ~need:Capability.right_commit in
  let ctx = fresh_ctx ~deferred:true () in
  match commit_version t ctx v with
  | Ok () ->
      Itbl.replace t.prepared v.vblock (ctx, v);
      bump t "commits.prepared";
      Ok ()
  | Error e ->
      (* Doomed members are already abandoned; only the locks and overlay
         remain to clean up. *)
      drop_ctx t ctx;
      Error e

let decide t cap ~commit =
  let* () = validate_cap t cap ~need:Capability.right_commit in
  let vblock = cap.Capability.obj / 2 in
  match Itbl.find_opt t.prepared vblock with
  | None ->
      (* Presumed abort: an abort decision for state this server no
         longer holds (crash, duplicate decide) is trivially satisfied; a
         commit decision cannot be honoured. *)
      if commit then Error (Store_failure "2pc: version not prepared") else Ok ()
  | Some (ctx, v) ->
      Itbl.remove t.prepared vblock;
      if commit then publish t ctx
      else begin
        drop_ctx t ctx;
        bump t "commits.decided_abort";
        (* [abandon] returns [Error Conflict] for the commit path's
           benefit; here the abort is the requested outcome. *)
        ignore (abandon t v "decided_abort" : unit r);
        Ok ()
      end

(* {2 Crash and recovery} *)

let crash t =
  (* Prepared-but-undecided 2PC state is volatile: presumed abort. Free
     the held locks before the store drops its volatile layers. *)
  Itbl.iter_sorted (fun _ (ctx, _) -> drop_ctx t ctx) t.prepared;
  Itbl.reset t.prepared;
  Pagestore.drop_volatile t.ps;
  (* Uncommitted versions are volatile by design. *)
  Itbl.iter_sorted
    (fun _ v ->
      if v.status = Uncommitted then begin
        v.status <- Aborted;
        v.wset <- None
      end)
    t.versions;
  Itbl.iter_sorted (fun _ f -> Itbl.reset f.uncommitted) t.files;
  tpoint t (Trace.Crash { component = "server"; what = "crash" });
  bump t "server.crashes"

let recover_from_blocks t blocks =
  let version_pages =
    List.filter_map
      (fun b ->
        match read_pg t b with
        | Ok page when Page.is_version_page page -> Some (b, page)
        | Ok _ | Error _ -> None)
      blocks
  in
  let by_file = Itbl.create 32 in
  List.iter
    (fun (b, page) ->
      match page.Page.header.Page.file_cap with
      | Some fc ->
          let existing = Option.value ~default:[] (Itbl.find_opt by_file fc.Capability.obj) in
          Itbl.replace by_file fc.Capability.obj ((b, page) :: existing)
      | None -> ())
    version_pages;
  let recovered = ref 0 in
  Itbl.iter_sorted
    (fun file_obj pages ->
      match List.find_opt (fun (_, p) -> p.Page.header.Page.base_ref = None) pages with
      | None -> () (* No chain root among these blocks: cannot recover. *)
      | Some (first, _) ->
          let chain = ref [] in
          let rec register block =
            Itbl.replace t.versions block
              { vblock = block; file_obj; status = Committed; wset = None };
            chain := block :: !chain;
            match read_pg t block with
            | Ok page -> (
                match page.Page.header.Page.commit_ref with
                | Some successor -> register successor
                | None -> block)
            | Error _ -> block
          in
          let current = register first in
          Itbl.replace t.files file_obj
            (fresh_file_record ~file_obj ~current ~oldest:first ~vblocks:!chain);
          incr recovered)
    by_file;
  bump t ~by:!recovered "files.recovered";
  tpoint t (Trace.Recovered_files { count = !recovered });
  Ok !recovered

(* {2 Introspection} *)

(* The version's write set, from the incremental administration when the
   server maintained one (O(pages written)), by the flag walk otherwise
   (O(tree) fallback for learned/recovered versions). *)
let written_set t block =
  match Itbl.find_opt t.versions block with
  | Some { wset = Some ws; _ } -> Ok (Writeset.written_paths ws)
  | Some { wset = None; _ } | None -> Serialise.written_paths t.ps ~version:block

let tracked_writeset t block =
  match Itbl.find_opt t.versions block with
  | Some v -> v.wset
  | None -> None

let root_flags_of t block =
  let* page = read_pg t block in
  Ok page.Page.header.Page.root_flags

let read_version_page t block = read_pg t block

let set_lock_fields t block ~top ~inner =
  let* page = read_pg t block in
  let header = page.Page.header in
  let header =
    { header with
      Page.top_lock = Option.value ~default:header.Page.top_lock top;
      Page.inner_lock = Option.value ~default:header.Page.inner_lock inner;
    }
  in
  Pagestore.write_through t.ps block (Page.with_header page header)

let note_pruned_chain t cap ~new_oldest =
  let* file = find_file t cap ~need:Capability.right_admin in
  file.oldest_hint <- new_oldest;
  Ok ()

(* The collector's sweep frees the blocks of pruned versions, and abort
   freed an aborted version's blocks already, but their records would
   stay behind forever; drop them with the sweep. An aborted version's
   block may since hold a live page, so its record goes even when the
   mark reached that block. Uncommitted and retained versions are mark
   roots, so they survive. *)
let forget_unreached t ~reached =
  Itbl.filter_map_inplace
    (fun vb v -> if v.status <> Aborted && reached vb then Some v else None)
    t.versions;
  Itbl.iter_sorted (fun _ f -> f.vblocks <- List.filter (Itbl.mem t.versions) f.vblocks) t.files

let list_files t =
  List.rev (Itbl.fold_sorted (fun _ f acc -> mint_file_cap t (f.file_obj / 2) :: acc) t.files [])

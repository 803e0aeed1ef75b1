module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Store = Afs_core.Store
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote

type t = { id : int; store : Store.t; server : Server.t; host : Remote.host }

let moved_target server file =
  match Server.current_version server file with
  | Error _ -> None
  | Ok version -> (
      match Server.read_page server version Pagepath.root with
      | Ok data -> Forward.decode data
      | Error _ -> None)

(* [Some record] iff the file's current committed root is a cross-shard
   transaction marker: a staged update whose outcome lives in the
   coordinator record. *)
let txn_record server file =
  match Server.current_version server file with
  | Error _ -> None
  | Ok version -> (
      match Server.read_page server version Pagepath.root with
      | Ok data -> Txnmark.record_of data
      | Error _ -> None)

(* Record R on the fresh version's root: the location check becomes part
   of every cluster transaction's read set, so a committed root write —
   a migration flip or a transaction stage, both of which replace the
   root — conflicts with every version opened before it, in both commit
   orders. *)
let with_root_read server (resp : Remote.response) =
  match resp with
  | Ok (Remote.Cap version) as ok ->
      ignore (Server.read_page server version Pagepath.root);
      ok
  | other -> other

(* The wrapper runs atomically inside the host's single simulated event,
   so the marker checks, the version creation and the root touch are
   indivisible: no commit (in particular no migration flip and no
   transaction stage) can slip between them. *)
let location_check server base (req : Remote.request) : Remote.response =
  match req with
  | Remote.Current_version file -> (
      match moved_target server file with
      | Some target -> Error (Errors.Moved target)
      | None -> (
          match txn_record server file with
          | Some record -> Error (Errors.Txn_in_doubt record)
          | None -> base req))
  | Remote.Create_version file -> (
      match moved_target server file with
      | Some target -> Error (Errors.Moved target)
      | None -> (
          match txn_record server file with
          | Some record -> Error (Errors.Txn_in_doubt record)
          | None -> with_root_read server (base req)))
  | Remote.Txn_mark file -> (
      (* Resolution reads pass the in-doubt trap — they are the
         resolution — but still honour migration tombstones. *)
      match moved_target server file with
      | Some target -> Error (Errors.Moved target)
      | None -> base req)
  | Remote.Txn_open { file; _ } | Remote.Txn_cas { file; _ } -> (
      (* Resolution writes, like resolution reads, pass the in-doubt trap;
         the handler itself reads the root inside the fresh version, so
         the R-on-root fence needs no extra touch here. *)
      match moved_target server file with
      | Some target -> Error (Errors.Moved target)
      | None -> base req)
  | _ -> base req

let create ?latency_ms ?proc_ms ?cache_capacity ?group_commit ?store ?publish_tap ?trace
    engine ~id ~seed =
  let store = match store with Some s -> s | None -> Store.memory () in
  let name = Printf.sprintf "shard-%d" id in
  let server =
    Server.create ?cache_capacity ?group_commit ~seed ~name ?publish_tap ?trace store
  in
  let host =
    Remote.host ?latency_ms ?proc_ms ~wrap:(location_check server) engine ~name server
  in
  { id; store; server; host }

(* Rebuild a shard slot around an existing server — the promotion path:
   the server was created over the promoted replica's store (plus
   recovery); this gives it the standard wrapped RPC host. *)
let of_server ?latency_ms ?proc_ms engine ~id ~store server =
  let host =
    Remote.host ?latency_ms ?proc_ms ~wrap:(location_check server) engine
      ~name:(Server.name server) server
  in
  { id; store; server; host }

let id t = t.id
let store t = t.store
let server t = t.server
let host t = t.host
let name t = Server.name t.server
let port t = Server.port t.server
let up t = Remote.host_up t.host
let crash t = Remote.crash_host t.host

let recover t =
  Remote.restart_host t.host;
  match (t.store.Store.list_blocks) () with
  | Error e -> Error (Errors.Store_failure e)
  | Ok blocks -> Server.recover_from_blocks t.server blocks

let resident_files t =
  List.filter
    (fun f -> Option.is_none (moved_target t.server f))
    (List.sort Capability.compare (Server.list_files t.server))

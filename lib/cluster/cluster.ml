module Capability = Afs_util.Capability
module Stats = Afs_util.Stats
module Det = Afs_util.Det
module Engine = Afs_sim.Engine
module Store = Afs_core.Store
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Rpc = Afs_rpc.Rpc
module Remote = Afs_rpc.Remote
module Replica = Afs_replica.Replica
module Trace = Afs_trace.Trace

let default_base_seed = 0xA40EBA

(* Seeds a full 2^32 apart keep the derived 48-bit ports distinct for any
   realistic shard count while shard 0 keeps the default seed — so a
   one-shard cluster mints bit-identical capabilities to a bare server. *)
let seed_stride = 0x1_0000_0000

type load = { cap : Capability.t; mutable count : int }

(* The replication plane of one shard: the primary-side source feeding
   [members], each hosted behind its own RPC endpoint (the ship/promote
   wire surface; local feeding bypasses it, promotion uses it). *)
type replication = {
  mutable source : Replica.Source.source;
  mutable members : (Replica.t * (Remote.request, Remote.response) Rpc.t) list;
}

type config = {
  latency_ms : float option;
  proc_ms : float option;
  cache_capacity : int option;
  group_commit : int option;
  trace : Trace.t option;
}

type t = {
  engine : Engine.t;
  shards : Shard.t array;
  conns : Remote.conn array;
  router : Router.t;
  counters : Stats.Counter.t;
  (* Shard i's "shard<i>.commits" cell, resolved once: [note_load] runs
     on every commit, and formatting plus hashing the name each time
     cost more than the count. *)
  shard_commits : int ref Lazy.t array;
  loads : (int * int, load) Hashtbl.t;
  seeds : int array;
  config : config;
  replication : replication option array;
  (* Bumped on every promotion; clients watch it to rebuild their
     connections — the connection-level analogue of chasing [Moved]. *)
  mutable generation : int;
}

let create ?latency_ms ?proc_ms ?cache_capacity ?group_commit
    ?(base_seed = default_base_seed) ?(replicas = 0) ?apply_interval_ms ?trace engine
    ~shards:n =
  if n <= 0 then invalid_arg "Cluster.create: need at least one shard";
  if replicas < 0 then invalid_arg "Cluster.create: replicas must be >= 0";
  let counters = Stats.Counter.create () in
  let seeds = Array.init n (fun i -> base_seed + (i * seed_stride)) in
  let replication = Array.make n None in
  let shards =
    Array.init n (fun i ->
        if replicas = 0 then
          (* No replication: exactly the pre-replica shard, byte for
             byte — no capture store, no gate, no epoch register. *)
          Shard.create ?latency_ms ?proc_ms ?cache_capacity ?group_commit ?trace engine
            ~id:i ~seed:seeds.(i)
        else begin
          let source = Replica.Source.create ~counters ?trace engine (Store.memory ()) in
          let reg = Replica.Source.register source in
          let members =
            List.init replicas (fun j ->
                let r =
                  Replica.create ?apply_interval_ms ~counters ?trace engine ~shard:i ~reg
                    ()
                in
                Replica.Source.attach source r;
                let rhost =
                  Replica.host ?latency_ms ?proc_ms engine
                    ~name:(Printf.sprintf "shard-%d.r%d" i j)
                    r
                in
                (r, rhost))
          in
          replication.(i) <- Some { source; members };
          Shard.create ?latency_ms ?proc_ms ?cache_capacity ?group_commit
            ~store:(Replica.Source.capture_store source)
            ~publish_tap:(Replica.Source.tap source) ?trace engine ~id:i ~seed:seeds.(i)
        end)
  in
  let router = Router.create ~ports:(Array.to_list (Array.map Shard.port shards)) in
  {
    engine;
    shards;
    conns = Array.map (fun s -> Remote.connect [ Shard.host s ]) shards;
    router;
    counters;
    shard_commits =
      Array.init n (fun i ->
          lazy (Stats.Counter.handle counters (Printf.sprintf "shard%d.commits" i)));
    loads = Hashtbl.create 64;
    seeds;
    config = { latency_ms; proc_ms; cache_capacity; group_commit; trace };
    replication;
    generation = 0;
  }

let engine t = t.engine
let nshards t = Array.length t.shards
let shard t i = t.shards.(i)
let shards t = Array.to_list t.shards
let conn t i = t.conns.(i)
let router t = t.router
let counters t = t.counters
let generation t = t.generation

let resolve t cap = Router.resolve t.router cap

let shard_of_cap t cap =
  let cap = Router.resolve t.router cap in
  match Router.shard_of_port t.router cap.Capability.port with
  | Some i -> Ok (cap, t.shards.(i))
  | None -> Error Errors.Invalid_capability

let place t = t.shards.(Router.place t.router)

let create_file_direct t ?(data = Bytes.empty) () =
  Server.create_file (Shard.server (place t)) ~data ()

let note_load t ~shard file =
  Stats.Counter.bump t.shard_commits.(Shard.id shard);
  let key = (Capability.port_to_int file.Capability.port, file.Capability.obj) in
  match Hashtbl.find_opt t.loads key with
  | Some l -> l.count <- l.count + 1
  | None -> Hashtbl.replace t.loads key { cap = file; count = 1 }

let drain_loads t =
  let entries = Det.fold_sorted (fun _ l acc -> (l.cap, l.count) :: acc) t.loads [] in
  Hashtbl.reset t.loads;
  List.rev entries

let migrations t = Stats.Counter.get t.counters "migrations"

(* {2 Replication} *)

let replicas_of t i =
  match t.replication.(i) with None -> [] | Some { members; _ } -> List.map fst members

let replication_source t i =
  Option.map (fun r -> r.source) t.replication.(i)

let flush_replication t =
  Array.iter
    (function
      | None -> ()
      | Some { source; members } ->
          Replica.Source.flush source;
          List.iter (fun (r, _) -> Replica.drain r) members)
    t.replication

type promotion = { epoch : int; watermark : int; recovered_files : int }

(* Fail over shard [i] to its first replica. Must run inside a simulation
   process (the promotion itself is an RPC to the replica's endpoint).

   The sequence is the paper's commit discipline applied to the shard:
   the [Promote] request test-and-sets the shared epoch register and
   drains the replica's queue; sibling replicas catch up and re-home onto
   the promoted store's new source; a server is rebuilt over that store
   with the shard's original seed — same secret, same port — so every
   outstanding capability stays valid and the router's port table needs
   no change. The deposed primary, if still running, keeps its old
   source, whose every publish now loses the test-and-set: it can answer
   reads and open versions, but it can never commit again. *)
let promote t i =
  match t.replication.(i) with
  | None | Some { members = []; _ } ->
      Error (Errors.Store_failure "promote: shard has no replica")
  | Some ({ members = (r, rhost) :: siblings; _ } as repl) -> (
      let expected_epoch = Replica.epoch r in
      match Rpc.call rhost (Remote.Promote { expected_epoch }) with
      | Error e ->
          Error (Errors.Store_failure (Fmt.str "promote rpc: %a" Rpc.pp_call_error e))
      | Ok (Error e) -> Error e
      | Ok (Ok (Remote.Watermark { epoch; applied; _ })) -> (
          List.iter (fun (s, _) -> Replica.adopt s ~epoch) siblings;
          let source =
            Replica.Source.create
              ~reg:(Replica.Source.register repl.source)
              ~seq:(Replica.shipped_seq r) ~counters:t.counters ?trace:t.config.trace
              t.engine (Replica.store r)
          in
          List.iter (fun (s, _) -> Replica.Source.attach source s) siblings;
          let store = Replica.Source.capture_store source in
          let server =
            Server.create ?cache_capacity:t.config.cache_capacity
              ?group_commit:t.config.group_commit ~seed:t.seeds.(i)
              ~name:(Printf.sprintf "shard-%d" i)
              ~publish_tap:(Replica.Source.tap source) ?trace:t.config.trace store
          in
          let recovered =
            match store.Store.list_blocks () with
            | Error msg -> Error (Errors.Store_failure msg)
            | Ok blocks -> Server.recover_from_blocks server blocks
          in
          match recovered with
          | Error e -> Error e
          | Ok recovered_files ->
              let shard =
                Shard.of_server ?latency_ms:t.config.latency_ms
                  ?proc_ms:t.config.proc_ms t.engine ~id:i ~store server
              in
              t.shards.(i) <- shard;
              t.conns.(i) <- Remote.connect [ Shard.host shard ];
              repl.source <- source;
              repl.members <- siblings;
              t.generation <- t.generation + 1;
              Stats.Counter.incr t.counters "promotions";
              Ok { epoch; watermark = applied; recovered_files })
      | Ok (Ok _) -> Error (Errors.Store_failure "promote: unexpected response"))

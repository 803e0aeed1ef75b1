module Pagepath = Afs_util.Pagepath
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module CC = Afs_cluster.Cluster_client
module Pageop = Afs_core.Pageop
module Twopl = Afs_baseline.Twopl
module Tsorder = Afs_baseline.Tsorder
module Proc = Afs_sim.Proc

type 'p page_op = 'p Pageop.t = Read of 'p | Write of 'p * bytes | Rmw of 'p * (bytes -> bytes)
type op = int page_op

type txn_spec = {
  file : int;
  ops : op list;
  parts : (int * op list) list;
      (* Non-empty makes this a multi-file transaction: one (file, ops)
         participant per entry, honoured only by the cross-shard
         backends; [file]/[ops] are ignored then. *)
}

type exec_result = {
  committed : bool;
  attempts : int;
  local_aborts : int;
  cross_aborts : int;
}

(* Single-file backends: every failed execution is a local abort. *)
let finished ~committed attempts =
  {
    committed;
    attempts;
    local_aborts = (attempts - if committed then 1 else 0);
    cross_aborts = 0;
  }

type t = {
  name : string;
  exec : txn_spec -> max_retries:int -> exec_result;
  stats : unit -> (string * int) list;
  read_page : int -> int -> bytes;
}

exception Fatal of { where : string; error : Errors.t }

let () =
  Printexc.register_printer (function
    | Fatal { where; error } ->
        Some (Printf.sprintf "Sut.Fatal(%s: %s)" where (Errors.to_string error))
    | _ -> None)

let fatal_error where error = raise (Fatal { where; error })

let fatal where = function Ok v -> v | Error e -> fatal_error where e

let page_path i = Pagepath.of_list [ i ]

let single_part_only where spec =
  if spec.parts <> [] then
    fatal_error where (Errors.Store_failure "multi-part transaction on a single-file backend")

let server_stats server () = Afs_util.Stats.Counter.to_list (Server.counters server)

(* An invariant-check read of the file's current committed page. *)
let server_read_page server file page =
  let cap = fatal "current_version" (Server.current_version server file) in
  fatal "read_page" (Server.read_page server cap (page_path page))

(* Checker-side reads go straight to the owning server, chasing any
   tombstones the router has not learned about. Shared by every
   cluster-backed SUT. In-doubt files are read as their pre-transaction
   state — harnesses sweep (Afs_txn.Txn.sweep) before auditing. *)
let cluster_read_page cluster files file page =
  let rec locate cap hops =
    match Afs_cluster.Cluster.shard_of_cap cluster cap with
    | Error e -> fatal_error "cluster locate" e
    | Ok (cap, shard) -> (
        let server = Afs_cluster.Shard.server shard in
        match Afs_cluster.Shard.moved_target server cap with
        | Some target when hops < 16 -> locate target (hops + 1)
        | Some _ | None -> (server, cap))
  in
  let server, cap = locate files.(file) 0 in
  server_read_page server cap page

let cluster_stats cluster () =
  Afs_util.Stats.Counter.to_list (Afs_cluster.Cluster.counters cluster)
  @ List.concat_map
      (fun s ->
        let prefix = Afs_cluster.Shard.name s ^ "." in
        List.map (fun (k, v) -> (prefix ^ k, v)) (server_stats (Afs_cluster.Shard.server s) ()))
      (Afs_cluster.Cluster.shards cluster)

(* {2 The Amoeba file service: one optimistic loop}

   The paper puts redo on the client: open a version, walk the ops,
   commit, and on [Conflict] redo at once. Every single-file AFS backend
   runs this one loop over a record of closures on its own client
   surface. The outcome table:
   - [Locked_out] on open: pause, then redo;
   - an outage (a crashed host awaiting recovery or failover; only the
     cluster reports one) at any step: pause and redo, first aborting the
     version if the outage hit its ops;
   - [Conflict] at commit: redo at once;
   - anything else: [Fatal], first aborting the version if the error hit
     its ops.
   A backend with the same RPC sequence therefore reports bit-identically:
   a one-shard cluster matches the bare remote server. *)

type 'v backend = {
  where : string;
  open_version : Afs_util.Capability.t -> 'v Errors.r;
  read : 'v -> Pagepath.t -> bytes Errors.r;
  write : 'v -> Pagepath.t -> bytes -> unit Errors.r;
  commit : 'v -> unit Errors.r;
  abort : 'v -> unit;
  outage : Errors.t -> bool;
  pause : unit -> unit;
}

let walk b v ops =
  Pageop.run ops
    ~read:(fun i -> b.read v (page_path i))
    ~write:(fun i data -> b.write v (page_path i) data)

let optimistic b ~files spec ~max_retries =
  single_part_only b.where spec;
  let file = files.(spec.file) in
  let rec attempt n =
    let redo ~pause =
      if n < max_retries then begin
        if pause then b.pause ();
        attempt (n + 1)
      end
      else finished ~committed:false n
    in
    match b.open_version file with
    | Error (Errors.Locked_out _) -> redo ~pause:true
    | Error e when b.outage e -> redo ~pause:true
    | Error e -> fatal_error (b.where ^ " create_version") e
    | Ok v -> (
        match walk b v spec.ops with
        | Error e ->
            b.abort v;
            if b.outage e then redo ~pause:true else fatal_error (b.where ^ " ops") e
        | Ok () -> (
            match b.commit v with
            | Ok () -> finished ~committed:true n
            | Error Errors.Conflict -> redo ~pause:false
            | Error e when b.outage e ->
                (* The commit request never reached a live server (a
                   served request's reply still delivers across a crash),
                   so nothing committed: redo from scratch. *)
                redo ~pause:true
            | Error e -> fatal_error (b.where ^ " commit") e))
  in
  attempt 1

let rpc_pause () = Proc.delay 5.0

let afs_local server ~files =
  let b =
    {
      where = "afs_local";
      open_version = Server.create_version server;
      read = Server.read_page server;
      write = Server.write_page server;
      commit = Server.commit server;
      abort = (fun v -> ignore (Server.abort_version server v));
      outage = (fun _ -> false);
      pause = ignore;
    }
  in
  {
    name = "afs-occ";
    exec = optimistic b ~files;
    stats = server_stats server;
    read_page = (fun file -> server_read_page server files.(file));
  }

let afs_remote ?(name = "afs-occ-rpc") conn ~fallback ~files =
  let b =
    {
      where = "afs_remote";
      open_version = Remote.create_version conn;
      read = Remote.read_page conn;
      write = Remote.write_page conn;
      commit = Remote.commit conn;
      abort = (fun v -> ignore (Remote.abort_version conn v));
      outage = (fun _ -> false);
      pause = rpc_pause;
    }
  in
  {
    name;
    exec = optimistic b ~files;
    stats = server_stats fallback;
    read_page = (fun file -> server_read_page fallback files.(file));
  }

(* A cluster member may simply stop answering (crashed, awaiting
   failover): [Store_failure] there is a transport outage, not a protocol
   violation. The connection lookup learns a promoted server as soon as
   one exists; a healthy run never sees an outage. *)
let cluster_backend client =
  {
    where = "afs_cluster";
    open_version = CC.begin_txn client;
    read = (fun h path -> CC.Txn.read h.CC.txn path);
    write = (fun h path data -> CC.Txn.write h.CC.txn path data);
    commit = CC.commit client;
    abort = (fun h -> ignore (CC.abort h));
    outage = (function Errors.Store_failure _ -> true | _ -> false);
    pause = rpc_pause;
  }

let afs_cluster client ~files =
  let cluster = CC.cluster client in
  {
    name = "afs-occ-cluster";
    exec = optimistic (cluster_backend client) ~files;
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }

(* {2 Remote execution of baseline operations}

   When an engine is supplied, each backend operation becomes one request
   to a serialised RPC endpoint (same latency and CPU cost as the AFS
   host), so baseline transactions interleave between requests exactly
   like AFS transactions do. The request carries a thunk; the reply
   timing carries the cost. *)

type op_call = unit -> unit

let make_op_rpc engine name : (op_call, unit) Afs_rpc.Rpc.t =
  Afs_rpc.Rpc.serve ~latency_ms:2.0 ~proc_ms:0.2 engine ~name ~handler:(fun f -> f ())

let remote_runner = function
  | None -> fun f -> f ()
  | Some rpc ->
      fun f ->
        let result = ref None in
        (match Afs_rpc.Rpc.call rpc (fun () -> result := Some (f ())) with
        | Ok () -> ()
        | Error _ -> fatal_error "baseline op" (Errors.Store_failure "op server crashed"));
        (match !result with Some v -> v | None -> fatal_error "baseline op" (Errors.Store_failure "reply lost"))

(* {2 XDFS-style two-phase locking} *)

let max_lock_waits = 40

(* A competent locking client acquires locks in a canonical order so that
   transactions over the same pages cannot deadlock; the generator's pages
   are distinct, so sorting by page is behaviour-preserving. *)
let sort_ops ops =
  let page = function Read p -> p | Write (p, _) -> p | Rmw (p, _) -> p in
  List.stable_sort (fun a b -> compare (page a) (page b)) ops

let twopl ?remote backend ~pages_per_file ~retry_wait_ms =
  let rpc = Option.map (fun engine -> make_op_rpc engine "xdfs-2pl") remote in
  let run : type a. (unit -> a) -> a = fun f -> remote_runner rpc f in
  let obj file page = (file * 65536) + page in
  assert (pages_per_file <= 65536);
  let exec spec ~max_retries =
    single_part_only "twopl" spec;
    let rec attempt n =
      let txn = run (fun () -> Twopl.begin_ backend) in
      (* Each operation spins on denials: prod vulnerable holders, wait
         otherwise; too many waits aborts the transaction (deadlock
         resolution by timeout, as XDFS's vulnerable locks intend). *)
      let with_lock_wait op_once =
        let rec try_op waits =
          match run op_once with
          | Ok v -> Some v
          | Error (d : Twopl.denial) ->
              if d.Twopl.holder = 0 then None (* We were prodded out: redo. *)
              else if waits >= max_lock_waits then None
              else begin
                if d.Twopl.vulnerable then
                  ignore (run (fun () -> Twopl.prod backend ~victim:d.Twopl.holder));
                Proc.delay retry_wait_ms;
                try_op (waits + 1)
              end
        in
        try_op 0
      in
      let rec run_ops = function
        | [] -> Some ()
        | Read i :: rest -> (
            match with_lock_wait (fun () -> Twopl.read backend txn ~obj:(obj spec.file i)) with
            | Some _ -> run_ops rest
            | None -> None)
        | Write (i, data) :: rest -> (
            match
              with_lock_wait (fun () -> Twopl.write backend txn ~obj:(obj spec.file i) data)
            with
            | Some () -> run_ops rest
            | None -> None)
        | Rmw (i, f) :: rest -> (
            (* Update-lock first: reserve, then read, then write. *)
            match with_lock_wait (fun () -> Twopl.reserve backend txn ~obj:(obj spec.file i)) with
            | None -> None
            | Some () -> (
                match
                  with_lock_wait (fun () -> Twopl.read backend txn ~obj:(obj spec.file i))
                with
                | None -> None
                | Some v -> (
                    match
                      with_lock_wait (fun () ->
                          Twopl.write backend txn ~obj:(obj spec.file i) (f v))
                    with
                    | Some () -> run_ops rest
                    | None -> None)))
      in
      let redo () =
        run (fun () -> Twopl.abort backend txn);
        if n < max_retries then attempt (n + 1) else finished ~committed:false n
      in
      match run_ops (sort_ops spec.ops) with
      | None -> redo ()
      | Some () -> (
          match with_lock_wait (fun () -> Twopl.commit backend txn) with
          | Some () -> finished ~committed:true n
          | None -> redo ())
    in
    attempt 1
  in
  {
    name = "xdfs-2pl";
    exec;
    stats = (fun () -> Twopl.stats backend);
    read_page = (fun file page -> Twopl.value backend ~obj:(obj file page));
  }

(* {2 SWALLOW-style timestamp ordering} *)

let tsorder ?remote backend ~pages_per_file =
  let rpc = Option.map (fun engine -> make_op_rpc engine "swallow-ts") remote in
  let run : type a. (unit -> a) -> a = fun f -> remote_runner rpc f in
  let obj file page = (file * 65536) + page in
  assert (pages_per_file <= 65536);
  let exec spec ~max_retries =
    single_part_only "tsorder" spec;
    let rec attempt n =
      let txn = run (fun () -> Tsorder.begin_ backend) in
      (* A late read or write is the whole story: abort and redo. *)
      let read i =
        Result.map_error ignore (run (fun () -> Tsorder.read backend txn ~obj:(obj spec.file i)))
      in
      let write i data =
        Result.map_error ignore
          (run (fun () -> Tsorder.write backend txn ~obj:(obj spec.file i) data))
      in
      let redo () =
        run (fun () -> Tsorder.abort backend txn);
        if n < max_retries then attempt (n + 1) else finished ~committed:false n
      in
      match Pageop.run ~read ~write spec.ops with
      | Error () -> redo ()
      | Ok () -> (
          match run (fun () -> Tsorder.commit backend txn) with
          | Ok () -> finished ~committed:true n
          | Error (`Late_write _) -> redo ())
    in
    attempt 1
  in
  {
    name = "swallow-ts";
    exec;
    stats = (fun () -> Tsorder.stats backend);
    read_page = (fun file page -> Tsorder.value backend ~obj:(obj file page));
  }

(* {2 Amoeba file service with cross-shard transactions}

   Single-part specs take lib/txn's fast path (the same RPC sequence as
   [afs_cluster]); multi-part specs run the stage/decide/flip protocol.
   The retry loop distinguishes the two abort flavours the S2 report
   separates: a participant stage losing an ordinary one-shard race
   (local) versus a fully-staged transaction force-aborted at the
   coordinator record (cross). *)

let afs_txn ?trace client ~files =
  let module Txn = Afs_txn.Txn in
  let cluster = CC.cluster client in
  let txn = Txn.create ?trace client in
  let part (file, ops) = { Txn.file = files.(file); ops = List.map (Pageop.map page_path) ops } in
  let parts_of spec =
    match spec.parts with [] -> [ part (spec.file, spec.ops) ] | parts -> List.map part parts
  in
  let exec spec ~max_retries =
    let parts = parts_of spec in
    let local = ref 0 and cross = ref 0 in
    let result ~committed n =
      { committed; attempts = n; local_aborts = !local; cross_aborts = !cross }
    in
    let rec attempt n =
      match Txn.exec txn parts with
      | Ok () -> result ~committed:true n
      | Error f ->
          (match f with
          | Txn.Local _ -> incr local
          | Txn.Cross _ -> incr cross
          | Txn.Failed (Errors.Locked_out _ | Errors.Store_failure _) ->
              (* Transport outage or lock hint: wait it out, as the other
                 cluster SUTs do. Not an abort — nothing was staged. *)
              rpc_pause ()
          | Txn.Failed e -> fatal_error "afs_txn exec" e);
          if n < max_retries then attempt (n + 1) else result ~committed:false n
    in
    attempt 1
  in
  let stats () =
    Afs_util.Stats.Counter.to_list (Txn.counters txn) @ cluster_stats cluster ()
  in
  { name = "afs-occ-txn"; exec; stats; read_page = cluster_read_page cluster files }

(* {2 Two-phase-commit baseline over the same cluster}

   The conventional coordinator shape: phase one validates and merges
   each participant version ([Server.prepare]) and parks the pipeline
   holding the base's store lock; phase two publishes or drops it
   ([Server.decide]). Participants are prepared in canonical file order
   (preventing prepare deadlocks exactly as lock ordering does for 2PL),
   and blocking is emergent: any competitor spins on the retained lock
   for the whole prepare window, surfacing as [Store_failure] back-offs.
   Contrast with [afs_txn], which holds nothing across shards. *)

let afs_twopc client ~files =
  let cluster = CC.cluster client in
  let b = cluster_backend client in
  let prepare_one h =
    Remote.prepare (CC.Txn.conn h.CC.txn) (CC.Txn.version h.CC.txn)
  in
  let decide_one h ~commit =
    Remote.decide (CC.Txn.conn h.CC.txn) (CC.Txn.version h.CC.txn) ~commit
  in
  let parts_of spec =
    match spec.parts with
    | [] -> [ (spec.file, spec.ops) ]
    | parts -> List.sort (fun (a, _) (b, _) -> compare a b) parts
  in
  let exec spec ~max_retries =
    let parts = parts_of spec in
    let local = ref 0 and cross = ref 0 in
    let result ~committed n =
      { committed; attempts = n; local_aborts = !local; cross_aborts = !cross }
    in
    let abort_all hs = List.iter b.abort hs in
    let rec attempt n =
      let back_off_retry ~result:r () =
        if n < max_retries then begin
          rpc_pause ();
          attempt (n + 1)
        end
        else r
      in
      (* Phase zero: open a version on every participant and run its ops
         (real page writes, unlike the marker-borne afs_txn stage). *)
      let rec open_all acc = function
        | [] -> `Opened (List.rev acc)
        | (file, ops) :: rest -> (
            match b.open_version files.(file) with
            | Error (Errors.Locked_out _ | Errors.Store_failure _) ->
                abort_all acc;
                `Back_off
            | Error e -> fatal_error "afs_twopc create_version" e
            | Ok h -> (
                match walk b h ops with
                | Ok () -> open_all (h :: acc) rest
                | Error (Errors.Store_failure _) ->
                    abort_all (h :: acc);
                    `Back_off
                | Error e ->
                    abort_all (h :: acc);
                    fatal_error "afs_twopc ops" e))
      in
      match open_all [] parts with
      | `Back_off -> back_off_retry ~result:(result ~committed:false n) ()
      | `Opened handles -> (
          (* Phase one, in canonical order. On any refusal the prepared
             prefix is decided-abort (releasing its parked pipelines)
             before the unprepared suffix is discarded. *)
          let rec prepare_all prepared idx = function
            | [] -> `Prepared (List.rev prepared)
            | h :: rest -> (
                match prepare_one h with
                | Ok () -> prepare_all (h :: prepared) (idx + 1) rest
                | Error e ->
                    List.iter
                      (fun p -> ignore (decide_one p ~commit:false))
                      (List.rev prepared);
                    abort_all (h :: rest);
                    `Refused (idx, e))
          in
          match prepare_all [] 0 handles with
          | `Refused (_, Errors.Store_failure _) ->
              (* Lock contention against another coordinator's prepare
                 window — the blocking 2PC is famous for. *)
              back_off_retry ~result:(result ~committed:false n) ()
          | `Refused (idx, Errors.Conflict) ->
              if idx = 0 && List.length parts > 1 then incr local
              else if List.length parts > 1 then incr cross
              else incr local;
              if n < max_retries then attempt (n + 1)
              else result ~committed:false n
          | `Refused (_, e) -> fatal_error "afs_twopc prepare" e
          | `Prepared prepared ->
              (* Phase two: the decision is definite once every vote is
                 in; a participant that cannot publish now is a broken
                 store, not a conflict. *)
              List.iter
                (fun h ->
                  fatal "afs_twopc decide" (decide_one h ~commit:true);
                  CC.note_commit client ~shard:h.CC.shard h.CC.file)
                prepared;
              result ~committed:true n)
    in
    attempt 1
  in
  {
    name = "afs-2pc";
    exec;
    stats = cluster_stats cluster;
    read_page = cluster_read_page cluster files;
  }

(* The benchmark's workloads, runs, measurement wrappers and correctness
   gates.

   Everything here sits outside the program: each layer is measured by
   timing calls into its public seam (the [Sut.t] record, the workload
   generator, [Remote.host ~wrap], the [Store.t] record, the collector
   called from [Driver.run ~on_progress]) and by a [Trace.stream] sink
   this file owns, which stamps the host clock on every event. Nothing
   in lib/ is instrumented for the benchmark's sake. *)

module Engine = Afs_sim.Engine
module Proc = Afs_sim.Proc
module Trace = Afs_trace.Trace
module Counter = Afs_util.Stats.Counter
module Pagepath = Afs_util.Pagepath
module Errors = Afs_core.Errors
module Server = Afs_core.Server
module Store = Afs_core.Store
module Page = Afs_core.Page
module Core_gc = Afs_core.Gc
module Remote = Afs_rpc.Remote
module Stable = Afs_stable.Stable_pair
module Media = Afs_disk.Media
module Disk = Afs_disk.Disk
module Cluster = Afs_cluster.Cluster
module Shard = Afs_cluster.Shard
module CC = Afs_cluster.Cluster_client
module Txn = Afs_txn.Txn
module Sut = Afs_workload.Sut
module Driver = Afs_workload.Driver
module Workload = Afs_workload.Workload

(* {1 Host clock} *)

let now_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_ns t0)

(* {1 Samples and exact percentiles} *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. A given-up transaction is recorded as
   [infinity], so it ranks above every success. The epsilon keeps
   [0.99 *. 100.] from rounding up to rank 100. *)
let percentile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "percentile: no samples";
  if not (p > 0.0 && p <= 1.0) then invalid_arg "percentile: p must be in (0, 1]";
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  sorted.(max 1 (min n rank) - 1)

let median_float values = percentile values 0.5

(* {1 Workloads} *)

type kind = Stable_1k | Zipf_4shard | Xshard_bank

let kinds = [ Stable_1k; Zipf_4shard; Xshard_bank ]

let name = function
  | Stable_1k -> "stable-1k"
  | Zipf_4shard -> "zipf-4shard"
  | Xshard_bank -> "xshard-bank"

let of_name s = List.find_opt (fun k -> name k = s) kinds

type spec = {
  kind : kind;
  clients : int;
  think_ms : float;
  duration_ms : float;  (** Virtual length of one run. *)
  max_retries : int;
  window : int;  (** Finished transactions per host-throughput window. *)
  setups : int;
      (** Timed set-ups before the first run, about 2 s of work. A fixed
          count, so the collector's state at the start of the run does not
          depend on host speed. *)
}

let stable_shape =
  {
    Workload.nfiles = 48;
    pages_per_file = 16;
    read_pages = 2;
    rmw_pages = 2;
    payload_bytes = 1024;
    file_theta = 0.6;
    page_theta = 0.6;
  }

let zipf_shape =
  {
    Workload.nfiles = 4096;
    pages_per_file = 8;
    read_pages = 3;
    rmw_pages = 1;
    payload_bytes = 48;
    file_theta = 0.6;
    page_theta = 0.0;
  }

let bank_shape = Workload.bank_transfers
let initial_balance = 1_000

(* Transactions retry until they commit (the budget is never reached on
   these workloads), so a given-up transaction is a failed operation.

   stable-1k thinks 150 ms, where the server is at its throughput peak
   and about 15% of attempts are redone. At 2 ms think it is past
   saturation: every retry waits one full queue cycle, the latency tail
   splits into one cluster per retry count, and p99 jumps between
   clusters from seed to seed. *)
let spec = function
  | Stable_1k ->
      {
        kind = Stable_1k;
        clients = 32;
        think_ms = 150.0;
        duration_ms = 450_000.0;
        max_retries = 1000;
        window = 1000;
        setups = 120;
      }
  | Zipf_4shard ->
      {
        kind = Zipf_4shard;
        clients = 1000;
        think_ms = 1000.0;
        duration_ms = 60_000.0;
        max_retries = 1000;
        window = 4000;
        setups = 8;
      }
  | Xshard_bank ->
      {
        kind = Xshard_bank;
        clients = 16;
        think_ms = 5.0;
        duration_ms = 600_000.0;
        max_retries = 1000;
        window = 1000;
        setups = 2000;
      }

(* The collector cadence and policy of stable-1k: every 500 finished
   transactions, keep 16 committed versions per file, no resharing. *)
let gc_every = 500
let gc_policy = { Core_gc.retain_committed = 16; reshare = false }

(* {1 Layer probes}

   A probe accumulates the host time and counts the traced run's
   wrappers and trace sink observe. [depth] is non-zero while a timed
   wrapper runs, so the sink's own cost is charged to the residual only
   when no wrapper already covers it. *)

type probe = {
  mutable depth : int;
  mutable gen_ns : int;
  mutable gen_calls : int;
  mutable gc_ns : int;
  rpc : (string, int ref * int ref) Hashtbl.t;  (** kind -> (ns, calls) *)
  mutable store_ns : int;
  mutable store_reads : int;
  mutable store_writes : int;
  mutable store_other : int;
  mutable store_bytes_written : int;
  commit_open : (int, int64) Hashtbl.t;
  mutable commit_ns : int;
  mutable commit_spans : int;
  coord_open : (int, float) Hashtbl.t;
  coord_ms : samples;
  mutable rpc_sends : int;
  mutable sink_ns : int;
}

let probe () =
  {
    depth = 0;
    gen_ns = 0;
    gen_calls = 0;
    gc_ns = 0;
    rpc = Hashtbl.create 16;
    store_ns = 0;
    store_reads = 0;
    store_writes = 0;
    store_other = 0;
    store_bytes_written = 0;
    commit_open = Hashtbl.create 64;
    commit_ns = 0;
    commit_spans = 0;
    coord_open = Hashtbl.create 64;
    coord_ms = samples ();
    rpc_sends = 0;
    sink_ns = 0;
  }

(* Forget what set-up did, so the probe covers the driven run only. *)
let reset p =
  p.gen_ns <- 0;
  p.gen_calls <- 0;
  p.gc_ns <- 0;
  Hashtbl.reset p.rpc;
  p.store_ns <- 0;
  p.store_reads <- 0;
  p.store_writes <- 0;
  p.store_other <- 0;
  p.store_bytes_written <- 0;
  p.commit_ns <- 0;
  p.commit_spans <- 0;
  p.coord_ms.len <- 0;
  p.rpc_sends <- 0;
  p.sink_ns <- 0

let covered p f =
  p.depth <- p.depth + 1;
  let timing = timed f in
  p.depth <- p.depth - 1;
  timing

(* The benchmark's own trace sink: every event is stamped with the host
   clock; [commit] spans give the host cost of the validate -> merge ->
   publish pipeline, [txn.coord] spans the virtual coordinator time. A
   commit span counts as covered time, like a timed wrapper. *)
let sink p engine =
  Trace.stream
    ~now:(fun () -> Engine.now engine)
    (fun ev ->
      let t0 = now_ns () in
      (match ev with
      | Trace.Span_open { id; kind = "commit"; _ } ->
          Hashtbl.replace p.commit_open id t0;
          p.depth <- p.depth + 1
      | Trace.Span_open { id; kind = "txn.coord"; at_ms; _ } ->
          Hashtbl.replace p.coord_open id at_ms
      | Trace.Span_close { id; at_ms; _ } -> (
          match Hashtbl.find_opt p.commit_open id with
          | Some opened ->
              Hashtbl.remove p.commit_open id;
              p.depth <- p.depth - 1;
              p.commit_ns <- p.commit_ns + Int64.to_int (Int64.sub t0 opened);
              p.commit_spans <- p.commit_spans + 1
          | None -> (
              match Hashtbl.find_opt p.coord_open id with
              | Some opened ->
                  Hashtbl.remove p.coord_open id;
                  push p.coord_ms (at_ms -. opened)
              | None -> ()))
      | Trace.Point { payload = Trace.Rpc_send _; _ } -> p.rpc_sends <- p.rpc_sends + 1
      | _ -> ());
      if p.depth = 0 then p.sink_ns <- p.sink_ns + since_ns t0)

let timed_gen p gen rng =
  let spec, dt = covered p (fun () -> gen rng) in
  p.gen_ns <- p.gen_ns + dt;
  p.gen_calls <- p.gen_calls + 1;
  spec

let timed_handler p handler req =
  let resp, dt = covered p (fun () -> handler req) in
  let kind = Remote.request_kind req in
  let ns, calls =
    match Hashtbl.find_opt p.rpc kind with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.replace p.rpc kind cell;
        cell
  in
  ns := !ns + dt;
  incr calls;
  resp

let timed_store p (s : Store.t) =
  let time count f =
    let r, dt = covered p f in
    p.store_ns <- p.store_ns + dt;
    count ();
    r
  in
  let other () = p.store_other <- p.store_other + 1 in
  let reads () = p.store_reads <- p.store_reads + 1 in
  let wrote n () =
    p.store_writes <- p.store_writes + 1;
    p.store_bytes_written <- p.store_bytes_written + n
  in
  {
    s with
    Store.allocate = (fun () -> time other s.Store.allocate);
    free = (fun b -> time other (fun () -> s.Store.free b));
    read = (fun b -> time reads (fun () -> s.Store.read b));
    write = (fun b data -> time (wrote (Bytes.length data)) (fun () -> s.Store.write b data));
    write_batch =
      (fun writes ->
        time
          (fun () -> List.iter (fun (_, d) -> wrote (Bytes.length d) ()) writes)
          (fun () -> s.Store.write_batch writes));
    list_blocks = (fun () -> time other s.Store.list_blocks);
  }

(* {1 Systems} *)

let ok where = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" where (Errors.to_string e))

type system = {
  engine : Engine.t;
  sut : Sut.t;
  gen : Workload.generator;
  on_progress : int -> unit;
  servers : Server.t list;  (** For the server-side commit count. *)
  disks : Disk.t list;
  user_bytes_per_commit : int;
  gc_freed : int ref;
  gate : unit -> (unit, string) result;
      (** The workload's own correctness gate, run once after the driven
          run: durability for stable-1k, conservation for xshard-bank. *)
}

(* Durability: read every page, crash the server, rebuild a fresh one
   over the same stable pair from the store's block listing alone, and
   demand every page back byte-equal. *)
let durability_gate srv store files shape () =
  let read_all srv =
    Array.map
      (fun cap ->
        let v = ok "current_version" (Server.current_version srv cap) in
        Array.init shape.Workload.pages_per_file (fun i ->
            ok "read_page" (Server.read_page srv v (Pagepath.of_list [ i ]))))
      files
  in
  let before = read_all srv in
  Server.crash srv;
  let fresh = Server.create store in
  let blocks =
    match store.Store.list_blocks () with
    | Ok bs -> bs
    | Error e -> failwith ("list_blocks: " ^ e)
  in
  match Server.recover_from_blocks fresh blocks with
  | Error e -> Error ("recovery failed: " ^ Errors.to_string e)
  | Ok _ -> (
      match read_all fresh with
      | exception Failure msg -> Error ("after recovery: " ^ msg)
      | after ->
          let lost = ref 0 in
          Array.iteri
            (fun f pages ->
              Array.iteri (fun i page -> if not (Bytes.equal page after.(f).(i)) then incr lost) pages)
            before;
          if !lost = 0 then Ok ()
          else Error (Printf.sprintf "durability: %d pages differ after crash recovery" !lost))

let conservation_gate engine client sut files () =
  let swept = ref (Error (Errors.Store_failure "sweep never ran")) in
  ignore (Proc.spawn engine (fun () -> swept := Txn.sweep (Txn.create client) (Array.to_list files)));
  Engine.run engine;
  match !swept with
  | Error e -> Error ("sweep failed: " ^ Errors.to_string e)
  | Ok _ ->
      let total = Workload.total_balance sut bank_shape in
      let expected = initial_balance * bank_shape.Workload.accounts in
      if total = expected then Ok ()
      else Error (Printf.sprintf "conservation: total balance %d, expected %d" total expected)

(* [store_hook] lets the self-tests slip a faulty store under stable-1k. *)
let setup ?probe ?(store_hook = Fun.id) kind =
  let engine = Engine.create () in
  let trace = match probe with None -> Trace.null | Some p -> sink p engine in
  Engine.set_trace engine trace;
  let gen_of g = match probe with None -> g | Some p -> timed_gen p g in
  match kind with
  | Stable_1k ->
      let pair =
        Stable.create ~trace ~media:Media.electronic ~blocks:16_384 ~block_size:4096 ()
      in
      let base = store_hook (Store.of_stable_pair pair) in
      let store = match probe with None -> base | Some p -> timed_store p base in
      let srv = Server.create ~trace store in
      let files =
        ok "setup" (Workload.setup_pages srv stable_shape ~initial:(Bytes.make 1024 '0'))
      in
      let disks = [ Stable.disk pair 0; Stable.disk pair 1 ] in
      let wrap = Option.map timed_handler probe in
      let host = Remote.host ~latency_ms:0.5 ~disks ?wrap engine ~name:"afs" srv in
      let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:srv ~files in
      let gc_freed = ref 0 in
      let collect () =
        let stats = ok "gc" (Core_gc.collect ~policy:gc_policy srv) in
        gc_freed := !gc_freed + stats.Core_gc.blocks_freed
      in
      let on_progress finished =
        if finished mod gc_every = 0 then
          match probe with
          | None -> collect ()
          | Some p ->
              let (), dt = covered p collect in
              p.gc_ns <- p.gc_ns + dt
      in
      {
        engine;
        sut;
        gen = gen_of (Workload.make stable_shape);
        on_progress;
        servers = [ srv ];
        disks;
        user_bytes_per_commit = stable_shape.Workload.rmw_pages * stable_shape.Workload.payload_bytes;
        gc_freed;
        gate = durability_gate srv base files stable_shape;
      }
  | Zipf_4shard ->
      let cluster = Cluster.create ~trace ~latency_ms:0.25 ~proc_ms:0.05 engine ~shards:4 in
      let files =
        ok "setup" (Workload.setup_cluster cluster zipf_shape ~initial:(Bytes.make 48 '0'))
      in
      let sut = Sut.afs_cluster (CC.connect cluster) ~files in
      {
        engine;
        sut;
        gen = gen_of (Workload.make zipf_shape);
        on_progress = ignore;
        servers = List.map Shard.server (Cluster.shards cluster);
        disks = [];
        user_bytes_per_commit = zipf_shape.Workload.rmw_pages * zipf_shape.Workload.payload_bytes;
        gc_freed = ref 0;
        gate = (fun () -> Ok ());
      }
  | Xshard_bank ->
      let cluster = Cluster.create ~trace ~latency_ms:2.0 engine ~shards:bank_shape.Workload.shards in
      let files = ok "setup" (Workload.setup_accounts cluster bank_shape ~initial_balance) in
      let client = CC.connect cluster in
      let sut = Sut.afs_txn ~trace client ~files in
      {
        engine;
        sut;
        gen = gen_of (Workload.transfer bank_shape);
        on_progress = ignore;
        servers = List.map Shard.server (Cluster.shards cluster);
        disks = [];
        user_bytes_per_commit = 0;
        gc_freed = ref 0;
        gate = conservation_gate engine client sut files;
      }

(* {1 Runs} *)

type outcome = {
  report : Driver.report;
  events : int;
  latencies : float array;
      (** Virtual ms per finished transaction, in completion order;
          [infinity] for a given-up one. *)
  wall_ns : int;  (** Host time of the driven run. *)
  window_rates : float array;
      (** Commits per host second over each window of [spec.window]
          finished transactions. *)
  counters : (string * int) list;  (** Deltas over the driven run. *)
  server_commits : int;  (** [commits.ok] delta summed over servers. *)
  encodes : int;
  minor_words : float;
  major_words : float;
  disk_busy_ms : float;
  gc_freed : int;
}

let commits_ok servers =
  List.fold_left (fun acc srv -> acc + Counter.get (Server.counters srv) "commits.ok") 0 servers

let disk_busy disks = List.fold_left (fun acc d -> acc +. (Disk.stats d).Disk.busy_ms) 0.0 disks

let delta before after =
  List.filter_map
    (fun (k, v) ->
      let v0 = match List.assoc_opt k before with Some v0 -> v0 | None -> 0 in
      if v = v0 then None else Some (k, v - v0))
    after

(* Drive one run of [sys]. Each transaction's virtual latency is taken
   around [Sut.exec] with [Engine.now]: exact, where the [Driver.report]
   percentiles are log-bucketed histogram bounds. *)
let run spec ~seed ?probe sys =
  let latencies = samples () in
  let engine = sys.engine in
  let committed = ref 0 in
  let exec txn ~max_retries =
    let t0 = Engine.now engine in
    let r = sys.sut.Sut.exec txn ~max_retries in
    if r.Sut.committed then begin
      incr committed;
      push latencies (Engine.now engine -. t0)
    end
    else push latencies infinity;
    r
  in
  let sut = { sys.sut with Sut.exec } in
  let config =
    {
      Driver.clients = spec.clients;
      duration_ms = spec.duration_ms;
      think_ms = spec.think_ms;
      max_retries = spec.max_retries;
      seed;
      max_txns = 0;
    }
  in
  let rates = samples () in
  let mark_ns = ref (now_ns ()) and mark_committed = ref 0 in
  let on_progress finished =
    sys.on_progress finished;
    if finished mod spec.window = 0 then begin
      let t = now_ns () in
      let dt = Int64.to_float (Int64.sub t !mark_ns) /. 1e9 in
      push rates (float_of_int (!committed - !mark_committed) /. dt);
      mark_ns := t;
      mark_committed := !committed
    end
  in
  Option.iter reset probe;
  let counters0 = sys.sut.Sut.stats () in
  let commits0 = commits_ok sys.servers in
  let encodes0 = Page.fresh_encodes () in
  let busy0 = disk_busy sys.disks in
  let gc0 = Stdlib.Gc.quick_stat () in
  let freed0 = !(sys.gc_freed) in
  let events0 = Engine.events_executed engine in
  mark_ns := now_ns ();
  let report, wall_ns =
    timed (fun () -> Driver.run ~on_progress engine config sut ~gen:sys.gen)
  in
  let gc1 = Stdlib.Gc.quick_stat () in
  {
    report;
    events = Engine.events_executed engine - events0;
    latencies = to_array latencies;
    wall_ns;
    window_rates = to_array rates;
    counters = delta counters0 (sys.sut.Sut.stats ());
    server_commits = commits_ok sys.servers - commits0;
    encodes = Page.fresh_encodes () - encodes0;
    minor_words = gc1.Stdlib.Gc.minor_words -. gc0.Stdlib.Gc.minor_words;
    major_words = gc1.Stdlib.Gc.major_words -. gc0.Stdlib.Gc.major_words;
    disk_busy_ms = disk_busy sys.disks -. busy0;
    gc_freed = !(sys.gc_freed) - freed0;
  }

(* Everything the protocol decided, as one comparable value: two runs at
   one seed must agree on it exactly, whatever observes them. *)
let fingerprint o =
  ( o.report.Driver.committed,
    o.report.Driver.given_up,
    o.report.Driver.attempts,
    o.report.Driver.local_aborts,
    o.report.Driver.cross_aborts,
    o.events,
    o.latencies )

(* {1 Correctness gates} *)

let min_samples = 1000

let check_outcome kind o =
  let r = o.report in
  let finished = r.Driver.committed + r.Driver.given_up in
  if Array.length o.latencies <> finished then
    Error
      (Printf.sprintf "%d latency samples for %d finished transactions"
         (Array.length o.latencies) finished)
  else if finished < min_samples then
    Error (Printf.sprintf "%d latency samples, fewer than %d" finished min_samples)
  else
    match kind with
    | Stable_1k | Zipf_4shard when o.server_commits <> r.Driver.committed ->
        Error
          (Printf.sprintf "commit count: servers committed %d, driver counted %d"
             o.server_commits r.Driver.committed)
    | Stable_1k | Zipf_4shard | Xshard_bank -> Ok ()

(* {1 Metrics} *)

type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* End-to-end metrics of the untraced run [o]. A percentile landing on a
   given-up transaction reads as the whole run length: that transaction
   missed every latency limit. *)
let latency_metric name o p =
  let v = percentile o.latencies p in
  metric ~samples:(Array.length o.latencies) name "vms"
    (if Float.is_finite v then v else o.report.Driver.elapsed_ms)

let virtual_metrics spec o =
  [
    metric "vcommits_per_s" "commits/vs"
      (float_of_int o.report.Driver.committed /. (spec.duration_ms /. 1000.0));
    latency_metric "vlat_p50_ms" o 0.50;
    latency_metric "vlat_p99_ms" o 0.99;
  ]

let counter o name =
  List.fold_left
    (fun acc (k, v) -> if k = name || String.ends_with ~suffix:("." ^ name) k then acc + v else acc)
    0 o.counters

(* Max over mean of the per-shard commit counts ([shard<i>.commits]);
   1 for a single server. *)
let shard_imbalance o =
  let per_shard =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"shard" k && String.ends_with ~suffix:".commits" k then
          Some v
        else None)
      o.counters
  in
  match per_shard with
  | [] -> 1.0
  | l ->
      let total = List.fold_left ( + ) 0 l in
      let top = List.fold_left max 0 l in
      if total = 0 then 1.0 else float_of_int top /. (float_of_int total /. float_of_int (List.length l))

let rpc_kinds = [ "commit"; "read_page"; "write_page"; "create_version" ]

(* Per-layer metrics: counts from the untraced run [o] (the traced run
   repeats them exactly), host times from the traced run [t] and its
   probe [p], tracing overhead against the warm untraced run. A layer a
   workload never runs reads 0. *)
let layer_metrics sys ~untraced:o ~warm ~traced:t p =
  let committed = o.report.Driver.committed in
  let per_commit n = ratio n committed in
  let rpc_ns, rpc_calls =
    Hashtbl.fold (fun _ (ns, calls) (a, b) -> (a + !ns, b + !calls)) p.rpc (0, 0)
  in
  (* Host time no timed layer covers: RPC handlers when they are wrapped
     (they contain the commit pipeline and the store), commit spans
     otherwise, plus the generator, the collector and the sink itself. *)
  let covered_ns =
    p.gen_ns + p.gc_ns + p.sink_ns + if rpc_calls > 0 then rpc_ns else p.commit_ns
  in
  let handle_us kind =
    match Hashtbl.find_opt p.rpc kind with
    | Some (ns, calls) -> ratio !ns !calls /. 1000.0
    | None -> 0.0
  in
  let c = counter o in
  let store_ops = p.store_reads + p.store_writes + p.store_other in
  [
    metric "sim.events_per_commit" "events/commit" (per_commit o.events);
    metric "sim.host_ns_per_event" "ns/event" (ratio (t.wall_ns - covered_ns) t.events);
    metric ~samples:p.gen_calls "workload.gen_ns_per_txn" "ns/txn" (ratio p.gen_ns p.gen_calls);
    metric "sut.attempts_per_commit" "attempts/commit" (per_commit o.report.Driver.attempts);
    metric "sut.local_aborts_per_commit" "aborts/commit" (per_commit o.report.Driver.local_aborts);
    metric "sut.cross_aborts_per_commit" "aborts/commit" (per_commit o.report.Driver.cross_aborts);
    metric "sut.failed_ratio" "fraction"
      (ratio o.report.Driver.given_up (committed + o.report.Driver.given_up));
    metric "rpc.requests_per_commit" "requests/commit" (per_commit p.rpc_sends);
  ]
  @ List.map
      (fun kind ->
        let samples = match Hashtbl.find_opt p.rpc kind with Some (_, n) -> !n | None -> 0 in
        metric ~samples ("rpc.handle_us." ^ kind) "us/request" (handle_us kind))
      rpc_kinds
  @ [
      metric ~samples:p.commit_spans "core.commit_host_us" "us/commit"
        (ratio p.commit_ns p.commit_spans /. 1000.0);
      metric "core.conflict_ratio" "fraction"
        (ratio (c "commits.conflict") (c "commits.ok" + c "commits.conflict"));
      metric "core.shortcircuit_ratio" "fraction"
        (ratio (c "commits.shortcircuit") (c "commits.conflict"));
      metric "core.pages_copied_per_commit" "pages/commit" (per_commit (c "pages.copied"));
      metric "pagestore.hit_ratio" "fraction"
        (ratio (c "cache.hits") (c "cache.hits" + c "cache.misses"));
      metric "pagestore.evictions_per_commit" "pages/commit" (per_commit (c "cache.evictions"));
      metric "pagestore.writebacks_per_commit" "pages/commit" (per_commit (c "cache.writebacks"));
      metric "page.encodes_per_commit" "encodes/commit" (per_commit o.encodes);
      metric "gc.host_share" "fraction" (ratio p.gc_ns t.wall_ns);
      metric "gc.blocks_freed_per_commit" "blocks/commit" (per_commit o.gc_freed);
      metric "store.reads_per_commit" "ops/commit" (per_commit p.store_reads);
      metric "store.writes_per_commit" "ops/commit" (per_commit p.store_writes);
      metric ~samples:store_ops "store.host_us_per_op" "us/op" (ratio p.store_ns store_ops /. 1000.0);
      metric "store.bytes_written_per_user_byte" "bytes/byte"
        (ratio p.store_bytes_written (committed * sys.user_bytes_per_commit));
      metric "disk.busy_ms_per_commit" "vms/commit"
        (if committed = 0 then 0.0 else o.disk_busy_ms /. float_of_int committed);
      metric "cluster.shard_commit_imbalance" "max/mean" (shard_imbalance o);
      metric "txn.round_trips_per_commit" "trips/commit" (per_commit (c "txn.round_trips"));
      metric "txn.stage_retries_per_commit" "retries/commit" (per_commit (c "txn.stage_retries"));
      metric "txn.resolved_forward_per_commit" "files/commit"
        (per_commit (c "txn.resolved.forward"));
      metric ~samples:p.coord_ms.len "txn.coord_ms_p50" "vms"
        (if p.coord_ms.len = 0 then 0.0 else median_float (to_array p.coord_ms));
      metric "trace.overhead_ratio" "ratio" (ratio t.wall_ns warm.wall_ns);
      metric "runtime.minor_words_per_commit" "words/commit"
        (if committed = 0 then 0.0 else o.minor_words /. float_of_int committed);
      metric "runtime.major_words_per_commit" "words/commit"
        (if committed = 0 then 0.0 else o.major_words /. float_of_int committed);
    ]

(* Cross-shard atomic transactions from ordinary optimistic commits.

   The protocol generalises Migration's snapshot/copy/flip trick: every
   multi-step distributed operation here is a sequence of single-shard
   optimistic commits, with no lock ever held across a shard boundary.

   1. Record.  The coordinator creates a plain committed file — the
      coordinator record — whose entire root data is the pending state
      string. Nobody but coordinators and resolvers ever touches it.

   2. Stage.  On each participant shard in turn, the coordinator opens an
      ordinary version, performs the transaction's reads (recording R
      flags; Rmw computes the write values from what it read), then
      replaces the root data with an encoded {!Txnmark}: the record's
      capability, the coordinator's sequence number, the old root data,
      and the computed page writes — which ride the marker instead of
      touching any page — and commits. The commit's flag map is R on
      every page read plus R+W on the root, and every cluster-created
      version carries R on its root (the location check), so the stage
      conflicts with every concurrently opened version of the file in
      both commit orders: whoever commits second loses. Once a stage is
      committed, ordinary opens of the file answer [Txn_in_doubt] (the
      shard wrapper's trap), so from here on only resolvers can advance
      the file.

   3. Decide.  The coordinator replaces the record's root data
      pending -> committed as one more ordinary optimistic commit, having
      read the state it replaces — a single [Txn_cas] message. A
      contender who tired of waiting force-aborts the same way
      (pending -> aborted); both transitions read-then-write the same
      root, so exactly one wins the record's test-and-set and the state
      machine is monotone. This single commit IS the transaction-wide
      atomic point.

   4. Flip.  Each staged participant is resolved by one more optimistic
      commit, again one [Txn_cas]: iff the root still carries this
      transaction's exact marker bytes, restore the old root data and —
      iff the record committed — apply the marker's page writes in
      place. Applying writes (never flipping to a wholesale copy)
      preserves any concurrent non-conflicting update that merged
      underneath the stage. Flips race only other resolvers; the loser's
      CAS mismatches, which is its answer: the marker is gone.

   Recovery needs no log: a marker names its record, the record's root
   names the outcome, and [sweep] walks the files and applies step 4 —
   present-and-committed rolls forward, anything else discards. *)

module Capability = Afs_util.Capability
module Pagepath = Afs_util.Pagepath
module Stats = Afs_util.Stats
module Errors = Afs_core.Errors
module Remote = Afs_rpc.Remote
module Trace = Afs_trace.Trace
module Txnmark = Afs_cluster.Txnmark
module CC = Afs_cluster.Cluster_client
module Proc = Afs_sim.Proc
module Pageop = Afs_core.Pageop
open Errors

type 'p page_op = 'p Pageop.t = Read of 'p | Write of 'p * bytes | Rmw of 'p * (bytes -> bytes)
type op = Pagepath.t page_op

type part = { file : Capability.t; ops : op list }

type failure =
  | Local of Errors.t  (** A participant stage lost an ordinary OCC race. *)
  | Cross of Errors.t  (** The record decision lost to a contender's force-abort. *)
  | Failed of Errors.t  (** Transport or harness trouble; retry policy is the caller's. *)

type crash_point = Before_stage of int | Before_decide | After_decide | Mid_flip of int

exception Crashed
(** Raised at the matching [crash_at] injection point: how tests model a
    coordinator dying mid-protocol (client processes are not crashable
    hosts). Everything already committed stays exactly as it is. *)

type t = {
  client : CC.t;
  trace : Trace.t;
  counters : Stats.Counter.t;
  mutable next_seq : int;
  backoff_ms : float;
  pending_patience : int;
}

let create ?(trace = Trace.null) ?(backoff_ms = 5.0) ?(pending_patience = 32) client =
  {
    client;
    trace;
    counters = Stats.Counter.create ();
    next_seq = 1;
    backoff_ms;
    pending_patience;
  }

let counters t = t.counters
let bump t name = Stats.Counter.incr t.counters name
let tpoint t payload = if Trace.enabled t.trace then Trace.point t.trace payload

(* One client->shard message: the coordination overhead S2 reports. *)
let rt t = bump t "txn.round_trips"

(* {2 The decision logic (pure)}

   These two are the protocol's brain and C1 critical sections: given
   what the RPC loops read, what must happen next. Transitively yield-
   and ambient-free — every suspension lives in the loops that call
   them. *)

type decision = Pending | Committed | Aborted | Unknown_record

let decide ~record_data =
  let s = Bytes.to_string record_data in
  if String.equal s Txnmark.state_committed then Committed
  else if String.equal s Txnmark.state_aborted then Aborted
  else if String.equal s Txnmark.state_pending then Pending
  else Unknown_record

type action = Forward of Txnmark.t | Back of Txnmark.t | Wait of Txnmark.t

let resolve marker decision =
  match decision with
  | Committed -> Forward marker
  | Aborted | Unknown_record -> Back marker
  | Pending -> Wait marker

(* {2 Routed RPC helpers} *)

let max_hops = 8

(* Run [f conn file] against the file's owning shard, chasing [Moved]
   answers through the shared forward cache. *)
let with_conn t file f =
  let rec go file hops =
    if hops > max_hops then Error (Store_failure "txn: forward chain too long")
    else
      let* file, shard, conn = CC.conn_for t.client file in
      match f conn ~shard file with
      | Error (Moved target) ->
          CC.note_forward t.client ~old:file target;
          go target (hops + 1)
      | r -> r
  in
  go file 0

(* The file's current committed root data, marker and all. *)
let root_data t file =
  with_conn t file (fun conn ~shard:_ file ->
      rt t;
      Remote.txn_mark conn file)

let record_decision t record =
  (* The record is an ordinary file whose root IS the state: one
     [txn_mark] round trip reads it — this is the poll a waiting
     resolver repeats, so its cost is the cost of waiting. *)
  let* data = root_data t record in
  Ok (decide ~record_data:data)

(* How long a step that must reach a crashed shard keeps retrying before
   giving up: recovery is expected within this budget, and giving up
   earlier would leave the caller guessing about an outcome a later
   retry could duplicate. *)
let transport_patience = 256

(* Drive the record pending -> committed|aborted as an ordinary
   optimistic commit, returning the record's {e final} state — which may
   be the other one if a racing decider won the root's test-and-set.
   Both the coordinator's decide and a contender's force-abort funnel
   through here, which is the whole mutual-exclusion argument: each
   reads the state it replaces, so the second commit conflicts and
   re-reads. Transport errors back off and retry (within
   [transport_patience]) rather than surface: once a transaction is
   staged its outcome must become definite, not be retried wholesale. *)
let decide_record t ~record ~commit =
  let expected = Bytes.of_string Txnmark.state_pending in
  let target =
    Bytes.of_string (if commit then Txnmark.state_committed else Txnmark.state_aborted)
  in
  let rec attempt n =
    if n > transport_patience then Error (Store_failure "txn: record decision starved")
    else
      let step =
        with_conn t record (fun conn ~shard:_ record ->
            rt t;
            Remote.txn_cas conn record ~expected ~root:target [])
      in
      match step with
      | Ok `Swapped -> Ok (if commit then Committed else Aborted)
      | Ok (`Mismatch current) -> (
          match decide ~record_data:current with
          | (Committed | Aborted) as final -> Ok final
          | Pending ->
              (* Unreachable — a pending root matches [expected] — but a
                 retry is the safe answer to a raced re-read anyway. *)
              attempt (n + 1)
          | Unknown_record -> Error (Store_failure "txn: unrecognised record state"))
      | Error (Store_failure _) when n < transport_patience ->
          Proc.delay t.backoff_ms;
          attempt (n + 1)
      | Error e -> Error e
  in
  attempt 0

(* {2 Staging} *)

(* The pages a part must read, in op order — they ride the [Txn_open]
   message, so staging costs two round trips however many pages the
   transaction touches. *)
let read_paths ops =
  List.filter_map
    (function Read path | Rmw (path, _) -> Some path | Write _ -> None)
    ops

(* Pair the fetched pages back up with the ops that asked for them, by
   walking the ops with each read answered by the next fetched page
   ([pages] mirrors [read_paths ops] by construction). *)
let computed_writes ops pages =
  let pages = ref pages and writes = ref [] in
  let read _ =
    match !pages with
    | data :: rest ->
        pages := rest;
        Ok data
    | [] -> Error ()
  in
  let write path data =
    writes := (path, data) :: !writes;
    Ok ()
  in
  ignore (Pageop.run ~read ~write ops : (unit, unit) result);
  List.rev !writes

(* Stage one participant: ordinary version, the transaction's reads,
   then the marker committed into the root. Nothing but the root is
   written — the computed writes ride the marker until the flip. *)
let stage t ~record ~seq part =
  let span = Trace.open_span t.trace ~kind:"txn.stage" ~label:(string_of_int seq) () in
  let result =
    with_conn t part.file (fun conn ~shard file ->
        rt t;
        let* version, old_root, pages =
          Remote.txn_open ~reads:(read_paths part.ops) conn file
        in
        (* [txn_open] skips the shard's in-doubt trap, so a foreign
           marker arrives as data: detect it here and surface the same
           [Txn_in_doubt] the trap would have raised — minus one round
           trip in the common, unmarked case. *)
        match Txnmark.record_of old_root with
        | Some other ->
            rt t;
            ignore (Remote.abort_version conn version : unit r);
            Error (Txn_in_doubt other)
        | None -> (
            let m =
              { Txnmark.record; seq; old_root; writes = computed_writes part.ops pages }
            in
            rt t;
            match Remote.txn_seal conn version ~root:(Txnmark.encode m) [] with
            | Ok () ->
                CC.note_commit t.client ~shard file;
                tpoint t (Trace.Txn_stage { txn = seq; file_obj = file.Capability.obj });
                Ok (file, m)
            | Error e -> Error e))
  in
  Trace.close_span t.trace span;
  result

(* {2 Resolution} *)

(* Overwrite a still-staged marker with its resolution: restore the
   pre-transaction root data and, iff rolling forward, apply the staged
   writes in place. The codec is canonical, so re-encoding the marker
   reproduces the staged root bytes exactly and the whole resolution is
   one [Txn_cas] round trip. Idempotent against other resolvers: a
   mismatch means the marker is gone — somebody already resolved (or a
   later transaction re-staged) — and there is nothing left to do. *)
let apply t ~marker:m ~forward file =
  let step =
    with_conn t file (fun conn ~shard:_ file ->
        rt t;
        Remote.txn_cas conn file ~expected:(Txnmark.encode m)
          ~root:m.Txnmark.old_root
          (if forward then m.Txnmark.writes else []))
  in
  match step with
  | Ok `Swapped ->
      if forward then
        tpoint t
          (Trace.Txn_flip
             {
               txn = m.Txnmark.seq;
               file_obj = file.Capability.obj;
               writes = List.length m.Txnmark.writes;
             })
      else
        tpoint t
          (Trace.Txn_resolve
             { txn = m.Txnmark.seq; file_obj = file.Capability.obj; action = "back" });
      Ok ()
  | Ok (`Mismatch _) -> Ok ()
  | Error e -> Error e

(* Resolve one in-doubt participant, as any client can: read the marker,
   read the record, act. While the record is still pending the
   coordinator is normally about to decide — wait [patience] back-offs,
   then force the decision to abort (step 3's race: exactly one of the
   force-abort and the coordinator's decide wins). [patience = 0] is the
   crash-recovery stance: a pending coordinator is presumed dead. *)
let resolve_in_doubt t ~patience file =
  let span = Trace.open_span t.trace ~kind:"txn.resolve" () in
  let result =
    let* root = root_data t file in
    match Txnmark.decode root with
    | None -> Ok () (* Resolved under us. *)
    | Some marker ->
        (* The marker cannot change while the trap holds (another
           resolver can only remove it, which [apply] detects), so only
           the record is re-polled while the coordinator is pending —
           with capped exponential back-off: a live coordinator is a
           handful of round trips from deciding, a dead one is caught by
           the patience bound either way. *)
        let rec await waits =
          let* decision = record_decision t marker.Txnmark.record in
          match resolve marker decision with
          | Forward m ->
              bump t "txn.resolved.forward";
              apply t ~marker:m ~forward:true file
          | Back m ->
              bump t "txn.resolved.back";
              apply t ~marker:m ~forward:false file
          | Wait m ->
              if waits < patience then begin
                Proc.delay (t.backoff_ms *. float_of_int (min 8 (1 lsl min waits 3)));
                await (waits + 1)
              end
              else begin
                bump t "txn.force_aborts";
                tpoint t
                  (Trace.Txn_resolve
                     {
                       txn = m.Txnmark.seq;
                       file_obj = file.Capability.obj;
                       action = "force_abort";
                     });
                let* final = decide_record t ~record:m.Txnmark.record ~commit:false in
                apply t ~marker:m ~forward:(final = Committed) file
              end
        in
        await 0
  in
  Trace.close_span t.trace span;
  result

(* {2 The coordinator} *)

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* One participant needs no coordination: the single-shard commit is
   already atomic. In-doubt files are resolved inline and retried. *)
let exec_single t part =
  let rec go tries =
    if tries > max_hops then Error (Failed (Store_failure "txn: in-doubt resolution starved"))
    else begin
      rt t;
      match CC.begin_txn t.client part.file with
      | Error (Txn_in_doubt _) -> (
          match resolve_in_doubt t ~patience:t.pending_patience part.file with
          | Ok () -> go (tries + 1)
          | Error e -> Error (Failed e))
      | Error e -> Error (Failed e)
      | Ok h -> (
          let ran =
            Pageop.run part.ops
              ~read:(fun path ->
                rt t;
                CC.Txn.read h.CC.txn path)
              ~write:(fun path data ->
                rt t;
                CC.Txn.write h.CC.txn path data)
          in
          match ran with
          | Error e ->
              ignore (CC.abort h : unit r);
              if e = Conflict then Error (Local e) else Error (Failed e)
          | Ok () -> (
              rt t;
              match CC.commit t.client h with
              | Ok () ->
                  bump t "txn.committed";
                  Ok ()
              | Error Conflict ->
                  bump t "txn.aborted.local";
                  Error (Local Conflict)
              | Error e -> Error (Failed e)))
    end
  in
  bump t "txn.fastpath";
  go 0

let coordinated t ~crash_at ~on_record parts =
  let seq = fresh_seq t in
  let crash p = match crash_at with Some q when q = p -> raise Crashed | _ -> () in
  let span = Trace.open_span t.trace ~kind:"txn.coord" ~label:(string_of_int seq) () in
  let finish r =
    Trace.close_span t.trace span;
    r
  in
  bump t "txn.coordinated";
  (* Stage in capability order so two transactions over the same files
     collide head-on (and resolve) instead of staging each other's tails. *)
  let parts =
    List.sort (fun a b -> Capability.compare a.file b.file) parts
  in
  match parts with
  | [] -> finish (Ok ())
  | first :: _ -> (
      let made_record =
        (* The record lives on the first participant's shard — placement
           is explicit, so the round-robin cursor (and with it the
           workload's file layout) is unperturbed. *)
        let* _, shard, _ = CC.conn_for t.client first.file in
        rt t;
        CC.create_file_on t.client shard
          ~data:(Bytes.of_string Txnmark.state_pending)
      in
      match made_record with
      | Error e -> finish (Error (Failed e))
      | Ok record -> (
          (match on_record with Some f -> f record | None -> ());
          let unstage_all staged =
            List.iter
              (fun (file, marker) ->
                match apply t ~marker ~forward:false file with
                | Ok () -> ()
                | Error _ ->
                    (* A resolver will finish from the marker. *)
                    bump t "txn.unstage_deferred")
              staged
          in
          (* Close the record first, so no resolver can roll the staged
             prefix forward while it is being unstaged. The record only
             ever says aborted here: nobody else writes committed. *)
          let rollback staged wrap e =
            (match decide_record t ~record ~commit:false with
            | Ok _ -> unstage_all staged
            | Error _ -> bump t "txn.rollback_deferred");
            Error (wrap e)
          in
          let rec stage_all staged idx = function
            | [] -> Ok (List.rev staged)
            | part :: rest -> (
                crash (Before_stage idx);
                let rec attempt tries =
                  if tries > 4 * max_hops then
                    Error (`Failed (Store_failure "txn: staging starved"))
                  else
                    match stage t ~record ~seq part with
                    | Ok file -> Ok file
                    | Error (Txn_in_doubt _) -> (
                        (* Another transaction holds this participant:
                           resolve it (waiting out a live coordinator,
                           force-aborting a dead one) and try again. *)
                        match
                          resolve_in_doubt t ~patience:t.pending_patience part.file
                        with
                        | Ok () -> attempt (tries + 1)
                        | Error e -> Error (`Failed e))
                    | Error Conflict ->
                        (* Only this participant raced an ordinary commit:
                           earlier parts stay frozen behind their markers,
                           so re-staging just this one against the new
                           current version is sound — and far cheaper than
                           redoing the transaction. This is the structural
                           edge over a prepare/decide coordinator, which
                           can only discover the same race by aborting
                           every prepared participant. *)
                        bump t "txn.stage_retries";
                        if tries mod 4 = 3 then Proc.delay t.backoff_ms;
                        attempt (tries + 1)
                    | Error e -> Error (`Failed e)
                in
                match attempt 0 with
                | Ok entry -> stage_all (entry :: staged) (idx + 1) rest
                | Error (`Local e) ->
                    bump t "txn.aborted.local";
                    rollback staged (fun e -> Local e) e
                | Error (`Failed e) -> rollback staged (fun e -> Failed e) e)
          in
          match stage_all [] 0 parts with
          | Error _ as e -> finish e
          | Ok staged -> (
              crash Before_decide;
              let dspan =
                Trace.open_span t.trace ~kind:"txn.decide" ~label:(string_of_int seq) ()
              in
              let decision = decide_record t ~record ~commit:true in
              (match decision with
              | Ok final ->
                  tpoint t (Trace.Txn_decide { txn = seq; committed = final = Committed })
              | Error _ -> ());
              Trace.close_span t.trace dspan;
              match decision with
              | Error e -> finish (Error (Failed e))
              | Ok Aborted ->
                  (* A contender force-aborted the record between our last
                     stage and the decide. *)
                  bump t "txn.aborted.cross";
                  unstage_all staged;
                  finish (Error (Cross Conflict))
              | Ok (Pending | Unknown_record) ->
                  finish (Error (Failed (Store_failure "txn: impossible record state")))
              | Ok Committed ->
                  crash After_decide;
                  bump t "txn.committed";
                  (* The transaction is committed the moment the record
                     is; flips are completion, not decision. A flip that
                     cannot reach its shard is deferred to resolvers. *)
                  List.iteri
                    (fun i (file, marker) ->
                      crash (Mid_flip i);
                      match apply t ~marker ~forward:true file with
                      | Ok () -> ()
                      | Error _ -> bump t "txn.flip_deferred")
                    staged;
                  finish (Ok ()))))

let exec ?crash_at ?on_record t parts =
  match parts with
  | [] -> Ok ()
  | [ part ] -> exec_single t part
  | parts -> coordinated t ~crash_at ~on_record parts

(* {2 Recovery} *)

let sweep t files =
  List.fold_left
    (fun acc file ->
      let* n = acc in
      let* root = root_data t file in
      if Txnmark.is_marker root then
        let* () = resolve_in_doubt t ~patience:0 file in
        Ok (n + 1)
      else Ok n)
    (Ok 0) files

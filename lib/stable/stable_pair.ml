module Disk = Afs_disk.Disk
module Media = Afs_disk.Media
module Wire = Afs_util.Wire
module Xrng = Afs_util.Xrng
module Itbl = Afs_util.Itbl

type id = int

type error =
  | Unavailable of id
  | No_free_blocks
  | Collision of int
  | Not_allocated of int
  | Corrupt_both of int
  | Recovering of id
  | Disk_error of Disk.error

let pp_error ppf = function
  | Unavailable i -> Fmt.pf ppf "server %d unavailable" i
  | No_free_blocks -> Fmt.string ppf "no free blocks"
  | Collision b -> Fmt.pf ppf "allocate/write collision on block %d" b
  | Not_allocated b -> Fmt.pf ppf "block %d not allocated" b
  | Corrupt_both b -> Fmt.pf ppf "both copies of block %d corrupt" b
  | Recovering i -> Fmt.pf ppf "server %d still recovering" i
  | Disk_error e -> Disk.pp_error ppf e

type 'a outcome = { result : ('a, error) result; cost_ms : float }

(* One network hop between companions, in simulated milliseconds. *)
let hop_ms = 2.0

type server = {
  disk : Disk.t;
  (* This server's view of the allocation state. Views can diverge while a
     companion is down and are reconciled by [restart]. *)
  allocated : unit Itbl.t;
  tentative : unit Itbl.t;
  (* Blocks written while the companion was down, to replay at recovery. *)
  intentions : unit Itbl.t;
  mutable up : bool;
  mutable recovered : bool;
  mutable seq : int64;
}

module Trace = Afs_trace.Trace

type t = {
  servers : server array;
  rng : Xrng.t;
  block_size : int;
  blocks : int;
  mutable trace : Trace.t;
}

let make_server ~trace ~media ~blocks ~block_size =
  {
    disk = Disk.create ~trace ~media ~blocks ~block_size ();
    allocated = Itbl.create 256;
    tentative = Itbl.create 16;
    intentions = Itbl.create 16;
    up = true;
    recovered = true;
    seq = 0L;
  }

let envelope_overhead = 32 (* magic + seq + crc + varints, rounded up *)

let create ?(seed = 0x57AB1E) ?(media = Media.magnetic) ?(trace = Trace.null) ~blocks
    ~block_size () =
  if blocks <= 0 || block_size <= 0 then invalid_arg "Stable_pair.create: sizes";
  let disk_block_size = block_size + envelope_overhead in
  let server () = make_server ~trace ~media ~blocks ~block_size:disk_block_size in
  { servers = [| server (); server () |]; rng = Xrng.create seed; block_size; blocks; trace }

let set_trace t tr =
  t.trace <- tr;
  Array.iter (fun s -> Disk.set_trace s.disk tr) t.servers

let leg t ~leg ~server ~block ~cost_ms =
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Stable_leg { leg; server; block; cost_ms })

let block_size t = t.block_size
let address_space t = t.blocks
let disk t i = t.servers.(i).disk
let companion i = 1 - i
let online t i = t.servers.(i).up && t.servers.(i).recovered

let some_online t = if online t 0 then Some 0 else if online t 1 then Some 1 else None

let ok ?(cost = 0.0) v = { result = Ok v; cost_ms = cost }
let fail ?(cost = 0.0) e = { result = Error e; cost_ms = cost }

(* {2 Envelopes: seq + crc around the payload} *)

let magic = 0x5AB1

(* The image is magic (u16), seq (u64) and the payload's CRC (u32), all
   little-endian, then the payload with a varint length prefix: Wire's
   framing, built in one exact-size buffer. The caller passes the CRC so
   that the two legs of one write checksum the payload once between
   them. *)
let header_size = 14

let seal seq ~crc payload =
  let n = Bytes.length payload in
  let image = Bytes.create (header_size + Wire.varint_size n + n) in
  Bytes.set_uint16_le image 0 magic;
  Bytes.set_int64_le image 2 seq;
  Bytes.set_int32_le image 10 (Int32.of_int crc);
  let pos = Wire.set_varint image header_size n in
  Bytes.blit payload 0 image pos n;
  image

(* The header is read back at the offsets [seal] writes it; the CRC is
   checked over the payload in place, and only a good payload is copied
   out. *)
let unseal image =
  let len = Bytes.length image in
  if len < header_size then Error "truncated header"
  else if Bytes.get_uint16_le image 0 <> magic then Error "bad magic"
  else
    let seq = Bytes.get_int64_le image 2 in
    let crc = Int32.to_int (Bytes.get_int32_le image 10) land 0xFFFFFFFF in
    let r = Wire.Reader.of_bytes ~pos:header_size image in
    match Wire.Reader.varint r with
    | exception Wire.Decode_error msg -> Error msg
    | n ->
        let pos = Wire.Reader.pos r in
        if n < 0 || n > len - pos then Error "truncated payload"
        else if Wire.crc32_sub image pos n <> crc then Error "bad crc"
        else Ok (seq, Bytes.sub image pos n)

let next_seq t i =
  let s = t.servers.(i) in
  s.seq <- Int64.add s.seq 1L;
  s.seq

let note_seq t i seq = if seq > t.servers.(i).seq then t.servers.(i).seq <- seq

(* {2 Protocol steps} *)

let check_serving t i =
  let s = t.servers.(i) in
  if not s.up then Error (Unavailable i)
  else if not s.recovered then Error (Recovering i)
  else Ok s

let is_taken s b = Itbl.mem s.allocated b || Itbl.mem s.tentative b

let tentative_allocate t i =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      let total = t.blocks in
      let rec probe attempts =
        if attempts = 0 then
          (* Linear fallback keeps allocation total. *)
          let rec scan b = if b >= total then None else if is_taken s b then scan (b + 1) else Some b in
          scan 0
        else
          let b = Xrng.int t.rng total in
          if is_taken s b then probe (attempts - 1) else Some b
      in
      (match probe 16 with
      | None -> fail No_free_blocks
      | Some b ->
          Itbl.replace s.tentative b ();
          ok b)

let abort_tentative t i b = Itbl.remove t.servers.(i).tentative b

let shadow_write_crc t ~primary ~fresh b payload ~crc =
  let q = companion primary in
  match check_serving t q with
  | Error e -> fail e
  | Ok s ->
      (* Collision check: the companion knows its own allocations and
         tentative choices. A shadow write for a block the companion has
         itself handed out (to a different allocation) is a collision,
         caught before either primary copy is written. *)
      if Itbl.mem s.tentative b || (fresh && Itbl.mem s.allocated b) then
        fail ~cost:hop_ms (Collision b)
      else begin
        let seq = next_seq t q in
        let { Disk.result; cost_ms } = Disk.write s.disk b (seal seq ~crc payload) in
        let cost = hop_ms +. cost_ms in
        match result with
        | Error e -> fail ~cost (Disk_error e)
        | Ok () ->
            Itbl.replace s.allocated b ();
            leg t ~leg:"shadow" ~server:q ~block:b ~cost_ms:cost;
            ok ~cost seq
      end

let shadow_write t ~primary ~fresh b payload =
  shadow_write_crc t ~primary ~fresh b payload ~crc:(Wire.crc32 payload)

(* The disk write itself, without the serving check: recovery uses this
   while the server is still marked unrecovered. *)
let raw_local_write t i b payload ~crc seq =
  let s = t.servers.(i) in
  note_seq t i seq;
  let { Disk.result; cost_ms } = Disk.write s.disk b (seal seq ~crc payload) in
  match result with
  | Error e -> fail ~cost:cost_ms (Disk_error e)
  | Ok () ->
      Itbl.remove s.tentative b;
      Itbl.replace s.allocated b ();
      leg t ~leg:"local" ~server:i ~block:b ~cost_ms;
      ok ~cost:cost_ms ()

let local_write_seq_crc t i b payload ~crc seq =
  match check_serving t i with
  | Error e -> fail e
  | Ok _ -> raw_local_write t i b payload ~crc seq

let local_write_seq t i b payload seq =
  local_write_seq_crc t i b payload ~crc:(Wire.crc32 payload) seq

(* Unshadowed local write with a fresh sequence number, for writes made
   while the companion is down. *)
let local_write t i b payload ~crc = local_write_seq_crc t i b payload ~crc (next_seq t i)

(* {2 Composite operations} *)

let write_via t i b payload ~require_allocated =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      if require_allocated && not (Itbl.mem s.allocated b) then fail (Not_allocated b)
      else begin
        let q = companion i in
        let crc = Wire.crc32 payload in
        if online t q then
          match shadow_write_crc t ~primary:i ~fresh:(not require_allocated) b payload ~crc with
          | { result = Error e; cost_ms } -> fail ~cost:cost_ms e
          | { result = Ok seq; cost_ms = shadow_cost } -> (
              match local_write_seq_crc t i b payload ~crc seq with
              | { result = Ok (); cost_ms } -> ok ~cost:(shadow_cost +. cost_ms) ()
              | { result = Error e; cost_ms } -> fail ~cost:(shadow_cost +. cost_ms) e)
        else begin
          (* Companion down: write locally, leave an intention so the
             companion restores this block when it comes back. *)
          Itbl.replace s.intentions b ();
          match local_write t i b payload ~crc with
          | { result = Ok (); cost_ms } -> ok ~cost:cost_ms ()
          | { result = Error e; cost_ms } -> fail ~cost:cost_ms e
        end
      end

let write t i b payload = write_via t i b payload ~require_allocated:true

(* Amortised §4 write for a group-commit batch: every block rides one
   A→B→A round trip, so the companion hop is paid once for the whole
   batch instead of once per block. All blocks must already be allocated
   (commit references always are). The companion copy of every block is
   written before any local copy, and the writes stop at the first
   failure, so a crash mid-batch leaves each block either fully stable,
   companion-only (repaired forward at restart, exactly as for a single
   write interrupted between legs) or untouched — never torn. *)
let write_batch t i entries =
  match entries with
  | [] -> ok ()
  | _ -> (
      match check_serving t i with
      | Error e -> fail e
      | Ok s -> (
          match List.find_opt (fun (b, _) -> not (Itbl.mem s.allocated b)) entries with
          | Some (b, _) -> fail (Not_allocated b)
          | None ->
              let q = companion i in
              if not (online t q) then begin
                (* Companion down: local writes plus intentions, exactly as
                   [write_via] — there is no hop to amortise. *)
                let rec go cost = function
                  | [] -> ok ~cost ()
                  | (b, payload) :: rest -> (
                      Itbl.replace s.intentions b ();
                      match local_write t i b payload ~crc:(Wire.crc32 payload) with
                      | { result = Ok (); cost_ms } -> go (cost +. cost_ms) rest
                      | { result = Error e; cost_ms } -> fail ~cost:(cost +. cost_ms) e)
                in
                go 0.0 entries
              end
              else begin
                let sq = t.servers.(q) in
                let cost = ref hop_ms in
                (* Leg 1 (A→B): the companion seals and writes every block. *)
                let rec shadows acc = function
                  | [] -> Ok (List.rev acc)
                  | (b, payload) :: rest ->
                      if Itbl.mem sq.tentative b then Error (Collision b)
                      else begin
                        let seq = next_seq t q in
                        let crc = Wire.crc32 payload in
                        let { Disk.result; cost_ms } = Disk.write sq.disk b (seal seq ~crc payload) in
                        cost := !cost +. cost_ms;
                        match result with
                        | Error e -> Error (Disk_error e)
                        | Ok () ->
                            Itbl.replace sq.allocated b ();
                            leg t ~leg:"shadow" ~server:q ~block:b ~cost_ms;
                            shadows ((b, payload, crc, seq) :: acc) rest
                      end
                in
                (* Leg 2 (B→A): the local copies, under the companion's seqs. *)
                let rec locals = function
                  | [] -> Ok ()
                  | (b, payload, crc, seq) :: rest -> (
                      match raw_local_write t i b payload ~crc seq with
                      | { result = Ok (); cost_ms } ->
                          cost := !cost +. cost_ms;
                          locals rest
                      | { result = Error e; cost_ms } ->
                          cost := !cost +. cost_ms;
                          Error e)
                in
                match shadows [] entries with
                | Error e -> fail ~cost:!cost e
                | Ok sealed -> (
                    match locals sealed with
                    | Ok () -> ok ~cost:!cost ()
                    | Error e -> fail ~cost:!cost e)
              end))

let max_allocate_retries = 16

let allocate_write t i payload =
  let rec attempt n cost_acc =
    if n = 0 then fail ~cost:cost_acc No_free_blocks
    else
      match tentative_allocate t i with
      | { result = Error e; cost_ms } -> fail ~cost:(cost_acc +. cost_ms) e
      | { result = Ok b; cost_ms = alloc_cost } -> (
          match write_via t i b payload ~require_allocated:false with
          | { result = Ok (); cost_ms } -> ok ~cost:(cost_acc +. alloc_cost +. cost_ms) b
          | { result = Error (Collision _); cost_ms } ->
              abort_tentative t i b;
              (* "Redo the operation after a random wait interval." *)
              let backoff = Xrng.float t.rng 5.0 in
              attempt (n - 1) (cost_acc +. alloc_cost +. cost_ms +. backoff)
          | { result = Error e; cost_ms } ->
              abort_tentative t i b;
              fail ~cost:(cost_acc +. alloc_cost +. cost_ms) e)
  in
  attempt max_allocate_retries 0.0

let read_raw s b =
  let { Disk.result; cost_ms } = Disk.read s.disk b in
  match result with
  | Error e -> (Error (`Disk e), cost_ms)
  | Ok image -> (
      match unseal image with
      | Error m -> (Error (`Corrupt m), cost_ms)
      | Ok (seq, payload) -> (Ok (seq, payload), cost_ms))

let read t i b =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      if not (Itbl.mem s.allocated b) then fail (Not_allocated b)
      else begin
        match read_raw s b with
        | Ok (_, payload), cost -> ok ~cost payload
        | (Error _ as _local_failure), local_cost ->
            (* Fall back to the companion, repairing the local copy. *)
            let q = companion i in
            if not (online t q) then fail ~cost:local_cost (Corrupt_both b)
            else begin
              match read_raw t.servers.(q) b with
              | Ok (seq, payload), remote_cost ->
                  leg t ~leg:"companion_read" ~server:q ~block:b
                    ~cost_ms:(hop_ms +. remote_cost);
                  let repair = local_write_seq t i b payload seq in
                  leg t ~leg:"repair" ~server:i ~block:b ~cost_ms:repair.cost_ms;
                  let cost = local_cost +. hop_ms +. remote_cost +. repair.cost_ms in
                  ok ~cost payload
              | Error _, remote_cost ->
                  fail ~cost:(local_cost +. hop_ms +. remote_cost) (Corrupt_both b)
            end
      end

let free t i b =
  match check_serving t i with
  | Error e -> fail e
  | Ok s ->
      if not (Itbl.mem s.allocated b) then fail (Not_allocated b)
      else begin
        Itbl.remove s.allocated b;
        let _ = Disk.erase s.disk b in
        let q = companion i in
        if online t q then begin
          Itbl.remove t.servers.(q).allocated b;
          let _ = Disk.erase t.servers.(q).disk b in
          ok ~cost:hop_ms ()
        end
        else begin
          Itbl.replace s.intentions b ();
          ok ()
        end
      end

(* {2 Crashes and recovery} *)

let component_name i = Printf.sprintf "stable:%d" i

let crash t i =
  let s = t.servers.(i) in
  s.up <- false;
  s.recovered <- false;
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Crash { component = component_name i; what = "crash" });
  Itbl.reset s.tentative

let wipe_and_crash t i =
  crash t i;
  Disk.wipe t.servers.(i).disk;
  Itbl.reset t.servers.(i).allocated;
  Itbl.reset t.servers.(i).intentions

let restart t i =
  let s = t.servers.(i) in
  s.up <- true;
  if Trace.enabled t.trace then
    Trace.point t.trace (Trace.Crash { component = component_name i; what = "restart" });
  let q_id = companion i in
  let q = t.servers.(q_id) in
  if not (q.up && q.recovered) then begin
    (* Companion also down: come up alone on our own disk. *)
    s.recovered <- true;
    ok 0
  end
  else begin
    (* Compare notes: the union of both allocation views, resolved block by
       block in favour of the copy with the higher sequence number. The
       companion's intentions list is a cheap summary, but after a wipe the
       full union is what restores the disk, so we always walk the union. *)
    let candidates = Itbl.create 256 in
    Itbl.iter_sorted (fun b () -> Itbl.replace candidates b ()) s.allocated;
    Itbl.iter_sorted (fun b () -> Itbl.replace candidates b ()) q.allocated;
    Itbl.iter_sorted (fun b () -> Itbl.replace candidates b ()) q.intentions;
    let repaired = ref 0 in
    let cost = ref hop_ms in
    let repair_one b () =
      let mine, my_cost = read_raw s b in
      let theirs, their_cost = read_raw q b in
      cost := !cost +. my_cost +. their_cost;
      match (mine, theirs) with
      | Ok (my_seq, _), Ok (their_seq, payload) when their_seq > my_seq ->
          let r = raw_local_write t i b payload ~crc:(Wire.crc32 payload) their_seq in
          cost := !cost +. r.cost_ms;
          incr repaired
      | Ok (my_seq, payload), Ok (their_seq, _) when my_seq > their_seq ->
          (* Our copy is newer (their disk lost a write): push it back. *)
          let seq = my_seq in
          let w = Disk.write q.disk b (seal seq ~crc:(Wire.crc32 payload) payload) in
          note_seq t q_id seq;
          cost := !cost +. w.Disk.cost_ms;
          incr repaired
      | Ok _, Ok _ -> Itbl.replace s.allocated b ()
      | Error _, Ok (their_seq, payload) ->
          let r = raw_local_write t i b payload ~crc:(Wire.crc32 payload) their_seq in
          cost := !cost +. r.cost_ms;
          Itbl.replace s.allocated b ();
          incr repaired
      | Ok (my_seq, payload), Error _ ->
          let w = Disk.write q.disk b (seal my_seq ~crc:(Wire.crc32 payload) payload) in
          Itbl.replace q.allocated b ();
          cost := !cost +. w.Disk.cost_ms;
          incr repaired
      | Error _, Error _ ->
          (* Block lost on both sides (e.g. freed concurrently): drop it. *)
          Itbl.remove s.allocated b;
          Itbl.remove q.allocated b
    in
    Itbl.iter_sorted repair_one candidates;
    (* Both views now agree; intentions are discharged. *)
    Itbl.iter_sorted (fun b () -> Itbl.replace s.allocated b ()) q.allocated;
    Itbl.iter_sorted (fun b () -> Itbl.replace q.allocated b ()) s.allocated;
    Itbl.reset q.intentions;
    Itbl.reset s.intentions;
    s.recovered <- true;
    if Trace.enabled t.trace then
      Trace.point t.trace (Trace.Crash { component = component_name i; what = "recover" });
    ok ~cost:!cost !repaired
  end

let verify_companion_invariant t =
  let a = t.servers.(0) and b = t.servers.(1) in
  let union = Itbl.create 256 in
  Itbl.iter_sorted (fun blk () -> Itbl.replace union blk ()) a.allocated;
  Itbl.iter_sorted (fun blk () -> Itbl.replace union blk ()) b.allocated;
  let violation = ref None in
  let check blk () =
    if !violation = None then begin
      let ra, _ = read_raw a blk and rb, _ = read_raw b blk in
      match (ra, rb) with
      | Ok (sa, pa), Ok (sb, pb) when sa = sb && not (Bytes.equal pa pb) ->
          violation := Some (Printf.sprintf "block %d: equal seq %Ld, different payloads" blk sa)
      | _ -> ()
    end
  in
  Itbl.iter_sorted check union;
  match !violation with None -> Ok () | Some msg -> Error msg

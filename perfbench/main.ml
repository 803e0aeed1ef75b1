(* The benchmark command: one workload, one seed, one mode.

     main.exe --workload stable-1k --seed 7 --seconds 30 --trace 0

   --trace 0 measures the end-to-end metrics with tracing off: a primary
   run whose virtual metrics are a pure function of the seed, then
   repeats at the same seed until --seconds of host time have passed,
   each of which must decide exactly what the primary decided. --trace 1
   adds one traced, wrapped run and reports the per-layer metrics; its
   outcome must equal the untraced run's.

   Every metric is printed by name with its unit and sample count; the
   last line is one JSON object. Any failed correctness gate prints
   "correct": false and exits 1. *)

open Perfbench
module H = Harness
module Driver = Afs_workload.Driver

type args = { kind : H.kind; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload (stable-1k|zipf-4shard|xshard-bank) --seed N --seconds S \
     --trace (0|1)";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest -> go ((flag, value) :: acc) rest
    | [ _ ] -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get flag = match List.assoc_opt flag opts with Some v -> v | None -> usage () in
  let int flag = match int_of_string_opt (get flag) with Some n -> n | None -> usage () in
  let kind = match H.of_name (get "--workload") with Some k -> k | None -> usage () in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  { kind; seed = int "--seed"; seconds = float_of_int seconds; trace }

exception Gate of string

let gate = function Ok () -> () | Error msg -> raise (Gate msg)

let seconds_since t0 = float_of_int (H.since_ns t0) /. 1e9

let heap_mb () =
  float_of_int ((Stdlib.Gc.quick_stat ()).Stdlib.Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Drive one untraced run of a set-up system, then hold it to every gate. *)
let gated_run spec ~seed sys =
  let o = H.run spec ~seed sys in
  gate (H.check_outcome spec.H.kind o);
  gate (sys.H.gate ());
  o

let same_decisions ~what a b =
  if H.fingerprint a <> H.fingerprint b then
    raise (Gate (what ^ ": outcome differs from the first run at the same seed"))

(* Set-up time is the median over [spec.setups] set-ups made before any
   driven run, so a sub-millisecond set-up is still measured thousands
   of times over. No collection is forced between them: thousands of
   forced major collections change the collector's pacing for the run
   that follows (its heap peak doubled on xshard-bank). *)
let setups spec =
  let times = Array.make spec.H.setups 0.0 in
  let rec go i =
    let sys, ns = H.timed (fun () -> H.setup spec.H.kind) in
    times.(i) <- float_of_int ns /. 1e9;
    if i + 1 < Array.length times then go (i + 1) else (sys, times)
  in
  go 0

(* The first run fixes every virtual metric; repeats at the same seed
   fill what is left of [--seconds] of host time (a repeat starts only if
   it can end in time) and must decide exactly what the first run
   decided. Host throughput is the median over every window of every
   run. *)
let end_to_end args spec =
  let sys, setup_times = setups spec in
  let t0 = H.now_ns () in
  let first = gated_run spec ~seed:args.seed sys in
  let heap = heap_mb () in
  let runs = ref [ first ] in
  let run_s = seconds_since t0 in
  while seconds_since t0 +. run_s <= args.seconds do
    let o = gated_run spec ~seed:args.seed (H.setup spec.H.kind) in
    same_decisions ~what:"repeat" first o;
    runs := o :: !runs
  done;
  let runs = List.rev !runs in
  let rates = Array.concat (List.map (fun o -> o.H.window_rates) runs) in
  if Array.length rates = 0 then raise (Gate "no complete host-throughput window");
  ( runs,
    [ H.metric ~samples:(Array.length rates) "host_commits_per_s" "commits/s" (H.median_float rates) ]
    @ H.virtual_metrics spec first
    @ [
        H.metric ~samples:(Array.length setup_times) "setup_s" "s" (H.median_float setup_times);
        H.metric "heap_peak_mb" "MiB" heap;
      ] )

(* Untraced, traced, untraced again: the tracing overhead compares the
   traced run with the second untraced run, so neither pays for the
   process's first, cold run. *)
let per_layer args spec =
  let untraced = gated_run spec ~seed:args.seed (H.setup spec.H.kind) in
  let probe = H.probe () in
  let sys = H.setup ~probe spec.H.kind in
  let traced = H.run spec ~seed:args.seed ~probe sys in
  gate (H.check_outcome spec.H.kind traced);
  gate (sys.H.gate ());
  same_decisions ~what:"traced run" untraced traced;
  let warm = gated_run spec ~seed:args.seed (H.setup spec.H.kind) in
  same_decisions ~what:"second untraced run" untraced warm;
  ([ untraced; traced; warm ], H.layer_metrics sys ~untraced ~warm ~traced probe)

let json_number v =
  if not (Float.is_finite v) then raise (Gate "non-finite metric value");
  Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.H.name (json_number m.H.value) m.H.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let () =
  let args = parse Sys.argv in
  let spec = H.spec args.kind in
  Printf.printf "workload %s  seed %d  clients %d  think %.0f vms  run %.0f vms  trace %b\n%!"
    (H.name args.kind) args.seed spec.H.clients spec.H.think_ms spec.H.duration_ms args.trace;
  match if args.trace then per_layer args spec else end_to_end args spec with
  | runs, metrics ->
      List.iteri
        (fun i o ->
          let r = o.H.report in
          Printf.printf "run %d: %d committed, %d given up, %d attempts, %d events, %.3f host s\n" i
            r.Driver.committed r.Driver.given_up r.Driver.attempts o.H.events
            (float_of_int o.H.wall_ns /. 1e9))
        runs;
      List.iter
        (fun m ->
          Printf.printf "%-36s %16.6f %-16s n=%d\n" m.H.name m.H.value m.H.unit m.H.samples)
        metrics;
      let finished o = o.H.report.Driver.committed + o.H.report.Driver.given_up in
      result_line ~correct:true
        ~attempted:(List.fold_left (fun acc o -> acc + finished o) 0 runs)
        ~failed:(List.fold_left (fun acc o -> acc + o.H.report.Driver.given_up) 0 runs)
        metrics
  | exception (Gate msg | Failure msg) ->
      Printf.printf "correctness gate failed: %s\n" msg;
      result_line ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
  | exception (Afs_workload.Sut.Fatal _ as e) ->
      Printf.printf "correctness gate failed: %s\n" (Printexc.to_string e);
      result_line ~correct:false ~attempted:1 ~failed:1 [];
      exit 1

(* The lint engine against known-violation fixtures: each rule family must
   fire exactly where expected, stay silent on the blessed shapes, and be
   suppressible through the allowlist. The proto/ fixtures exercise the
   interprocedural families (Y1/C1/X1) and the call-graph fixpoint. *)

let fixture_config =
  {
    Lint_types.rng_exempt = [ "lint_fixtures/d1_exempt.ml" ];
    protocol_dirs = [ "lint_fixtures" ];
    hashtbl_dirs = [ "lint_fixtures" ];
    hashtbl_strict_units =
      [
        "lint_fixtures/d1_strict_lru.ml";
        "lint_fixtures/d1_strict_itbl.ml";
        "lint_fixtures/d1_strict_trace";
        "lint_fixtures/d1_strict_cluster";
        "lint_fixtures/d1_strict_replica";
      ];
    e1_dirs = [ "lint_fixtures" ];
    e1_exempt = [];
    mli_dirs = [];
    yield_primitives =
      [ "Proc.delay"; "Proc.suspend"; "Ivar.read"; "Channel.send"; "Channel.recv"; "Rpc.call" ];
    yielding_fields = [ "o_sync" ];
    validators = [ "Store.validate" ];
    shared_state_fields = [ "counter" ];
    critical_sections =
      [
        "C1_commit.commit";
        "C1_memo.commit";
        "C1_ambient.commit_stamped";
        "C1_ok.commit";
        "C1_pipeline.validate";
        "C1_pipeline.merge";
        "C1_pipeline.publish";
        "C1_txn.decide";
        "C1_txn.resolve";
        "C1_txn.decide_blocking";
      ];
    moved_sources = [ "Store.fetch_remote" ];
    y1_dirs = [ "lint_fixtures" ];
    x1_dirs = [ "lint_fixtures" ];
  }

let run ?(config = fixture_config) ?(allowlist = []) dirs =
  Lint_engine.run ~config ~allowlist ~root:"." dirs

let key (f : Lint_types.finding) = (Lint_types.rule_id f.rule, f.file, f.symbol)

let keys (r : Lint_engine.result) = List.map key r.findings

let in_file file (r : Lint_engine.result) =
  List.filter (fun (_, f, _) -> f = file) (keys r)

let check_keys = Alcotest.(check (list (triple string string string)))

let scan = lazy (run [ "lint_fixtures" ])

let test_parses_everything () =
  let r = Lazy.force scan in
  Alcotest.(check (list (pair string string))) "no unparseable fixtures" [] r.broken;
  Alcotest.(check int) "all fixtures scanned" 29 r.files_scanned

let test_d1_ambient () =
  check_keys "one finding per ambient source, none in the exempt file"
    [
      ("D1", "lint_fixtures/d1_random.ml", "Unix.gettimeofday");
      ("D1", "lint_fixtures/d1_random.ml", "Random.int");
      ("D1", "lint_fixtures/d1_random.ml", "Sys.time");
    ]
    (in_file "lint_fixtures/d1_random.ml" (Lazy.force scan)
    @ in_file "lint_fixtures/d1_exempt.ml" (Lazy.force scan))

let test_d1_hashtbl () =
  check_keys "bare iter fires; sorted folds and wire-free units do not"
    [ ("D1", "lint_fixtures/d1_hashtbl.ml", "Hashtbl.iter") ]
    (in_file "lint_fixtures/d1_hashtbl.ml" (Lazy.force scan)
    @ in_file "lint_fixtures/d1_hashtbl_pure.ml" (Lazy.force scan))

let test_d1_strict_unit () =
  (* The strict-unit list applies D1 without the wire-mention gate; dropping
     the file from the list restores the default (silent) behaviour. *)
  check_keys "unordered iter fires in a strict unit with no wire mention"
    [ ("D1", "lint_fixtures/d1_strict_lru.ml", "Hashtbl.iter") ]
    (in_file "lint_fixtures/d1_strict_lru.ml" (Lazy.force scan));
  let config = { fixture_config with Lint_types.hashtbl_strict_units = [] } in
  check_keys "silent once delisted"
    []
    (in_file "lint_fixtures/d1_strict_lru.ml" (run ~config [ "lint_fixtures" ]))

let test_d1_itbl () =
  (* Itbl and a unit's aliases of it are checked exactly like Hashtbl. *)
  check_keys "unordered Itbl traversals fire, directly and through an alias"
    [
      ("D1", "lint_fixtures/d1_strict_itbl.ml", "Itbl.fold");
      ("D1", "lint_fixtures/d1_strict_itbl.ml", "Blocks.iter");
    ]
    (in_file "lint_fixtures/d1_strict_itbl.ml" (Lazy.force scan));
  let config = { fixture_config with Lint_types.hashtbl_strict_units = [] } in
  check_keys "silent once delisted" []
    (in_file "lint_fixtures/d1_strict_itbl.ml" (run ~config [ "lint_fixtures" ]))

let test_d1_strict_directory () =
  (* A directory prefix in the strict-unit list (the lib/trace shape)
     covers every file beneath it; sorted traversals stay silent. *)
  check_keys "unordered fold fires under a strict directory"
    [ ("D1", "lint_fixtures/d1_strict_trace/exporter.ml", "Hashtbl.fold") ]
    (in_file "lint_fixtures/d1_strict_trace/exporter.ml" (Lazy.force scan));
  check_keys "the cluster registry fixture is covered the same way"
    [ ("D1", "lint_fixtures/d1_strict_cluster/registry.ml", "Hashtbl.iter") ]
    (in_file "lint_fixtures/d1_strict_cluster/registry.ml" (Lazy.force scan));
  check_keys "the replica queue fixture is covered the same way"
    [ ("D1", "lint_fixtures/d1_strict_replica/queue.ml", "Hashtbl.iter") ]
    (in_file "lint_fixtures/d1_strict_replica/queue.ml" (Lazy.force scan));
  let config = { fixture_config with Lint_types.hashtbl_strict_units = [] } in
  check_keys "silent once the directory is delisted"
    []
    (in_file "lint_fixtures/d1_strict_trace/exporter.ml" (run ~config [ "lint_fixtures" ])
    @ in_file "lint_fixtures/d1_strict_cluster/registry.ml" (run ~config [ "lint_fixtures" ])
    @ in_file "lint_fixtures/d1_strict_replica/queue.ml" (run ~config [ "lint_fixtures" ]))

let test_p1 () =
  check_keys "each partial idiom fires once"
    [
      ("P1", "lint_fixtures/p1_partial.ml", "List.hd");
      ("P1", "lint_fixtures/p1_partial.ml", "Option.get");
      ("P1", "lint_fixtures/p1_partial.ml", "failwith");
      ("P1", "lint_fixtures/p1_partial.ml", "assert false");
    ]
    (in_file "lint_fixtures/p1_partial.ml" (Lazy.force scan))

let test_e1 () =
  check_keys "re-entry, callback blocking, orphan read; blessed shapes silent"
    [
      ("E1", "lint_fixtures/e1_nested.ml", "Engine.run");
      ("E1", "lint_fixtures/e1_nested.ml", "Proc.delay");
      ("E1", "lint_fixtures/e1_nested.ml", "Ivar.read");
    ]
    (in_file "lint_fixtures/e1_nested.ml" (Lazy.force scan)
    @ in_file "lint_fixtures/e1_ok.ml" (Lazy.force scan))

let test_e1_severity () =
  let r = Lazy.force scan in
  let sev symbol =
    match
      List.find_opt
        (fun (f : Lint_types.finding) ->
          f.file = "lint_fixtures/e1_nested.ml" && f.symbol = symbol)
        r.findings
    with
    | Some f -> Lint_types.severity_id f.severity
    | None -> "missing"
  in
  Alcotest.(check string) "re-entry is an error" "error" (sev "Engine.run");
  Alcotest.(check string) "orphan read is only a warning" "warning" (sev "Ivar.read")

let test_m1 () =
  let config =
    {
      fixture_config with
      Lint_types.mli_dirs = [ "lint_fixtures/m1" ];
      (* This run scans only m1/, so the proto critical sections are out
         of scope — clear them or they report as missing. *)
      critical_sections = [];
    }
  in
  let r = run ~config [ "lint_fixtures/m1" ] in
  check_keys "only the uncovered module fires"
    [ ("M1", "lint_fixtures/m1/orphan.ml", "missing-mli") ]
    (keys r)

(* {2 Interprocedural families} *)

let test_y1 () =
  check_keys "direct, summary-propagated, and dynamic-field yields all fire"
    [
      ("Y1", "lint_fixtures/proto/y1_race.ml", "Y1_race.bump/counter");
      ("Y1", "lint_fixtures/proto/y1_race.ml", "Y1_race.bump_via_helper/counter");
      ("Y1", "lint_fixtures/proto/y1_race.ml", "Y1_race.bump_dyn/counter");
    ]
    (in_file "lint_fixtures/proto/y1_race.ml" (Lazy.force scan));
  check_keys "an Itbl mutation of a shared field across a yield fires like a field write"
    [
      ("Y1", "lint_fixtures/proto/y1_itbl.ml", "Y1_itbl.bump/counter");
      ("Y1", "lint_fixtures/proto/y1_itbl.ml", "Y1_itbl.bump_alias/counter");
    ]
    (in_file "lint_fixtures/proto/y1_itbl.ml" (Lazy.force scan));
  check_keys "revalidation, write-before-yield and Moved-branch writes are silent" []
    (in_file "lint_fixtures/proto/y1_ok.ml" (Lazy.force scan))

let test_c1 () =
  check_keys "transitive yield in a critical section fires at the section"
    [ ("C1", "lint_fixtures/proto/c1_commit.ml", "C1_commit.commit") ]
    (in_file "lint_fixtures/proto/c1_commit.ml" (Lazy.force scan));
  check_keys "ambient source fires C1 (and D1 at the call site)"
    [
      ("C1", "lint_fixtures/proto/c1_ambient.ml", "C1_ambient.commit_stamped");
      ("D1", "lint_fixtures/proto/c1_ambient.ml", "Unix.gettimeofday");
    ]
    (in_file "lint_fixtures/proto/c1_ambient.ml" (Lazy.force scan));
  check_keys "a clean section is silent" []
    (in_file "lint_fixtures/proto/c1_ok.ml" (Lazy.force scan));
  check_keys "memo fields are silent: no C1 in the section, no Y1 after the yield" []
    (in_file "lint_fixtures/proto/c1_memo.ml" (Lazy.force scan));
  check_keys "the clean validate/merge/publish pipeline stages are silent" []
    (in_file "lint_fixtures/proto/c1_pipeline.ml" (Lazy.force scan));
  check_keys "pure txn decide/resolve are silent; the parking variant fires"
    [ ("C1", "lint_fixtures/proto/c1_txn.ml", "C1_txn.decide_blocking") ]
    (in_file "lint_fixtures/proto/c1_txn.ml" (Lazy.force scan));
  (* The C1 yield report carries the shortest call chain to the primitive. *)
  let witness =
    List.find_opt
      (fun (f : Lint_types.finding) -> f.file = "lint_fixtures/proto/c1_commit.ml")
      (Lazy.force scan).findings
  in
  match witness with
  | Some f ->
      Alcotest.(check bool) "witness chain names the hop and the primitive" true
        (let contains sub =
           let n = String.length sub and m = String.length f.message in
           let rec at i = i + n <= m && (String.sub f.message i n = sub || at (i + 1)) in
           at 0
         in
         contains "Pause.brief" && contains "Proc.delay")
  | None -> Alcotest.fail "no C1 finding for c1_commit.ml"

let test_c1_missing_section () =
  let config = { fixture_config with Lint_types.critical_sections = [ "Nowhere.commit" ] } in
  let r = run ~config [ "lint_fixtures" ] in
  Alcotest.(check bool) "unknown critical section reported against <config>" true
    (List.mem ("C1", "<config>", "Nowhere.commit") (keys r));
  match
    List.find_opt (fun (f : Lint_types.finding) -> f.file = "<config>") r.findings
  with
  | Some f -> Alcotest.(check string) "as a warning" "warning" (Lint_types.severity_id f.severity)
  | None -> Alcotest.fail "missing-section finding not found"

let test_x1 () =
  check_keys "direct drop, fixpoint-propagated drop, and let _ drop all fire"
    [
      ("X1", "lint_fixtures/proto/x1_drop.ml", "Store.fetch_remote");
      ("X1", "lint_fixtures/proto/x1_drop.ml", "X1_drop.relay");
      ("X1", "lint_fixtures/proto/x1_drop.ml", "Store.fetch_remote");
    ]
    (in_file "lint_fixtures/proto/x1_drop.ml" (Lazy.force scan));
  check_keys "handling, propagating, and non-Moved drops are silent" []
    (in_file "lint_fixtures/proto/x1_ok.ml" (Lazy.force scan))

(* {2 Call graph} *)

let proto_parsed =
  lazy
    (let files = Lint_engine.ml_files ~root:"." [ "lint_fixtures" ] in
     let parsed, broken = Lint_engine.parse_all ~root:"." files in
     Alcotest.(check (list (pair string string))) "fixtures parse" [] broken;
     parsed)

let test_callgraph () =
  let g = Lint_callgraph.build fixture_config (Lazy.force proto_parsed) in
  let flag key f =
    match Lint_callgraph.summary g key with
    | Some s -> f s
    | None -> Alcotest.failf "no summary for %s" key
  in
  Alcotest.(check bool) "module alias resolves to the real module" true
    (flag "Graph_alias.nap" (fun s -> s.Lint_callgraph.yields));
  Alcotest.(check bool) "direct arm of the mutual recursion yields" true
    (flag "Graph_mutual.ping" (fun s -> s.Lint_callgraph.yields));
  Alcotest.(check bool) "mutual recursion reaches the fixpoint" true
    (flag "Graph_mutual.pong" (fun s -> s.Lint_callgraph.yields));
  Alcotest.(check bool) "Moved-capability propagates through relay" true
    (flag "X1_drop.relay" (fun s -> s.Lint_callgraph.moved));
  Alcotest.(check bool) "a Moved handler stops propagation" false
    (flag "X1_ok.handled" (fun s -> s.Lint_callgraph.moved));
  Alcotest.(check bool) "returning the result keeps the capability" true
    (flag "X1_ok.propagated" (fun s -> s.Lint_callgraph.moved));
  Alcotest.(check bool) "validator calls classify as validating" true
    (flag "C1_ok.commit" (fun s -> s.Lint_callgraph.validates));
  Alcotest.(check bool) "the clean section does not yield" false
    (flag "C1_ok.commit" (fun s -> s.Lint_callgraph.yields));
  match
    Lint_callgraph.witness_chain g ~key:"C1_commit.commit"
      ~has:(fun d -> d.Lint_callgraph.direct_yield)
  with
  | Some chain ->
      Alcotest.(check (list string))
        "shortest chain from section to primitive"
        [ "C1_commit.commit"; "Pause.brief"; "Proc.delay" ]
        chain
  | None -> Alcotest.fail "no witness chain for C1_commit.commit"

(* Finding order must be a pure function of the file *set*: permuting the
   parse order must not reorder or change the interprocedural report. *)
let prop_shuffle_stable =
  let shuffle seed xs =
    let arr = Array.of_list xs in
    let state = ref (1 + (seed land 0x3FFFFFFF)) in
    let next m =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod m
    in
    for i = Array.length arr - 1 downto 1 do
      let j = next (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list arr
  in
  QCheck2.Test.make ~name:"interprocedural findings stable under file shuffle" ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let parsed = Lazy.force proto_parsed in
      let baseline = Lint_proto.analyse fixture_config parsed in
      Lint_proto.analyse fixture_config (shuffle seed parsed) = baseline)

(* {2 Allowlist} *)

let test_allowlist_suppresses () =
  let allowlist =
    Lint_allow.of_string
      "# comment lines and blanks are ignored\n\n\
       P1 lint_fixtures/p1_partial.ml failwith  # fixture exercises the partial idiom\n\
       D1 lint_fixtures/d1_hashtbl.ml *   # wildcard symbol\n"
  in
  let r = run ~allowlist [ "lint_fixtures" ] in
  Alcotest.(check bool) "failwith suppressed" false
    (List.mem ("P1", "lint_fixtures/p1_partial.ml", "failwith") (keys r));
  Alcotest.(check bool) "List.hd still reported" true
    (List.mem ("P1", "lint_fixtures/p1_partial.ml", "List.hd") (keys r));
  check_keys "wildcard clears the whole file" []
    (in_file "lint_fixtures/d1_hashtbl.ml" r);
  Alcotest.(check int) "both entries recorded as suppressions" 2
    (List.length r.suppressed);
  Alcotest.(check int) "no unused entries" 0 (List.length (Lint_allow.unused allowlist))

let test_allowlist_y1 () =
  let allowlist =
    Lint_allow.of_string
      "Y1 lint_fixtures/proto/y1_race.ml Y1_race.bump/counter  # seeded fixture\n"
  in
  let r = run ~allowlist [ "lint_fixtures" ] in
  check_keys "only the allowlisted Y1 site is suppressed"
    [
      ("Y1", "lint_fixtures/proto/y1_race.ml", "Y1_race.bump_via_helper/counter");
      ("Y1", "lint_fixtures/proto/y1_race.ml", "Y1_race.bump_dyn/counter");
    ]
    (in_file "lint_fixtures/proto/y1_race.ml" r)

let test_allowlist_unused_and_errors () =
  let allowlist = Lint_allow.of_string "E1 lint_fixtures/never.ml Ivar.read  # obsolete\n" in
  let r = run ~allowlist [ "lint_fixtures" ] in
  Alcotest.(check int) "entry that matches nothing is unused" 1
    (List.length (Lint_allow.unused allowlist));
  Alcotest.(check bool) "stale entry surfaces as a finding" true
    (List.mem ("E1", "lint_fixtures/never.ml", "stale-allow:Ivar.read") (keys r));
  Alcotest.check_raises "malformed line rejected"
    (Lint_allow.Parse_error
       "line 1: want 'RULE file symbol  # justification', got \"only-two fields\"")
    (fun () -> ignore (Lint_allow.of_string "only-two fields\n"));
  Alcotest.check_raises "unknown rule rejected"
    (Lint_allow.Parse_error "line 1: unknown rule \"Z9\" (want D1|P1|E1|M1|Y1|C1|X1)") (fun () ->
      ignore (Lint_allow.of_string "Z9 some/file.ml sym\n"));
  Alcotest.check_raises "entry without justification rejected"
    (Lint_allow.Parse_error
       "line 1: entry has no justification — append '# why this exception is sound'")
    (fun () -> ignore (Lint_allow.of_string "P1 some/file.ml failwith\n"))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "fixtures parse" `Quick test_parses_everything;
          Alcotest.test_case "D1 ambient sources" `Quick test_d1_ambient;
          Alcotest.test_case "D1 unordered hashtbl" `Quick test_d1_hashtbl;
          Alcotest.test_case "D1 strict units" `Quick test_d1_strict_unit;
          Alcotest.test_case "D1 int-keyed tables" `Quick test_d1_itbl;
          Alcotest.test_case "D1 strict directories" `Quick test_d1_strict_directory;
          Alcotest.test_case "P1 partial idioms" `Quick test_p1;
          Alcotest.test_case "E1 effect safety" `Quick test_e1;
          Alcotest.test_case "E1 severities" `Quick test_e1_severity;
          Alcotest.test_case "M1 interface coverage" `Quick test_m1;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "Y1 yield atomicity" `Quick test_y1;
          Alcotest.test_case "C1 commit phase" `Quick test_c1;
          Alcotest.test_case "C1 missing section" `Quick test_c1_missing_section;
          Alcotest.test_case "X1 Moved exhaustiveness" `Quick test_x1;
          Alcotest.test_case "call graph fixpoint" `Quick test_callgraph;
          QCheck_alcotest.to_alcotest prop_shuffle_stable;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppression" `Quick test_allowlist_suppresses;
          Alcotest.test_case "Y1 suppression is per-symbol" `Quick test_allowlist_y1;
          Alcotest.test_case "unused & malformed" `Quick test_allowlist_unused_and_errors;
        ] );
    ]

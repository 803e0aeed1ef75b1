module Itbl = Afs_util.Itbl

open Errors

type policy = { retain_committed : int; reshare : bool }

let default_policy = { retain_committed = 4; reshare = true }

type stats = {
  versions_pruned : int;
  pages_reshared : int;
  blocks_freed : int;
  blocks_live : int;
}

let pp_stats ppf s =
  Fmt.pf ppf "pruned=%d reshared=%d freed=%d live=%d" s.versions_pruned s.pages_reshared
    s.blocks_freed s.blocks_live

(* {2 Resharing (§5.1)} *)

(* True when the version wrote or restructured anything at or below the
   page this (copied) entry refers to. Such subtrees carry information the
   file's history needs; everything else is a read shadow. *)
let rec subtree_has_writes ps (entry : Page.ref_entry) =
  let f = entry.Page.flags in
  if f.Flags.w || f.Flags.m then Ok true
  else if not f.Flags.c then Ok false
  else
    let* page = Pagestore.read ps entry.Page.block in
    let rec scan i =
      if i >= Page.nrefs page then Ok false
      else
        let* hit =
          match Page.get_ref page i with
          | Ok e -> subtree_has_writes ps e
          | Error msg -> Error (Store_failure msg)
        in
        if hit then Ok true else scan (i + 1)
    in
    scan 0

let reshare_version server vblock =
  let ps = Server.pagestore server in
  let reshared = ref 0 in
  (* Walk the version's copy and the base original in parallel, index by
     index; an M flag breaks index correspondence below that entry, so the
     walk stops there. *)
  let rec walk_pair v_block v_page b_page =
    let n = min (Page.nrefs v_page) (Page.nrefs b_page) in
    let rec each i acc_page changed =
      if i >= n then
        if changed then Pagestore.write ps v_block acc_page else Ok ()
      else
        match (Page.get_ref acc_page i, Page.get_ref b_page i) with
        | Error msg, _ | _, Error msg -> Error (Store_failure msg)
        | Ok ev, Ok eb ->
            if not ev.Page.flags.Flags.c then each (i + 1) acc_page changed
            else
              let* dirty = subtree_has_writes ps ev in
              if not dirty then begin
                (* Pure read shadow: point back at the shared original. *)
                incr reshared;
                match
                  Page.with_ref acc_page i { Page.block = eb.Page.block; flags = Flags.clear }
                with
                | Ok acc_page -> each (i + 1) acc_page true
                | Error msg -> Error (Store_failure msg)
              end
              else if ev.Page.flags.Flags.m then
                (* Restructured below: no index correspondence. *)
                each (i + 1) acc_page changed
              else
                let* vchild = Pagestore.read ps ev.Page.block in
                let* bchild = Pagestore.read ps eb.Page.block in
                let* () = walk_pair ev.Page.block vchild bchild in
                each (i + 1) acc_page changed
    in
    each 0 v_page false
  in
  let* vpage = Pagestore.read ps vblock in
  match vpage.Page.header.Page.base_ref with
  | None -> Ok 0 (* The oldest version shares with nothing. *)
  | Some base_block ->
      if vpage.Page.header.Page.root_flags.Flags.m then Ok 0
      else
        let* bpage = Pagestore.read ps base_block in
        let* () = walk_pair vblock vpage bpage in
        let* () = Pagestore.flush ps in
        Ok !reshared

(* {2 Mark} *)

let mark_tree ps marked root =
  let rec mark block =
    if Itbl.mem marked block then Ok ()
    else begin
      Itbl.replace marked block ();
      match Pagestore.read ps block with
      | Error _ -> Ok () (* Unreadable (e.g. freshly allocated): keep it marked. *)
      | Ok page ->
          let rec each i =
            if i >= Page.nrefs page then Ok ()
            else
              match Page.get_ref page i with
              | Error msg -> Error (Store_failure msg)
              | Ok e ->
                  let* () = mark e.Page.block in
                  each (i + 1)
          in
          each 0
    end
  in
  mark root

let roots_of_server server =
  let files = Server.list_files server in
  let rec gather acc = function
    | [] -> Ok acc
    | cap :: rest ->
        let* chain = Server.committed_chain server cap in
        let* uncommitted = Server.uncommitted_versions server cap in
        gather ((cap, chain, uncommitted) :: acc) rest
  in
  gather [] files

let live_blocks server =
  let ps = Server.pagestore server in
  let marked = Itbl.create 1024 in
  let* roots = roots_of_server server in
  let rec mark_all = function
    | [] -> Ok marked
    | (_, chain, uncommitted) :: rest ->
        let rec each = function
          | [] -> Ok ()
          | b :: bs ->
              let* () = mark_tree ps marked b in
              each bs
        in
        let* () = each chain in
        let* () = each uncommitted in
        mark_all rest
  in
  mark_all roots

(* {2 Collect} *)

let empty_stats = { versions_pruned = 0; pages_reshared = 0; blocks_freed = 0; blocks_live = 0 }

let add_stats a b =
  {
    versions_pruned = a.versions_pruned + b.versions_pruned;
    pages_reshared = a.pages_reshared + b.pages_reshared;
    blocks_freed = a.blocks_freed + b.blocks_freed;
    blocks_live = b.blocks_live;
  }

let take_last n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let collect ?(policy = default_policy) server =
  if policy.retain_committed < 1 then invalid_arg "Gc.collect: retain_committed must be >= 1";
  let tr = Server.trace server in
  let phase name count =
    if Afs_trace.Trace.enabled tr then
      Afs_trace.Trace.point tr (Afs_trace.Trace.Gc_phase { phase = name; count })
  in
  Afs_trace.Trace.span tr ~kind:"gc" (fun () ->
  let ps = Server.pagestore server in
  let* roots = roots_of_server server in
  (* Reshare pass, newest versions first so parent copies stay valid. *)
  let* reshared =
    if not policy.reshare then Ok 0
    else
      let rec each acc = function
        | [] -> Ok acc
        | (_, chain, _) :: rest ->
            let rec per_version acc = function
              | [] -> Ok acc
              | vb :: more ->
                  let* n = reshare_version server vb in
                  per_version (acc + n) more
            in
            let* acc = per_version acc (List.rev chain) in
            each acc rest
      in
      each 0 roots
  in
  (* Prune: unlink committed versions beyond the retention window. *)
  let rec prune acc = function
    | [] -> Ok acc
    | (cap, chain, _) :: rest ->
        let retained = take_last policy.retain_committed chain in
        let dropped = List.length chain - List.length retained in
        let* () =
          if dropped = 0 then Ok ()
          else
            match retained with
            | [] -> Ok ()
            | new_oldest :: _ ->
                let* page = Pagestore.read ps new_oldest in
                let header = { page.Page.header with Page.base_ref = None } in
                let* () = Pagestore.write_through ps new_oldest (Page.with_header page header) in
                Server.note_pruned_chain server cap ~new_oldest
        in
        prune (acc + dropped) rest
  in
  phase "reshare" reshared;
  let* versions_pruned = prune 0 roots in
  phase "prune" versions_pruned;
  (* Mark from the post-prune roots, then sweep. *)
  let* marked = live_blocks server in
  phase "mark" (Itbl.length marked);
  let* all =
    match (Pagestore.store ps).Store.list_blocks () with
    | Ok l -> Ok l
    | Error msg -> Error (Store_failure msg)
  in
  let freed = ref 0 in
  List.iter
    (fun b ->
      if not (Itbl.mem marked b) then begin
        Pagestore.free ps b;
        incr freed
      end)
    all;
  Server.forget_unreached server ~reached:(Itbl.mem marked);
  phase "sweep" !freed;
  Ok
    {
      versions_pruned;
      pages_reshared = reshared;
      blocks_freed = !freed;
      blocks_live = Itbl.length marked;
    })

let background ?policy engine server ~period_ms ~until_ms =
  let totals = ref empty_stats in
  let body () =
    let rec cycle () =
      Afs_sim.Proc.delay period_ms;
      if Afs_sim.Engine.now engine <= until_ms then begin
        (match collect ?policy server with
        | Ok stats -> totals := add_stats !totals stats
        | Error _ -> () (* Storage trouble: skip this cycle; retry later. *));
        cycle ()
      end
    in
    cycle ()
  in
  ignore (Afs_sim.Proc.spawn ~name:"gc" engine body);
  fun () -> !totals

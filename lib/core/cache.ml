module Pagepath = Afs_util.Pagepath
module Capability = Afs_util.Capability
module Itbl = Afs_util.Itbl

open Errors

module Flag_cache = struct
  type t = Pagepath.t list Itbl.t

  let create () : t = Itbl.create 64

  let write_set t server ~version_block =
    match Itbl.find_opt t version_block with
    | Some paths -> Ok paths
    | None ->
        (* [Server.written_set] reads the incremental administration when
           the server kept one — O(pages written), no page reads — and
           falls back to the flag walk otherwise. Memoised either way:
           committed versions are immutable. *)
        let* paths = Server.written_set server version_block in
        Itbl.replace t version_block paths;
        Ok paths

  let entries t = Itbl.length t
end

type validation = {
  current_block : int;
  invalid : Pagepath.t list;
  versions_walked : int;
  pages_examined : int;
}

let note_validation server ~file ~basis_block (v : validation) =
  let tr = Server.trace server in
  if Afs_trace.Trace.enabled tr then
    Afs_trace.Trace.point tr
      (Afs_trace.Trace.Cache_validate
         {
           file_obj = file.Capability.obj;
           basis = basis_block;
           current = v.current_block;
           invalid = List.length v.invalid;
         });
  v

let server_validate ?flag_cache server ~file ~basis_block =
  let ps = Server.pagestore server in
  let* current_block = Server.current_block_of_file server file in
  if current_block = basis_block then
    (* The common unshared-file case: a null operation. *)
    Ok
      (note_validation server ~file ~basis_block
         { current_block; invalid = []; versions_walked = 0; pages_examined = 0 })
  else begin
    let write_set_of vb =
      match flag_cache with
      | Some fc -> Flag_cache.write_set fc server ~version_block:vb
      | None -> Server.written_set server vb
    in
    (* Walk forward from the basis to the current version, accumulating the
       write sets of every intervening commit. *)
    let rec walk block acc walked examined =
      if block = current_block then Ok (acc, walked, examined)
      else
        let* page = Pagestore.read ps block in
        match page.Page.header.Page.commit_ref with
        | None ->
            (* Chain ended before reaching current: basis not on the chain. *)
            Ok ([ Pagepath.root ], walked, examined)
        | Some next ->
            let* paths = write_set_of next in
            walk next (List.rev_append paths acc) (walked + 1) (examined + List.length paths)
    in
    match Pagestore.read ps basis_block with
    | Error _ ->
        (* Basis pruned by the GC: discard everything. *)
        Ok
          (note_validation server ~file ~basis_block
             {
               current_block;
               invalid = [ Pagepath.root ];
               versions_walked = 0;
               pages_examined = 0;
             })
    | Ok _ ->
        let* invalid, versions_walked, pages_examined = walk basis_block [] 0 0 in
        let invalid = List.sort_uniq Pagepath.compare invalid in
        Ok
          (note_validation server ~file ~basis_block
             { current_block; invalid; versions_walked; pages_examined })
  end

(* {2 Client side}

   Cached pages live in an ordered map over pathnames. The path order
   places a page immediately before its descendants, so invalidating a
   subtree is a range scan from the doomed root: O(log n) to find it plus
   O(pages actually dropped), instead of a sweep over every cached page. *)

type file_entry = { mutable basis_block : int; mutable pages : bytes Pagepath.Map.t }

type t = { server : Server.t; files : file_entry Itbl.t }

let create server = { server; files = Itbl.create 16 }

let entry_for t file_obj basis =
  match Itbl.find_opt t.files file_obj with
  | Some e when e.basis_block = basis -> e
  | Some e ->
      e.basis_block <- basis;
      e.pages <- Pagepath.Map.empty;
      e
  | None ->
      let e = { basis_block = basis; pages = Pagepath.Map.empty } in
      Itbl.replace t.files file_obj e;
      e

let put t ~file ~basis_block ~path ~data =
  let e = entry_for t file.Capability.obj basis_block in
  e.pages <- Pagepath.Map.add path (Bytes.copy data) e.pages

let get t ~file ~path =
  match Itbl.find_opt t.files file.Capability.obj with
  | None -> None
  | Some e -> Option.map Bytes.copy (Pagepath.Map.find_opt path e.pages)

let basis t ~file =
  Option.map (fun e -> e.basis_block) (Itbl.find_opt t.files file.Capability.obj)

let pages_cached t ~file =
  match Itbl.find_opt t.files file.Capability.obj with
  | None -> 0
  | Some e -> Pagepath.Map.cardinal e.pages

(* Drop [bad] and everything beneath it: the doomed paths are contiguous
   in path order starting at [bad] itself. *)
let drop_subtree pages bad =
  let rec collect seq acc =
    match seq () with
    | Seq.Cons ((p, _), rest) when Pagepath.is_prefix bad p -> collect rest (p :: acc)
    | Seq.Cons _ | Seq.Nil -> acc
  in
  let doomed = collect (Pagepath.Map.to_seq_from bad pages) [] in
  List.fold_left (fun m p -> Pagepath.Map.remove p m) pages doomed

let revalidate ?flag_cache t ~file =
  match Itbl.find_opt t.files file.Capability.obj with
  | None ->
      let* current_block = Server.current_block_of_file t.server file in
      ignore (entry_for t file.Capability.obj current_block);
      Ok { current_block; invalid = []; versions_walked = 0; pages_examined = 0 }
  | Some e ->
      let* v = server_validate ?flag_cache t.server ~file ~basis_block:e.basis_block in
      (* Drop each invalid path together with the subtree beneath it: a
         restructured page invalidates every cached descendant. *)
      let tr = Server.trace t.server in
      if Afs_trace.Trace.enabled tr then
        List.iter
          (fun p ->
            Afs_trace.Trace.point tr
              (Afs_trace.Trace.Cache_drop
                 { file_obj = file.Capability.obj; path = Pagepath.to_string p }))
          v.invalid;
      e.pages <- List.fold_left drop_subtree e.pages v.invalid;
      e.basis_block <- v.current_block;
      Ok v

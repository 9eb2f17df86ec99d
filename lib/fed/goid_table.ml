open Msdq_odb

(* [dbs] holds the number of each local's database, in [locals] order. *)
type entity = { gcls : string; locals : (string * Oid.Loid.t) list; dbs : int list }

(* One database's LOid -> GOid column; -1 marks an unregistered LOid.
   Database LOids are dense from 0 ([Database.add]), so the column grows to
   reach each LOid it registers and stays under twice the database's
   size. [index] is the database's number: its position in [maps], or -1
   for a database with no registered object. *)
type local_map = { db : string; index : int; mutable goids : int array }

type t = {
  mutable entities : entity array;  (* indexed by GOid *)
  mutable maps : local_map list;  (* one per database, first registration first *)
  by_class : (string, Oid.Goid.t list ref) Hashtbl.t;  (* reversed *)
  mutable next_goid : int;
}

exception Duplicate of string

let create () =
  { entities = [||]; maps = []; by_class = Hashtbl.create 16; next_goid = 0 }

let find_map t db = List.find_opt (fun m -> String.equal m.db db) t.maps

let lookup m loid =
  let i = Oid.Loid.to_int loid in
  if i >= 0 && i < Array.length m.goids then Array.unsafe_get m.goids i else -1

let map_for t db =
  match find_map t db with
  | Some m -> m
  | None ->
    let m = { db; index = List.length t.maps; goids = [||] } in
    t.maps <- t.maps @ [ m ];
    m

(* [i] is non-negative: [register] rejects the rest. *)
let set_goid m loid goid =
  let i = Oid.Loid.to_int loid in
  let len = Array.length m.goids in
  if i >= len then begin
    let goids = Array.make (max (i + 1) (2 * len)) (-1) in
    Array.blit m.goids 0 goids 0 len;
    m.goids <- goids
  end;
  m.goids.(i) <- goid

let registered t (db, loid) =
  match find_map t db with Some m -> lookup m loid >= 0 | None -> false

let register t ~gcls locals =
  if locals = [] then raise (Duplicate "cannot register an entity with no local objects");
  List.iter
    (fun (db, loid) ->
      if Oid.Loid.to_int loid < 0 then
        invalid_arg
          (Printf.sprintf "Goid_table.register: negative LOid %s of database %s"
             (Oid.Loid.to_string loid) db))
    locals;
  List.iter
    (fun ((db, loid) as local) ->
      if registered t local then
        raise
          (Duplicate
             (Printf.sprintf "object %s of database %s already registered"
                (Oid.Loid.to_string loid) db)))
    locals;
  let maps = List.map (fun (db, _) -> map_for t db) locals in
  let goid = t.next_goid in
  let e = { gcls; locals; dbs = List.map (fun m -> m.index) maps } in
  if goid >= Array.length t.entities then begin
    let entities = Array.make (max 16 (2 * goid)) e in
    Array.blit t.entities 0 entities 0 goid;
    t.entities <- entities
  end;
  t.entities.(goid) <- e;
  t.next_goid <- goid + 1;
  List.iter2 (fun m (_, loid) -> set_goid m loid goid) maps locals;
  let goid = Oid.Goid.of_int goid in
  let r =
    match Hashtbl.find_opt t.by_class gcls with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.by_class gcls r;
      r
  in
  r := goid :: !r;
  goid

let tick meter =
  match meter with Some m -> Meter.add_goid_lookups m 1 | None -> ()

let entity t goid =
  let g = Oid.Goid.to_int goid in
  if g >= 0 && g < t.next_goid then Some (Array.unsafe_get t.entities g)
  else None

let local_map t ~db =
  match find_map t db with Some m -> m | None -> { db; index = -1; goids = [||] }

let goid_in m ?meter loid =
  tick meter;
  match lookup m loid with -1 -> None | g -> Some (Oid.Goid.of_int g)

let goid_of_local t ?meter ~db loid = goid_in (local_map t ~db) ?meter loid

let locals_of t ?meter goid =
  tick meter;
  match entity t goid with Some e -> e.locals | None -> []

let db_names t = List.map (fun m -> m.db) t.maps

let local_dbs t ?meter goid =
  tick meter;
  match entity t goid with Some e -> e.dbs | None -> []

let isomers_in t m ?meter loid =
  tick meter;
  match lookup m loid with
  | -1 -> []
  | g ->
    List.filter
      (fun (db', loid') ->
        not (String.equal m.db db' && Oid.Loid.equal loid loid'))
      t.entities.(g).locals

let gcls_of t goid = Option.map (fun e -> e.gcls) (entity t goid)

let goids_of_class t ~gcls =
  match Hashtbl.find_opt t.by_class gcls with
  | Some r -> List.rev !r
  | None -> []

let entity_count t = t.next_goid

let pp ppf t =
  let pp_entity goid e =
    Format.fprintf ppf "%a (%s): %s@," Oid.Goid.pp goid e.gcls
      (String.concat ", "
         (List.map (fun (db, l) -> Printf.sprintf "%s@%s" (Oid.Loid.to_string l) db) e.locals))
  in
  Format.fprintf ppf "@[<v>";
  for g = 0 to t.next_goid - 1 do
    pp_entity (Oid.Goid.of_int g) t.entities.(g)
  done;
  Format.fprintf ppf "@]"

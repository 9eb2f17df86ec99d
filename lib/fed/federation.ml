open Msdq_odb

type t = {
  databases : (string * Database.t) list;
  sites : (string * int) list;
  gs : Global_schema.t;
  goid_table : Goid_table.t;
  keys : (string * string) list;
}

let create ~databases ~mapping ~keys =
  let gs = Global_schema.integrate ~databases ~mapping in
  let goid_table = Isomerism.identify gs ~databases ~keys in
  let sites = List.mapi (fun i (name, _) -> (name, i + 1)) databases in
  { databases; sites; gs; goid_table; keys }

let databases t = t.databases

(* Name lookups compare with [String.equal]: the polymorphic [List.assoc]
   costs several times more per probe, and these run per request. *)
let assoc name l = snd (List.find (fun (n, _) -> String.equal n name) l)

let db t name = assoc name t.databases

let db_names t = List.map fst t.databases

let site_of t name = assoc name t.sites

let db_at t site =
  List.find_map (fun (name, s) -> if s = site then Some name else None) t.sites

let global_site _t = 0

let key_of t gcls =
  match List.assoc_opt gcls t.keys with
  | Some k -> k
  | None -> raise Not_found
let global_schema t = t.gs
let goids t = t.goid_table

let total_objects t =
  List.fold_left (fun acc (_, db) -> acc + Database.cardinality db) 0 t.databases

let pp ppf t =
  Format.fprintf ppf "@[<v>federation of %d databases, %d objects, %d entities@,"
    (List.length t.databases) (total_objects t)
    (Goid_table.entity_count t.goid_table);
  List.iter
    (fun (name, db) ->
      Format.fprintf ppf "  %s @@ site %d: %d objects@," name (site_of t name)
        (Database.cardinality db))
    t.databases;
  Format.fprintf ppf "@]"

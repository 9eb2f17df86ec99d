open Msdq_odb

type gvalue =
  | Gnull
  | Gprim of Value.t
  | Gref of Oid.Goid.t
  | Gset of Value.t list
type gobject = { goid : Oid.Goid.t; gcls : string; fields : gvalue array }

type stats = {
  entities : int;
  source_objects : int;
  fields_merged : int;
  ref_translations : int;
  conflicts : int;
}

type t = {
  by_goid : gobject array;  (* indexed by GOid; [absent] where not built *)
  extents : (string, gobject list) Hashtbl.t;
  attr_index : (string * string, int) Hashtbl.t;  (* (gcls, attr) -> slot *)
  stats : stats;
}

let gvalue_equal a b =
  match (a, b) with
  | Gnull, Gnull -> true
  | Gprim x, Gprim y -> Value.equal x y
  | Gref x, Gref y -> Oid.Goid.equal x y
  | Gset xs, Gset ys -> List.equal Value.equal xs ys
  | (Gnull | Gprim _ | Gref _ | Gset _), _ -> false

(* The filler of [by_goid] slots whose entity was not materialized. *)
let absent = { goid = Oid.Goid.of_int (-1); gcls = ""; fields = [||] }

(* One source database as the outerjoin reads it: the GOid column for
   reference translation, and the local slot of each attribute of the
   global class being built for the last local class seen there (-1 where
   that class lacks the attribute). *)
type source = {
  s_name : string;
  s_db : Database.t;
  s_goids : Goid_table.local_map;
  mutable s_cls : string option;
  mutable s_slots : int array;
}

let build ?classes ?(multi_valued = false) ?meter fed =
  let gs = Federation.global_schema fed in
  let table = Federation.goids fed in
  let wanted =
    match classes with
    | Some cs -> cs
    | None -> List.map (fun gc -> gc.Global_schema.gname) (Global_schema.classes gs)
  in
  let by_goid = Array.make (Goid_table.entity_count table) absent in
  let sources =
    List.map
      (fun (name, db) ->
        {
          s_name = name;
          s_db = db;
          s_goids = Goid_table.local_map table ~db:name;
          s_cls = None;
          s_slots = [||];
        })
      (Federation.databases fed)
  in
  let source name = List.find (fun s -> String.equal s.s_name name) sources in
  let extents = Hashtbl.create 16 in
  let attr_index = Hashtbl.create 64 in
  let entities = ref 0
  and source_objects = ref 0
  and fields_merged = ref 0
  and ref_translations = ref 0
  and conflicts = ref 0 in
  let materialize_class gcls =
    let gc =
      match Global_schema.find gs gcls with
      | Some gc -> gc
      | None -> raise (Global_schema.Conflict (Printf.sprintf "unknown global class %s" gcls))
    in
    List.iteri
      (fun i a -> Hashtbl.replace attr_index (gcls, a.Schema.aname) i)
      gc.Global_schema.attrs;
    let attrs = Array.of_list gc.Global_schema.attrs in
    let arity = Array.length attrs in
    (* Each global attribute's slot in [cls], resolved once per (global
       class, database) rather than per object: a database's objects of
       one class share the class-name string. *)
    List.iter (fun src -> src.s_cls <- None) sources;
    let slots_for src cls =
      match src.s_cls with
      | Some c when c == cls -> src.s_slots
      | Some _ | None ->
        let schema = Database.schema src.s_db in
        src.s_slots <-
          Array.map
            (fun a ->
              match Schema.attr_index schema ~cls ~attr:a.Schema.aname with
              | Some i -> i
              | None -> -1)
            attrs;
        src.s_cls <- Some cls;
        src.s_slots
    in
    let build_entity goid =
      let fields = Array.make arity Gnull in
      let locals = Goid_table.locals_of table ?meter goid in
      List.iter
        (fun (db_name, loid) ->
          incr source_objects;
          let src = source db_name in
          match Database.get src.s_db loid with
          | None -> ()
          | Some obj ->
            let slots = slots_for src (Dbobject.cls obj) in
            for i = 0 to arity - 1 do
              let slot = slots.(i) in
              if slot >= 0 then
                match Dbobject.field obj slot with
                | Value.Null -> ()
                | v ->
                  incr fields_merged;
                  let gv =
                    match v with
                    | Value.Ref l -> (
                      incr ref_translations;
                      match Goid_table.goid_in src.s_goids ?meter l with
                      | Some g -> Gref g
                      | None -> Gnull (* unregistered target: treat as missing *))
                    | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ ->
                      Gprim v
                    | Value.Null -> assert false
                  in
                  (match (fields.(i), gv) with
                  | Gnull, _ -> fields.(i) <- gv
                  | existing, _ when gvalue_equal existing gv -> ()
                  (* Disagreeing primitive values: under multi-valued
                     integration the global attribute collects them all;
                     otherwise it is a conflict and the first value wins. *)
                  | Gprim x, Gprim y when multi_valued ->
                    fields.(i) <- Gset [ x; y ]
                  | Gset xs, Gprim y when multi_valued ->
                    if not (List.exists (Value.equal y) xs) then
                      fields.(i) <- Gset (xs @ [ y ])
                  | _, _ -> incr conflicts)
            done)
        locals;
      incr entities;
      let gobj = { goid; gcls; fields } in
      by_goid.(Oid.Goid.to_int goid) <- gobj;
      gobj
    in
    let objs = List.map build_entity (Goid_table.goids_of_class table ~gcls) in
    Hashtbl.replace extents gcls objs
  in
  List.iter materialize_class wanted;
  {
    by_goid;
    extents;
    attr_index;
    stats =
      {
        entities = !entities;
        source_objects = !source_objects;
        fields_merged = !fields_merged;
        ref_translations = !ref_translations;
        conflicts = !conflicts;
      };
  }

let find t goid =
  let g = Oid.Goid.to_int goid in
  if g >= 0 && g < Array.length t.by_goid then
    match Array.unsafe_get t.by_goid g with
    | o when o == absent -> None
    | o -> Some o
  else None

let extent t gcls =
  match Hashtbl.find_opt t.extents gcls with Some l -> l | None -> []

let attr_slot t ~gcls ~attr = Hashtbl.find_opt t.attr_index (gcls, attr)

let field t gobj attr =
  match attr_slot t ~gcls:gobj.gcls ~attr with
  | Some i -> Some gobj.fields.(i)
  | None -> None

let stats t = t.stats

let pp_gvalue ppf = function
  | Gnull -> Format.pp_print_string ppf "-"
  | Gprim v -> Value.pp ppf v
  | Gref g -> Oid.Goid.pp ppf g
  | Gset vs ->
    Format.fprintf ppf "{%s}" (String.concat "|" (List.map Value.to_string vs))

let pp_gobject ppf o =
  Format.fprintf ppf "@[<h>%s(%a: %a)@]" o.gcls Oid.Goid.pp o.goid
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_gvalue)
    (Array.to_list o.fields)

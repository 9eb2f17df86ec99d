open Msdq_odb
open Msdq_fed
open Msdq_query

type config = {
  seed : int;
  n_db : int;
  n_classes : int;
  n_entities : int;
  n_pred_attrs : int;
  domain : int;
  p_copy : float;
  p_host : float;
  p_attr_present : float;
  p_null : float;
  p_divergent : float;
}

let default =
  {
    seed = 42;
    n_db = 3;
    n_classes = 3;
    n_entities = 24;
    n_pred_attrs = 3;
    domain = 4;
    p_copy = 0.4;
    p_host = 0.8;
    p_attr_present = 0.7;
    p_null = 0.15;
    p_divergent = 0.0;
  }

let dense = { default with p_host = 1.0; p_attr_present = 0.75; p_null = 0.12 }

let class_name k = Printf.sprintf "K%d" k
let db_name i = Printf.sprintf "DB%d" (i + 1)
let pred_attr j = Printf.sprintf "p%d" j

(* One real-world entity of one class: its shared attribute values (drawn
   once, so all copies are consistent) and its successor entity. *)
type entity = { values : int array; next_entity : int; mutable dbs : int list }

let generate cfg =
  let rng = Rng.create ~seed:cfg.seed in
  if cfg.n_classes < 1 then invalid_arg "Synth.generate: n_classes >= 1";
  if cfg.n_db < 1 then invalid_arg "Synth.generate: n_db >= 1";
  (* Entity structure. *)
  let entities =
    Array.init cfg.n_classes (fun _k ->
        Array.init cfg.n_entities (fun _e ->
            {
              values =
                Array.init cfg.n_pred_attrs (fun _ -> Rng.int rng ~bound:cfg.domain);
              next_entity = Rng.int rng ~bound:cfg.n_entities;
              dbs = [];
            }))
  in
  (* Hosting: which databases hold a constituent of each class. *)
  let hosting =
    Array.init cfg.n_classes (fun _k ->
        let dbs =
          List.filter
            (fun _ -> Rng.bool rng ~p:cfg.p_host)
            (List.init cfg.n_db (fun i -> i))
        in
        match dbs with [] -> [ Rng.int rng ~bound:cfg.n_db ] | dbs -> dbs)
  in
  (* Entity placement: home database plus extra copies. *)
  Array.iteri
    (fun k class_entities ->
      Array.iter
        (fun e ->
          let hosts = hosting.(k) in
          let home = Rng.pick rng hosts in
          let extras =
            List.filter (fun d -> d <> home && Rng.bool rng ~p:cfg.p_copy) hosts
          in
          e.dbs <- home :: extras)
        class_entities)
    entities;
  (* Per-database constituent schemas: which attributes survive. *)
  let attr_present =
    (* attr_present.(k).(i) = (pred attr j present?[], next present?) *)
    Array.init cfg.n_classes (fun k ->
        Array.init cfg.n_db (fun i ->
            if not (List.mem i hosting.(k)) then ([||], false)
            else
              let preds =
                Array.init cfg.n_pred_attrs (fun _ ->
                    Rng.bool rng ~p:cfg.p_attr_present)
              in
              let has_next =
                k < cfg.n_classes - 1 && Rng.bool rng ~p:cfg.p_attr_present
              in
              (preds, has_next)))
  in
  (* Build each database: schema, then objects from the deepest class up so
     references always point to existing objects. *)
  let databases =
    List.init cfg.n_db (fun i ->
        let class_defs =
          List.filter_map
            (fun k ->
              if not (List.mem i hosting.(k)) then None
              else
                let preds, has_next = attr_present.(k).(i) in
                let attrs =
                  ({ Schema.aname = "key"; atype = Schema.Prim Schema.P_int }
                  :: List.filter_map
                       (fun j ->
                         if preds.(j) then
                           Some
                             {
                               Schema.aname = pred_attr j;
                               atype = Schema.Prim Schema.P_int;
                             }
                         else None)
                       (List.init cfg.n_pred_attrs (fun j -> j)))
                  @
                  if has_next then
                    [
                      {
                        Schema.aname = "next";
                        atype = Schema.Complex (class_name (k + 1));
                      };
                    ]
                  else []
                in
                Some { Schema.cname = class_name k; attrs })
            (List.init cfg.n_classes (fun k -> k))
        in
        (* A class whose [next] survives needs its domain class in the same
           schema even if this database hosts no constituent extent of it;
           drop [next] instead when the domain class is absent. *)
        let class_names = List.map (fun cd -> cd.Schema.cname) class_defs in
        let class_defs =
          List.map
            (fun cd ->
              {
                cd with
                Schema.attrs =
                  List.filter
                    (fun a ->
                      match a.Schema.atype with
                      | Schema.Prim _ -> true
                      | Schema.Complex c -> List.mem c class_names)
                    cd.Schema.attrs;
              })
            class_defs
        in
        Database.create ~name:(db_name i) ~schema:(Schema.create class_defs))
  in
  let dbs = Array.of_list databases in
  (* loids.(k).(e) for database i: the local copy, if any. *)
  let loids = Array.init cfg.n_classes (fun _ -> Array.make (cfg.n_db * cfg.n_entities) None) in
  let loid_slot i e = (i * cfg.n_entities) + e in
  for k = cfg.n_classes - 1 downto 0 do
    Array.iteri
      (fun e ent ->
        List.iter
          (fun i ->
            let db = dbs.(i) in
            let schema = Database.schema db in
            match Schema.find_class schema (class_name k) with
            | None -> ()
            | Some cd ->
              let fields =
                List.map
                  (fun (a : Schema.attr) ->
                    if String.equal a.Schema.aname "key" then Value.Int e
                    else
                      match a.Schema.atype with
                      | Schema.Prim _ ->
                        (* pred attr: the entity's shared value, possibly
                           nulled; with probability p_divergent this copy
                           records its own value instead (multi-valued
                           integration scenario) *)
                        let j = Scanf.sscanf a.Schema.aname "p%d" (fun j -> j) in
                        if Rng.bool rng ~p:cfg.p_null then Value.Null
                        else if Rng.bool rng ~p:cfg.p_divergent then
                          Value.Int (Rng.int rng ~bound:cfg.domain)
                        else Value.Int ent.values.(j)
                      | Schema.Complex _ -> (
                        if Rng.bool rng ~p:(cfg.p_null *. 0.5) then Value.Null
                        else
                          match
                            loids.(k + 1).(loid_slot i ent.next_entity)
                          with
                          | Some l -> Value.Ref l
                          | None -> Value.Null))
                  cd.Schema.attrs
              in
              let obj = Database.add db ~cls:(class_name k) fields in
              loids.(k).(loid_slot i e) <- Some (Dbobject.loid obj))
          ent.dbs)
      entities.(k)
  done;
  let named = List.mapi (fun i db -> (db_name i, db)) databases in
  let mapping =
    List.init cfg.n_classes (fun k ->
        (class_name k, List.map (fun i -> (db_name i, class_name k)) hosting.(k)))
  in
  let keys = List.init cfg.n_classes (fun k -> (class_name k, "key")) in
  Federation.create ~databases:named ~mapping ~keys

let random_pred rng cfg =
  let depth = Rng.int rng ~bound:cfg.n_classes in
  let path = List.init depth (fun _ -> "next") @ [ pred_attr (Rng.int rng ~bound:cfg.n_pred_attrs) ] in
  let op = Rng.pick rng [ Predicate.Eq; Predicate.Eq; Predicate.Le; Predicate.Ne ] in
  let operand = Value.Int (Rng.int rng ~bound:cfg.domain) in
  Predicate.make ~path ~op ~operand

let rec random_tree rng atoms =
  match atoms with
  | [] -> Cond.tt
  | [ a ] -> if Rng.bool rng ~p:0.2 then Cond.Not (Cond.Atom a) else Cond.Atom a
  | _ ->
    let n = List.length atoms in
    let split = 1 + Rng.int rng ~bound:(n - 1) in
    let left = List.filteri (fun idx _ -> idx < split) atoms in
    let right = List.filteri (fun idx _ -> idx >= split) atoms in
    let l = random_tree rng left and r = random_tree rng right in
    if Rng.bool rng ~p:0.5 then Cond.And [ l; r ] else Cond.Or [ l; r ]

let random_query rng cfg ~disjunctive =
  let n_preds = Rng.range rng ~lo:1 ~hi:3 in
  let atoms = List.init n_preds (fun _ -> random_pred rng cfg) in
  let where =
    if disjunctive then random_tree rng atoms
    else Cond.conj (List.map (fun a -> Cond.Atom a) atoms)
  in
  let target_depth = Rng.int rng ~bound:cfg.n_classes in
  let nested_target =
    List.init target_depth (fun _ -> "next")
    @ [ pred_attr (Rng.int rng ~bound:cfg.n_pred_attrs) ]
  in
  Ast.make ~range_class:(class_name 0)
    ~targets:[ [ "key" ]; nested_target ]
    ~where ()

let case ?(disjunctive = false) ?(accept = fun _ _ -> true) cfg seed =
  let rec draw attempt =
    if attempt > 20 then None
    else
      let cfg = { cfg with seed = (seed * 37) + attempt } in
      let fed = generate cfg in
      let rng = Rng.create ~seed:(seed + (attempt * 1013)) in
      let query = random_query rng cfg ~disjunctive in
      let schema = Global_schema.schema (Federation.global_schema fed) in
      match Analysis.analyze schema query with
      | analysis when accept fed analysis -> Some (fed, analysis)
      | _ | (exception Analysis.Error _) -> draw (attempt + 1)
  in
  draw 0

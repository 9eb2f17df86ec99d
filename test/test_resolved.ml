(* The resolved walks must answer exactly as the by-name walks they replace
   on the data paths: Slot_path against Predicate.fetch/eval, the
   global-slot walk against Global_eval.fetch, and the dense Database and
   Goid_table lookups against a plain association-list model. Random
   synthetic federations supply missing attributes, nulls, isomeric copies
   and multi-valued integration; random paths add unknown attributes,
   paths continuing through a primitive attribute and roots of the wrong
   class. *)

open Msdq_odb
open Msdq_fed
module Synth = Msdq_workload.Synth

let gen_config =
  QCheck.Gen.(
    map
      (fun ((seed, n_db, n_classes, n_entities), (present, null, copy, divergent)) ->
        {
          Synth.default with
          Synth.seed;
          n_db;
          n_classes;
          n_entities;
          p_attr_present = present;
          p_null = null;
          p_copy = copy;
          p_host = 0.8;
          p_divergent = divergent;
        })
      (pair
         (quad (int_bound 100_000) (int_range 1 3) (int_range 1 3) (int_range 0 25))
         (quad (float_range 0.3 1.0) (float_range 0.0 0.4) (float_range 0.0 0.8)
            (oneofl [ 0.0; 0.0; 0.3 ]))))

(* Attribute names of the synthetic schemas, plus one no class defines. *)
let gen_path =
  QCheck.Gen.(list_size (int_range 0 4) (oneofl [ "p0"; "p1"; "p2"; "next"; "next"; "key"; "zz" ]))

let gen_operand = QCheck.Gen.(map (fun i -> Value.Int i) (int_range 0 4))
let gen_op = QCheck.Gen.oneofl Relop.[ Eq; Ne; Lt; Le; Gt; Ge ]

let print_case (cfg, paths, _, _) =
  Printf.sprintf "seed %d dbs %d classes %d entities %d present %g null %g copy %g divergent %g; paths %s"
    cfg.Synth.seed cfg.Synth.n_db cfg.Synth.n_classes cfg.Synth.n_entities
    cfg.Synth.p_attr_present cfg.Synth.p_null cfg.Synth.p_copy cfg.Synth.p_divergent
    (String.concat " | " (List.map Path.to_string paths))

let arbitrary_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(quad gen_config (list_size (int_range 1 4) gen_path) gen_op gen_operand)

(* A walk's result with its exception, if any, as comparable text. *)
let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let fail fmt = QCheck.Test.fail_reportf fmt

let local_fetched = function
  | Ok (Predicate.Found v) -> "found " ^ Value.to_string v
  | Ok (Predicate.Missing b) ->
    Printf.sprintf "missing %s@%s %s %s" (Dbobject.cls b.Predicate.obj)
      (Oid.Loid.to_string (Dbobject.loid b.Predicate.obj))
      (Path.to_string b.Predicate.rest)
      (match b.Predicate.cause with
      | Predicate.Missing_attribute -> "attr"
      | Predicate.Null_value -> "null")
  | Error e -> "raises " ^ e

let local_outcome = function
  | Ok Predicate.Sat -> "sat"
  | Ok Predicate.Viol -> "viol"
  | Ok (Predicate.Blocked b) -> local_fetched (Ok (Predicate.Missing b))
  | Error e -> "raises " ^ e

(* Touch's by-name walk: every object reached through a reference. *)
let refs_by_name db obj path =
  let rec walk obj acc = function
    | [] -> List.rev acc
    | name :: rest -> (
      match Database.field_by_name db obj name with
      | Some (Value.Ref _ as v) -> (
        match Database.deref db v with
        | Some next -> walk next (next :: acc) rest
        | None -> List.rev acc)
      | Some _ | None -> List.rev acc)
  in
  walk obj [] path

let same_local (cfg, paths, op, operand) =
  let fed = Synth.generate cfg in
  List.iter
    (fun (_, db) ->
      let schema = Database.schema db in
      let all = List.concat_map (Database.extent db) (Schema.class_names schema) in
      List.iter
        (fun root ->
          List.iter
            (fun path ->
              let walk = Slot_path.resolve db path in
              (* every object of the database, so roots of other classes
                 exercise the re-resolution *)
              List.iter
                (fun obj ->
                  let by_name = Meter.create () and resolved = Meter.create () in
                  let want =
                    local_fetched (attempt (fun () -> Predicate.fetch ~meter:by_name db obj path))
                  in
                  let got = local_fetched (attempt (fun () -> Slot_path.fetch ~meter:resolved walk obj)) in
                  let pred = { Predicate.path; op; operand } in
                  let want_eval =
                    local_outcome (attempt (fun () -> Predicate.eval ~meter:by_name db obj pred))
                  in
                  let got_eval =
                    local_outcome
                      (attempt (fun () -> Slot_path.eval ~meter:resolved walk ~op ~operand obj))
                  in
                  let refs = List.map Dbobject.loid (refs_by_name db obj path) in
                  let seen = ref [] in
                  Slot_path.iter_refs walk obj (fun o -> seen := Dbobject.loid o :: !seen);
                  if want <> got || want_eval <> got_eval then
                    fail "%s from %s (root %s): by name %s / %s, resolved %s / %s"
                      (Path.to_string path) (Dbobject.cls obj) root want want_eval got got_eval;
                  if Meter.read by_name <> Meter.read resolved then
                    fail "%s from %s: meters differ" (Path.to_string path) (Dbobject.cls obj);
                  if not (List.equal Oid.Loid.equal refs (List.rev !seen)) then
                    fail "%s from %s: references differ" (Path.to_string path) (Dbobject.cls obj))
                all)
            paths)
        (Schema.class_names schema))
    (Federation.databases fed);
  true

let global_fetched = function
  | Ok (Global_eval.Found v) -> "found " ^ Value.to_string v
  | Ok (Global_eval.Found_set vs) ->
    "set " ^ String.concat "," (List.map Value.to_string vs)
  | Ok (Global_eval.Missing b) ->
    Printf.sprintf "missing %s %s" (Oid.Goid.to_string b.Global_eval.at.Materialize.goid)
      (Path.to_string b.Global_eval.rest)
  | Error e -> "raises " ^ e

let same_global (cfg, paths, op, operand) =
  let fed = Synth.generate cfg in
  let classes =
    List.map (fun gc -> gc.Global_schema.gname) (Global_schema.classes (Federation.global_schema fed))
  in
  (* All classes, or only the first two, so some references lead to
     entities that were not materialized. *)
  let subsets = [ classes; List.filteri (fun i _ -> i < 2) classes ] in
  List.iter
    (fun subset ->
      let view =
        Materialize.build ~classes:subset ~multi_valued:(cfg.Synth.p_divergent > 0.0) fed
      in
      List.iter
        (fun root ->
          List.iter
            (fun path ->
              let r = Global_eval.resolve view ~root path in
              let pred = { Predicate.path; op; operand } in
              List.iter
                (fun gobj ->
                  let by_name = Meter.create () and resolved = Meter.create () in
                  let want =
                    global_fetched (attempt (fun () -> Global_eval.fetch ~meter:by_name view gobj path))
                  in
                  let got =
                    global_fetched (attempt (fun () -> Global_eval.fetch_resolved ~meter:resolved r gobj))
                  in
                  let want_eval =
                    attempt (fun () -> Global_eval.eval ~meter:by_name view gobj pred)
                  and got_eval = attempt (fun () -> Global_eval.eval_resolved ~meter:resolved r gobj pred) in
                  let want_proj = attempt (fun () -> Global_eval.project ~meter:by_name view gobj path)
                  and got_proj =
                    attempt (fun () -> Global_eval.project_resolved ~meter:resolved r gobj)
                  in
                  let truth = Result.map Global_eval.truth_of_outcome in
                  if want <> got then
                    fail "%s on %s (root %s): by name %s, resolved %s" (Path.to_string path)
                      gobj.Materialize.gcls root want got;
                  if truth want_eval <> truth got_eval || want_proj <> got_proj then
                    fail "%s on %s: eval or projection differs" (Path.to_string path)
                      gobj.Materialize.gcls;
                  if Meter.read by_name <> Meter.read resolved then
                    fail "%s on %s: meters differ" (Path.to_string path) gobj.Materialize.gcls)
                (List.concat_map (Materialize.extent view) subset))
            paths)
        subset)
    subsets;
  true

let prop_local =
  QCheck.Test.make ~name:"resolved local walk = Predicate.fetch/eval" ~count:300 arbitrary_case
    same_local

let prop_global =
  QCheck.Test.make ~name:"resolved global walk = Global_eval.fetch/eval" ~count:300
    arbitrary_case same_global

(* ---- Dense lookups against an association-list model ---- *)

(* A table registered in a random order over LOids up to 3000, a few far
   past them (the column then grows to reach the LOid, not by doubling) and
   negative ones (rejected), probed by every database name including an
   unknown one. *)
let gen_registrations =
  QCheck.Gen.(
    let loid = frequency [ (8, int_range 0 3000); (1, int_range (-5) (-1)); (1, int_range 3001 20_000) ] in
    list_size (int_range 0 60)
      (pair (oneofl [ "A"; "B" ]) (list_size (int_range 1 3) (pair (oneofl [ "DB1"; "DB2"; "DB3" ]) loid))))

let print_registrations regs =
  String.concat "; "
    (List.map
       (fun (gcls, locals) ->
         gcls ^ ":" ^ String.concat "," (List.map (fun (db, l) -> Printf.sprintf "%s/%d" db l) locals))
       regs)

let same_goid_table regs =
  let t = Goid_table.create () in
  (* the model: registered entities in GOid order *)
  let model = ref [] in
  (* the locals of rejected registrations, none of which may show *)
  let rejected = ref [] in
  List.iter
    (fun (gcls, locals) ->
      let negative = List.exists (fun (_, l) -> l < 0) locals in
      let locals = List.map (fun (db, l) -> (db, Oid.Loid.of_int l)) locals in
      let dup =
        List.exists
          (fun (db, l) ->
            List.exists
              (fun (_, _, ls) -> List.exists (fun (db', l') -> db = db' && Oid.Loid.equal l l') ls)
              !model)
          locals
      in
      match Goid_table.register t ~gcls locals with
      | g ->
        if negative then fail "negative LOid accepted";
        if dup then fail "duplicate accepted";
        if Oid.Goid.to_int g <> List.length !model then fail "GOids not sequential";
        model := !model @ [ (g, gcls, locals) ]
      | exception Invalid_argument _ ->
        if not negative then fail "non-negative LOids rejected";
        rejected := locals @ !rejected
      | exception Goid_table.Duplicate _ ->
        if negative then fail "negative LOid reported as a duplicate";
        if not dup then fail "fresh entity rejected";
        rejected := locals @ !rejected)
    regs;
  let model = !model in
  let goid_of db l =
    List.find_map
      (fun (g, _, ls) ->
        if List.exists (fun (db', l') -> db = db' && Oid.Loid.equal l l') ls then Some g else None)
      model
  in
  let probes =
    List.concat_map (fun (_, _, ls) -> ls) model
    @ !rejected
    @ List.concat_map
        (fun db -> List.map (fun l -> (db, Oid.Loid.of_int l)) [ -7; -1; 0; 1; 2999; 3001; 20_001; max_int ])
        [ "DB1"; "DB2"; "DB3"; "nowhere" ]
  in
  List.iter
    (fun (db, l) ->
      let want = goid_of db l in
      let meter = Meter.create () in
      let map = Goid_table.local_map t ~db in
      let direct = Goid_table.goid_of_local t ~meter ~db l
      and via_map = Goid_table.goid_in map ~meter l in
      if
        not
          (Option.equal Oid.Goid.equal want direct && Option.equal Oid.Goid.equal want via_map)
      then fail "goid of %s@%s differs" (Oid.Loid.to_string l) db;
      let isomers =
        match want with
        | None -> []
        | Some g ->
          let _, _, ls = List.find (fun (g', _, _) -> Oid.Goid.equal g g') model in
          List.filter (fun (db', l') -> not (db = db' && Oid.Loid.equal l l')) ls
      in
      if
        Goid_table.isomers_in t map ~meter l <> isomers
      then fail "isomers of %s@%s differ" (Oid.Loid.to_string l) db;
      if (Meter.read meter).Meter.goid_lookups <> 3 then fail "lookups not charged once each")
    probes;
  let n = List.length model in
  if Goid_table.entity_count t <> n then fail "entity count";
  List.iter
    (fun g ->
      let goid = Oid.Goid.of_int g in
      let want = List.find_opt (fun (g', _, _) -> Oid.Goid.equal goid g') model in
      let locals = Option.fold ~none:[] ~some:(fun (_, _, ls) -> ls) want in
      if
        Goid_table.locals_of t goid <> locals
        || Goid_table.gcls_of t goid <> Option.map (fun (_, c, _) -> c) want
      then fail "entity %d differs" g;
      let meter = Meter.create () in
      if
        List.map (List.nth (Goid_table.db_names t)) (Goid_table.local_dbs t ~meter goid)
        <> List.map fst locals
      then fail "database numbers of entity %d differ" g;
      if (Meter.read meter).Meter.goid_lookups <> 1 then fail "local_dbs not charged once")
    ([ -3; -1; n; n + 1; max_int ] @ List.init n Fun.id);
  (* Databases are numbered in order of first registration. *)
  let first_seen =
    List.fold_left
      (fun seen (_, _, ls) ->
        List.fold_left (fun seen (db, _) -> if List.mem db seen then seen else seen @ [ db ]) seen ls)
      [] model
  in
  if Goid_table.db_names t <> first_seen then fail "database numbering";
  List.iter
    (fun gcls ->
      let want = List.filter_map (fun (g, c, _) -> if c = gcls then Some g else None) model in
      if not (List.equal Oid.Goid.equal want (Goid_table.goids_of_class t ~gcls)) then
        fail "class %s members differ" gcls)
    [ "A"; "B"; "C" ];
  true

let prop_goid_table =
  QCheck.Test.make ~name:"dense Goid_table = association-list model" ~count:300
    (QCheck.make ~print:print_registrations gen_registrations)
    same_goid_table

let same_database cfg =
  let fed = Synth.generate cfg in
  List.iter
    (fun (_, db) ->
      let n = Database.cardinality db in
      let objs =
        List.concat_map (Database.extent db) (Schema.class_names (Database.schema db))
      in
      if List.length objs <> n then fail "cardinality %d, %d objects" n (List.length objs);
      List.iter
        (fun obj ->
          let loid = Dbobject.loid obj in
          (match Database.get db loid with
          | Some o when o == obj -> ()
          | Some _ | None -> fail "get %s" (Oid.Loid.to_string loid));
          match Database.locate db loid with
          | Some (ext, row) when Extent.handle ext row == obj -> ()
          | Some _ | None -> fail "locate %s" (Oid.Loid.to_string loid))
        objs;
      List.iter
        (fun i ->
          let l = Oid.Loid.of_int i in
          if Option.is_some (Database.get db l) || Option.is_some (Database.locate db l) then
            fail "LOid %d should be unknown" i)
        [ -1; -100; n; n + 1; max_int; min_int ])
    (Federation.databases fed);
  true

let prop_database =
  QCheck.Test.make ~name:"dense Database lookups" ~count:300
    (QCheck.make
       ~print:(fun c -> Printf.sprintf "seed %d entities %d" c.Synth.seed c.Synth.n_entities)
       gen_config)
    same_database

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_local; prop_global; prop_goid_table; prop_database ]

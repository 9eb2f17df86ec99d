(* The resolved walks must answer exactly as the by-name walks they replace
   on the data paths: the column walk (Scan) against Predicate.fetch/eval
   and the by-name reference walk, the global-slot walk against
   Global_eval.fetch, and the dense Database and Goid_table lookups against
   a plain association-list model. Random synthetic federations supply
   missing attributes, nulls, isomeric copies and multi-valued
   integration; random paths add unknown attributes, paths continuing
   through a primitive attribute and roots of every class. *)

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

(* The by-name reference walk: every object reached through a
   reference. *)
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

(* The column walk's answer for path [i] from root row [r], as the by-name
   walk gives it. *)
let scan_fetch walk i r =
  let step = Scan.step walk i r in
  if step = Scan.length walk i then Predicate.Found (Scan.value walk i r)
  else
    Predicate.Missing
      {
        Predicate.obj = Scan.item walk i ~step r;
        rest = Scan.rest walk i ~step;
        cause = Scan.cause walk i ~step;
      }

(* One path by name over every root object, in order: each object's
   fetched text, truth and referenced objects, the meters of the fetches
   and of the evaluations; a walk that raises stops at its first
   exception, as the column walk must. *)
type by_name = {
  fetched : (string list, string) result;
  truths : (Truth.t list, string) result;
  fetch_work : Meter.snapshot;
  eval_work : Meter.snapshot;
  refs : Dbobject.t list;
}

let by_name db objs path op operand =
  let fm = Meter.create () and em = Meter.create () in
  let pred = { Predicate.path; op; operand } in
  let fetched =
    attempt (fun () ->
        List.map (fun obj -> local_fetched (Ok (Predicate.fetch ~meter:fm db obj path))) objs)
  in
  let truths =
    attempt (fun () ->
        List.map
          (fun obj -> Predicate.truth_of_outcome (Predicate.eval ~meter:em db obj pred))
          objs)
  in
  {
    fetched;
    truths;
    fetch_work = Meter.read fm;
    eval_work = Meter.read em;
    refs = List.concat_map (fun obj -> refs_by_name db obj path) objs;
  }

(* Path [i] of [walk] against [want]; [walk] held no exception. *)
let check_path ~what walk i want op operand =
  (match want.fetched with
  | Error e -> fail "%s: by name raises %s, the column walk does not" what e
  | Ok texts ->
    List.iteri
      (fun r text ->
        let got = local_fetched (Ok (scan_fetch walk i r)) in
        if got <> text then fail "%s row %d: by name %s, column walk %s" what r text got)
      texts);
  (* a walk that stopped at step k read k + 1 attributes *)
  let walked = ref 0 in
  for r = 0 to Extent.size (Scan.root walk) - 1 do
    walked := !walked + min (Scan.step walk i r + 1) (Scan.length walk i)
  done;
  if want.fetch_work.Meter.accesses <> !walked then
    fail "%s: fetch accesses %d by name, %d by column" what want.fetch_work.Meter.accesses
      !walked;
  let meter = Meter.create () in
  let got = attempt (fun () -> Scan.truths ~meter walk i ~op ~operand) in
  (match (want.truths, got) with
  | Ok truths, Ok codes ->
    List.iteri
      (fun r t ->
        if not (Truth.equal t (Truth.of_code (Bytes.get codes r))) then
          fail "%s row %d: by name %s, column %s" what r (Truth.to_string t)
            (Truth.to_string (Truth.of_code (Bytes.get codes r))))
      truths;
    if Meter.read meter <> want.eval_work then fail "%s: eval meters differ" what
  | Error e, Error e' when e = e' -> ()
  | Error e, _ -> fail "%s: by name eval raises %s, column walk does not" what e
  | Ok _, Error e -> fail "%s: column walk eval raises %s" what e)

(* Distinct objects per extent among [refs], against the walk's marks. *)
let check_touched ~what db walk refs =
  List.iter
    (fun cls ->
      let ext = Database.extent_handle db cls in
      let want =
        List.length
          (List.sort_uniq Oid.Loid.compare
             (List.filter_map
                (fun o -> if String.equal (Dbobject.cls o) cls then Some (Dbobject.loid o) else None)
                refs))
      in
      if Scan.touched walk ext <> want then
        fail "%s: %d %s objects touched by name, %d by column" what want cls
          (Scan.touched walk ext))
    (Schema.class_names (Database.schema db))

let same_local (cfg, paths, op, operand) =
  let fed = Synth.generate cfg in
  let nonempty = List.filter (fun p -> p <> []) paths in
  List.iter
    (fun (_, db) ->
      List.iter
        (fun cls ->
          let root = Database.extent_handle db cls in
          let objs = Extent.to_list root in
          if List.mem [] paths then begin
            match Scan.run db root [| [] |] with
            | exception Invalid_argument _ -> ()
            | _ -> fail "empty path accepted from %s" cls
          end;
          (* Each path on its own: the walk raises exactly when the by-name
             walk raises on some root object, with its first message. *)
          let singles =
            List.map
              (fun path ->
                let what = Printf.sprintf "%s from %s" (Path.to_string path) cls in
                let want = by_name db objs path op operand in
                (match (want.fetched, attempt (fun () -> Scan.run db root [| path |])) with
                | Error e, Error e' when e = e' -> ()
                | Error e, Error e' -> fail "%s: by name raises %s, column walk %s" what e e'
                | Error e, Ok _ -> fail "%s: by name raises %s, column walk does not" what e
                | Ok _, Error e -> fail "%s: column walk raises %s" what e
                | Ok _, Ok walk ->
                  check_path ~what walk 0 want op operand;
                  check_touched ~what db walk want.refs);
                want)
              nonempty
          in
          (* All paths in one walk, sharing their prefixes. *)
          if nonempty <> [] then begin
            let what = Printf.sprintf "%s from %s" (String.concat " | " (List.map Path.to_string nonempty)) cls in
            let errors = List.filter_map (fun w -> Result.fold ~ok:(fun _ -> None) ~error:Option.some w.fetched) singles in
            match attempt (fun () -> Scan.run db root (Array.of_list nonempty)) with
            | Error e -> if not (List.mem e errors) then fail "%s: column walk raises %s" what e
            | Ok _ when errors <> [] -> fail "%s: by name raises %s, column walk does not" what (List.hd errors)
            | Ok walk ->
              List.iteri (fun i want -> check_path ~what walk i want op operand) singles;
              check_touched ~what db walk (List.concat_map (fun w -> w.refs) singles)
          end)
        (Schema.class_names (Database.schema db)))
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

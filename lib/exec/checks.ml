open Msdq_odb
open Msdq_fed
open Msdq_query
module Tracer = Msdq_obs.Tracer

type request = {
  origin_db : string;
  target_db : string;
  assistant : Oid.Loid.t;
  item : Oid.Loid.t;
  atom : int;
  pred : Predicate.t;
}

type verdict = {
  origin_db : string;
  item : Oid.Loid.t;
  atom : int;
  truth : Truth.t;
}

type built = {
  requests : request list;
  local_verdicts : verdict list;
  filtered : int;
  incapable : int;
  root_level : int;
  goid_lookups : int;
  work : Meter.snapshot;
}

(* A signature can only pre-decide a one-step equality suffix. *)
let signature_refutes ~meter signatures fed ~target_db ~assistant
    (pred : Predicate.t) =
  match signatures with
  | None -> false
  | Some catalog -> (
    match (pred.Predicate.path, pred.Predicate.op) with
    | [ attr ], Predicate.Eq -> (
      match Sig_catalog.find catalog ~db:target_db assistant with
      | None -> false
      | Some entry -> (
        let db = Federation.db fed target_db in
        match Database.get db assistant with
        | None -> false
        | Some obj -> (
          match
            Schema.attr_index (Database.schema db) ~cls:(Dbobject.cls obj) ~attr
          with
          | None -> false
          | Some index ->
            Meter.add_comparison meter;
            not
              (Sig_catalog.may_satisfy entry ~index ~op:Predicate.Eq
                 ~operand:pred.Predicate.operand))))
    | _ -> false)

(* The paper finds assistants "by checking the GOid mapping tables and the
   other component schemas": an assistant whose class cannot resolve the
   suffix even at schema level provides no data, so no request is sent. *)
let assistant_capable fed gs ~origin_db ~target_db ~item_cls rest =
  match Global_schema.global_of_local gs ~db:origin_db ~cls:item_cls with
  | None -> false
  | Some gcls -> (
    match Global_schema.constituent_of gs ~gcls ~db:target_db with
    | None -> false
    | Some target_cls -> (
      let schema = Database.schema (Federation.db fed target_db) in
      match Path.resolve schema ~root:target_cls rest with
      | Path.Full _ -> true
      | Path.Cut _ | Path.Invalid _ -> false))

module Int_tbl = Hashtbl.Make (Int)

let build ?signatures ?(tracer = Tracer.disabled) fed (analysis : Analysis.t)
    ~db:db_name ~root_class ~items =
  Tracer.with_span tracer ~cat:"dispatch" ~args:[ ("db", db_name) ]
    "checks.build"
  @@ fun () ->
  let gs = Federation.global_schema fed in
  let table = Federation.goids fed in
  let goids = Goid_table.local_map table ~db:db_name in
  let atoms = Array.of_list analysis.Analysis.atoms in
  let n_atoms = Array.length atoms in
  let meter = Meter.create () in
  (* (item, atom) pairs already considered, keyed [item * n_atoms + atom] *)
  let seen = Int_tbl.create 64 in
  (* [assistant_capable] per (target db, item class, suffix), not per
     isomer *)
  let capable = Hashtbl.create 16 in
  let capable_at ~target_db ~item_cls rest =
    let key = (target_db, item_cls, rest) in
    match Hashtbl.find_opt capable key with
    | Some b -> b
    | None ->
      let b =
        assistant_capable fed gs ~origin_db:db_name ~target_db ~item_cls rest
      in
      Hashtbl.add capable key b;
      b
  in
  let requests = ref [] in
  let local_verdicts = ref [] in
  let filtered = ref 0 in
  let incapable = ref 0 in
  let root_level = ref 0 in
  let consider (u : Local_result.unsolved) =
    let item_cls = Dbobject.cls u.Local_result.item in
    if String.equal item_cls root_class then incr root_level
    else
      let item_loid = Dbobject.loid u.Local_result.item in
      (* read before the key: an atom outside the query raises here rather
         than alias another (item, atom) pair *)
      let original = atoms.(u.Local_result.atom).Analysis.pred in
      let key = (Oid.Loid.to_int item_loid * n_atoms) + u.Local_result.atom in
      if not (Int_tbl.mem seen key) then begin
        Int_tbl.add seen key ();
        let pred =
          Predicate.make ~path:u.Local_result.rest ~op:original.Predicate.op
            ~operand:original.Predicate.operand
        in
        let isomers = Goid_table.isomers_in table goids ~meter item_loid in
        List.iter
          (fun (target_db, assistant) ->
            if not (capable_at ~target_db ~item_cls u.Local_result.rest) then
              incr incapable
            else if
              signature_refutes ~meter signatures fed ~target_db ~assistant
                pred
            then begin
              incr filtered;
              local_verdicts :=
                {
                  origin_db = db_name;
                  item = item_loid;
                  atom = u.Local_result.atom;
                  truth = Truth.False;
                }
                :: !local_verdicts
            end
            else
              requests :=
                {
                  origin_db = db_name;
                  target_db;
                  assistant;
                  item = item_loid;
                  atom = u.Local_result.atom;
                  pred;
                }
                :: !requests)
          isomers
      end
  in
  List.iter consider items;
  {
    requests = List.rev !requests;
    local_verdicts = List.rev !local_verdicts;
    filtered = !filtered;
    incapable = !incapable;
    root_level = !root_level;
    goid_lookups = (Meter.read meter).Meter.goid_lookups;
    work = Meter.read meter;
  }

type served = {
  verdicts : verdict list;
  objects_read : int;
  work : Meter.snapshot;
}

let serve ?(tracer = Tracer.disabled) fed ~db:db_name requests =
  Tracer.with_span tracer ~cat:"serve"
    ~args:
      [ ("db", db_name); ("requests", string_of_int (List.length requests)) ]
    "checks.serve"
  @@ fun () ->
  let db = Federation.db fed db_name in
  let meter = Meter.create () in
  let verdicts =
    List.map
      (fun r ->
        if not (String.equal r.target_db db_name) then
          invalid_arg
            (Printf.sprintf "Checks.serve: request targets %s, served at %s"
               r.target_db db_name);
        let truth =
          match Database.get db r.assistant with
          | None -> Truth.Unknown (* assistant vanished: no information *)
          | Some obj ->
            Predicate.truth_of_outcome (Predicate.eval ~meter db obj r.pred)
        in
        { origin_db = r.origin_db; item = r.item; atom = r.atom; truth })
      requests
  in
  { verdicts; objects_read = List.length requests; work = Meter.read meter }

(* The verdict-cache key of the workload engine (lib/serve). A verdict is a
   pure function of the assistant object and the relative predicate, so the
   key must name exactly those two plus the site holding the assistant —
   never the querying context (origin item, atom index), which is what makes
   one query's verdict reusable by another query. *)
let request_signature (r : request) =
  Printf.sprintf "%s#%s?%s" r.target_db
    (Oid.Loid.to_string r.assistant)
    (Predicate.to_string r.pred)

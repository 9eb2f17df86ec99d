open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
  (ex, fed, analysis)

let row_name (row : Local_result.row) =
  match row.Local_result.values.(0) with
  | Some (Value.Str s) -> s
  | _ -> "?"

(* R1 (Figure 7a): DB1 returns John, Tony, Mary as maybe results. *)
let test_db1_rows () =
  let _, fed, analysis = setup () in
  let r = Local_eval.run fed analysis ~db:"DB1" in
  Alcotest.(check int) "examined all students" 3 r.Local_result.examined;
  Alcotest.(check int) "none eliminated locally" 0 r.Local_result.eliminated;
  Alcotest.(check (list string)) "rows" [ "John"; "Tony"; "Mary" ]
    (List.map row_name r.Local_result.rows);
  Alcotest.(check bool) "all maybe" true
    (List.for_all
       (fun row -> not (Local_result.is_solved row))
       r.Local_result.rows)

(* John@DB1: unsolved on address (root level) and speciality (item t1);
   department predicate locally true. *)
let test_john_unsolved_detail () =
  let ex, fed, analysis = setup () in
  let r = Local_eval.run fed analysis ~db:"DB1" in
  match r.Local_result.rows with
  | john :: _ ->
    Alcotest.(check int) "two unsolved" 2 (List.length john.Local_result.unsolved);
    (match john.Local_result.unsolved with
    | [ u_addr; u_spec ] ->
      (* address: blocked at the root object itself *)
      Alcotest.(check bool) "address blocks at root" true
        (Oid.Loid.equal
           (Dbobject.loid u_addr.Local_result.item)
           (Dbobject.loid ex.Paper_example.s1));
      Alcotest.(check bool) "missing attribute" true
        (u_addr.Local_result.cause = Predicate.Missing_attribute);
      (* speciality: blocked at branch item t1 (Jeffery) *)
      Alcotest.(check bool) "speciality blocks at t1" true
        (Oid.Loid.equal
           (Dbobject.loid u_spec.Local_result.item)
           (Dbobject.loid ex.Paper_example.t1));
      Alcotest.(check (list string)) "suffix" [ "speciality" ]
        u_spec.Local_result.rest
    | _ -> Alcotest.fail "expected address and speciality blocks");
    (* department atom (index 2) locally true for John *)
    Alcotest.(check bool) "department true" true
      (Truth.equal john.Local_result.truths.(2) Truth.True)
  | [] -> Alcotest.fail "no rows"

(* Mary@DB1 additionally has the department predicate unsolved through the
   null department of t2 (paper: "an unsolved predicate on
   advisor.department for s3"). *)
let test_mary_department_null () =
  let ex, fed, analysis = setup () in
  let r = Local_eval.run fed analysis ~db:"DB1" in
  match List.rev r.Local_result.rows with
  | mary :: _ ->
    Alcotest.(check int) "three unsolved" 3 (List.length mary.Local_result.unsolved);
    let dept =
      List.find_opt
        (fun u -> u.Local_result.atom = 2)
        mary.Local_result.unsolved
    in
    (match dept with
    | Some u ->
      Alcotest.(check bool) "blocked at t2" true
        (Oid.Loid.equal
           (Dbobject.loid u.Local_result.item)
           (Dbobject.loid ex.Paper_example.t2));
      Alcotest.(check bool) "null cause" true
        (u.Local_result.cause = Predicate.Null_value);
      Alcotest.(check (list string)) "rest keeps department" [ "department"; "name" ]
        u.Local_result.rest
    | None -> Alcotest.fail "department should be unsolved for Mary")
  | [] -> Alcotest.fail "no rows"

(* R2 (Figure 7b): DB2 returns only Hedy; John and Fanny fail local
   predicates definitively. *)
let test_db2_rows () =
  let ex, fed, analysis = setup () in
  let r = Local_eval.run fed analysis ~db:"DB2" in
  Alcotest.(check int) "examined" 3 r.Local_result.examined;
  Alcotest.(check int) "two eliminated" 2 r.Local_result.eliminated;
  match r.Local_result.rows with
  | [ hedy ] ->
    Alcotest.(check string) "hedy" "Hedy" (row_name hedy);
    Alcotest.(check int) "one unsolved (department)" 1
      (List.length hedy.Local_result.unsolved);
    (match hedy.Local_result.unsolved with
    | [ u ] ->
      Alcotest.(check int) "department atom" 2 u.Local_result.atom;
      Alcotest.(check bool) "item is t1' (Kelly)" true
        (Oid.Loid.equal
           (Dbobject.loid u.Local_result.item)
           (Dbobject.loid ex.Paper_example.t1'))
    | _ -> Alcotest.fail "one unsolved expected");
    (* city and speciality atoms definitively true *)
    Alcotest.(check bool) "city true" true
      (Truth.equal hedy.Local_result.truths.(0) Truth.True);
    Alcotest.(check bool) "speciality true" true
      (Truth.equal hedy.Local_result.truths.(1) Truth.True)
  | rows ->
    Alcotest.fail (Printf.sprintf "expected exactly Hedy, got %d rows" (List.length rows))

let test_counters () =
  let _, fed, analysis = setup () in
  let r = Local_eval.run fed analysis ~db:"DB2" in
  Alcotest.(check bool) "comparisons counted" true
    (r.Local_result.work.Meter.comparisons > 0);
  Alcotest.(check bool) "accesses counted" true
    (r.Local_result.work.Meter.accesses > 0)

let test_unknown_db_rejected () =
  let _, fed, analysis = setup () in
  Alcotest.(check bool) "DB3 hosts no students" true
    (try
       ignore (Local_eval.run fed analysis ~db:"DB3");
       false
     with Invalid_argument _ -> true)

(* ---- Equivalence with the per-object reference ---- *)

(* [Local_eval] derives its result, touched counts and probe from one
   column scan per (query, database); test/local_eval_ref.ml walks every
   path by name from every root object, as the code before the scan did.
   Both must give the same rows (the physically same objects), counters,
   meter totals, touched counts and probe items on random synthetic
   federations of 2-4 databases and root, nested, disjunctive and negated
   queries, with and without divergent (multi-valued) copies. *)

module Synth = Msdq_workload.Synth

type case = { config : Synth.config; query_seed : int; disjunctive : bool }

let gen_case =
  QCheck.Gen.(
    map
      (fun ((seed, n_db, n_entities, (copy, host, (null, present), divergent)),
            (query_seed, disjunctive)) ->
        {
          config =
            {
              Synth.default with
              Synth.seed;
              n_db;
              n_entities;
              p_copy = copy;
              p_host = host;
              p_null = null;
              p_attr_present = present;
              p_divergent = divergent;
            };
          query_seed;
          disjunctive;
        })
      (pair
         (quad (int_bound 100_000) (int_range 2 4) (int_range 1 60)
            (quad (float_range 0.1 0.9) (oneofl [ 0.7; 1.0 ])
               (pair (float_range 0.0 0.3) (float_range 0.3 0.8))
               (oneofl [ 0.0; 0.3; 0.5 ])))
         (pair (int_bound 10_000) bool)))

let print_case c =
  Printf.sprintf
    "seed %d dbs %d entities %d copy %g host %g null %g present %g divergent %g; query %d%s"
    c.config.Synth.seed c.config.Synth.n_db c.config.Synth.n_entities c.config.Synth.p_copy
    c.config.Synth.p_host c.config.Synth.p_null c.config.Synth.p_attr_present
    c.config.Synth.p_divergent c.query_seed
    (if c.disjunctive then " disjunctive" else "")

let same_as_reference c =
  match Synth.case ~disjunctive:c.disjunctive c.config c.query_seed with
  | None -> true
  | Some (fed, analysis) ->
    List.iter
      (fun (db, _) ->
        match Local_eval.scan fed analysis ~db with
        | exception Invalid_argument _ -> (
          match Local_eval_ref.run fed analysis ~db with
          | exception Invalid_argument _ -> ()
          | _ -> QCheck.Test.fail_reportf "%s: the scan refuses a hosting database" db)
        | scan ->
          (* The probe alone, and after the result it borrows from. *)
          let alone = Local_eval.probe (Local_eval.scan fed analysis ~db) in
          let result = Local_eval.result scan in
          let probe = Local_eval.probe scan in
          let ref_result = Local_eval_ref.run fed analysis ~db
          and ref_probe = Local_eval_ref.probe fed analysis ~db in
          let want =
            Local_eval_ref.render ref_result (Local_eval_ref.touched fed analysis ~db) ref_probe
          in
          List.iter
            (fun probe ->
              let got = Local_eval_ref.render result (Local_eval.touched scan) probe in
              if not (String.equal got want) then
                QCheck.Test.fail_reportf "%s\nscan:\n%s\nreference:\n%s"
                  (Ast.to_string analysis.Analysis.query) got want;
              if not (Local_eval_ref.same_objects result ref_result probe ref_probe) then
                QCheck.Test.fail_reportf "%s: rows or items hold other objects" db)
            [ alone; probe ])
      (Federation.databases fed);
    true

let prop_same_as_reference =
  QCheck.Test.make ~name:"Local_eval = per-object reference" ~count:300
    (QCheck.make ~print:print_case gen_case)
    same_as_reference

let suite =
  [
    Alcotest.test_case "R1 rows (fig 7a)" `Quick test_db1_rows;
    Alcotest.test_case "John's unsolved detail" `Quick test_john_unsolved_detail;
    Alcotest.test_case "Mary's null department" `Quick test_mary_department_null;
    Alcotest.test_case "R2 rows (fig 7b)" `Quick test_db2_rows;
    Alcotest.test_case "work counters" `Quick test_counters;
    Alcotest.test_case "non-hosting db rejected" `Quick test_unknown_db_rejected;
    QCheck_alcotest.to_alcotest prop_same_as_reference;
  ]

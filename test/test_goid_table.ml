open Msdq_odb
open Msdq_fed

let l = Oid.Loid.of_int

let isomers_of t ?meter ~db loid = Goid_table.isomers_in t (Goid_table.local_map t ~db) ?meter loid

let test_register_and_lookup () =
  let t = Goid_table.create () in
  let g1 = Goid_table.register t ~gcls:"Student" [ ("DB1", l 0); ("DB2", l 5) ] in
  let g2 = Goid_table.register t ~gcls:"Student" [ ("DB1", l 1) ] in
  Alcotest.(check bool) "distinct goids" false (Oid.Goid.equal g1 g2);
  Alcotest.(check int) "entities" 2 (Goid_table.entity_count t);
  (match Goid_table.goid_of_local t ~db:"DB1" (l 0) with
  | Some g -> Alcotest.(check bool) "lookup g1" true (Oid.Goid.equal g g1)
  | None -> Alcotest.fail "lookup failed");
  (match Goid_table.goid_of_local t ~db:"DB2" (l 5) with
  | Some g -> Alcotest.(check bool) "isomer shares goid" true (Oid.Goid.equal g g1)
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "unknown object" true
    (Goid_table.goid_of_local t ~db:"DB9" (l 0) = None);
  Alcotest.(check (option string)) "gcls" (Some "Student") (Goid_table.gcls_of t g1)

let test_isomers () =
  let t = Goid_table.create () in
  let _ =
    Goid_table.register t ~gcls:"T" [ ("A", l 0); ("B", l 1); ("C", l 2) ]
  in
  let isomers = isomers_of t ~db:"A" (l 0) in
  Alcotest.(check int) "two isomers" 2 (List.length isomers);
  Alcotest.(check bool) "self excluded" true
    (not (List.exists (fun (db, lo) -> db = "A" && Oid.Loid.equal lo (l 0)) isomers));
  Alcotest.(check (list string)) "isomer dbs" [ "B"; "C" ] (List.map fst isomers);
  Alcotest.(check int) "singleton has none" 0
    (List.length (isomers_of t ~db:"Z" (l 9)))

let test_duplicates () =
  let t = Goid_table.create () in
  let _ = Goid_table.register t ~gcls:"T" [ ("A", l 0) ] in
  Alcotest.(check bool) "re-register rejected" true
    (try
       ignore (Goid_table.register t ~gcls:"T" [ ("A", l 0) ]);
       false
     with Goid_table.Duplicate _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Goid_table.register t ~gcls:"T" []);
       false
     with Goid_table.Duplicate _ -> true)

let test_class_index () =
  let t = Goid_table.create () in
  let g1 = Goid_table.register t ~gcls:"T" [ ("A", l 0) ] in
  let _g2 = Goid_table.register t ~gcls:"U" [ ("A", l 1) ] in
  let g3 = Goid_table.register t ~gcls:"T" [ ("A", l 2) ] in
  let ts = Goid_table.goids_of_class t ~gcls:"T" in
  Alcotest.(check int) "two T entities" 2 (List.length ts);
  Alcotest.(check bool) "registration order" true
    (match ts with
    | [ a; b ] -> Oid.Goid.equal a g1 && Oid.Goid.equal b g3
    | _ -> false);
  Alcotest.(check int) "unknown class empty" 0
    (List.length (Goid_table.goids_of_class t ~gcls:"Z"))

let test_lookup_counter () =
  let t = Goid_table.create () in
  let g = Goid_table.register t ~gcls:"T" [ ("A", l 0) ] in
  let meter = Meter.create () in
  ignore (Goid_table.goid_of_local t ~meter ~db:"A" (l 0));
  ignore (Goid_table.locals_of t ~meter g);
  ignore (isomers_of t ~meter ~db:"A" (l 0));
  Alcotest.(check int) "three lookups" 3 (Meter.read meter).Meter.goid_lookups;
  (* lookups without a meter are not charged anywhere *)
  ignore (Goid_table.goid_of_local t ~db:"A" (l 0));
  Alcotest.(check int) "unmetered lookup uncharged" 3
    (Meter.read meter).Meter.goid_lookups

(* Figure 5 of the paper, reconstructed by isomerism identification. *)
let test_paper_figure5 () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let table = Federation.goids fed in
  (* 5 students, 4 teachers, 3 departments, 2 addresses = 14 entities *)
  Alcotest.(check int) "entity count" 14 (Goid_table.entity_count table);
  Alcotest.(check int) "5 student entities" 5
    (List.length (Goid_table.goids_of_class table ~gcls:"Student"));
  Alcotest.(check int) "4 teacher entities" 4
    (List.length (Goid_table.goids_of_class table ~gcls:"Teacher"));
  Alcotest.(check int) "3 department entities" 3
    (List.length (Goid_table.goids_of_class table ~gcls:"Department"));
  Alcotest.(check int) "2 address entities" 2
    (List.length (Goid_table.goids_of_class table ~gcls:"Address"));
  (* John exists in DB1 (s1) and DB2 (s2'): same goid. *)
  let g_s1 = Goid_table.goid_of_local table ~db:"DB1" (Dbobject.loid ex.Paper_example.s1) in
  let g_s2' = Goid_table.goid_of_local table ~db:"DB2" (Dbobject.loid ex.Paper_example.s2') in
  (match (g_s1, g_s2') with
  | Some a, Some b -> Alcotest.(check bool) "John isomeric" true (Oid.Goid.equal a b)
  | _ -> Alcotest.fail "John unregistered");
  (* Jeffery: t1@DB1 and t2'@DB2. *)
  let g_t1 = Goid_table.goid_of_local table ~db:"DB1" (Dbobject.loid ex.Paper_example.t1) in
  let g_t2' = Goid_table.goid_of_local table ~db:"DB2" (Dbobject.loid ex.Paper_example.t2') in
  (match (g_t1, g_t2') with
  | Some a, Some b -> Alcotest.(check bool) "Jeffery isomeric" true (Oid.Goid.equal a b)
  | _ -> Alcotest.fail "Jeffery unregistered");
  (* Haley (t3@DB1) is a singleton: no assistants anywhere. *)
  Alcotest.(check int) "Haley singleton" 0
    (List.length
       (isomers_of table ~db:"DB1" (Dbobject.loid ex.Paper_example.t3)));
  (* Kelly: t1'@DB2 and t2''@DB3. *)
  let isomers_kelly =
    isomers_of table ~db:"DB2" (Dbobject.loid ex.Paper_example.t1')
  in
  Alcotest.(check (list string)) "Kelly's assistant lives in DB3" [ "DB3" ]
    (List.map fst isomers_kelly)

let suite =
  [
    Alcotest.test_case "register and lookup" `Quick test_register_and_lookup;
    Alcotest.test_case "isomers" `Quick test_isomers;
    Alcotest.test_case "duplicate registration" `Quick test_duplicates;
    Alcotest.test_case "class index" `Quick test_class_index;
    Alcotest.test_case "lookup counter" `Quick test_lookup_counter;
    Alcotest.test_case "paper figure 5" `Quick test_paper_figure5;
  ]

open Msdq_odb
open Msdq_query

let g = Oid.Goid.of_int

let row goid status values =
  { Answer.goid = g goid; values; status }

let targets = [ [ "name" ] ]

let test_basic () =
  let a =
    Answer.make ~targets
      [
        row 2 Answer.Maybe [ Value.Str "Tony" ];
        row 1 Answer.Certain [ Value.Str "Hedy" ];
      ]
  in
  Alcotest.(check int) "size" 2 (Answer.size a);
  Alcotest.(check int) "certain" 1 (List.length (Answer.certain a));
  Alcotest.(check int) "maybe" 1 (List.length (Answer.maybe a));
  (match Answer.rows a with
  | [ r1; r2 ] ->
    Alcotest.(check bool) "sorted by goid" true
      (Oid.Goid.compare r1.Answer.goid r2.Answer.goid < 0)
  | _ -> Alcotest.fail "two rows");
  Alcotest.(check bool) "status lookup" true
    (Answer.status_of a (g 1) = Some Answer.Certain);
  Alcotest.(check bool) "missing lookup" true (Answer.status_of a (g 9) = None);
  (match Answer.find a (g 2) with
  | Some r -> Alcotest.(check bool) "find" true (r.Answer.status = Answer.Maybe)
  | None -> Alcotest.fail "find failed")

let test_duplicate_rejected () =
  Alcotest.(check bool) "duplicate goid" true
    (try
       ignore
         (Answer.make ~targets [ row 1 Answer.Certain []; row 1 Answer.Maybe [] ]);
       false
     with Invalid_argument _ -> true)

let test_order () =
  let sorted = [ row 1 Answer.Certain []; row 4 Answer.Maybe []; row 7 Answer.Certain [] ] in
  Alcotest.(check bool) "sorted input kept as it is" true
    (Answer.rows (Answer.make ~targets sorted) == sorted);
  let unsorted = [ row 7 Answer.Certain []; row 1 Answer.Certain []; row 4 Answer.Maybe [] ] in
  Alcotest.(check (list int)) "unsorted input sorted" [ 1; 4; 7 ]
    (List.map (fun r -> Oid.Goid.to_int r.Answer.goid) (Answer.rows (Answer.make ~targets unsorted)))

let test_duplicate_message () =
  let message rows =
    match Answer.make ~targets rows with
    | _ -> "accepted"
    | exception Invalid_argument m -> m
  in
  let dup goids = List.map (fun g -> row g Answer.Maybe []) goids in
  List.iter
    (fun (name, goids) ->
      Alcotest.(check string) name "Answer.make: duplicate goid g1" (message (dup goids)))
    [
      ("sorted", [ 1; 1; 5; 5 ]);
      ("sorted, duplicate last", [ 0; 1; 1 ]);
      ("unsorted", [ 5; 5; 1; 1 ]);
      ("unsorted, duplicates apart", [ 1; 3; 1 ]);
    ]

let test_present_and_absent () =
  let a =
    Answer.make ~targets
      [ row 1 Answer.Certain []; row 3 Answer.Maybe []; row 5 Answer.Certain [] ]
  in
  let set l = Oid.Goid.Set.of_list (List.map g l) in
  let status a n = Answer.status_of a (g n) in
  Alcotest.(check bool) "status of present goids" true
    (status a 1 = Some Answer.Certain && status a 3 = Some Answer.Maybe
    && status a 5 = Some Answer.Certain);
  Alcotest.(check bool) "status of absent goids" true
    (List.for_all (fun n -> status a n = None) [ 0; 2; 4; 6 ]);
  let d = Answer.demote a ~goids:(set [ 0; 3; 5; 6 ]) in
  Alcotest.(check bool) "demote: certain present row becomes maybe" true
    (status d 5 = Some Answer.Maybe);
  Alcotest.(check bool) "demote: other rows unchanged" true
    (status d 1 = Some Answer.Certain && status d 3 = Some Answer.Maybe);
  Alcotest.(check (list int)) "demote: only present goids degraded" [ 3; 5 ]
    (List.map Oid.Goid.to_int (Oid.Goid.Set.elements (Answer.degraded d)));
  Alcotest.(check bool) "demote: absent goids stay absent" true
    (status d 0 = None && status d 6 = None);
  let c = Answer.mark_cached d ~goids:(set [ 1; 2; 7 ]) in
  Alcotest.(check (list int)) "mark_cached: only present goids" [ 1 ]
    (List.map Oid.Goid.to_int (Oid.Goid.Set.elements (Answer.cached c)));
  Alcotest.(check bool) "mark_cached: rows untouched" true (Answer.rows c == Answer.rows d);
  let none = Answer.demote a ~goids:(set [ 2; 4 ]) in
  Alcotest.(check bool) "demote of absent goids only" true
    (Oid.Goid.Set.is_empty (Answer.degraded none) && Answer.same_statuses none a)

let test_same_statuses () =
  let a = Answer.make ~targets [ row 1 Answer.Certain []; row 2 Answer.Maybe [] ] in
  let b = Answer.make ~targets [ row 2 Answer.Maybe [ Value.Int 1 ]; row 1 Answer.Certain [] ] in
  let c = Answer.make ~targets [ row 1 Answer.Maybe []; row 2 Answer.Maybe [] ] in
  Alcotest.(check bool) "values ignored" true (Answer.same_statuses a b);
  Alcotest.(check bool) "status difference detected" false (Answer.same_statuses a c)

let test_subsumes () =
  (* strong decides what weak left maybe *)
  let weak = Answer.make ~targets [ row 1 Answer.Maybe []; row 2 Answer.Certain [] ] in
  let strong_promotes =
    Answer.make ~targets [ row 1 Answer.Certain []; row 2 Answer.Certain [] ]
  in
  let strong_eliminates = Answer.make ~targets [ row 2 Answer.Certain [] ] in
  let strong_bad_resurrects =
    Answer.make ~targets
      [ row 1 Answer.Maybe []; row 2 Answer.Certain []; row 3 Answer.Certain [] ]
  in
  let strong_bad_demotes = Answer.make ~targets [ row 1 Answer.Maybe []; row 2 Answer.Maybe [] ] in
  Alcotest.(check bool) "promotion ok" true
    (Answer.subsumes ~strong:strong_promotes ~weak);
  Alcotest.(check bool) "elimination ok" true
    (Answer.subsumes ~strong:strong_eliminates ~weak);
  Alcotest.(check bool) "identity ok" true (Answer.subsumes ~strong:weak ~weak);
  Alcotest.(check bool) "resurrection rejected" false
    (Answer.subsumes ~strong:strong_bad_resurrects ~weak);
  Alcotest.(check bool) "demotion rejected" false
    (Answer.subsumes ~strong:strong_bad_demotes ~weak)

let test_pp () =
  let a =
    Answer.make ~targets
      [ row 1 Answer.Certain [ Value.Str "Hedy" ]; row 2 Answer.Maybe [ Value.Null ] ]
  in
  let text = Format.asprintf "%a" Answer.pp a in
  Alcotest.(check bool) "mentions certain" true
    (Testutil.contains ~needle:"certain results (1)" text);
  Alcotest.(check bool) "mentions maybe" true
    (Testutil.contains ~needle:"maybe results (1)" text);
  Alcotest.(check bool) "mentions value" true (Testutil.contains ~needle:"Hedy" text)

let suite =
  [
    Alcotest.test_case "basic accessors" `Quick test_basic;
    Alcotest.test_case "duplicate goids rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "rows in GOid order" `Quick test_order;
    Alcotest.test_case "duplicate message, sorted or not" `Quick test_duplicate_message;
    Alcotest.test_case "present and absent goids" `Quick test_present_and_absent;
    Alcotest.test_case "status comparison" `Quick test_same_statuses;
    Alcotest.test_case "subsumption" `Quick test_subsumes;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]

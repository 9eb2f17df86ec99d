open Msdq_fed
open Msdq_query
open Msdq_exec

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let gs = Federation.global_schema fed in
  let schema = Global_schema.schema gs in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
  let involved = Involved.compute schema analysis in
  (ex, fed, gs, analysis, involved)

let c = Cost.default

(* Q1 involves: Student (name, advisor, address), Teacher (name, speciality,
   department), Department (name), Address (city). *)
let test_involved () =
  let _, _, _, _, involved = setup () in
  Alcotest.(check (list string)) "student attrs"
    [ "address"; "advisor"; "name" ]
    (Involved.attrs_of_class involved "Student");
  Alcotest.(check (list string)) "teacher attrs"
    [ "department"; "name"; "speciality" ]
    (Involved.attrs_of_class involved "Teacher");
  Alcotest.(check (list string)) "department attrs" [ "name" ]
    (Involved.attrs_of_class involved "Department");
  Alcotest.(check (list string)) "address attrs" [ "city" ]
    (Involved.attrs_of_class involved "Address");
  Alcotest.(check (list string)) "uninvolved class empty" []
    (Involved.attrs_of_class involved "Course")

let test_projection_widths () =
  let _, _, gs, _, involved = setup () in
  (* DB1's Student defines name and advisor but not address: width 2. *)
  Alcotest.(check int) "DB1 student width" 2
    (Involved.local_projection_width involved gs ~db:"DB1" ~gcls:"Student");
  (* DB2's Student defines all three involved attributes. *)
  Alcotest.(check int) "DB2 student width" 3
    (Involved.local_projection_width involved gs ~db:"DB2" ~gcls:"Student");
  (* DB3 hosts no Student. *)
  Alcotest.(check int) "DB3 student width" 0
    (Involved.local_projection_width involved gs ~db:"DB3" ~gcls:"Student");
  (* DB1's Teacher: name + department (no speciality). *)
  Alcotest.(check int) "DB1 teacher width" 2
    (Involved.local_projection_width involved gs ~db:"DB1" ~gcls:"Teacher")

(* CA's shipped projection of DB1: 3 students x (16 + 2x32) + 3 teachers x
   (16 + 2x32) + 2 departments x (16 + 1x32). *)
let test_extent_bytes () =
  let _, fed, gs, _, involved = setup () in
  let db1 = Federation.db fed "DB1" in
  let bytes = Wire.projected_extent_bytes c involved gs ~db_name:"DB1" ~db:db1 in
  Alcotest.(check int) "DB1 bytes" ((3 * 80) + (3 * 80) + (2 * 48)) bytes

(* Localized read of DB1: the full Student extent plus only the touched
   branch objects. All three teachers are referenced as advisors; both
   advisors' departments are CS -> only one department touched. *)
let test_touch_and_localized_bytes () =
  let _, fed, gs, analysis, involved = setup () in
  let touched = Local_eval.touched (Local_eval.scan fed analysis ~db:"DB1") in
  (* DB1 has no Address constituent, so Address does not appear. *)
  Alcotest.(check (list (pair string int))) "touched counts"
    [ ("Student", 3); ("Teacher", 3); ("Department", 1) ]
    touched;
  let bytes = Wire.localized_read_bytes c involved gs ~db_name:"DB1" ~touched in
  Alcotest.(check int) "localized bytes" ((3 * 80) + (3 * 80) + 48) bytes;
  Alcotest.(check bool) "localized <= full extents" true
    (bytes
    <= Wire.projected_extent_bytes c involved gs ~db_name:"DB1"
         ~db:(Federation.db fed "DB1"))

let test_row_bytes () =
  let _, fed, _, analysis, _ = setup () in
  let r = Local_eval.run fed analysis ~db:"DB1" in
  match r.Local_result.rows with
  | john :: _ ->
    (* goid + loid + 2 targets + 2 unsolved annotations *)
    let expect = 16 + 16 + (2 * 32) + (2 * (16 + 32)) in
    Alcotest.(check int) "john's row bytes" expect
      (Wire.local_row_bytes c ~n_targets:2 john);
    Alcotest.(check bool) "results bytes sum rows" true
      (Wire.results_bytes c ~n_targets:2 r
      = List.fold_left
          (fun acc row -> acc + Wire.local_row_bytes c ~n_targets:2 row)
          0 r.Local_result.rows)
  | [] -> Alcotest.fail "no rows"

let test_request_bytes () =
  let _, fed, _, analysis, _ = setup () in
  let items =
    List.concat_map
      (fun (row : Local_result.row) -> row.Local_result.unsolved)
      (Local_eval.run fed analysis ~db:"DB1").Local_result.rows
  in
  let built = Checks.build fed analysis ~db:"DB1" ~root_class:"Student" ~items in
  match built.Checks.requests with
  | speciality_req :: department_req :: _ ->
    (* one-step suffix: 2 loids + (1 path cell + operand) *)
    Alcotest.(check int) "speciality request" (32 + 32 + 32)
      (Wire.request_bytes c speciality_req);
    (* two-step suffix *)
    Alcotest.(check int) "department request" (32 + 64 + 32)
      (Wire.request_bytes c department_req);
    (* check reads are page-quantized random accesses *)
    Alcotest.(check int) "check read is one page per request"
      (2 * c.Cost.s_page)
      (Wire.check_read_bytes c [ speciality_req; department_req ]);
    Alcotest.(check int) "verdict bytes" 18 (Wire.verdict_bytes c)
  | _ -> Alcotest.fail "expected two requests"

(* Edge cases: empty batches ship nothing and read nothing; a query with no
   targets still pays for identification and unsolved annotations. *)
let test_empty_batches () =
  Alcotest.(check int) "empty request batch ships nothing" 0
    (Wire.requests_bytes c []);
  Alcotest.(check int) "empty request batch reads nothing" 0
    (Wire.check_read_bytes c []);
  let _, fed, _, analysis, _ = setup () in
  let r = Local_eval.run fed analysis ~db:"DB1" in
  let empty = { r with Local_result.rows = [] } in
  Alcotest.(check int) "no rows, no bytes" 0
    (Wire.results_bytes c ~n_targets:2 empty)

let test_zero_target_rows () =
  let _, fed, _, analysis, _ = setup () in
  let r = Local_eval.run fed analysis ~db:"DB1" in
  match r.Local_result.rows with
  | row :: _ ->
    let zero = Wire.local_row_bytes c ~n_targets:0 row in
    (* identification (goid + loid) plus the unsolved annotations remain *)
    let expect = 16 + 16 + (List.length row.Local_result.unsolved * (16 + 32)) in
    Alcotest.(check int) "zero-target row bytes" expect zero;
    Alcotest.(check bool) "targets only add bytes" true
      (zero <= Wire.local_row_bytes c ~n_targets:2 row)
  | [] -> Alcotest.fail "no rows"

(* Batch of requests drawn (with repetition) from the paper example's check
   phase: every byte size is non-negative, and adding a request to a batch
   never shrinks it. *)
let request_pool () =
  let _, fed, _, analysis, _ = setup () in
  let items =
    List.concat_map
      (fun (row : Local_result.row) -> row.Local_result.unsolved)
      (Local_eval.run fed analysis ~db:"DB1").Local_result.rows
  in
  (Checks.build fed analysis ~db:"DB1" ~root_class:"Student" ~items).Checks.requests

let prop_bytes_nonneg_monotone =
  let pool = lazy (Array.of_list (request_pool ())) in
  QCheck.Test.make
    ~name:"wire bytes are non-negative and monotone in batch length" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (int_bound 1000))
    (fun picks ->
      let pool = Lazy.force pool in
      let batch =
        List.map (fun i -> pool.(i mod Array.length pool)) picks
      in
      let bytes = Wire.requests_bytes c batch in
      let read = Wire.check_read_bytes c batch in
      bytes >= 0 && read >= 0
      && List.for_all (fun r -> Wire.request_bytes c r >= 0) batch
      &&
      (* dropping the last request never increases either size *)
      match List.rev batch with
      | [] -> bytes = 0 && read = 0
      | _ :: shorter_rev ->
        let shorter = List.rev shorter_rev in
        Wire.requests_bytes c shorter <= bytes
        && Wire.check_read_bytes c shorter <= read)

let suite =
  [
    Alcotest.test_case "involved attributes" `Quick test_involved;
    Alcotest.test_case "projection widths" `Quick test_projection_widths;
    Alcotest.test_case "extent bytes" `Quick test_extent_bytes;
    Alcotest.test_case "touch and localized bytes" `Quick test_touch_and_localized_bytes;
    Alcotest.test_case "row bytes" `Quick test_row_bytes;
    Alcotest.test_case "request bytes" `Quick test_request_bytes;
    Alcotest.test_case "empty batches" `Quick test_empty_batches;
    Alcotest.test_case "zero-target rows" `Quick test_zero_target_rows;
    QCheck_alcotest.to_alcotest prop_bytes_nonneg_monotone;
  ]

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
module Planner = Msdq_opt.Planner

let analyze fed src =
  Analysis.analyze (Global_schema.schema (Federation.global_schema fed)) (Parser.parse src)

let paper_case () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  (fed, analyze fed Paper_example.q1)

(* The profile expresses the real federation in Table 2 vocabulary. *)
let test_profile_paper () =
  let fed, analysis = paper_case () in
  let s = Planner.profile fed analysis in
  Alcotest.(check int) "three databases" 3 s.Params.n_db;
  Alcotest.(check int) "four involved classes" 4 (Array.length s.Params.classes);
  (* Class 0 is the range class Student: extents 3 (DB1), 3 (DB2), 0 (DB3). *)
  let student = s.Params.classes.(0) in
  Alcotest.(check (list int)) "student extents" [ 3; 3; 0 ]
    (Array.to_list (Array.map (fun cd -> cd.Params.n_o) student.Params.per_db));
  (* John is the only student entity with copies in both databases. *)
  Alcotest.(check (float 1e-9)) "student isomerism" 0.2 student.Params.r_iso;
  (* No predicate lands on Student itself. *)
  Alcotest.(check int) "student predicates" 0 student.Params.n_p;
  (* The Teacher class carries the speciality predicate: missing in DB1 and
     DB3, local in DB2. *)
  let teacher = s.Params.classes.(1) in
  Alcotest.(check int) "teacher predicates" 1 teacher.Params.n_p;
  Alcotest.(check (list int)) "teacher n_pa per db" [ 0; 1; 0 ]
    (Array.to_list (Array.map (fun cd -> cd.Params.n_pa) teacher.Params.per_db));
  (* Missing predicate attributes force r_m = 1 (paper's formula). *)
  Alcotest.(check (float 1e-9)) "teacher r_m in DB1" 1.0
    teacher.Params.per_db.(0).Params.r_m;
  (* Observed speciality selectivity: 1 of 2 non-null values is database. *)
  Alcotest.(check (float 1e-9)) "teacher r_pps in DB2" 0.5
    teacher.Params.per_db.(1).Params.r_pps

let test_profile_bounds () =
  (* Structural invariants on generated federations. *)
  for seed = 0 to 9 do
    let cfg = { Synth.default with Synth.seed } in
    let fed = Synth.generate cfg in
    let rng = Rng.create ~seed in
    match analyze fed (Ast.to_string (Synth.random_query rng cfg ~disjunctive:false)) with
    | exception Analysis.Error _ -> ()
    | analysis ->
      let s = Planner.profile fed analysis in
      Array.iter
        (fun gc ->
          if gc.Params.r_iso < 0.0 || gc.Params.r_iso > 1.0 then
            Alcotest.fail "r_iso out of [0,1]";
          if gc.Params.r_r < 0.0 || gc.Params.r_r > 1.0 then
            Alcotest.fail "r_r out of [0,1]";
          Array.iter
            (fun cd ->
              if cd.Params.n_pa > gc.Params.n_p then Alcotest.fail "n_pa > n_p";
              if cd.Params.r_pps < 0.0 || cd.Params.r_pps > 1.0 then
                Alcotest.fail "r_pps out of [0,1]";
              if cd.Params.r_m < 0.0 || cd.Params.r_m > 1.0 then
                Alcotest.fail "r_m out of [0,1]")
            gc.Params.per_db)
        s.Params.classes
  done

let test_predict_and_choose () =
  let fed, analysis = paper_case () in
  let predictions = Planner.predict fed analysis in
  Alcotest.(check int) "four predictions" 4 (List.length predictions);
  List.iter
    (fun p ->
      Alcotest.(check bool) "positive and ordered" true
        (Time.to_us p.Planner.total > 0.0
        && Time.compare p.Planner.response p.Planner.total <= 0))
    predictions;
  let chosen, sorted = Planner.choose ~objective:Planner.Total_time fed analysis in
  (match sorted with
  | best :: rest ->
    Alcotest.(check bool) "chosen is the cheapest" true
      (best.Planner.strategy = chosen);
    List.iter
      (fun p ->
        Alcotest.(check bool) "sorted ascending" true
          (Time.compare best.Planner.total p.Planner.total <= 0))
      rest
  | [] -> Alcotest.fail "no predictions");
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" Planner.pp_prediction (List.hd sorted)) > 0)

(* The planner's recommendation is near-optimal when checked against the
   measured times of the concrete executors. *)
let test_choice_quality () =
  let cases =
    List.map
      (fun seed ->
        (Synth.generate { Synth.dense with Synth.seed; n_entities = 150 }, seed))
      [ 1; 2; 3; 4 ]
  in
  let query = "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1" in
  List.iter
    (fun (fed, seed) ->
      let analysis = analyze fed query in
      let chosen, _ = Planner.choose ~objective:Planner.Total_time fed analysis in
      let measured =
        List.map
          (fun s ->
            let _, m = Strategy.run s fed analysis in
            (s, Time.to_us m.Strategy.total))
          [ Strategy.Ca; Strategy.Cf; Strategy.Bl; Strategy.Pl ]
      in
      let best_time =
        List.fold_left (fun acc (_, t) -> Float.min acc t) Float.infinity measured
      in
      let chosen_time = List.assoc chosen measured in
      if chosen_time > best_time *. 1.35 then
        Alcotest.fail
          (Printf.sprintf
             "seed %d: planner chose %s (%.0fus) but the best costs %.0fus" seed
             (Strategy.to_string chosen) chosen_time best_time))
    cases

let suite =
  [
    Alcotest.test_case "profile on the paper example" `Quick test_profile_paper;
    Alcotest.test_case "profile bounds (10 seeds)" `Quick test_profile_bounds;
    Alcotest.test_case "predict and choose" `Quick test_predict_and_choose;
    Alcotest.test_case "choice quality vs measured" `Quick test_choice_quality;
  ]

open Msdq_simkit
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

let check_q1_answer name answer =
  (match Answer.certain answer with
  | [ row ] ->
    Alcotest.(check (list string)) (name ^ ": certain row") [ "Hedy"; "Kelly" ]
      (List.map Value.to_string row.Answer.values)
  | rows ->
    Alcotest.fail (Printf.sprintf "%s: %d certain rows" name (List.length rows)));
  match Answer.maybe answer with
  | [ row ] ->
    Alcotest.(check (list string)) (name ^ ": maybe row") [ "Tony"; "Haley" ]
      (List.map Value.to_string row.Answer.values)
  | rows -> Alcotest.fail (Printf.sprintf "%s: %d maybe rows" name (List.length rows))

(* The strategies that perform assistant checking (or full integration). *)
let checking_strategies =
  [ Strategy.Ca; Strategy.Bl; Strategy.Pl; Strategy.Bls; Strategy.Pls ]

(* Every checking strategy produces the paper's Q1 answer. *)
let test_all_strategies_q1 () =
  let _, fed, analysis = setup () in
  List.iter
    (fun s ->
      let answer, metrics = Strategy.run s fed analysis in
      check_q1_answer (Strategy.to_string s) answer;
      Alcotest.(check int)
        (Strategy.to_string s ^ ": no conflicts")
        0 metrics.Strategy.conflicts)
    checking_strategies

(* LO skips phase O entirely: Hedy's department check never runs, so she
   stays maybe; Mary's violated department check never eliminates her. Only
   cross-database row merging still works (John's absent isomer). *)
let test_lo_q1 () =
  let _, fed, analysis = setup () in
  let answer, metrics = Strategy.run Strategy.Lo fed analysis in
  Alcotest.(check int) "no certain rows" 0 (List.length (Answer.certain answer));
  Alcotest.(check int) "Tony, Mary and Hedy stay maybe" 3
    (List.length (Answer.maybe answer));
  Alcotest.(check int) "no checks issued" 0 metrics.Strategy.check_requests;
  Alcotest.(check int) "John still eliminated" 1 metrics.Strategy.eliminated_at_global;
  (* BL subsumes LO: checking only refines. *)
  let bl, _ = Strategy.run Strategy.Bl fed analysis in
  Alcotest.(check bool) "BL subsumes LO" true (Answer.subsumes ~strong:bl ~weak:answer)

let test_statuses_agree () =
  let _, fed, analysis = setup () in
  let answers =
    List.map (fun s -> fst (Strategy.run s fed analysis)) checking_strategies
  in
  match answers with
  | ca :: rest ->
    List.iter
      (fun a -> Alcotest.(check bool) "same statuses" true (Answer.same_statuses ca a))
      rest
  | [] -> Alcotest.fail "no answers"

(* Metrics sanity: response <= total; localized strategies ship less than
   CA on this data; PL issues at least as many checks as BL. *)
let test_metric_relations () =
  let _, fed, analysis = setup () in
  let run s = snd (Strategy.run s fed analysis) in
  let ca = run Strategy.Ca
  and bl = run Strategy.Bl
  and pl = run Strategy.Pl
  and bls = run Strategy.Bls in
  List.iter
    (fun (m : Strategy.metrics) ->
      Alcotest.(check bool)
        (Strategy.to_string m.Strategy.strategy ^ ": response <= total")
        true
        (Time.compare m.Strategy.response m.Strategy.total <= 0))
    [ ca; bl; pl; bls ];
  Alcotest.(check bool) "BL ships fewer bytes than CA" true
    (bl.Strategy.bytes_shipped < ca.Strategy.bytes_shipped);
  Alcotest.(check bool) "PL checks >= BL checks" true
    (pl.Strategy.check_requests >= bl.Strategy.check_requests);
  Alcotest.(check bool) "CA issues no checks" true (ca.Strategy.check_requests = 0);
  Alcotest.(check bool) "signatures filter something here" true
    (bls.Strategy.check_requests < bl.Strategy.check_requests);
  Alcotest.(check bool) "BLS still finds the answer" true
    (bls.Strategy.checks_filtered > 0)

(* Deep certification on the paper example changes nothing (no residual
   chains), but must preserve the answer. *)
let test_deep_certify () =
  let _, fed, analysis = setup () in
  let options = { Strategy.default_options with Strategy.deep_certify = true } in
  let answer, _ = Strategy.run ~options Strategy.Bl fed analysis in
  check_q1_answer "BL+deep" answer

(* CA subsumes the localized answers in general; on the paper example they
   coincide. *)
let test_subsumption () =
  let _, fed, analysis = setup () in
  let ca, _ = Strategy.run Strategy.Ca fed analysis in
  let bl, _ = Strategy.run Strategy.Bl fed analysis in
  Alcotest.(check bool) "CA subsumes BL" true (Answer.subsumes ~strong:ca ~weak:bl)

(* Determinism: running twice yields identical metrics. *)
let test_deterministic () =
  let _, fed, analysis = setup () in
  List.iter
    (fun s ->
      let _, m1 = Strategy.run s fed analysis in
      let _, m2 = Strategy.run s fed analysis in
      Alcotest.(check bool)
        (Strategy.to_string s ^ " deterministic")
        true
        (Time.compare m1.Strategy.total m2.Strategy.total = 0
        && Time.compare m1.Strategy.response m2.Strategy.response = 0
        && m1.Strategy.bytes_shipped = m2.Strategy.bytes_shipped))
    Strategy.all

(* A query with no missing data anywhere: all strategies return identical
   certain-only answers and no check traffic. *)
let test_no_missing_data () =
  let _, fed, _ = setup () in
  let run s =
    match Strategy.run_query s fed "select X.name from Student X where X.name = \"John\"" with
    | Ok (answer, metrics) -> (answer, metrics)
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun s ->
      let answer, metrics = run s in
      Alcotest.(check int)
        (Strategy.to_string s ^ ": one certain John")
        1
        (List.length (Answer.certain answer));
      Alcotest.(check int)
        (Strategy.to_string s ^ ": no maybe")
        0
        (List.length (Answer.maybe answer));
      Alcotest.(check int)
        (Strategy.to_string s ^ ": no checks")
        0 metrics.Strategy.check_requests)
    Strategy.all

(* An empty where clause returns every student entity as certain. *)
let test_no_predicates () =
  let _, fed, _ = setup () in
  List.iter
    (fun s ->
      match Strategy.run_query s fed "select X.name from Student X" with
      | Ok (answer, _) ->
        Alcotest.(check int)
          (Strategy.to_string s ^ ": all five students")
          5
          (List.length (Answer.certain answer))
      | Error msg -> Alcotest.fail msg)
    Strategy.all

(* Disjunctive extension: "city = Taipei or age > 30". CA and the localized
   strategies agree on the paper data. *)
let test_disjunctive () =
  let _, fed, _ = setup () in
  let q =
    "select X.name from Student X where X.address.city = \"Taipei\" or X.age > 30"
  in
  let answers =
    List.map
      (fun s ->
        match Strategy.run_query s fed q with
        | Ok (answer, _) -> answer
        | Error msg -> Alcotest.fail msg)
      [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
  in
  match answers with
  | ca :: rest ->
    (* John: age 31 -> certain regardless of city. Hedy/Fanny: Taipei ->
       certain. Tony: age 28, city unknown -> maybe. Mary: age 24, city
       unknown -> maybe. *)
    Alcotest.(check int) "three certain" 3 (List.length (Answer.certain ca));
    Alcotest.(check int) "two maybe" 2 (List.length (Answer.maybe ca));
    List.iter
      (fun a ->
        Alcotest.(check bool) "localized agrees with CA" true
          (Answer.same_statuses ca a))
      rest
  | [] -> Alcotest.fail "no answers"

(* Strategy string round trip. *)
let test_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "round trip" true
        (Strategy.of_string (Strategy.to_string s) = Some s))
    Strategy.all;
  Alcotest.(check bool) "unknown" true (Strategy.of_string "ZZ" = None);
  Alcotest.(check bool) "case-insensitive" true
    (Strategy.of_string "bl" = Some Strategy.Bl)

(* Malformed options fail eagerly — a readable Invalid_argument before any
   simulated work, not a crash (or silent nonsense) mid-run. *)
let test_options_validation () =
  let _, fed, analysis = setup () in
  let run_with options () =
    ignore (Strategy.run ~options Strategy.Bl fed analysis)
  in
  let speeds site_speeds =
    { Strategy.default_options with Strategy.site_speeds }
  in
  let rejected name ~mentions options =
    match run_with options () with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions %S" name msg mentions)
        true
        (Testutil.contains ~needle:mentions msg)
  in
  rejected "duplicate site id" ~mentions:"duplicate site id 1"
    (speeds [ (1, 0.5); (2, 1.0); (1, 2.0) ]);
  rejected "negative site id" ~mentions:"negative site id" (speeds [ (-3, 1.0) ]);
  rejected "zero factor" ~mentions:"must be positive" (speeds [ (1, 0.0) ]);
  rejected "negative factor" ~mentions:"must be positive" (speeds [ (1, -2.0) ]);
  rejected "nan factor" ~mentions:"must be positive" (speeds [ (1, Float.nan) ]);
  rejected "infinite factor" ~mentions:"must be positive"
    (speeds [ (1, Float.infinity) ]);
  rejected "zero retry attempts" ~mentions:"max_attempts"
    {
      Strategy.default_options with
      Strategy.retry = { Strategy.default_retry with Strategy.max_attempts = 0 };
    };
  rejected "backoff below 1" ~mentions:"backoff"
    {
      Strategy.default_options with
      Strategy.retry = { Strategy.default_retry with Strategy.backoff = 0.5 };
    };
  (* valid settings still run *)
  run_with (speeds [ (0, 2.0); (1, 0.25) ]) ()

let test_metrics_render () =
  let _, fed, analysis = setup () in
  let _, m = Strategy.run Strategy.Bl fed analysis in
  let text = Format.asprintf "%a" Strategy.pp_metrics m in
  Alcotest.(check bool) "mentions BL" true (Testutil.contains ~needle:"BL" text);
  Alcotest.(check bool) "has breakdown entries" true
    (List.length m.Strategy.breakdown > 0)

(* Every strategy's answers, simulated times and counters on the synthetic
   federation (test/synth_golden.ml), byte for byte. Regenerate with
   dune exec test/gen_golden.exe only when a number moves on purpose. *)
let test_synth_golden () =
  let want =
    In_channel.with_open_bin
      (Testutil.beside_exe "golden/synth_answers.txt")
      In_channel.input_all
  in
  Alcotest.(check string) "synthetic answers and metrics" want
    (Synth_golden.render ())

(* The same shapes under seeded fault schedules, retry-only, failover and
   hedged (test/fault_golden.ml): times, availability, busy time per label
   and every row with its degraded provenance, byte for byte. *)
let test_fault_golden () =
  let want =
    In_channel.with_open_bin
      (Testutil.beside_exe "golden/fault_answers.txt")
      In_channel.input_all
  in
  Alcotest.(check string) "faulty answers and availability" want
    (Fault_golden.render ())

let suite =
  [
    Alcotest.test_case "all strategies answer Q1" `Quick test_all_strategies_q1;
    Alcotest.test_case "LO ablation on Q1" `Quick test_lo_q1;
    Alcotest.test_case "statuses agree on paper data" `Quick test_statuses_agree;
    Alcotest.test_case "metric relations" `Quick test_metric_relations;
    Alcotest.test_case "deep certification" `Quick test_deep_certify;
    Alcotest.test_case "CA subsumes BL" `Quick test_subsumption;
    Alcotest.test_case "deterministic runs" `Quick test_deterministic;
    Alcotest.test_case "no missing data" `Quick test_no_missing_data;
    Alcotest.test_case "no predicates" `Quick test_no_predicates;
    Alcotest.test_case "disjunctive extension" `Quick test_disjunctive;
    Alcotest.test_case "strategy names" `Quick test_names;
    Alcotest.test_case "eager options validation" `Quick test_options_validation;
    Alcotest.test_case "metrics rendering" `Quick test_metrics_render;
    Alcotest.test_case "synthetic golden" `Quick test_synth_golden;
    Alcotest.test_case "faulty golden" `Quick test_fault_golden;
  ]

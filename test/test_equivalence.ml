(* Cross-strategy semantic properties on random federations and queries.

   These are the correctness claims of the paper, checked by construction:

   - BL and PL differ only in phase order, so their answers coincide.
   - Signature filtering never changes an answer (no false negatives).
   - CA evaluates over fully integrated data, so it subsumes the localized
     answers: every certain result of BL is certain under CA, and CA never
     keeps an object BL eliminated.
   - With deep certification the localized strategies coincide with CA on
     consistent federations. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload

type case = {
  seed : int;
  fed : Federation.t;
  analysis : Analysis.t;
}

(* A federation and a query that analyzes successfully against its global
   schema. *)
let make_case ~disjunctive seed =
  Option.map
    (fun (fed, analysis) -> { seed; fed; analysis })
    (Synth.case ~disjunctive Synth.default seed)

let run case s ?(deep = false) () =
  let options = { Strategy.default_options with Strategy.deep_certify = deep } in
  Strategy.run ~options s case.fed case.analysis

let forall_cases ?(disjunctive = false) ~count name prop =
  QCheck.Test.make ~name ~count
    QCheck.(int_bound 10_000)
    (fun seed ->
      match make_case ~disjunctive seed with
      | None -> true (* no analyzable query for this seed: vacuous *)
      | Some case -> prop case)

let prop_bl_equals_pl =
  forall_cases ~count:40 "BL and PL return the same answer" (fun case ->
      let bl, _ = run case Strategy.Bl () in
      let pl, _ = run case Strategy.Pl () in
      Answer.same_statuses bl pl)

let prop_signatures_preserve_answers =
  forall_cases ~count:40 "signature filtering preserves answers" (fun case ->
      let bl, _ = run case Strategy.Bl () in
      let bls, mbls = run case Strategy.Bls () in
      let pl, _ = run case Strategy.Pl () in
      let pls, _ = run case Strategy.Pls () in
      Answer.same_statuses bl bls && Answer.same_statuses pl pls
      && mbls.Strategy.conflicts = 0)

let prop_subsumption_chain =
  forall_cases ~count:30 "subsumption chain CA >= BL >= LO" (fun case ->
      let ca, _ = run case Strategy.Ca () in
      let bl, _ = run case Strategy.Bl () in
      let lo, _ = run case Strategy.Lo () in
      Answer.subsumes ~strong:ca ~weak:bl
      && Answer.subsumes ~strong:bl ~weak:lo
      && Answer.subsumes ~strong:ca ~weak:lo)

let prop_ca_subsumes_localized =
  forall_cases ~count:40 "CA subsumes BL" (fun case ->
      let ca, _ = run case Strategy.Ca () in
      let bl, _ = run case Strategy.Bl () in
      Answer.subsumes ~strong:ca ~weak:bl)

let prop_deep_matches_ca =
  forall_cases ~count:40 "deep-certified BL coincides with CA" (fun case ->
      let ca, _ = run case Strategy.Ca () in
      let bl, _ = run case Strategy.Bl ~deep:true () in
      Answer.same_statuses ca bl)

let prop_deep_pl_matches_ca =
  forall_cases ~count:25 "deep-certified PL coincides with CA" (fun case ->
      let ca, _ = run case Strategy.Ca () in
      let pl, _ = run case Strategy.Pl ~deep:true () in
      Answer.same_statuses ca pl)

let prop_metrics_sane =
  forall_cases ~count:30 "metrics sanity on random cases" (fun case ->
      List.for_all
        (fun s ->
          let _, m = run case s () in
          Time.compare m.Strategy.response m.Strategy.total <= 0
          && m.Strategy.bytes_shipped >= 0
          && m.Strategy.conflicts = 0)
        Strategy.all)

(* The disjunctive extension: same properties under random and/or/not
   trees. *)
let prop_disjunctive_bl_pl =
  forall_cases ~disjunctive:true ~count:30
    "disjunctive: BL and PL agree" (fun case ->
      let bl, _ = run case Strategy.Bl () in
      let pl, _ = run case Strategy.Pl () in
      Answer.same_statuses bl pl)

let prop_disjunctive_subsumption =
  forall_cases ~disjunctive:true ~count:30
    "disjunctive: certain(BL) within certain(CA)" (fun case ->
      let ca, _ = run case Strategy.Ca () in
      let bl, _ = run case Strategy.Bl () in
      Msdq_odb.Oid.Goid.Set.subset
        (Answer.goids bl Answer.Certain)
        (Answer.goids ca Answer.Certain))

let prop_disjunctive_deep =
  forall_cases ~disjunctive:true ~count:30
    "disjunctive: deep BL coincides with CA" (fun case ->
      let ca, _ = run case Strategy.Ca () in
      let bl, _ = run case Strategy.Bl ~deep:true () in
      Answer.same_statuses ca bl)

(* Larger federations exercise the same invariants at a different scale. *)
let prop_larger_federations =
  QCheck.Test.make ~name:"5-database federations preserve the invariants"
    ~count:10
    QCheck.(int_bound 1_000)
    (fun seed ->
      let cfg =
        {
          Synth.default with
          Synth.seed = seed;
          n_db = 5;
          n_entities = 40;
          p_copy = 0.5;
        }
      in
      let fed = Synth.generate cfg in
      let rng = Rng.create ~seed in
      let query = Synth.random_query rng cfg ~disjunctive:false in
      let schema = Global_schema.schema (Federation.global_schema fed) in
      match Analysis.analyze schema query with
      | exception Analysis.Error _ -> true
      | analysis ->
        let ca, _ = Strategy.run Strategy.Ca fed analysis in
        let bl, _ = Strategy.run Strategy.Bl fed analysis in
        let pl, _ = Strategy.run Strategy.Pl fed analysis in
        let options =
          { Strategy.default_options with Strategy.deep_certify = true }
        in
        let deep, _ = Strategy.run ~options Strategy.Bl fed analysis in
        Answer.same_statuses bl pl
        && Answer.subsumes ~strong:ca ~weak:bl
        && Answer.same_statuses ca deep)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bl_equals_pl;
      prop_signatures_preserve_answers;
      prop_ca_subsumes_localized;
      prop_subsumption_chain;
      prop_deep_matches_ca;
      prop_deep_pl_matches_ca;
      prop_metrics_sane;
      prop_disjunctive_bl_pl;
      prop_disjunctive_subsumption;
      prop_disjunctive_deep;
      prop_larger_federations;
    ]

open Msdq_fed
open Msdq_query
open Msdq_exec

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
  (ex, fed, analysis)

let full_localized fed analysis =
  let results =
    List.map (fun db -> Local_eval.run fed analysis ~db) [ "DB1"; "DB2" ]
  in
  let built =
    List.map2
      (fun db (r : Local_result.t) ->
        Checks.build fed analysis ~db ~root_class:"Student"
          ~items:
            (List.concat_map
               (fun (row : Local_result.row) -> row.Local_result.unsolved)
               r.Local_result.rows))
      [ "DB1"; "DB2" ] results
  in
  let requests = List.concat_map (fun b -> b.Checks.requests) built in
  let by_target db =
    List.filter (fun (r : Checks.request) -> r.Checks.target_db = db) requests
  in
  let verdicts =
    List.concat_map
      (fun db -> (Checks.serve fed ~db (by_target db)).Checks.verdicts)
      [ "DB1"; "DB2"; "DB3" ]
  in
  Certify.run fed analysis ~results ~verdicts

(* The end of the paper's Section 2.3 walk: certain (Hedy, Kelly), maybe
   (Tony, Haley); John eliminated through his absent isomer, Mary through
   the violated department check. *)
let test_paper_outcome () =
  let _, fed, analysis = setup () in
  let out = full_localized fed analysis in
  let answer = out.Certify.answer in
  (match Answer.certain answer with
  | [ row ] ->
    Alcotest.(check (list string)) "certain (Hedy, Kelly)" [ "Hedy"; "Kelly" ]
      (List.map Msdq_odb.Value.to_string row.Answer.values)
  | rows -> Alcotest.fail (Printf.sprintf "%d certain rows" (List.length rows)));
  (match Answer.maybe answer with
  | [ row ] ->
    Alcotest.(check (list string)) "maybe (Tony, Haley)" [ "Tony"; "Haley" ]
      (List.map Msdq_odb.Value.to_string row.Answer.values)
  | rows -> Alcotest.fail (Printf.sprintf "%d maybe rows" (List.length rows)));
  Alcotest.(check int) "John and Mary eliminated at the global site" 2
    out.Certify.eliminated;
  Alcotest.(check int) "Hedy promoted to certain" 1 out.Certify.promoted;
  Alcotest.(check int) "no conflicts" 0 out.Certify.conflicts

(* Without any verdicts, Hedy stays maybe (her department check is pending)
   and Mary survives as maybe; John is still eliminated by his missing
   isomer in R2. *)
let test_without_verdicts () =
  let _, fed, analysis = setup () in
  let results =
    List.map (fun db -> Local_eval.run fed analysis ~db) [ "DB1"; "DB2" ]
  in
  let out = Certify.run fed analysis ~results ~verdicts:[] in
  let answer = out.Certify.answer in
  Alcotest.(check int) "no certain rows" 0 (List.length (Answer.certain answer));
  Alcotest.(check int) "three maybes (Tony, Mary, Hedy)" 3
    (List.length (Answer.maybe answer));
  Alcotest.(check int) "only John eliminated" 1 out.Certify.eliminated

(* Certification with a single database's results: cross-db elimination
   cannot happen, so John survives as maybe. *)
let test_single_db () =
  let _, fed, analysis = setup () in
  let results = [ Local_eval.run fed analysis ~db:"DB1" ] in
  let out = Certify.run fed analysis ~results ~verdicts:[] in
  Alcotest.(check int) "all three maybes" 3 (List.length (Answer.rows out.Certify.answer));
  Alcotest.(check int) "nothing eliminated" 0 out.Certify.eliminated

let test_work_counted () =
  let _, fed, analysis = setup () in
  let out = full_localized fed analysis in
  Alcotest.(check bool) "accesses counted" true
    (out.Certify.work.Msdq_odb.Meter.accesses > 0)

(* ---- Equivalence with the list-based reference ---- *)

(* [Certify.run] groups rows by a counting sort over GOids, keys verdicts by
   one int and stamps databases per entity; test/certify_ref.ml is the
   list-based certification it replaced. Both must give the same answer
   rows, counters and meter totals on random synthetic federations and
   root, nested or disjunctive queries, under BL/PL inputs with or without
   signature filtering, every verdict list a run can hand over, with and
   without multi-valued integration, and results in any database order. *)

module Synth = Msdq_workload.Synth
module Rng = Msdq_workload.Rng

type verdicts =
  | Full  (** every verdict, in delivery order *)
  | Subset  (** a random subset, as lost batches leave *)
  | Duplicated  (** some verdicts delivered twice, shuffled *)
  | Flipped  (** some verdicts re-delivered with the opposite truth *)

type case = {
  config : Synth.config;
  query_seed : int;
  disjunctive : bool;
  parallel : bool;
  signatures : bool;
  multi_valued : bool;
  verdicts : verdicts;
  shuffle_seed : int;
}

let gen_case =
  QCheck.Gen.(
    map
      (fun ((seed, n_db, n_entities, (copy, host, (null, present), divergent)),
            (query_seed, disjunctive, parallel, signatures),
            (multi_valued, verdicts, shuffle_seed)) ->
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
          parallel;
          signatures;
          multi_valued;
          verdicts;
          shuffle_seed;
        })
      (triple
         (quad (int_bound 100_000) (int_range 2 4) (int_range 1 60)
            (quad (float_range 0.1 0.9) (oneofl [ 0.7; 1.0 ])
               (pair (float_range 0.0 0.3) (float_range 0.3 0.8))
               (oneofl [ 0.0; 0.3; 0.5 ])))
         (quad (int_bound 10_000) bool bool bool)
         (triple bool (oneofl [ Full; Subset; Duplicated; Flipped ]) (int_bound 100_000))))

let print_case c =
  Printf.sprintf
    "seed %d dbs %d entities %d copy %g null %g present %g divergent %g; query %d%s; %s%s%s; \
     verdicts %s; shuffle %d"
    c.config.Synth.seed c.config.Synth.n_db c.config.Synth.n_entities c.config.Synth.p_copy
    c.config.Synth.p_null c.config.Synth.p_attr_present c.config.Synth.p_divergent c.query_seed
    (if c.disjunctive then " disjunctive" else "")
    (if c.parallel then "PL" else "BL")
    (if c.signatures then "S" else "")
    (if c.multi_valued then " multi-valued" else "")
    (match c.verdicts with
    | Full -> "full"
    | Subset -> "subset"
    | Duplicated -> "duplicated"
    | Flipped -> "flipped")
    c.shuffle_seed

let shuffle rng l =
  List.map snd
    (List.sort (fun (a, _) (b, _) -> Int.compare a b)
       (List.map (fun x -> (Rng.int rng ~bound:1_000_000, x)) l))

let flip (v : Checks.verdict) =
  let truth =
    match v.Checks.truth with
    | Msdq_odb.Truth.True -> Msdq_odb.Truth.False
    | Msdq_odb.Truth.False -> Msdq_odb.Truth.True
    | Msdq_odb.Truth.Unknown -> Msdq_odb.Truth.Unknown
  in
  { v with Checks.truth }

let same_as_reference c =
  match Synth.case ~disjunctive:c.disjunctive c.config c.query_seed with
  | None -> true
  | Some (fed, analysis) ->
    let rng = Rng.create ~seed:c.shuffle_seed in
    let signatures = if c.signatures then Some (Sig_catalog.build fed) else None in
    let results, all = Certify_ref.inputs ~parallel:c.parallel ~signatures fed analysis in
    let some () = List.filter (fun _ -> Rng.bool rng ~p:0.5) all in
    let verdicts =
      match c.verdicts with
      | Full -> all
      | Subset -> some ()
      | Duplicated -> shuffle rng (all @ some ())
      | Flipped -> shuffle rng (all @ List.map flip (some ()))
    in
    let results = shuffle rng results in
    let multi_valued = c.multi_valued in
    let dense = Certify_ref.render (Certify.run ~multi_valued fed analysis ~results ~verdicts) in
    let reference =
      Certify_ref.render (Certify_ref.run ~multi_valued fed analysis ~results ~verdicts)
    in
    String.equal dense reference
    || QCheck.Test.fail_reportf "Certify.run:\n%s\nreference:\n%s" dense reference

let prop_same_as_reference =
  QCheck.Test.make ~name:"Certify.run = list-based reference" ~count:300
    (QCheck.make ~print:print_case gen_case)
    same_as_reference

let suite =
  [
    Alcotest.test_case "paper outcome (fig 7c/7d)" `Quick test_paper_outcome;
    Alcotest.test_case "without verdicts" `Quick test_without_verdicts;
    Alcotest.test_case "single database" `Quick test_single_db;
    Alcotest.test_case "work counted" `Quick test_work_counted;
    QCheck_alcotest.to_alcotest prop_same_as_reference;
  ]

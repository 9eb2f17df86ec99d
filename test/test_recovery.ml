(* Failover recovery: the per-link circuit breaker's state machine at exact
   window boundaries, certification's insensitivity to duplicate verdicts
   (what makes hedged dispatch safe), and the chaos-tested recovery
   dominance invariants:

     certain(recovery) ⊆ certain(fault-free)        (soundness, still)
     demoted(recovery) ≤ demoted(retry-only)        (failover only helps)

   on every random schedule, for all localized strategies, with and without
   hedging. *)

open Msdq_simkit
open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
module Fault = Msdq_fault.Fault
module Breaker = Recovery.Breaker

let ms = Time.ms

let run_opts fault recovery s fed analysis =
  let options =
    { Strategy.default_options with Strategy.fault; Strategy.recovery }
  in
  Strategy.run ~options s fed analysis

(* ---- policy validation ---- *)

let test_policy_validate () =
  Recovery.validate Recovery.disabled;
  Recovery.validate Recovery.default;
  Recovery.validate (Recovery.hedged (ms 0.5));
  (match Recovery.validate { Recovery.default with Recovery.breaker_threshold = 0 } with
  | () -> Alcotest.fail "threshold 0 accepted"
  | exception Invalid_argument _ -> ());
  match
    Recovery.validate
      { Recovery.default with Recovery.hedge_after = Some (Time.us (-1.0)) }
  with
  | () -> Alcotest.fail "negative hedge_after accepted"
  | exception Invalid_argument _ -> ()

(* ---- breaker state machine at exact window boundaries ---- *)

let window_sched =
  {
    Fault.seed = 0;
    slowdowns = [];
    partitions = [];
    sites =
      [ { Fault.site = 2; outages = [ { Fault.down = ms 1.0; up = ms 2.0 } ] } ];
    links = [];
  }

let test_breaker_boundaries () =
  let b = Breaker.create ~threshold:2 ~sched:window_sched () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b ~site:2 = Breaker.Closed);
  Alcotest.(check bool) "closed is live" true (Breaker.live b ~site:2 ~at:(ms 1.0));
  (* first drop at the crash instant itself: under threshold, still closed *)
  Breaker.failure b ~site:2 ~at:(ms 1.0);
  Alcotest.(check bool) "below threshold stays closed" true
    (Breaker.state b ~site:2 = Breaker.Closed);
  (* second consecutive drop opens; the probe instant is the schedule's
     next-up for the covering window *)
  Breaker.failure b ~site:2 ~at:(ms 1.2);
  Alcotest.(check bool) "opens at threshold" true
    (Breaker.state b ~site:2 = Breaker.Open);
  Alcotest.(check int) "opened counted" 1 (Breaker.opened_total b);
  Alcotest.(check bool) "open rejects before up" false
    (Breaker.live b ~site:2 ~at:(ms 1.5));
  (* up - epsilon: still rejected *)
  Alcotest.(check bool) "open rejects at up - eps" false
    (Breaker.allow b ~site:2 ~at:(Time.us 1999.999));
  Alcotest.(check bool) "still open after denied allow" true
    (Breaker.state b ~site:2 = Breaker.Open);
  (* exactly at up (recovery instant, exclusive end of the window): the
     half-open probe is granted — once *)
  Alcotest.(check bool) "live at up" true (Breaker.live b ~site:2 ~at:(ms 2.0));
  Alcotest.(check bool) "probe granted at up" true
    (Breaker.allow b ~site:2 ~at:(ms 2.0));
  Alcotest.(check bool) "half-open" true
    (Breaker.state b ~site:2 = Breaker.Half_open);
  Alcotest.(check int) "probe counted" 1 (Breaker.probes_total b);
  Alcotest.(check bool) "second concurrent probe denied" false
    (Breaker.allow b ~site:2 ~at:(ms 2.0));
  (* successful probe closes and resets the consecutive count *)
  Breaker.success b ~site:2;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b ~site:2 = Breaker.Closed);
  Breaker.failure b ~site:2 ~at:(ms 2.5);
  Alcotest.(check bool) "consecutive count was reset" true
    (Breaker.state b ~site:2 = Breaker.Closed);
  (* reopen while the site is up: drops can come from the lossy link alone,
     so the probe is due immediately *)
  Breaker.failure b ~site:2 ~at:(ms 2.6);
  Alcotest.(check bool) "reopens" true (Breaker.state b ~site:2 = Breaker.Open);
  Alcotest.(check int) "reopen counted" 2 (Breaker.opened_total b);
  Alcotest.(check bool) "site up: probe due immediately" true
    (Breaker.allow b ~site:2 ~at:(ms 2.6));
  (* a failed probe reopens *)
  Breaker.failure b ~site:2 ~at:(ms 2.7);
  Alcotest.(check bool) "failed probe reopens" true
    (Breaker.state b ~site:2 = Breaker.Open);
  Alcotest.(check int) "failed probe counts as opening" 3 (Breaker.opened_total b);
  (* other sites are independent *)
  Alcotest.(check bool) "other site unaffected" true (Breaker.live b ~site:1 ~at:(ms 2.7))

let test_breaker_permanent () =
  let sched =
    {
      Fault.seed = 0;
      slowdowns = [];
      partitions = [];
      sites =
        [
          {
            Fault.site = 3;
            outages = [ { Fault.down = ms 1.0; up = Time.us Float.infinity } ];
          };
        ];
      links = [];
    }
  in
  let events = ref [] in
  let b =
    Breaker.create ~on_event:(fun ev -> events := ev :: !events) ~threshold:1
      ~sched ()
  in
  Breaker.failure b ~site:3 ~at:(ms 1.5);
  Alcotest.(check bool) "opens on first drop at threshold 1" true
    (Breaker.state b ~site:3 = Breaker.Open);
  Alcotest.(check bool) "never live again" false
    (Breaker.live b ~site:3 ~at:(ms 100.0));
  Alcotest.(check bool) "no probe ever" false (Breaker.allow b ~site:3 ~at:(ms 100.0));
  Alcotest.(check int) "no probes granted" 0 (Breaker.probes_total b);
  match !events with
  | [ Breaker.Opened { site = 3; probe_at = None; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Opened event with probe_at = None"

(* ---- certification is insensitive to duplicate verdicts ---- *)

(* The full localized pipeline on the paper example, yielding real local
   results and the complete verdict set (same shape as test_certify.ml). *)
let paper_pipeline () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
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
  let verdicts =
    List.concat_map
      (fun db ->
        (Checks.serve fed ~db
           (List.filter
              (fun (r : Checks.request) -> r.Checks.target_db = db)
              requests))
          .Checks.verdicts)
      [ "DB1"; "DB2"; "DB3" ]
  in
  (fed, analysis, results, verdicts)

let prop_duplicate_verdicts =
  QCheck.Test.make
    ~name:"recovery: certification insensitive to duplicate verdicts" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let fed, analysis, results, verdicts = paper_pipeline () in
      let baseline = (Certify.run fed analysis ~results ~verdicts).Certify.answer in
      (* duplicate a random sub-multiset (a hedged batch re-delivering what a
         racer already delivered) and shuffle the surplus in *)
      let rng = Rng.create ~seed in
      let dups = List.filter (fun _ -> Rng.float rng < 0.5) verdicts in
      let key (v : Checks.verdict) = (v.origin_db, Oid.Loid.to_int v.item, v.atom) in
      let interleaved =
        List.sort (fun a b -> compare (key a) (key b)) (verdicts @ dups)
      in
      let doubled =
        (Certify.run fed analysis ~results ~verdicts:(verdicts @ dups))
          .Certify.answer
      in
      let sorted =
        (Certify.run fed analysis ~results ~verdicts:interleaved).Certify.answer
      in
      Answer.same_statuses baseline doubled && Answer.same_statuses baseline sorted)

(* ---- failover end to end on a synthetic federation ---- *)

let make_case = Synth.case { Synth.default with Synth.p_host = 1.0; p_copy = 0.5 }

(* A component site that never comes back: retry-only demotes every row an
   abandoned batch touched; under the recovery policy only keys no live
   replica answered demote. The seed is pinned to a case where isomeric
   replicas cover the dead site's checks, so the improvement is strict. *)
let test_failover_recovers () =
  match make_case 28 with
  | None -> Alcotest.fail "no analyzable case"
  | Some (fed, analysis) ->
    let ff_answer, _ = Strategy.run Strategy.Bl fed analysis in
    let dead = 2 in
    let fault =
      {
        Fault.seed = 11;
        slowdowns = [];
        partitions = [];
        sites =
          [
            {
              Fault.site = dead;
              outages = [ { Fault.down = Time.zero; up = Time.us Float.infinity } ];
            };
          ];
        links = [];
      }
    in
    let _, m_retry = run_opts fault Recovery.disabled Strategy.Bl fed analysis in
    let a_fo, m_fo = run_opts fault Recovery.default Strategy.Bl fed analysis in
    let ar = m_retry.Strategy.availability in
    let af = m_fo.Strategy.availability in
    let ffc = Answer.goids ff_answer Answer.Certain in
    let foc = Answer.goids a_fo Answer.Certain in
    Alcotest.(check bool) "retry-only demotes something" true (ar.Strategy.demoted > 0);
    Alcotest.(check bool) "failover sound" true (Oid.Goid.Set.subset foc ffc);
    Alcotest.(check bool) "failover dominates retry-only" true
      (af.Strategy.demoted <= ar.Strategy.demoted);
    Alcotest.(check bool) "strict improvement" true
      (af.Strategy.demoted < ar.Strategy.demoted);
    Alcotest.(check bool) "recovered rows reported" true (af.Strategy.recovered > 0);
    Alcotest.(check bool) "recovered counter matches" true
      (Msdq_obs.Metrics.total m_fo.Strategy.registry "msdq_recovery_recovered_total"
       = af.Strategy.recovered);
    (* reconciliation still holds with recovery on *)
    Alcotest.(check int) "reconciliation"
      (Oid.Goid.Set.cardinal ffc)
      (Oid.Goid.Set.cardinal foc + af.Strategy.demoted);
    (* rows that still demoted carry the failover chain as provenance *)
    Oid.Goid.Set.iter
      (fun g ->
        match Answer.degraded_reason a_fo g with
        | Some _ -> ()
        | None -> ())
      (Answer.degraded a_fo)

(* Lossy links with no crash at all: breakers open after consecutive drops,
   abandoned batches fail over (here often to the very same target, with
   fresh draws), and the counters surface in the registry. *)
let test_breaker_counters_surface () =
  match make_case 9 with
  | None -> Alcotest.fail "no analyzable case"
  | Some (fed, analysis) ->
    let n_db = List.length (Federation.databases fed) in
    let fault =
      {
        Fault.seed = 23;
        slowdowns = [];
        partitions = [];
        sites = [];
        links =
          List.init n_db (fun i -> { Fault.dst = i + 1; drop = 0.85; inflate = 1.0; jitter = 0.0 });
      }
    in
    let recovery = { Recovery.default with Recovery.breaker_threshold = 2 } in
    let _, m = run_opts fault recovery Strategy.Bl fed analysis in
    let total name = Msdq_obs.Metrics.total m.Strategy.registry name in
    Alcotest.(check bool) "breakers opened under heavy loss" true
      (total "msdq_breaker_opened_total" > 0);
    Alcotest.(check bool) "half-open probes granted" true
      (total "msdq_breaker_probes_total" > 0);
    Alcotest.(check bool) "failovers dispatched" true
      (total "msdq_recovery_failovers_total" > 0);
    let span_names =
      List.filter
        (fun (s : Msdq_obs.Tracer.span) -> String.equal s.Msdq_obs.Tracer.cat "breaker")
        m.Strategy.host_spans
    in
    Alcotest.(check bool) "breaker span events recorded" true (span_names <> [])

(* ---- chaos: recovery dominance over random schedules ---- *)

let localized = [ Strategy.Bl; Strategy.Pl; Strategy.Bls; Strategy.Pls ]

let prop_recovery_dominates =
  QCheck.Test.make
    ~name:"chaos: recovery is sound and dominates retry-only demotion"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      match make_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let recovery =
          (* alternate plain failover and failover+hedging across schedules *)
          if seed mod 2 = 0 then Recovery.default
          else Recovery.hedged (Time.ms 0.5)
        in
        List.for_all
          (fun s ->
            let ff_answer, ff = Strategy.run s fed analysis in
            let horizon =
              Time.us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
            in
            let fault =
              Testutil.random_schedule ~seed:(seed + 31)
                ~n_db:(List.length (Federation.databases fed))
                ~horizon
            in
            let _, m_retry = run_opts fault Recovery.disabled s fed analysis in
            let answer, m_fo = run_opts fault recovery s fed analysis in
            let a = m_fo.Strategy.availability in
            let ffc = Answer.goids ff_answer Answer.Certain in
            let fc = Answer.goids answer Answer.Certain in
            let fm = Answer.goids answer Answer.Maybe in
            (* soundness and completeness still hold with recovery on *)
            Oid.Goid.Set.subset fc ffc
            && Oid.Goid.Set.subset ffc (Oid.Goid.Set.union fc fm)
            (* reconciliation *)
            && Oid.Goid.Set.cardinal fc + a.Strategy.demoted
               = Oid.Goid.Set.cardinal ffc
            (* dominance: failover never demotes more than retry-only *)
            && a.Strategy.demoted
               <= m_retry.Strategy.availability.Strategy.demoted)
          localized)

let prop_recovery_deterministic =
  QCheck.Test.make ~name:"chaos: recovery runs are reproducible" ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      match make_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let _, ff = Strategy.run Strategy.Bl fed analysis in
        let horizon =
          Time.us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
        in
        let fault =
          Testutil.random_schedule ~seed:(seed + 7)
            ~n_db:(List.length (Federation.databases fed))
            ~horizon
        in
        let bytes () =
          let a, m =
            run_opts fault (Recovery.hedged (Time.ms 0.5)) Strategy.Bl fed analysis
          in
          Msdq_obs.Json.to_string (Msdq_exp.Run_report.run_to_json a m)
        in
        String.equal (bytes ()) (bytes ()))

let suite =
  [
    Alcotest.test_case "policy validation" `Quick test_policy_validate;
    Alcotest.test_case "breaker window boundaries" `Quick test_breaker_boundaries;
    Alcotest.test_case "breaker permanent outage" `Quick test_breaker_permanent;
    Alcotest.test_case "failover recovers demotions" `Quick test_failover_recovers;
    Alcotest.test_case "breaker counters and spans" `Quick test_breaker_counters_surface;
    QCheck_alcotest.to_alcotest prop_duplicate_verdicts;
    QCheck_alcotest.to_alcotest prop_recovery_dominates;
    QCheck_alcotest.to_alcotest prop_recovery_deterministic;
  ]

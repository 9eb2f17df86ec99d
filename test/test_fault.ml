(* Fault injection: schedule validation, the deterministic drop draw, the
   engine-level failure semantics, and the chaos properties — for any seeded
   fault schedule the degraded answer is sound:

     certain(faulty) ⊆ certain(fault-free)
     certain(faulty) ∪ maybe(faulty) ⊇ certain(fault-free)

   and the availability section reconciles exactly with the fault-free run:
   |certain(faulty)| + demoted = |certain(fault-free)|.

   The chaos suite honours QCHECK_SEED (qcheck-alcotest), which CI rotates
   and prints per job for reproduction. *)

open Msdq_simkit
open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
module Fault = Msdq_fault.Fault

let ms = Time.ms

let paper_case () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  (fed, analysis)

let run_with fault s fed analysis =
  let options = { Strategy.default_options with Strategy.fault } in
  Strategy.run ~options s fed analysis

(* ---- validation ---- *)

let rejects name schedule =
  match Fault.validate schedule with
  | () -> Alcotest.failf "%s accepted" name
  | exception Invalid_argument _ -> ()

let test_validate () =
  Fault.validate Fault.none;
  Fault.validate
    {
      Fault.seed = 1;
      slowdowns = [];
      partitions = [];
      sites = [ { Fault.site = 2; outages = [ { Fault.down = ms 1.0; up = ms 2.0 } ] } ];
      links = [ { Fault.dst = 0; drop = 0.5; inflate = 2.0; jitter = 0.0 } ];
    };
  rejects "negative site"
    { Fault.none with Fault.sites = [ { Fault.site = -1; outages = [] } ] };
  rejects "up <= down"
    {
      Fault.none with
      Fault.sites =
        [ { Fault.site = 1; outages = [ { Fault.down = ms 2.0; up = ms 2.0 } ] } ];
    };
  rejects "overlapping windows"
    {
      Fault.none with
      Fault.sites =
        [
          {
            Fault.site = 1;
            outages =
              [
                { Fault.down = ms 1.0; up = ms 3.0 };
                { Fault.down = ms 2.0; up = ms 4.0 };
              ];
          };
        ];
    };
  rejects "drop > 1"
    { Fault.none with Fault.links = [ { Fault.dst = 0; drop = 1.5; inflate = 1.0; jitter = 0.0 } ] };
  rejects "inflate < 1"
    { Fault.none with Fault.links = [ { Fault.dst = 0; drop = 0.0; inflate = 0.5; jitter = 0.0 } ] }

(* The validator's diagnostics are part of the operator surface — bench
   configs and CI logs quote them verbatim — so pin the exact text of one
   representative message per rejection rule. *)
let test_validate_messages () =
  let msg_of thunk =
    match thunk () with
    | () -> None
    | exception Invalid_argument m -> Some m
  in
  let win down up = { Fault.down; up } in
  let link dst = { Fault.dst; drop = 0.0; inflate = 1.0; jitter = 0.0 } in
  let v sched () = Fault.validate sched in
  let cases =
    [
      ( "negative site id",
        v { Fault.none with Fault.sites = [ { Fault.site = -1; outages = [] } ] },
        "Fault.validate: negative site id -1" );
      ( "outage window before zero",
        v
          {
            Fault.none with
            Fault.sites =
              [ { Fault.site = 1; outages = [ win (Time.us (-1.0)) (ms 1.0) ] } ];
          },
        "Fault.validate: site 1: window starts before time zero" );
      ( "outage window never recovers",
        v
          {
            Fault.none with
            Fault.sites =
              [ { Fault.site = 1; outages = [ win (ms 2.0) (ms 2.0) ] } ];
          },
        "Fault.validate: site 1: window recovers at 2000, not after crash at \
         2000" );
      ( "outage windows overlap",
        v
          {
            Fault.none with
            Fault.sites =
              [
                {
                  Fault.site = 1;
                  outages = [ win (ms 1.0) (ms 3.0); win (ms 2.0) (ms 4.0) ];
                };
              ];
          },
        "Fault.validate: site 1: windows overlap or are unordered" );
      ( "negative link site id",
        v { Fault.none with Fault.links = [ link (-2) ] },
        "Fault.validate: negative link site id -2" );
      ( "drop probability outside [0,1]",
        v { Fault.none with Fault.links = [ { (link 0) with Fault.drop = 1.5 } ] },
        "Fault.validate: link to 0: drop probability 1.5 outside [0,1]" );
      ( "inflation below 1",
        v
          {
            Fault.none with
            Fault.links = [ { (link 3) with Fault.inflate = 0.5 } ];
          },
        "Fault.validate: link to 3: inflation 0.5 below 1" );
      ( "infinite inflation",
        v
          {
            Fault.none with
            Fault.links = [ { (link 3) with Fault.inflate = Float.infinity } ];
          },
        "Fault.validate: link to 3: inflation inf not finite" );
      ( "negative jitter",
        v
          {
            Fault.none with
            Fault.links = [ { (link 4) with Fault.jitter = -0.25 } ];
          },
        "Fault.validate: link to 4: jitter -0.25 negative or not finite" );
      ( "negative slowdown site id",
        v
          {
            Fault.none with
            Fault.slowdowns =
              [ { Fault.slow_site = -3; factor = 2.0; busy = [] } ];
          },
        "Fault.validate: negative slowdown site id -3" );
      ( "slowdown factor below 1",
        v
          {
            Fault.none with
            Fault.slowdowns =
              [ { Fault.slow_site = 2; factor = 0.9; busy = [] } ];
          },
        "Fault.validate: slowdown at site 2: factor 0.9 below 1" );
      ( "slowdown windows overlap",
        v
          {
            Fault.none with
            Fault.slowdowns =
              [
                {
                  Fault.slow_site = 2;
                  factor = 2.0;
                  busy = [ win (ms 1.0) (ms 3.0); win (ms 2.0) (ms 4.0) ];
                };
              ];
          },
        "Fault.validate: slowdown at site 2: windows overlap or are unordered"
      );
      ( "negative partition site id",
        v
          {
            Fault.none with
            Fault.partitions =
              [ { Fault.part_site = -4; direction = Fault.Inbound; cut = [] } ];
          },
        "Fault.validate: negative partition site id -4" );
      ( "partition window before zero",
        v
          {
            Fault.none with
            Fault.partitions =
              [
                {
                  Fault.part_site = 3;
                  direction = Fault.Outbound;
                  cut = [ win (Time.us (-1.0)) (ms 1.0) ];
                };
              ];
          },
        "Fault.validate: partition at site 3: window starts before time zero"
      );
      ( "flap_train period not positive",
        (fun () ->
          ignore
            (Fault.flap_train ~from:Time.zero ~until:(ms 1.0)
               ~period:Time.zero ~duty:0.5)),
        "Fault.flap_train: period must be positive and finite" );
      ( "flap_train duty outside (0,1)",
        (fun () ->
          ignore
            (Fault.flap_train ~from:Time.zero ~until:(ms 1.0)
               ~period:(ms 0.1) ~duty:1.0)),
        "Fault.flap_train: duty must be in (0, 1)" );
      ( "flap_train negative from",
        (fun () ->
          ignore
            (Fault.flap_train ~from:(Time.us (-1.0)) ~until:(ms 1.0)
               ~period:(ms 0.1) ~duty:0.5)),
        "Fault.flap_train: from must be >= 0" );
      ( "flap_train until before from",
        (fun () ->
          ignore
            (Fault.flap_train ~from:(ms 1.0) ~until:(ms 1.0) ~period:(ms 0.1)
               ~duty:0.5)),
        "Fault.flap_train: until must be after from" );
      ( "random availability outside (0,1]",
        (fun () ->
          ignore
            (Fault.random
               ~rng:(Rng.create ~seed:1)
               ~sites:[ 1 ] ~availability:0.0 ~horizon:(ms 1.0) ())),
        "Fault.random: availability must be in (0, 1]" );
      ( "random horizon not positive",
        (fun () ->
          ignore
            (Fault.random
               ~rng:(Rng.create ~seed:1)
               ~sites:[ 1 ] ~availability:0.9 ~horizon:Time.zero ())),
        "Fault.random: horizon must be positive and finite" );
      ( "random negative jitter",
        (fun () ->
          ignore
            (Fault.random
               ~rng:(Rng.create ~seed:1)
               ~sites:[ 1 ] ~availability:0.9 ~horizon:(ms 1.0) ~jitter:(-1.0)
               ())),
        "Fault.random: jitter must be >= 0" );
      ( "random slow below 1",
        (fun () ->
          ignore
            (Fault.random
               ~rng:(Rng.create ~seed:1)
               ~sites:[ 1 ] ~availability:0.9 ~horizon:(ms 1.0) ~slow:0.5 ())),
        "Fault.random: slow must be >= 1" );
      ( "random oneway outside [0,1]",
        (fun () ->
          ignore
            (Fault.random
               ~rng:(Rng.create ~seed:1)
               ~sites:[ 1 ] ~availability:0.9 ~horizon:(ms 1.0) ~oneway:1.5 ())),
        "Fault.random: oneway must be in [0, 1]" );
    ]
  in
  List.iter
    (fun (name, thunk, expected) ->
      Alcotest.(check (option string)) name (Some expected) (msg_of thunk))
    cases

let test_windows () =
  let sched =
    {
      Fault.seed = 0;
      slowdowns = [];
      partitions = [];
      sites =
        [
          {
            Fault.site = 2;
            outages =
              [
                { Fault.down = ms 1.0; up = ms 2.0 };
                { Fault.down = ms 5.0; up = Time.us Float.infinity };
              ];
          };
        ];
      links = [];
    }
  in
  Fault.validate sched;
  Alcotest.(check bool) "up before first window" false
    (Fault.site_down sched ~site:2 ~at:(ms 0.5));
  Alcotest.(check bool) "down inside window" true
    (Fault.site_down sched ~site:2 ~at:(ms 1.5));
  Alcotest.(check bool) "recovery instant is up" false
    (Fault.site_down sched ~site:2 ~at:(ms 2.0));
  Alcotest.(check bool) "other sites unaffected" false
    (Fault.site_down sched ~site:1 ~at:(ms 1.5));
  (match Fault.next_up sched ~site:2 ~at:(ms 1.5) with
  | Some t -> Alcotest.(check (float 1e-9)) "next_up inside window" 2000.0 (Time.to_us t)
  | None -> Alcotest.fail "expected recovery");
  Alcotest.(check bool) "permanent outage never recovers" true
    (Fault.next_up sched ~site:2 ~at:(ms 6.0) = None);
  Alcotest.(check bool) "permanently down" true
    (Fault.permanently_down sched ~site:2 ~at:(ms 6.0));
  Alcotest.(check (list int)) "failed sites" [ 2 ] (Fault.failed_sites sched)

(* ---- the deterministic drop draw ---- *)

let test_drop_draw () =
  let sched = { Fault.none with Fault.seed = 1234 } in
  let draw i p =
    Fault.drop_draw sched ~dst:0
      ~label:(Printf.sprintf "transfer-%d" i)
      ~start:(Time.us (float_of_int (i * 17)))
      ~p
  in
  for i = 0 to 99 do
    Alcotest.(check bool) "p=0 never drops" false (draw i 0.0);
    Alcotest.(check bool) "p=1 always drops" true (draw i 1.0);
    Alcotest.(check bool) "deterministic" (draw i 0.3) (draw i 0.3)
  done;
  let n = 2000 in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if draw i 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "drop frequency %.3f near 0.3" freq)
    true
    (freq > 0.25 && freq < 0.35)

(* The draw is a pure hash of (seed, dst, label, start): the order in which
   the schedule happens to list its sites and links is immaterial. *)
let prop_drop_draw_permutation =
  QCheck.Test.make
    ~name:"drop draw is stable under sites/links permutation" ~count:100
    QCheck.(pair (int_bound 100_000) (int_bound 1_000))
    (fun (seed, salt) ->
      let sites =
        List.init 4 (fun i ->
            {
              Fault.site = i + 1;
              outages = [ { Fault.down = ms (float_of_int (i + 1)); up = ms 9.0 } ];
            })
      in
      let links =
        List.init 5 (fun i ->
            { Fault.dst = i; drop = 0.1 *. float_of_int (i + 1); inflate = 1.0; jitter = 0.0 })
      in
      let shuffle l =
        let rng = Rng.create ~seed:salt in
        List.map snd
          (List.sort compare
             (List.map (fun x -> (Rng.int rng ~bound:1_000_000, x)) l))
      in
      let a = { Fault.seed; sites; links; slowdowns = []; partitions = [] } in
      let b = { Fault.seed; sites = shuffle sites; links = shuffle links; slowdowns = []; partitions = [] } in
      List.for_all
        (fun i ->
          let draw s =
            Fault.drop_draw s ~dst:(i mod 6)
              ~label:(Printf.sprintf "leg-%d" i)
              ~start:(Time.us (float_of_int (salt + (i * 13))))
              ~p:0.4
          in
          draw a = draw b)
        (List.init 50 Fun.id))

(* Availability 1.0 with a non-zero drop: a lossy-link-only schedule — no
   outage windows, every listed site's incoming link lossy. *)
let test_drop_only_schedule () =
  let rng = Rng.create ~seed:42 in
  let sched =
    Fault.random ~rng ~sites:[ 1; 2; 3 ] ~availability:1.0 ~horizon:(ms 10.0)
      ~drop:0.4 ()
  in
  Fault.validate sched;
  Alcotest.(check bool) "no outage windows" true (sched.Fault.sites = []);
  Alcotest.(check int) "one lossy link per site" 3 (List.length sched.Fault.links);
  Alcotest.(check (list int)) "no failed sites" [] (Fault.failed_sites sched);
  let fed, analysis = paper_case () in
  let ff_answer, _ = Strategy.run Strategy.Bl fed analysis in
  let answer, m = run_with sched Strategy.Bl fed analysis in
  let a = m.Strategy.availability in
  Alcotest.(check bool) "faults active" true a.Strategy.faults_active;
  Alcotest.(check bool) "messages were lost" true (a.Strategy.drops > 0);
  Alcotest.(check bool) "sound" true
    (Oid.Goid.Set.subset
       (Answer.goids answer Answer.Certain)
       (Answer.goids ff_answer Answer.Certain))

(* ---- engine-level semantics on the paper example ---- *)

let test_link_loss_ca () =
  let fed, analysis = paper_case () in
  let ff_answer, ff = Strategy.run Strategy.Ca fed analysis in
  let fault =
    {
      Fault.seed = 5;
      slowdowns = [];
      partitions = [];
      sites = [];
      links = [ { Fault.dst = 0; drop = 0.9; inflate = 1.0; jitter = 0.0 } ];
    }
  in
  let answer, m = run_with fault Strategy.Ca fed analysis in
  let a = m.Strategy.availability in
  Alcotest.(check bool) "faults active" true a.Strategy.faults_active;
  Alcotest.(check bool) "transfers were lost" true (a.Strategy.drops > 0);
  Alcotest.(check bool) "retries happened" true (a.Strategy.retries > 0);
  (* critical transfers retry until delivered: the answer survives intact *)
  Alcotest.(check bool) "answer statuses preserved" true
    (Answer.same_statuses ff_answer answer);
  Alcotest.(check int) "nothing demoted" 0 a.Strategy.demoted;
  Alcotest.(check bool) "losses cost simulated time" true
    (Time.compare m.Strategy.response ff.Strategy.response > 0)

let test_latency_inflation () =
  let fed, analysis = paper_case () in
  let _, ff = Strategy.run Strategy.Ca fed analysis in
  let fault =
    {
      Fault.seed = 1;
      slowdowns = [];
      partitions = [];
      sites = [];
      links = [ { Fault.dst = 0; drop = 0.0; inflate = 3.0; jitter = 0.0 } ];
    }
  in
  let answer, m = run_with fault Strategy.Ca fed analysis in
  Alcotest.(check bool) "no drops from pure inflation" true
    (m.Strategy.availability.Strategy.drops = 0);
  Alcotest.(check bool) "inflation slows the response" true
    (Time.compare m.Strategy.response ff.Strategy.response > 0);
  Alcotest.(check bool) "answer intact" true
    (Answer.same_statuses answer (fst (Strategy.run Strategy.Ca fed analysis)))

(* A component site that stays down forever: every check round trip into it
   is abandoned, and the affected entities are demoted — never silently
   promoted. *)
let test_crash_demotes () =
  let fed, analysis = paper_case () in
  let ff_answer, _ = Strategy.run Strategy.Bl fed analysis in
  let fault =
    {
      Fault.seed = 2;
      slowdowns = [];
      partitions = [];
      sites =
        [
          {
            Fault.site = 2;
            outages = [ { Fault.down = Time.zero; up = Time.us Float.infinity } ];
          };
        ];
      links = [];
    }
  in
  let answer, m = run_with fault Strategy.Bl fed analysis in
  let a = m.Strategy.availability in
  Alcotest.(check (list int)) "failed site reported" [ 2 ] a.Strategy.failed_sites;
  Alcotest.(check bool) "checks were abandoned" true (a.Strategy.checks_abandoned > 0);
  let ffc = Answer.goids ff_answer Answer.Certain in
  let fc = Answer.goids answer Answer.Certain in
  Alcotest.(check bool) "certain(faulty) subset of certain(fault-free)" true
    (Oid.Goid.Set.subset fc ffc);
  Alcotest.(check int) "reconciliation: certain + demoted = fault-free certain"
    (Oid.Goid.Set.cardinal ffc)
    (Oid.Goid.Set.cardinal fc + a.Strategy.demoted);
  Alcotest.(check int) "demotions carry provenance" a.Strategy.demoted
    (Oid.Goid.Set.cardinal
       (Oid.Goid.Set.filter (fun g -> Oid.Goid.Set.mem g ffc)
          (Answer.degraded answer)))

(* ---- fault-free byte identity ---- *)

(* A schedule that is not empty but can never fire: one link with no loss,
   no inflation and no jitter. Under it every leg is dynamic — a retry
   chain settled by the engine — while under [Fault.none] legs are static
   plain transfers. The two modes must agree on everything the simulated
   clock and the answer show. *)
let inert_schedule =
  {
    Fault.none with
    Fault.links = [ { Fault.dst = 0; drop = 0.0; inflate = 1.0; jitter = 0.0 } ];
  }

(* Static and dynamic legs agree for every strategy, deep certification off
   and on: same answer statuses, total and response, resource-task trace
   entries and counters (the fault counters only the dynamic run registers
   are left out). Returns the first disagreement. *)
let static_vs_dynamic_legs ?(site_speeds = []) fed analysis =
  let resource_tasks (m : Strategy.metrics) =
    List.sort compare
      (List.filter_map
         (fun (e : Trace.entry) ->
           match (e.Trace.site, e.Trace.kind) with
           | Some site, Some kind ->
             Some (e.Trace.label, site, kind, e.Trace.start, e.Trace.finish)
           | _ -> None)
         (Trace.entries m.Strategy.trace))
  in
  let counters (m : Strategy.metrics) =
    List.filter
      (fun (name, _, _) ->
        not (String.starts_with ~prefix:"msdq_fault_" name))
      (Msdq_obs.Metrics.counters m.Strategy.registry)
  in
  List.find_map
    (fun (s, deep_certify) ->
      let run fault =
        Strategy.run
          ~options:
            {
              Strategy.default_options with
              Strategy.fault;
              deep_certify;
              site_speeds;
            }
          s fed analysis
      in
      let a0, m0 = run Fault.none in
      let a1, m1 = run inert_schedule in
      let what =
        Printf.sprintf "%s (deep %b)" (Strategy.to_string s) deep_certify
      in
      if not (Answer.same_statuses a0 a1) then Some (what ^ ": statuses differ")
      else if m0.Strategy.total <> m1.Strategy.total then
        Some (what ^ ": total differs")
      else if m0.Strategy.response <> m1.Strategy.response then
        Some (what ^ ": response differs")
      else if resource_tasks m0 <> resource_tasks m1 then
        Some (what ^ ": resource tasks differ")
      else if counters m0 <> counters m1 then Some (what ^ ": counters differ")
      else None)
    (List.concat_map (fun s -> [ (s, false); (s, true) ]) Strategy.all)

let test_none_is_identity () =
  let fed, analysis = paper_case () in
  List.iter
    (fun s ->
      let default_answer, default_m = Strategy.run s fed analysis in
      let explicit_answer, explicit_m = run_with Fault.none s fed analysis in
      let bytes (a, m) =
        Msdq_obs.Json.to_string (Msdq_exp.Run_report.run_to_json a m)
      in
      Alcotest.(check string)
        (Strategy.to_string s ^ ": Fault.none report is byte-identical")
        (bytes (default_answer, default_m))
        (bytes (explicit_answer, explicit_m));
      Alcotest.(check bool) "availability silent" false
        explicit_m.Strategy.availability.Strategy.faults_active)
    Strategy.all;
  Alcotest.(check (option string)) "Q1: static legs = dynamic legs" None
    (static_vs_dynamic_legs fed analysis);
  Alcotest.(check (option string)) "Q1, site 1 at half speed" None
    (static_vs_dynamic_legs ~site_speeds:[ (1, 0.5) ] fed analysis)

(* ---- chaos properties ---- *)

let chaos_strategies =
  [ Strategy.Ca; Strategy.Bl; Strategy.Pl; Strategy.Bls; Strategy.Pls; Strategy.Cf ]

let prop_chaos_soundness =
  QCheck.Test.make ~name:"chaos: degraded answers are sound" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
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
            let answer, m = run_with fault s fed analysis in
            let a = m.Strategy.availability in
            let ffc = Answer.goids ff_answer Answer.Certain in
            let fc = Answer.goids answer Answer.Certain in
            let fm = Answer.goids answer Answer.Maybe in
            (* soundness: nothing falsely certified *)
            Oid.Goid.Set.subset fc ffc
            (* completeness: nothing certain vanished entirely *)
            && Oid.Goid.Set.subset ffc (Oid.Goid.Set.union fc fm)
            (* reconciliation *)
            && Oid.Goid.Set.cardinal fc + a.Strategy.demoted
               = Oid.Goid.Set.cardinal ffc
            && a.Strategy.certain_fault_free = Oid.Goid.Set.cardinal ffc
            && (Fault.is_none fault || a.Strategy.faults_active)
            && a.Strategy.degradation_ratio >= 0.0
            && a.Strategy.degradation_ratio <= 1.0)
          chaos_strategies)

(* ---- gray chaos ----

   Random schedules over the gray knobs — slowdown windows, link jitter,
   flap trains, one-way partitions — on top of a lossy baseline. Gray
   faults degrade latency, never correctness. *)

let random_gray_schedule ~seed ~n_db ~horizon =
  let rng = Rng.create ~seed in
  let availability = 0.6 +. (0.4 *. Rng.float rng) in
  let availability = if availability >= 0.999 then 1.0 else availability in
  let flap =
    if availability < 1.0 && Rng.float rng < 0.5 then
      Some (Time.us (Time.to_us horizon /. 8.0))
    else None
  in
  Fault.random ~rng
    ~sites:(List.init n_db (fun i -> i + 1))
    ~availability ~horizon
    ~drop:(0.2 *. Rng.float rng)
    ~inflate:(1.0 +. Rng.float rng)
    ~jitter:(2.0 *. Rng.float rng)
    ~slow:(1.0 +. (3.0 *. Rng.float rng))
    ?flap
    ~oneway:(0.6 *. Rng.float rng) ()

(* Replayable chaos failures: a failing draw prints everything needed to
   replay it by hand — the qcheck seed CI rotates and exports, the exact
   schedule rendered by [Fault.pp], and the repro command — before the
   property reports false (or re-raises). *)
let report_failure ~case_seed fault =
  let qcheck_seed =
    match Sys.getenv_opt "QCHECK_SEED" with Some s -> s | None -> "<random>"
  in
  Format.eprintf
    "@[<v>gray chaos failure: case seed %d, QCHECK_SEED=%s@,%a@,replay: \
     QCHECK_SEED=%s dune exec test/main.exe -- test fault@]@."
    case_seed qcheck_seed Fault.pp fault qcheck_seed

let replayable ~case_seed fault body =
  match body () with
  | true -> true
  | false ->
    report_failure ~case_seed fault;
    false
  | exception e ->
    report_failure ~case_seed fault;
    raise e

let run_gray fault ~adaptive s fed analysis =
  let retry =
    if adaptive then
      {
        Strategy.default_retry with
        Strategy.adaptive = Some Strategy.default_adaptive;
      }
    else Strategy.default_retry
  in
  let options = { Strategy.default_options with Strategy.fault; retry } in
  Strategy.run ~options s fed analysis

(* For any random gray schedule, under either timeout policy, the BL
   answer stays sound against the fault-free run and reconciles exactly.
   200+ schedules per the acceptance criterion. *)
let prop_gray_soundness =
  QCheck.Test.make
    ~name:"gray chaos: slow/jitter/flap/one-way answers are sound" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let ff_answer, ff = Strategy.run Strategy.Bl fed analysis in
        let horizon =
          Time.us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
        in
        let fault =
          random_gray_schedule ~seed:(seed + 47)
            ~n_db:(List.length (Federation.databases fed))
            ~horizon
        in
        replayable ~case_seed:seed fault (fun () ->
            let answer, m =
              run_gray fault ~adaptive:(seed mod 2 = 1) Strategy.Bl fed
                analysis
            in
            let a = m.Strategy.availability in
            let ffc = Answer.goids ff_answer Answer.Certain in
            let fc = Answer.goids answer Answer.Certain in
            let fm = Answer.goids answer Answer.Maybe in
            Oid.Goid.Set.subset fc ffc
            && Oid.Goid.Set.subset ffc (Oid.Goid.Set.union fc fm)
            && Oid.Goid.Set.cardinal fc + a.Strategy.demoted
               = Oid.Goid.Set.cardinal ffc))

let prop_chaos_deterministic =
  QCheck.Test.make ~name:"chaos: faulty runs are reproducible" ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      match Testutil.chaos_case seed with
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
          let a, m = run_with fault Strategy.Bl fed analysis in
          Msdq_obs.Json.to_string (Msdq_exp.Run_report.run_to_json a m)
        in
        String.equal (bytes ()) (bytes ()))

(* The same agreement over seeded synthetic federations, odd seeds with
   site 1 at half speed. *)
let prop_static_legs =
  QCheck.Test.make ~name:"static legs agree with inert dynamic legs" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let site_speeds = if seed mod 2 = 1 then [ (1, 0.5) ] else [] in
        match static_vs_dynamic_legs ~site_speeds fed analysis with
        | None -> true
        | Some why -> QCheck.Test.fail_reportf "case seed %d: %s" seed why)

let suite =
  [
    Alcotest.test_case "schedule validation" `Quick test_validate;
    Alcotest.test_case "validation diagnostics" `Quick test_validate_messages;
    Alcotest.test_case "crash windows" `Quick test_windows;
    Alcotest.test_case "drop draw" `Quick test_drop_draw;
    Alcotest.test_case "drop-only schedule" `Quick test_drop_only_schedule;
    QCheck_alcotest.to_alcotest prop_drop_draw_permutation;
    Alcotest.test_case "link loss: CA retries" `Quick test_link_loss_ca;
    Alcotest.test_case "latency inflation" `Quick test_latency_inflation;
    Alcotest.test_case "crash demotes checks" `Quick test_crash_demotes;
    Alcotest.test_case "empty schedule is identity" `Quick test_none_is_identity;
    QCheck_alcotest.to_alcotest prop_static_legs;
    QCheck_alcotest.to_alcotest prop_chaos_soundness;
    QCheck_alcotest.to_alcotest prop_gray_soundness;
    QCheck_alcotest.to_alcotest prop_chaos_deterministic;
  ]

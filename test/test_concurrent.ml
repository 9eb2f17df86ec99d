(* Multi-query workloads sharing one simulated system (extension), through
   the workload engine with caches and batching off: every query pays its
   full cost, so the only coupling between queries is the shared FIFO
   resources. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_serve

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analyze src = Analysis.analyze schema (Parser.parse src) in
  (fed, analyze)

let q1 = Paper_example.q1
let q2 = "select X.name from Student X where X.age > 25"

let cold = { Serve.default_config with Serve.cache_bytes = 0; window = Time.zero }

let serve fed jobs =
  (Serve.run cold fed
     (List.map
        (fun (strategy, analysis, arrival) ->
          { Serve.strategy; analysis; arrival; deadline = None })
        jobs))
    .Serve.reports

(* One query alone on the engine. *)
let solo fed strategy analysis =
  match serve fed [ (strategy, analysis, Time.zero) ] with
  | [ r ] -> r
  | _ -> Alcotest.fail "one query expected"

let latency (r : Serve.query_report) = Time.to_us r.Serve.latency

let work (r : Serve.query_report) =
  Msdq_obs.Metrics.total r.Serve.registry "msdq_work_units_total"

(* Two simultaneous queries interfere: each one's latency is at least its
   solo latency, and combined work is the sum of solo works. *)
let test_interference () =
  let fed, analyze = setup () in
  let a1 = analyze q1 and a2 = analyze q2 in
  let solo1 = solo fed Strategy.Bl a1 and solo2 = solo fed Strategy.Bl a2 in
  match serve fed [ (Strategy.Bl, a1, Time.zero); (Strategy.Bl, a2, Time.zero) ] with
  | [ x1; x2 ] ->
    Alcotest.(check bool) "q1 at least solo latency" true
      (latency x1 +. 1e-9 >= latency solo1);
    Alcotest.(check bool) "q2 at least solo latency" true
      (latency x2 +. 1e-9 >= latency solo2);
    Alcotest.(check bool) "someone actually waited" true
      (latency x1 > latency solo1 || latency x2 > latency solo2);
    Alcotest.(check int) "work adds up" (work solo1 + work solo2) (work x1 + work x2);
    Alcotest.(check bool) "makespan below serial execution" true
      (Float.max (latency x1) (latency x2) <= latency solo1 +. latency solo2 +. 1e-6)
  | _ -> Alcotest.fail "two queries expected"

(* Arrival staggering: a query arriving after the first one finished sees no
   interference at all. *)
let test_staggered_arrivals () =
  let fed, analyze = setup () in
  let a1 = analyze q1 and a2 = analyze q2 in
  let solo1 = solo fed Strategy.Bl a1 and solo2 = solo fed Strategy.Bl a2 in
  let late = Time.add solo1.Serve.latency (Time.us 10.0) in
  match serve fed [ (Strategy.Bl, a1, Time.zero); (Strategy.Bl, a2, late) ] with
  | [ x1; x2 ] ->
    Alcotest.(check (float 1e-6)) "first query undisturbed" (latency solo1) (latency x1);
    Alcotest.(check (float 1e-6)) "second query undisturbed after its arrival"
      (latency solo2) (latency x2)
  | _ -> Alcotest.fail "two queries expected"

(* Regression: counter isolation. Before the per-run metrics registry the
   counters lived in process-global refs, so two queries sharing the engine
   bled bytes/work/lookups into each other's reports. Each concurrent
   query's counters must now equal its solo run's exactly, however the
   engine interleaves the two. *)
let test_counter_independence () =
  let fed, analyze = setup () in
  let a1 = analyze q1 and a2 = analyze q2 in
  let solo1 = solo fed Strategy.Bl a1 and solo2 = solo fed Strategy.Ca a2 in
  let counters (r : Serve.query_report) = Msdq_obs.Metrics.counters r.Serve.registry in
  let series = Alcotest.(list (triple string (list (pair string string)) int)) in
  match serve fed [ (Strategy.Bl, a1, Time.zero); (Strategy.Ca, a2, Time.zero) ] with
  | [ x1; x2 ] ->
    Alcotest.check series "q1 counters" (counters solo1) (counters x1);
    Alcotest.check series "q2 counters" (counters solo2) (counters x2);
    Alcotest.(check bool) "q1 shipped bytes" true
      (Msdq_obs.Metrics.total x1.Serve.registry "msdq_bytes_shipped_total" > 0);
    (* and the registries really are distinct objects with distinct labels *)
    Alcotest.(check int) "q2 registry has no BL series" 0
      (List.length
         (List.filter
            (fun (_, labels, _) -> List.assoc_opt "strategy" labels = Some "BL")
            (counters x2)))
  | _ -> Alcotest.fail "two queries expected"

let suite =
  [
    Alcotest.test_case "interference" `Quick test_interference;
    Alcotest.test_case "staggered arrivals" `Quick test_staggered_arrivals;
    Alcotest.test_case "counter independence" `Quick test_counter_independence;
  ]

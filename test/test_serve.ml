(* Workload engine (lib/serve): LRU mechanics, serve-vs-Strategy answer
   equivalence, warm-vs-cold speedup, cross-query check batching, fault
   composition, and the cache-soundness property — for any workload and any
   seeded fault schedule, a warm run's per-query answers are byte-identical
   (Serve.answer_fingerprint) to the same workload run cold. *)

open Msdq_simkit
open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_serve
open Msdq_workload
module Fault = Msdq_fault.Fault

let ms = Time.ms
let us = Time.us

(* ---- setup helpers ---- *)

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analyze src = Analysis.analyze schema (Parser.parse src) in
  (fed, analyze)

let job ?(arrival = Time.zero) ?deadline s analysis =
  { Serve.strategy = s; analysis; arrival; deadline }

let config ?(options = Strategy.default_options) ?(cache_bytes = 0)
    ?(window = Time.zero) () =
  { Serve.default_config with Serve.options; cache_bytes; window }

let fingerprints out =
  List.map (fun r -> Serve.answer_fingerprint r.Serve.answer) out.Serve.reports

let big_cache = 8 * 1024 * 1024

(* Arrivals spaced wide enough that identical queries do not contend; the
   cache effects stand out as pure makespan savings. *)
let spaced n s analysis =
  List.init n (fun i -> job ~arrival:(us (float_of_int i *. 50_000.0)) s analysis)

(* ---- Lru unit tests ---- *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity_bytes:100 in
  Lru.add l ~gen:0 ~key:"a" ~bytes:40 1;
  Lru.add l ~gen:0 ~key:"b" ~bytes:40 2;
  (* touch a: b becomes the LRU entry *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find l ~gen:0 "a");
  Lru.add l ~gen:0 ~key:"c" ~bytes:40 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem l ~gen:0 "b");
  Alcotest.(check bool) "a survives (was promoted)" true (Lru.mem l ~gen:0 "a");
  Alcotest.(check bool) "c present" true (Lru.mem l ~gen:0 "c");
  let s = Lru.stats l in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "one hit" 1 s.Lru.hits;
  Alcotest.(check int) "two entries" 2 s.Lru.entries;
  Alcotest.(check int) "80 bytes" 80 s.Lru.bytes

let test_lru_generation () =
  let l = Lru.create ~capacity_bytes:100 in
  Lru.add l ~gen:0 ~key:"x" ~bytes:10 1;
  Alcotest.(check (option int)) "same gen hits" (Some 1) (Lru.find l ~gen:0 "x");
  Alcotest.(check (option int)) "newer gen invalidates" None (Lru.find l ~gen:1 "x");
  Alcotest.(check bool) "entry dropped" false (Lru.mem l ~gen:1 "x");
  let s = Lru.stats l in
  Alcotest.(check int) "invalidation counted" 1 s.Lru.invalidations;
  Alcotest.(check int) "invalidation is also a miss" 1 s.Lru.misses;
  (* re-inserting at the new generation works *)
  Lru.add l ~gen:1 ~key:"x" ~bytes:10 2;
  Alcotest.(check (option int)) "fresh entry" (Some 2) (Lru.find l ~gen:1 "x")

let test_lru_oversized_and_disabled () =
  let l = Lru.create ~capacity_bytes:100 in
  Lru.add l ~gen:0 ~key:"huge" ~bytes:200 1;
  Alcotest.(check bool) "oversized not stored" false (Lru.mem l ~gen:0 "huge");
  Alcotest.(check int) "cache intact" 0 (Lru.stats l).Lru.entries;
  let off = Lru.create ~capacity_bytes:0 in
  Lru.add off ~gen:0 ~key:"k" ~bytes:1 1;
  Alcotest.(check (option int)) "disabled cache never stores" None
    (Lru.find off ~gen:0 "k");
  (match Lru.add l ~gen:0 ~key:"neg" ~bytes:(-1) 1 with
  | () -> Alcotest.fail "negative bytes accepted"
  | exception Invalid_argument _ -> ())

(* ---- exec-layer hooks ---- *)

let items_of fed analysis db =
  let r = Local_eval.run fed analysis ~db in
  List.concat_map
    (fun (row : Local_result.row) -> row.Local_result.unsolved)
    r.Local_result.rows

let q1_requests fed analysis =
  let built =
    Checks.build fed analysis ~db:"DB1" ~root_class:"Student"
      ~items:(items_of fed analysis "DB1")
  in
  built.Checks.requests

let test_request_signature () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let requests = q1_requests fed analysis in
  Alcotest.(check bool) "q1 produces check requests" true (requests <> []);
  List.iter
    (fun (r : Checks.request) ->
      let s = Checks.request_signature r in
      Alcotest.(check bool) "signature names the target db" true
        (String.length s > String.length r.Checks.target_db
        && String.sub s 0 (String.length r.Checks.target_db) = r.Checks.target_db);
      Alcotest.(check bool) "signature separates loid and predicate" true
        (String.contains s '#' && String.contains s '?'))
    requests;
  (* the signature is a pure function of the request *)
  let r0 = List.hd requests in
  Alcotest.(check string) "deterministic"
    (Checks.request_signature r0)
    (Checks.request_signature r0)

(* ---- cold serve equals the single-query strategies ---- *)

let serve_strategies =
  [ Strategy.Ca; Strategy.Bl; Strategy.Pl; Strategy.Bls; Strategy.Pls; Strategy.Lo ]

let test_cold_equals_strategy () =
  let fed, analyze = setup () in
  List.iter
    (fun q ->
      let analysis = analyze q in
      List.iter
        (fun s ->
          let solo_answer, _ = Strategy.run s fed analysis in
          let out = Serve.run (config ()) fed [ job s analysis ] in
          match out.Serve.reports with
          | [ r ] ->
            Alcotest.(check string)
              (Strategy.to_string s ^ ": cold serve answers like Strategy.run")
              (Serve.answer_fingerprint solo_answer)
              (Serve.answer_fingerprint r.Serve.answer);
            Alcotest.(check bool) "no cache activity when disabled" true
              (r.Serve.extent_hits = 0 && r.Serve.verdict_hits = 0);
            Alcotest.(check bool) "no cached provenance" true
              (Oid.Goid.Set.is_empty (Answer.cached r.Serve.answer))
          | _ -> Alcotest.fail "one report expected")
        serve_strategies)
    [ Paper_example.q1; "select X.name from Student X where X.age > 25" ]

(* ---- validation ---- *)

let test_validation () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let rejects name f =
    match f () with
    | (_ : Serve.outcome) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "Cf job" (fun () -> Serve.run (config ()) fed [ job Strategy.Cf analysis ]);
  rejects "deep_certify" (fun () ->
      let options =
        { Strategy.default_options with Strategy.deep_certify = true }
      in
      Serve.run (config ~options ()) fed [ job Strategy.Bl analysis ]);
  rejects "negative cache" (fun () ->
      Serve.run (config ~cache_bytes:(-1) ()) fed [ job Strategy.Bl analysis ]);
  rejects "negative window" (fun () ->
      Serve.run (config ~window:(us (-1.0)) ()) fed [ job Strategy.Bl analysis ]);
  rejects "non-finite window" (fun () ->
      Serve.run (config ~window:(us Float.infinity) ()) fed [ job Strategy.Bl analysis ]);
  rejects "unsorted arrivals" (fun () ->
      Serve.run (config ()) fed
        [ job ~arrival:(us 10.0) Strategy.Bl analysis; job Strategy.Bl analysis ]);
  rejects "negative arrival" (fun () ->
      Serve.run (config ()) fed [ job ~arrival:(us (-5.0)) Strategy.Bl analysis ]);
  rejects "zero deadline" (fun () ->
      let cfg = { (config ()) with Serve.deadline = Some Time.zero } in
      Serve.run cfg fed [ job Strategy.Bl analysis ]);
  rejects "negative deadline" (fun () ->
      let cfg = { (config ()) with Serve.deadline = Some (us (-3.0)) } in
      Serve.run cfg fed [ job Strategy.Bl analysis ]);
  rejects "non-finite deadline" (fun () ->
      let cfg = { (config ()) with Serve.deadline = Some (us Float.nan) } in
      Serve.run cfg fed [ job Strategy.Bl analysis ]);
  rejects "per-job zero deadline" (fun () ->
      Serve.run (config ()) fed
        [ job ~deadline:Time.zero Strategy.Bl analysis ]);
  rejects "zero queue limit" (fun () ->
      let cfg = { (config ()) with Serve.queue_limit = Some 0 } in
      Serve.run cfg fed [ job Strategy.Bl analysis ]);
  rejects "negative queue limit" (fun () ->
      let cfg = { (config ()) with Serve.queue_limit = Some (-2) } in
      Serve.run cfg fed [ job Strategy.Bl analysis ])

let test_shed_policy_parse () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun p ->
      match Serve.shed_policy_of_string (Serve.shed_policy_to_string p) with
      | Ok p' ->
        Alcotest.(check bool) "round trip" true (p = p')
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    Serve.shed_policies;
  match Serve.shed_policy_of_string "drop-table" with
  | Ok _ -> Alcotest.fail "bogus policy accepted"
  | Error msg ->
    List.iter
      (fun p ->
        Alcotest.(check bool) "error lists accepted policies" true
          (contains ~needle:(Serve.shed_policy_to_string p) msg))
      Serve.shed_policies

(* ---- warm vs cold: same answers, strictly less simulated time ---- *)

let test_warm_beats_cold () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let jobs = spaced 6 Strategy.Bl analysis in
  let cold = Serve.run (config ()) fed jobs in
  let warm = Serve.run (config ~cache_bytes:big_cache ()) fed jobs in
  Alcotest.(check (list string)) "identical per-query answers"
    (fingerprints cold) (fingerprints warm);
  Alcotest.(check bool) "warm makespan strictly below cold" true
    (Time.to_us warm.Serve.makespan < Time.to_us cold.Serve.makespan);
  Alcotest.(check bool) "warm throughput strictly above cold" true
    (warm.Serve.throughput > cold.Serve.throughput);
  Alcotest.(check bool) "extent cache hit" true (warm.Serve.extent_cache.Lru.hits > 0);
  Alcotest.(check bool) "verdict cache hit" true (warm.Serve.verdict_cache.Lru.hits > 0);
  Alcotest.(check int) "cold run never hits" 0
    (cold.Serve.extent_cache.Lru.hits + cold.Serve.verdict_cache.Lru.hits);
  (* counters mirror the aggregated stats *)
  let reg = warm.Serve.registry in
  Alcotest.(check int) "extent hits exported"
    warm.Serve.extent_cache.Lru.hits
    (Option.value ~default:0
       (Msdq_obs.Metrics.find_counter reg
          ~labels:[ ("cache", "extent") ]
          "msdq_cache_hits_total"));
  Alcotest.(check int) "verdict hits exported"
    warm.Serve.verdict_cache.Lru.hits
    (Option.value ~default:0
       (Msdq_obs.Metrics.find_counter reg
          ~labels:[ ("cache", "verdict") ]
          "msdq_cache_hits_total"));
  (* later queries carry cached provenance; the first cannot *)
  (match warm.Serve.reports with
  | first :: rest ->
    Alcotest.(check bool) "first query served nothing from cache" true
      (Oid.Goid.Set.is_empty (Answer.cached first.Serve.answer));
    Alcotest.(check bool) "a later query was certified from cache" true
      (List.exists
         (fun r -> not (Oid.Goid.Set.is_empty (Answer.cached r.Serve.answer)))
         rest)
  | [] -> Alcotest.fail "reports expected");
  (* provenance is metadata only: statuses agree with the cold run *)
  List.iter2
    (fun (c : Serve.query_report) (w : Serve.query_report) ->
      Alcotest.(check bool) "same statuses" true
        (Answer.same_statuses c.Serve.answer w.Serve.answer))
    cold.Serve.reports warm.Serve.reports

(* A tiny cache (one byte) cannot hold anything: behaves exactly cold. *)
let test_tiny_cache_is_cold () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let jobs = spaced 3 Strategy.Bl analysis in
  let cold = Serve.run (config ()) fed jobs in
  let tiny = Serve.run (config ~cache_bytes:1 ()) fed jobs in
  Alcotest.(check (list string)) "answers identical"
    (fingerprints cold) (fingerprints tiny);
  Alcotest.(check int) "no hits" 0
    (tiny.Serve.extent_cache.Lru.hits + tiny.Serve.verdict_cache.Lru.hits);
  Alcotest.(check (float 1e-6)) "same makespan"
    (Time.to_us cold.Serve.makespan)
    (Time.to_us tiny.Serve.makespan)

(* ---- cross-query check batching ---- *)

let test_batching_coalesces () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  (* two queries close together; caching off so both actually go to the
     wire *)
  let jobs =
    [ job Strategy.Bl analysis; job ~arrival:(us 10.0) Strategy.Bl analysis ]
  in
  let solo = Serve.run (config ()) fed jobs in
  let batched = Serve.run (config ~window:(ms 50.0) ()) fed jobs in
  Alcotest.(check (list string)) "batching never changes answers"
    (fingerprints solo) (fingerprints batched);
  Alcotest.(check int) "no coalescing without a window" 0 solo.Serve.coalesced_checks;
  Alcotest.(check bool) "checks coalesced" true (batched.Serve.coalesced_checks > 0);
  Alcotest.(check bool) "strictly fewer messages" true
    (batched.Serve.messages < solo.Serve.messages);
  Alcotest.(check bool) "coalescing exported" true
    (Msdq_obs.Metrics.total batched.Serve.registry "msdq_coalesced_checks_total" > 0)

(* ---- generation-based invalidation ---- *)

let test_crash_invalidates_cache () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  (* every database site crashes between the two arrivals: whatever query 1
     cached is gone when query 2 arrives *)
  let n_db = List.length (Federation.databases fed) in
  let fault =
    {
      Fault.none with
      Fault.sites =
        List.init n_db (fun i ->
            {
              Fault.site = i + 1;
              outages = [ { Fault.down = ms 30.0; up = ms 40.0 } ];
            });
    }
  in
  let options = { Strategy.default_options with Strategy.fault } in
  let jobs =
    [ job Strategy.Bl analysis; job ~arrival:(ms 50.0) Strategy.Bl analysis ]
  in
  let cold = Serve.run (config ~options ()) fed jobs in
  let warm = Serve.run (config ~options ~cache_bytes:big_cache ()) fed jobs in
  Alcotest.(check (list string)) "answers unaffected"
    (fingerprints cold) (fingerprints warm);
  Alcotest.(check bool) "crash invalidated extent entries" true
    (warm.Serve.extent_cache.Lru.invalidations > 0);
  Alcotest.(check int) "no stale extent hits" 0 warm.Serve.extent_cache.Lru.hits

(* ---- fault composition: cached verdicts never resurrect demoted rows ---- *)

let test_lost_verdicts_demote_warm_and_cold () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  (* every verdict return to the global site is lost: all check round trips
     fail, so check-certified rows demote — with or without a cache *)
  let fault =
    { Fault.none with Fault.links = [ { Fault.dst = 0; drop = 1.0; inflate = 1.0; jitter = 0.0 } ] }
  in
  let options = { Strategy.default_options with Strategy.fault } in
  let jobs = spaced 3 Strategy.Bl analysis in
  let cold = Serve.run (config ~options ()) fed jobs in
  let warm = Serve.run (config ~options ~cache_bytes:big_cache ()) fed jobs in
  Alcotest.(check (list string)) "degraded answers byte-identical"
    (fingerprints cold) (fingerprints warm);
  List.iter2
    (fun (c : Serve.query_report) (w : Serve.query_report) ->
      let cd = Answer.degraded c.Serve.answer
      and wd = Answer.degraded w.Serve.answer in
      Alcotest.(check bool) "rows demoted" true (not (Oid.Goid.Set.is_empty cd));
      Alcotest.(check bool) "same demotions" true (Oid.Goid.Set.equal cd wd);
      Alcotest.(check int) "doomed round trips suppress verdict hits" 0
        w.Serve.verdict_hits;
      (* demotion provenance names the lost batch *)
      let g = Oid.Goid.Set.min_elt wd in
      (match Answer.degraded_reason w.Serve.answer g with
      | Some (Answer.Fault why) ->
        Alcotest.(check bool) "reason mentions the lost batch" true
          (String.length why > 0)
      | Some (Answer.Deadline _) ->
        Alcotest.fail "fault demotion carries a deadline reason"
      | None -> Alcotest.fail "degraded row without provenance"))
    cold.Serve.reports warm.Serve.reports;
  Alcotest.(check bool) "drops surfaced in the workload registry" true
    (Msdq_obs.Metrics.total warm.Serve.registry "msdq_fault_drops_total" > 0)

(* docs/FAULTS.md: retry waits grow as timeout x backoff^min(attempt - 1, 6).
   With ten attempts the cap binds from the eighth wait on, so a round trip
   lost on every attempt gives up after 1 + 2 + ... + 64 + 3 x 64 = 319 ms
   of waits, not 1,023 ms. *)
let test_backoff_cap () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  (* every request into a database site is lost; verdicts would get home *)
  let fault =
    {
      Fault.none with
      Fault.links =
        List.map
          (fun dst -> { Fault.dst; drop = 1.0; inflate = 1.0; jitter = 0.0 })
          [ 1; 2; 3 ];
    }
  in
  let retry =
    {
      Strategy.default_retry with
      Strategy.timeout = ms 1.0;
      max_attempts = 10;
      backoff = 2.0;
    }
  in
  let options = { Strategy.default_options with Strategy.fault; retry } in
  let out =
    Serve.run ~trace:true (config ~options ()) fed [ job Strategy.Bl analysis ]
  in
  let waits =
    List.filter_map
      (fun (e : Trace.entry) ->
        if String.starts_with ~prefix:"serve:q0:abandon:" e.Trace.label then
          Some (Time.to_us (Time.sub e.Trace.finish e.Trace.start))
        else None)
      out.Serve.trace
  in
  Alcotest.(check bool) "a check round trip was lost" true (waits <> []);
  List.iter
    (fun w -> Alcotest.(check (float 1e-6)) "capped retry waits" 319_000.0 w)
    waits

(* ---- mixed-strategy stream sanity ---- *)

let test_mixed_stream () =
  let fed, analyze = setup () in
  let a1 = analyze Paper_example.q1 in
  let a2 = analyze "select X.name from Student X where X.age > 25" in
  let jobs =
    [
      job Strategy.Ca a1;
      job ~arrival:(us 50_000.0) Strategy.Bl a2;
      job ~arrival:(us 100_000.0) Strategy.Pl a1;
      job ~arrival:(us 150_000.0) Strategy.Lo a2;
    ]
  in
  let out = Serve.run (config ~cache_bytes:big_cache ~window:(ms 1.0) ()) fed jobs in
  Alcotest.(check int) "all queries answered" 4 (List.length out.Serve.reports);
  Alcotest.(check bool) "throughput positive" true (out.Serve.throughput > 0.0);
  Alcotest.(check bool) "messages flowed" true (out.Serve.messages > 0);
  List.iteri
    (fun i (r : Serve.query_report) ->
      Alcotest.(check int) "report order" i r.Serve.index;
      Alcotest.(check bool) "completion after arrival" true
        (Time.to_us r.Serve.completed >= Time.to_us r.Serve.arrival);
      Alcotest.(check (float 1e-9)) "latency consistent"
        (Time.to_us r.Serve.completed -. Time.to_us r.Serve.arrival)
        (Time.to_us r.Serve.latency))
    out.Serve.reports;
  (* per-strategy answers still match the single-query engines *)
  List.iter2
    (fun (s, a) (r : Serve.query_report) ->
      let solo_answer, _ = Strategy.run s fed a in
      Alcotest.(check bool)
        (Strategy.to_string s ^ " statuses match solo run")
        true
        (Answer.same_statuses solo_answer r.Serve.answer))
    [ (Strategy.Ca, a1); (Strategy.Bl, a2); (Strategy.Pl, a1); (Strategy.Lo, a2) ]
    out.Serve.reports

(* Determinism: the exact same workload reproduces byte-identically. *)
let test_deterministic () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let run () =
    let out =
      Serve.run (config ~cache_bytes:big_cache ~window:(ms 1.0) ()) fed
        (spaced 4 Strategy.Pl analysis)
    in
    ( fingerprints out,
      Time.to_us out.Serve.makespan,
      out.Serve.messages,
      out.Serve.coalesced_checks )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "reproducible" true (a = b)

(* ---- overload control: deadline budgets ---- *)

(* A one-microsecond budget dooms every check round trip: all
   check-certified rows demote with Deadline provenance, everything
   locally certain survives (the anytime floor), and the truncated run is
   never slower than the unbounded one. *)
let test_tight_deadline_demotes () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let jobs = spaced 3 Strategy.Bl analysis in
  let unbounded = Serve.run (config ()) fed jobs in
  let budget = us 1.0 in
  let bounded =
    Serve.run { (config ()) with Serve.deadline = Some budget } fed jobs
  in
  List.iter2
    (fun (u : Serve.query_report) (b : Serve.query_report) ->
      Alcotest.(check bool) "rows demoted at the deadline" true
        (b.Serve.deadline_demoted > 0);
      let du = Answer.degraded u.Serve.answer
      and db = Answer.degraded b.Serve.answer in
      Alcotest.(check bool) "unbounded demotions are a subset" true
        (Oid.Goid.Set.subset du db);
      let extra = Oid.Goid.Set.diff db du in
      Alcotest.(check int) "every extra demotion is deadline-attributed"
        b.Serve.deadline_demoted
        (Oid.Goid.Set.cardinal extra);
      Oid.Goid.Set.iter
        (fun g ->
          match Answer.degraded_reason b.Serve.answer g with
          | Some (Answer.Deadline { elapsed_us; budget_us }) ->
            Alcotest.(check (float 1e-9)) "budget recorded" 1.0 budget_us;
            Alcotest.(check bool) "elapsed exceeds budget" true
              (elapsed_us > budget_us)
          | Some (Answer.Fault _) ->
            Alcotest.fail "deadline demotion carries a fault reason"
          | None -> Alcotest.fail "deadline demotion without provenance")
        extra;
      Alcotest.(check bool) "anytime answer is never slower" true
        (Time.to_us b.Serve.latency <= Time.to_us u.Serve.latency))
    unbounded.Serve.reports bounded.Serve.reports;
  Alcotest.(check bool) "demotions surfaced in the workload registry" true
    (Msdq_obs.Metrics.total bounded.Serve.registry
       "msdq_deadline_demotions_total"
    > 0)

(* A generous budget changes nothing: byte-identical answers, zero
   demotions. *)
let test_generous_deadline_noop () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let jobs = spaced 3 Strategy.Bl analysis in
  let unbounded = Serve.run (config ()) fed jobs in
  let bounded =
    Serve.run
      { (config ()) with Serve.deadline = Some (ms 3_600_000.0) }
      fed jobs
  in
  Alcotest.(check (list string)) "identical answers"
    (fingerprints unbounded) (fingerprints bounded);
  List.iter
    (fun (r : Serve.query_report) ->
      Alcotest.(check int) "no demotions" 0 r.Serve.deadline_demoted)
    bounded.Serve.reports

(* Per-job deadlines override the config; jobs without one inherit it. *)
let test_per_job_deadline_override () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let mk d = [ job ?deadline:d Strategy.Bl analysis ] in
  let tight = Serve.run (config ()) fed (mk (Some (us 1.0))) in
  let loose =
    Serve.run
      { (config ()) with Serve.deadline = Some (us 1.0) }
      fed
      (mk (Some (ms 3_600_000.0)))
  in
  (match tight.Serve.reports with
  | [ r ] ->
    Alcotest.(check bool) "job deadline demotes without a config one" true
      (r.Serve.deadline_demoted > 0)
  | _ -> Alcotest.fail "one report expected");
  match loose.Serve.reports with
  | [ r ] ->
    Alcotest.(check int) "job override beats the tight config deadline" 0
      r.Serve.deadline_demoted
  | _ -> Alcotest.fail "one report expected"

(* ---- overload control: bounded-queue admission ---- *)

(* Arrivals 1 us apart against multi-ms service times overflow a depth-1
   queue immediately. *)
let overload_jobs fed_analyze n s =
  let _, analyze = fed_analyze in
  let analysis = analyze Paper_example.q1 in
  List.init n (fun i -> job ~arrival:(us (float_of_int i)) s analysis)

let test_shed_reject_newest () =
  let fed, analyze = setup () in
  let jobs = overload_jobs (fed, analyze) 3 Strategy.Bl in
  let cfg =
    {
      (config ()) with
      Serve.queue_limit = Some 1;
      shed_policy = Serve.Reject_newest;
    }
  in
  let out = Serve.run cfg fed jobs in
  Alcotest.(check int) "one admitted" 1 (List.length out.Serve.reports);
  Alcotest.(check (list int)) "later arrivals shed" [ 1; 2 ]
    (List.map (fun s -> s.Serve.s_index) out.Serve.shed);
  List.iter
    (fun s ->
      Alcotest.(check bool) "policy recorded" true
        (s.Serve.s_policy = Serve.Reject_newest))
    out.Serve.shed;
  Alcotest.(check (option int)) "sheds counted by policy" (Some 2)
    (Msdq_obs.Metrics.find_counter out.Serve.registry
       ~labels:[ ("policy", "reject-newest") ]
       "msdq_shed_total");
  Alcotest.(check bool) "queue depth gauge exported" true
    (Msdq_obs.Metrics.gauge_value
       (Msdq_obs.Metrics.gauge out.Serve.registry "msdq_queue_depth")
    >= 1.0);
  Alcotest.(check bool) "max depth observed" true
    (out.Serve.max_queue_depth >= 1);
  (* the admitted query answers exactly like a solo run *)
  let solo = Serve.run (config ()) fed [ List.hd jobs ] in
  Alcotest.(check (list string)) "admitted answer untouched by shedding"
    (fingerprints solo) (fingerprints out)

let test_shed_reject_oldest_evicts () =
  let fed, analyze = setup () in
  let jobs = overload_jobs (fed, analyze) 3 Strategy.Bl in
  let cfg =
    {
      (config ()) with
      Serve.queue_limit = Some 2;
      shed_policy = Serve.Reject_oldest;
    }
  in
  let out = Serve.run cfg fed jobs in
  (* q0 is in service when q2 arrives; q1 is the oldest still queued and
     gets evicted to admit q2 *)
  Alcotest.(check (list int)) "q0 and q2 served" [ 0; 2 ]
    (List.map (fun (r : Serve.query_report) -> r.Serve.index) out.Serve.reports);
  Alcotest.(check (list int)) "the queued q1 was evicted" [ 1 ]
    (List.map (fun s -> s.Serve.s_index) out.Serve.shed);
  List.iter
    (fun s ->
      Alcotest.(check bool) "policy recorded" true
        (s.Serve.s_policy = Serve.Reject_oldest))
    out.Serve.shed

let test_shed_degrade_admits_all () =
  let fed, analyze = setup () in
  let jobs = overload_jobs (fed, analyze) 3 Strategy.Lo in
  let cfg =
    {
      (config ()) with
      Serve.queue_limit = Some 1;
      shed_policy = Serve.Degrade;
    }
  in
  let out = Serve.run cfg fed jobs in
  Alcotest.(check int) "everything admitted" 3 (List.length out.Serve.reports);
  Alcotest.(check int) "nothing shed" 0 (List.length out.Serve.shed);
  (match out.Serve.reports with
  | first :: rest ->
    Alcotest.(check bool) "under-capacity query keeps its strategy" true
      (first.Serve.strategy = Strategy.Lo);
    List.iter
      (fun (r : Serve.query_report) ->
        Alcotest.(check bool)
          "over-capacity queries degraded to a cheapest predicted candidate"
          true
          (List.mem r.Serve.strategy Msdq_opt.Optimizer.candidates))
      rest
  | [] -> Alcotest.fail "reports expected")

(* Without overload knobs the queue never sheds — the engine is exactly
   the pre-overload engine. *)
let test_unbounded_never_sheds () =
  let fed, analyze = setup () in
  let jobs = overload_jobs (fed, analyze) 4 Strategy.Bl in
  let out = Serve.run (config ()) fed jobs in
  Alcotest.(check int) "nothing shed" 0 (List.length out.Serve.shed);
  Alcotest.(check int) "no queue tracked" 0 out.Serve.max_queue_depth

(* ---- the cache-soundness property ----

   For any synthesized federation/query, any strategy, any admission window
   and any seeded fault schedule: a warm run's per-query answers are
   byte-identical to the cold run's. Fault-free cases additionally match
   Strategy.run. 200+ cases as the acceptance criterion demands. *)

let prop_cache_soundness =
  QCheck.Test.make
    ~name:"serve: warm answers byte-identical to cold, incl. faulty schedules"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let strategies = Array.of_list serve_strategies in
        let s = strategies.(seed mod Array.length strategies) in
        let ff_answer, ff = Strategy.run s fed analysis in
        let horizon =
          Time.us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
        in
        let fault =
          if seed mod 3 = 0 then Fault.none
          else
            Testutil.random_schedule ~seed:(seed + 11)
              ~n_db:(List.length (Federation.databases fed))
              ~horizon
        in
        let options = { Strategy.default_options with Strategy.fault } in
        let window = if seed mod 2 = 0 then Time.zero else us 500.0 in
        let jobs =
          List.init 3 (fun i ->
              job ~arrival:(us (float_of_int i *. 300.0)) s analysis)
        in
        let cold = Serve.run (config ~options ~window ()) fed jobs in
        let warm =
          Serve.run (config ~options ~window ~cache_bytes:(1 lsl 20) ()) fed jobs
        in
        let cold_fp = fingerprints cold and warm_fp = fingerprints warm in
        cold_fp = warm_fp
        && (not (Fault.is_none fault)
           || List.for_all
                (fun fp -> fp = Serve.answer_fingerprint ff_answer)
                cold_fp))

(* ---- the gray-soundness property ----

   Gray faults — slowdown windows, link jitter, flap trains, one-way
   partitions — and the adaptive timeout policy must never reach answer
   bytes: for any random gray schedule, under either timeout policy, a
   warm run's per-query answers stay byte-identical to the cold run's.
   200+ schedules per the acceptance criterion. *)

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

let prop_gray_cache_soundness =
  QCheck.Test.make
    ~name:"serve: warm = cold under gray schedules and adaptive timeouts"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let strategies = Array.of_list serve_strategies in
        let s = strategies.(seed mod Array.length strategies) in
        let _, ff = Strategy.run s fed analysis in
        let horizon =
          Time.us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
        in
        let fault =
          random_gray_schedule ~seed:(seed + 53)
            ~n_db:(List.length (Federation.databases fed))
            ~horizon
        in
        let retry =
          if seed mod 2 = 0 then Strategy.default_retry
          else
            {
              Strategy.default_retry with
              Strategy.adaptive = Some Strategy.default_adaptive;
            }
        in
        let options = { Strategy.default_options with Strategy.fault; retry } in
        let jobs =
          List.init 3 (fun i ->
              job ~arrival:(us (float_of_int i *. 300.0)) s analysis)
        in
        let cold = Serve.run (config ~options ()) fed jobs in
        let warm =
          Serve.run (config ~options ~cache_bytes:(1 lsl 20) ()) fed jobs
        in
        fingerprints cold = fingerprints warm)

(* ---- the deadline-soundness property ----

   For any synthesized case, any strategy, any seeded fault schedule and
   any budget: the deadline run's demotions are a superset of the
   unbounded run's (a deadline never resurrects certainty), every extra
   demotion is deadline-attributed and counted, and warm answers stay
   byte-identical to cold under deadlines. *)

let prop_deadline_soundness =
  QCheck.Test.make
    ~name:
      "serve: deadline demotions reconcile with the unbounded run; warm = \
       cold under deadlines"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let strategies = Array.of_list serve_strategies in
        let s = strategies.(seed mod Array.length strategies) in
        let _, ff = Strategy.run s fed analysis in
        let horizon =
          Time.us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
        in
        let fault =
          if seed mod 3 = 0 then Fault.none
          else
            Testutil.random_schedule ~seed:(seed + 29)
              ~n_db:(List.length (Federation.databases fed))
              ~horizon
        in
        let options = { Strategy.default_options with Strategy.fault } in
        (* budgets from well under the predicted response to well past it *)
        let frac = float_of_int (1 + (seed mod 8)) /. 4.0 in
        let budget =
          Time.us (Float.max 1.0 (frac *. Time.to_us ff.Strategy.response))
        in
        let jobs =
          List.init 3 (fun i ->
              job ~arrival:(us (float_of_int i *. 300.0)) s analysis)
        in
        let base = Serve.run (config ~options ()) fed jobs in
        let cfg_d =
          { (config ~options ()) with Serve.deadline = Some budget }
        in
        let cold = Serve.run cfg_d fed jobs in
        let warm =
          Serve.run { cfg_d with Serve.cache_bytes = 1 lsl 20 } fed jobs
        in
        fingerprints cold = fingerprints warm
        && List.for_all2
             (fun (u : Serve.query_report) (b : Serve.query_report) ->
               let du = Answer.degraded u.Serve.answer
               and db = Answer.degraded b.Serve.answer in
               let extra = Oid.Goid.Set.diff db du in
               Oid.Goid.Set.subset du db
               && Oid.Goid.Set.cardinal extra = b.Serve.deadline_demoted
               && Oid.Goid.Set.for_all
                    (fun g ->
                      match Answer.degraded_reason b.Serve.answer g with
                      | Some (Answer.Deadline _) -> true
                      | _ -> false)
                    extra)
             base.Serve.reports cold.Serve.reports)

(* ---- the overload experiment: win condition and jobs invariance ---- *)

let test_overload_sweep_win_condition () =
  let module O = Msdq_exp.Overload_sweep in
  let registry = Msdq_obs.Metrics.create () in
  let o = O.run ~registry () in
  Alcotest.(check bool) "positive at-capacity p99" true (o.O.cap_p99_ms > 0.0);
  let bound = 2.0 *. o.O.cap_p99_ms in
  (* The naive unbounded baseline's tail grows monotonically with load
     and escapes the bound... *)
  let naive = List.map (fun p -> p.O.pt_p99_ms) (O.points_of o O.naive_policy) in
  ignore
    (List.fold_left
       (fun prev p99 ->
         Alcotest.(check bool) "naive p99 nondecreasing" true
           (p99 +. 1e-9 >= prev);
         p99)
       0.0 naive);
  Alcotest.(check bool) "naive tail escapes twice the at-capacity p99" true
    (List.nth naive (List.length naive - 1) > bound);
  (* ...while rejecting policies hold it at every overloaded point. *)
  List.iter
    (fun policy ->
      List.iter
        (fun (p : O.point) ->
          if p.O.pt_multiplier >= 2.0 then
            Alcotest.(check bool)
              (Printf.sprintf "%s p99 bounded at x%g" policy p.O.pt_multiplier)
              true
              (p.O.pt_p99_ms <= bound *. (1.0 +. 1e-9)))
        (O.points_of o policy))
    [ "reject-newest"; "reject-oldest" ];
  List.iter
    (fun (p : O.point) ->
      Alcotest.(check int) "admitted + shed = offered" p.O.pt_offered
        (p.O.pt_admitted + p.O.pt_shed))
    o.O.points;
  Alcotest.(check bool) "reject-newest sheds under overload" true
    (List.exists
       (fun (p : O.point) -> p.O.pt_multiplier >= 2.0 && p.O.pt_shed > 0)
       (O.points_of o "reject-newest"));
  List.iter
    (fun (p : O.point) ->
      Alcotest.(check int)
        (Printf.sprintf "degrade sheds nothing at x%g" p.O.pt_multiplier)
        0 p.O.pt_shed)
    (O.points_of o "degrade");
  Alcotest.(check int) "one grid point per (policy, multiplier)"
    (List.length o.O.policies * Array.length o.O.multipliers)
    (Msdq_obs.Metrics.total registry "msdq_overload_points_total")

let test_overload_sweep_jobs_invariant () =
  let module O = Msdq_exp.Overload_sweep in
  let sequential = O.run ~queries:8 () in
  let pool = Msdq_par.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Msdq_par.Pool.shutdown pool) @@ fun () ->
  let pooled = O.run ~pool ~queries:8 () in
  Alcotest.(check bool) "pool run bit-identical to the sequential run" true
    (sequential = pooled)

(* ---- the serve golden ----

   Four 40-job streams over the synthetic golden's federation
   (test/serve_golden.ml): cold, warm, warm under a lossy flapping
   schedule with a deadline, and AUTO, byte for byte. The faulty stream
   must keep re-certifying both lost and deadline-doomed check groups.
   Regenerate with dune exec test/gen_golden.exe only when a number moves
   on purpose. *)
let test_serve_golden () =
  let want =
    In_channel.with_open_bin "golden/serve_streams.txt" In_channel.input_all
  in
  let got = Serve_golden.render () in
  Alcotest.(check string) "serve streams" want got;
  Alcotest.(check bool) "a lost check group demotes rows" true
    (Testutil.contains ~needle:"check batch lost" got);
  Alcotest.(check bool) "a doomed check group demotes rows" true
    (Testutil.contains ~needle:"deadline exceeded" got)

(* ---- the per-run memo ----

   Serve prepares each distinct query once per run, keyed by the query's
   structure. Separately parsed copies of one text must share the memo
   without changing a number, and queries one constant apart must never
   share an answer. *)

let golden_analyze =
  let fed = Synth_golden.federation () in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  fun where ->
    Analysis.analyze schema
      (Parser.parse ("select X.key, X.next.p1 from K0 X where " ^ where))

let stream_summary (o : Serve.outcome) =
  ( List.map
      (fun (r : Serve.query_report) ->
        ( Serve.answer_fingerprint r.Serve.answer,
          Oid.Goid.Set.elements (Answer.cached r.Serve.answer),
          Time.to_us r.Serve.latency,
          (r.Serve.extent_hits, r.Serve.verdict_hits, r.Serve.deadline_demoted) ))
      o.Serve.reports,
    (Time.to_us o.Serve.makespan, o.Serve.messages, o.Serve.coalesced_checks),
    (o.Serve.extent_cache, o.Serve.verdict_cache) )

let test_memo_keys_by_structure () =
  let fed = Synth_golden.federation () in
  let shared =
    Serve_golden.jobs (Array.of_list (List.map golden_analyze Synth_golden.queries))
  in
  let parsed =
    List.mapi
      (fun i (j : Serve.job) ->
        let analysis = golden_analyze (List.nth Synth_golden.queries (i mod 8)) in
        Alcotest.(check bool) "a separate parse" false (analysis == j.Serve.analysis);
        { j with Serve.analysis })
      shared
  in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool)
        (name ^ ": separate parses run like shared analyses")
        true
        (stream_summary (Serve.run cfg fed shared)
        = stream_summary (Serve.run cfg fed parsed)))
    [
      ("cold", Serve_golden.cold);
      ("warm", Serve_golden.warm);
      ("faulty", Serve_golden.faulty fed);
    ]

let test_memo_tells_constants_apart () =
  let fed = Synth_golden.federation () in
  List.iter
    (fun (a, b) ->
      let qa = golden_analyze a and qb = golden_analyze b in
      let solo s q = Serve.answer_fingerprint (fst (Strategy.run s fed q)) in
      Alcotest.(check bool)
        (Printf.sprintf "%S and %S answer differently" a b)
        false
        (solo Strategy.Bl qa = solo Strategy.Bl qb);
      let jobs =
        List.init 12 (fun i ->
            job
              ~arrival:(ms (2.0 *. float_of_int i))
              (List.nth serve_strategies (i / 2 mod 6))
              (if i mod 2 = 0 then qa else qb))
      in
      List.iter
        (fun cfg ->
          List.iter
            (fun (r : Serve.query_report) ->
              let q = if r.Serve.index mod 2 = 0 then qa else qb in
              Alcotest.(check string)
                (Printf.sprintf "job %d answers its own query" r.Serve.index)
                (solo r.Serve.strategy q)
                (Serve.answer_fingerprint r.Serve.answer))
            (Serve.run cfg fed jobs).Serve.reports)
        [ Serve_golden.cold; Serve_golden.warm ])
    [
      ("X.p0 = 1", "X.p0 = 2");
      ( "X.p0 <> 0 and X.next.p1 = 1 and X.next.next.p0 = 2",
        "X.p0 <> 0 and X.next.p1 = 1 and X.next.next.p0 = 3" );
    ]

let suite =
  [
    Alcotest.test_case "serve golden streams" `Quick test_serve_golden;
    Alcotest.test_case "memo: separate parses share it" `Quick
      test_memo_keys_by_structure;
    Alcotest.test_case "memo: one constant apart never shares" `Quick
      test_memo_tells_constants_apart;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru: generation invalidation" `Quick test_lru_generation;
    Alcotest.test_case "lru: oversized and disabled" `Quick
      test_lru_oversized_and_disabled;
    Alcotest.test_case "checks: request signature" `Quick test_request_signature;
    Alcotest.test_case "cold serve equals Strategy.run" `Quick
      test_cold_equals_strategy;
    Alcotest.test_case "configuration validation" `Quick test_validation;
    Alcotest.test_case "warm beats cold" `Quick test_warm_beats_cold;
    Alcotest.test_case "tiny cache behaves cold" `Quick test_tiny_cache_is_cold;
    Alcotest.test_case "check batching coalesces" `Quick test_batching_coalesces;
    Alcotest.test_case "crash invalidates cache" `Quick test_crash_invalidates_cache;
    Alcotest.test_case "lost verdicts demote warm and cold" `Quick
      test_lost_verdicts_demote_warm_and_cold;
    Alcotest.test_case "retry waits are capped" `Quick test_backoff_cap;
    Alcotest.test_case "mixed-strategy stream" `Quick test_mixed_stream;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "shed policy parsing" `Quick test_shed_policy_parse;
    Alcotest.test_case "tight deadline demotes with provenance" `Quick
      test_tight_deadline_demotes;
    Alcotest.test_case "generous deadline is a no-op" `Quick
      test_generous_deadline_noop;
    Alcotest.test_case "per-job deadline override" `Quick
      test_per_job_deadline_override;
    Alcotest.test_case "shed: reject-newest" `Quick test_shed_reject_newest;
    Alcotest.test_case "shed: reject-oldest evicts the queued" `Quick
      test_shed_reject_oldest_evicts;
    Alcotest.test_case "shed: degrade admits everything" `Quick
      test_shed_degrade_admits_all;
    Alcotest.test_case "unbounded queue never sheds" `Quick
      test_unbounded_never_sheds;
    Alcotest.test_case "overload sweep win condition" `Quick
      test_overload_sweep_win_condition;
    Alcotest.test_case "overload sweep jobs-invariant" `Quick
      test_overload_sweep_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_cache_soundness;
    QCheck_alcotest.to_alcotest prop_gray_cache_soundness;
    QCheck_alcotest.to_alcotest prop_deadline_soundness;
  ]

(* Cost-based strategy selection (lib/opt): hand-computed Table 1 pins for
   CA/BL/PL on tiny catalogs, selection parsing, the optimizer's argmin and
   store blending, breaker-forced degradation to CA, the qcheck property
   that AUTO's answers are byte-identical to the chosen fixed strategies,
   and the auto-sweep win condition the /7 bench schema enforces. *)

open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_serve
open Msdq_workload
module Optimizer = Msdq_opt.Optimizer
module Param_sim = Msdq_opt.Param_sim
module Store = Msdq_telemetry.Store
module Fault = Msdq_fault.Fault
module Auto_sweep = Msdq_exp.Auto_sweep

let us = Time.us
let ms = Time.ms

let strategy =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Strategy.to_string s))
    ( = )

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let setup () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analyze src = Analysis.analyze schema (Parser.parse src) in
  (fed, analyze)

(* A store whose observed latencies make [fast] the obvious winner: huge
   observation weight, so the blending beta ~ 1 and the evidence dominates
   whatever the model predicts. *)
let store_preferring fast =
  let st = Store.create () in
  List.iter
    (fun s ->
      let lat = if s = fast then 10.0 else 1_000_000.0 in
      Store.observe st
        { Store.db = "obs"; site = 0; link = 0; strategy = Strategy.to_string s }
        {
          Store.weight = 1000.0;
          check_latency_us = lat;
          drop_rate = 0.0;
          cache_hit_rate = 0.0;
          demotions = 0.0;
        })
    Optimizer.candidates;
  st

(* ---- hand-computed Table 1 pins ----

   One database, one class, ten objects, N_qa = N_pa = N_ta = 1,
   R_pps = 0.5, no missing data. Every phase is a chain, so response =
   total and both follow from Table 1 by hand (t_d = 15, t_net = 8,
   t_c = 0.5, S_LOid = 16, S_a = 32, S_GOid = 16):

   - extent projection: 10 * (16 + 1*32) = 480 bytes
     read 15*480 = 7200 us, CA's ship 8*480 = 3840 us
   - CA: integrate 0.5*(2*10 + 10*1) = 15 us,
         eval 0.5*(10*1*2) = 10 us                      -> 11065 us
   - BL: eval 0.5*(5 + 10*1*2) = 12.5 us, dispatch 0,
         ship-results 8 * 5*(16+16+32) = 2560 us,
         certify 0.5*(5*(1+1)) = 5 us                   -> 9777.5 us
   - PL: BL plus probe 0.5*(10*1*1) = 5 us              -> 9782.5 us *)

let one_db_sample : Params.sample =
  let at : Params.class_at_db =
    {
      n_o = 10;
      n_qa = 1;
      n_pa = 1;
      n_ta = 1;
      r_pps = 0.5;
      r_m = 0.0;
      r_as = 1.0;
      r_ss = 1.0;
    }
  in
  let root : Params.gclass =
    { n_p = 1; r_ps = 0.45; r_r = 1.0; r_iso = 0.0; per_db = [| at |] }
  in
  { n_db = 1; classes = [| root |] }

let test_table1_pins_one_db () =
  let run s = Param_sim.simulate ~cost:Cost.default s one_db_sample in
  let check_pin name s expected =
    let t = run s in
    Alcotest.(check (float 1e-6))
      (name ^ " response") expected
      (Time.to_us t.Param_sim.response);
    Alcotest.(check (float 1e-6))
      (name ^ " total (chain: total = response)")
      expected
      (Time.to_us t.Param_sim.total)
  in
  check_pin "CA" Strategy.Ca 11_065.0;
  check_pin "BL" Strategy.Bl 9_777.5;
  check_pin "PL" Strategy.Pl 9_782.5

(* Two databases, a root and a branch class; db 0's branch constituent
   misses its predicate attribute (R_m = 0.5), db 1 holds it. Responses
   depend on link-FIFO interleaving, but total busy time is the plain sum
   of all task durations, so it pins exactly:

   - per-db localized read: 480 + 4*0.5*(16+32) = 576 bytes -> 8640 us
   - db0 (BL): survivors 5, maybe 2.5; unsolved items
     min(2.5*0.5, 4*0.5*0.5) * 1 = 1; eval 0.5*(5+20+20) = 22.5 us,
     dispatch 0.5 us, ship-results 8*(5*64 + 2.5*0.5*48) = 3040 us
   - db1 (BL): nothing unsolved; eval 0.5*(5+20+30) = 27.5 us,
     ship-results 8*5*64 = 2560 us
   - one check round trip, n = 1 * q * 1 with q = 1-0.9 ~ 0.1 assistants:
     requests 8*n*96 = 76.8 us, check-read 15*n*256 = 384 us,
     check-eval 0.5*2n = 0.1 us, verdicts 8*n*18 = 14.4 us
   - certify 0.5*(n + 5*3 + 5*3) = 15.05 us
   BL total = 2*8640 + 22.5 + 0.5 + 3040 + 27.5 + 2560 + 475.3 + 15.05
            = 23420.85 us; PL adds two probes 0.5*(10+20) = 30 us;
   CA reads/ships full extents (672 bytes per db), integrates
   0.5*(60 + 24) = 42 us and evaluates 0.5 * 20/1.1 * (2+3) us. *)

let two_db_sample : Params.sample =
  let root_at : Params.class_at_db =
    {
      n_o = 10;
      n_qa = 1;
      n_pa = 1;
      n_ta = 1;
      r_pps = 0.5;
      r_m = 0.0;
      r_as = 1.0;
      r_ss = 1.0;
    }
  in
  let branch_missing : Params.class_at_db =
    {
      n_o = 4;
      n_qa = 1;
      n_pa = 0;
      n_ta = 0;
      r_pps = 1.0;
      r_m = 0.5;
      r_as = 1.0;
      r_ss = 1.0;
    }
  in
  let branch_full : Params.class_at_db =
    { branch_missing with n_pa = 1; r_m = 0.0 }
  in
  let root : Params.gclass =
    {
      n_p = 1;
      r_ps = 0.45;
      r_r = 1.0;
      r_iso = 0.1;
      per_db = [| root_at; root_at |];
    }
  in
  let branch : Params.gclass =
    {
      n_p = 1;
      r_ps = 0.45;
      r_r = 0.5;
      r_iso = 0.1;
      per_db = [| branch_missing; branch_full |];
    }
  in
  { n_db = 2; classes = [| root; branch |] }

let test_table1_pins_two_db () =
  let q = 1.0 -. (0.9 ** 1.0) in
  let check_total name s expected =
    let t = Param_sim.simulate ~cost:Cost.default s two_db_sample in
    Alcotest.(check (float 1e-3))
      (name ^ " total") expected
      (Time.to_us t.Param_sim.total);
    Alcotest.(check bool)
      (name ^ " response <= total")
      true
      (Time.to_us t.Param_sim.response <= Time.to_us t.Param_sim.total)
  in
  let check_legs = (q *. 96.0 *. 8.0) +. (q *. 256.0 *. 15.0) +. q +. (q *. 18.0 *. 8.0) in
  let certify = 0.5 *. (q +. 30.0) in
  let bl =
    (2.0 *. 8640.0) +. 22.5 +. 0.5 +. 3040.0 +. 27.5 +. 2560.0 +. check_legs
    +. certify
  in
  check_total "BL" Strategy.Bl bl;
  check_total "PL" Strategy.Pl (bl +. 30.0);
  let entities = 20.0 /. (1.0 +. q) in
  check_total "CA" Strategy.Ca
    ((2.0 *. 10_080.0) +. (2.0 *. 5_376.0) +. 42.0
    +. (0.5 *. entities *. 5.0))

(* ---- selection parsing (the CLI's --strategy surface) ---- *)

let test_selection_parse () =
  let ok s = Strategy.selection_of_string s in
  (match ok "auto" with
  | Ok Strategy.Auto -> ()
  | _ -> Alcotest.fail "auto should parse to Auto");
  (match ok "AUTO" with
  | Ok Strategy.Auto -> ()
  | _ -> Alcotest.fail "AUTO should parse case-insensitively");
  (match ok "bl" with
  | Ok (Strategy.Fixed Strategy.Bl) -> ()
  | _ -> Alcotest.fail "bl should parse to Fixed Bl");
  Alcotest.(check string)
    "AUTO round-trips" "AUTO"
    (Strategy.selection_to_string Strategy.Auto);
  match ok "bogus" with
  | Ok _ -> Alcotest.fail "bogus should be rejected"
  | Error msg ->
    Alcotest.(check bool)
      "error names the rejected input" true (contains msg "bogus");
    Alcotest.(check bool)
      "error lists the accepted set" true
      (contains msg "accepted" && contains msg "AUTO" && contains msg "CA")

(* ---- the optimizer ---- *)

let test_decide_argmin () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let d = Optimizer.decide fed analysis in
  Alcotest.(check (list strategy))
    "scores in candidate order" Optimizer.candidates
    (List.map (fun s -> s.Optimizer.strategy) d.Optimizer.scores);
  Alcotest.(check bool)
    "no store: score is the prediction ratio" true
    (List.for_all
       (fun s ->
         s.Optimizer.observed = None
         && s.Optimizer.blended = s.Optimizer.pred_ratio)
       d.Optimizer.scores);
  let best =
    List.fold_left
      (fun acc s -> Float.min acc s.Optimizer.blended)
      infinity d.Optimizer.scores
  in
  let first_min =
    List.find (fun s -> s.Optimizer.blended = best) d.Optimizer.scores
  in
  Alcotest.check strategy "preferred is the first argmin"
    first_min.Optimizer.strategy d.Optimizer.preferred;
  Alcotest.(check bool)
    "no degraded sites: chosen = preferred, no switch" true
    (d.Optimizer.chosen = d.Optimizer.preferred
    && (not d.Optimizer.switched)
    && d.Optimizer.reason = None);
  Alcotest.(check bool)
    "deterministic" true
    (Optimizer.decide fed analysis = d)

let test_store_blending_flips () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  List.iter
    (fun fast ->
      let d = Optimizer.decide ~store:(store_preferring fast) fed analysis in
      Alcotest.check strategy
        ("heavy evidence flips the pick to " ^ Strategy.to_string fast)
        fast d.Optimizer.preferred;
      Alcotest.(check bool)
        "every candidate carries its observation" true
        (List.for_all
           (fun s -> s.Optimizer.observed <> None)
           d.Optimizer.scores))
    Optimizer.candidates

let test_degraded_falls_back_to_ca () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let sites = Optimizer.check_sites fed analysis in
  Alcotest.(check bool) "q1 involves check sites" true (sites <> []);
  Alcotest.(check bool)
    "check sites are component sites" true
    (List.for_all (fun s -> s > 0) sites);
  let store = store_preferring Strategy.Pl in
  let d = Optimizer.decide ~store ~degraded:sites fed analysis in
  Alcotest.check strategy "still prefers PL" Strategy.Pl d.Optimizer.preferred;
  Alcotest.check strategy "but runs CA" Strategy.Ca d.Optimizer.chosen;
  Alcotest.(check bool) "switch recorded" true d.Optimizer.switched;
  (match d.Optimizer.reason with
  | Some r ->
    Alcotest.(check bool)
      "reason explains the fallback" true (contains r "falling back to CA")
  | None -> Alcotest.fail "switched decision must carry a reason");
  (* CA is never re-planned: it has no check legs to lose. *)
  let d2 =
    Optimizer.decide ~store:(store_preferring Strategy.Ca) ~degraded:sites fed
      analysis
  in
  Alcotest.(check bool)
    "a CA preference never switches" true
    (d2.Optimizer.chosen = Strategy.Ca && not d2.Optimizer.switched)

(* The fallback's cause is typed: a gray check site gives [Gray_site], a
   degraded one [Breaker_open], and a site both gray and degraded keeps the
   breaker's cause. *)
let test_fallback_cause () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let sites = Optimizer.check_sites fed analysis in
  let store = store_preferring Strategy.Pl in
  let check name ?degraded ?gray chosen cause =
    let d = Optimizer.decide ~store ?degraded ?gray fed analysis in
    Alcotest.check strategy (name ^ ": chosen") chosen d.Optimizer.chosen;
    Alcotest.(check bool) (name ^ ": cause") true (d.Optimizer.cause = cause)
  in
  check "no signal" Strategy.Pl None;
  check "gray" ~gray:[ List.hd sites ] Strategy.Ca (Some Optimizer.Gray_site);
  check "degraded" ~degraded:[ List.hd sites ] Strategy.Ca
    (Some Optimizer.Breaker_open);
  check "gray and degraded" ~gray:sites ~degraded:sites Strategy.Ca
    (Some Optimizer.Breaker_open)

let serve_config ?(options = Strategy.default_options) () =
  {
    Serve.default_config with
    Serve.options;
    cache_bytes = 0;
    window = Time.zero;
  }

(* ---- overload backpressure ---- *)

let test_overload_shifts_decide () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let store = store_preferring Strategy.Pl in
  let base = Optimizer.decide ~store fed analysis in
  Alcotest.check strategy "store evidence prefers PL" Strategy.Pl
    base.Optimizer.preferred;
  Alcotest.(check bool)
    "zero overload changes nothing" true
    (Optimizer.decide ~store ~overload:0.0 fed analysis = base);
  (* overwhelming backpressure: the model's cheapest candidate wins no
     matter what the store observed *)
  let cheapest =
    (List.fold_left
       (fun best s ->
         if s.Optimizer.pred_ratio < best.Optimizer.pred_ratio then s
         else best)
       (List.hd base.Optimizer.scores)
       base.Optimizer.scores)
      .Optimizer.strategy
  in
  let loaded = Optimizer.decide ~store ~overload:1000.0 fed analysis in
  Alcotest.check strategy "heavy overload picks the cheapest plan" cheapest
    loaded.Optimizer.preferred;
  (* monotone: the penalty grows with the prediction ratio *)
  List.iter2
    (fun (b : Optimizer.score) (l : Optimizer.score) ->
      Alcotest.(check bool) "score penalized in proportion to cost" true
        (l.Optimizer.blended >= b.Optimizer.blended))
    base.Optimizer.scores loaded.Optimizer.scores;
  let rejects o =
    match Optimizer.decide ~overload:o fed analysis with
    | (_ : Optimizer.decision) -> Alcotest.failf "overload %f accepted" o
    | exception Invalid_argument _ -> ()
  in
  rejects (-1.0);
  rejects Float.nan;
  rejects Float.infinity

let test_auto_overload_control () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  (* arrivals 1 us apart vs multi-ms service: a depth-1 queue saturates *)
  let jobs = List.init 5 (fun i -> (analysis, us (float_of_int i))) in
  let store = store_preferring Strategy.Pl in
  (* Degrade: everything admitted; over-capacity queries forced to the
     model's cheapest candidate *)
  let cfg =
    {
      (serve_config ()) with
      Serve.queue_limit = Some 1;
      shed_policy = Serve.Degrade;
    }
  in
  let a = Serve.run_auto ~store cfg fed jobs in
  Alcotest.(check int) "every query decided" 5 (List.length a.Serve.decisions);
  Alcotest.(check int) "nothing shed" 0 (List.length a.Serve.auto.Serve.shed);
  let cheapest =
    let preds =
      Msdq_opt.Planner.predict ~strategies:Optimizer.candidates fed analysis
    in
    (List.fold_left
       (fun best p ->
         if
           Time.to_us p.Msdq_opt.Planner.response
           < Time.to_us best.Msdq_opt.Planner.response
         then p
         else best)
       (List.hd preds) preds)
      .Msdq_opt.Planner.strategy
  in
  List.iteri
    (fun i d ->
      if i > 0 then
        Alcotest.check strategy "over capacity runs the cheapest plan"
          cheapest d.Serve.d_chosen)
    a.Serve.decisions;
  (* Reject_newest: over-capacity arrivals shed, producing no decision *)
  let rj =
    Serve.run_auto ~store
      {
        (serve_config ()) with
        Serve.queue_limit = Some 1;
        shed_policy = Serve.Reject_newest;
      }
      fed jobs
  in
  Alcotest.(check int) "one admitted decision" 1
    (List.length rj.Serve.decisions);
  Alcotest.(check int) "the rest shed" 4
    (List.length rj.Serve.auto.Serve.shed);
  Alcotest.(check int) "one report" 1
    (List.length rj.Serve.auto.Serve.reports)

(* ---- breaker-driven re-planning through the serve path ---- *)

let test_breaker_forces_ca () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let sites = Optimizer.check_sites fed analysis in
  (* Crash every check-target site for the whole workload: the first PL
     query's check legs all fail, the breakers open, and every query
     admitted before the recovery instant re-plans onto CA. *)
  let fault =
    {
      Fault.none with
      Fault.sites =
        List.map
          (fun site ->
            { Fault.site; outages = [ { Fault.down = Time.zero; up = ms 50.0 } ] })
          sites;
    }
  in
  let options = { Strategy.default_options with Strategy.fault } in
  let jobs = List.init 8 (fun i -> (analysis, us (float_of_int i *. 300.0))) in
  let store = store_preferring Strategy.Pl in
  let a = Serve.run_auto ~store (serve_config ~options ()) fed jobs in
  Alcotest.(check int) "one decision per query" 8 (List.length a.Serve.decisions);
  Alcotest.check strategy "first pick is the store's favourite" Strategy.Pl
    (List.hd a.Serve.decisions).Serve.d_chosen;
  Alcotest.(check bool) "breaker re-planned later queries" true (a.Serve.switches > 0);
  Alcotest.(check bool)
    "switched queries run CA with a reason" true
    (List.exists
       (fun d ->
         d.Serve.d_switched
         && d.Serve.d_chosen = Strategy.Ca
         && d.Serve.d_reason <> None)
       a.Serve.decisions);
  Alcotest.(check int)
    "switch counter matches the decisions"
    (List.length (List.filter (fun d -> d.Serve.d_switched) a.Serve.decisions))
    a.Serve.switches

(* Every check site's incoming link runs at twice its latency: with
   adaptive timeouts, each delivered check leg is slow, the sites turn
   gray after two PL queries, and every later query falls back to CA. The
   workload counter counts exactly the decisions with the gray cause. *)
let test_gray_fallbacks_counted () =
  let fed, analyze = setup () in
  let analysis = analyze Paper_example.q1 in
  let fault =
    {
      Fault.none with
      Fault.links =
        List.map
          (fun dst -> { Fault.dst; drop = 0.0; inflate = 2.0; jitter = 0.0 })
          (Optimizer.check_sites fed analysis);
    }
  in
  let retry =
    { Strategy.default_retry with Strategy.adaptive = Some Strategy.default_adaptive }
  in
  let options = { Strategy.default_options with Strategy.fault; retry } in
  let jobs = List.init 6 (fun i -> (analysis, us (float_of_int i *. 300.0))) in
  let a =
    Serve.run_auto ~store:(store_preferring Strategy.Pl) (serve_config ~options ())
      fed jobs
  in
  let gray =
    List.filter
      (fun d ->
        match d.Serve.d_reason with
        | Some r -> contains r "gray (slow but up)"
        | None -> false)
      a.Serve.decisions
  in
  Alcotest.(check bool) "later queries fall back" true (gray <> []);
  Alcotest.(check int) "one count per gray fallback" (List.length gray)
    (Msdq_obs.Metrics.total a.Serve.auto.Serve.registry "msdq_gray_fallbacks_total")

(* ---- AUTO never changes an answer (qcheck) ----

   For any synthesized federation/query, any seeded fault schedule and any
   store contents: running the workload under AUTO yields answers
   byte-identical to running the same jobs with the strategies AUTO chose,
   fixed. Selection only decides which plan executes. *)

let fingerprints out =
  List.map (fun r -> Serve.answer_fingerprint r.Serve.answer) out.Serve.reports

let prop_auto_equals_fixed =
  QCheck.Test.make
    ~name:"auto: answers byte-identical to the chosen fixed strategies"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Testutil.chaos_case seed with
      | None -> true
      | Some (fed, analysis) ->
        let _, ff = Strategy.run Strategy.Bl fed analysis in
        let horizon =
          us (2.0 *. Time.to_us (Time.max ff.Strategy.response (ms 1.0)))
        in
        let fault =
          if seed mod 3 = 0 then Fault.none
          else
            Testutil.random_schedule ~seed:(seed + 11)
              ~n_db:(List.length (Federation.databases fed))
              ~horizon
        in
        let options = { Strategy.default_options with Strategy.fault } in
        let cfg = serve_config ~options () in
        let store =
          if seed mod 2 = 0 then None
          else
            Some
              (store_preferring
                 (List.nth Optimizer.candidates (seed mod 3)))
        in
        let jobs =
          List.init 4 (fun i -> (analysis, us (float_of_int i *. 400.0)))
        in
        let a = Serve.run_auto ?store cfg fed jobs in
        let fixed_jobs =
          List.map2
            (fun (analysis, arrival) d ->
              { Serve.strategy = d.Serve.d_chosen; analysis; arrival; deadline = None })
            jobs a.Serve.decisions
        in
        let fixed = Serve.run cfg fed fixed_jobs in
        fingerprints a.Serve.auto = fingerprints fixed)

(* ---- the auto-sweep win condition (ROADMAP item 2) ---- *)

let test_auto_sweep_win_condition () =
  let o = Auto_sweep.run ~seed:1996 () in
  Alcotest.(check (list strategy))
    "one fixed run per candidate" Optimizer.candidates
    (List.map (fun f -> f.Auto_sweep.f_strategy) o.Auto_sweep.fixed);
  Alcotest.(check bool)
    "AUTO makespan no worse than the best fixed strategy" true
    (o.Auto_sweep.auto_makespan_s
    <= Auto_sweep.min_fixed_makespan o *. (1.0 +. 1e-9));
  Alcotest.(check bool)
    "estimator ranking matches observed on >= 80% of queries" true
    (o.Auto_sweep.rank_match_rate >= 0.8);
  Alcotest.(check (float 1e-9))
    "rate is matches / distinct"
    (float_of_int o.Auto_sweep.rank_matches /. float_of_int o.Auto_sweep.distinct)
    o.Auto_sweep.rank_match_rate;
  Alcotest.(check int)
    "every query decided" o.Auto_sweep.queries
    (List.fold_left (fun acc (_, n) -> acc + n) 0 o.Auto_sweep.decisions);
  Alcotest.(check int) "fault-free mix never switches" 0 o.Auto_sweep.switches

let suite =
  [
    Alcotest.test_case "param_sim: Table 1 pins (one database)" `Quick
      test_table1_pins_one_db;
    Alcotest.test_case "param_sim: Table 1 pins (two databases, checks)" `Quick
      test_table1_pins_two_db;
    Alcotest.test_case "strategy selection parsing" `Quick test_selection_parse;
    Alcotest.test_case "decide: argmin over blended scores" `Quick
      test_decide_argmin;
    Alcotest.test_case "decide: store evidence flips the pick" `Quick
      test_store_blending_flips;
    Alcotest.test_case "decide: overload shifts toward cheap plans" `Quick
      test_overload_shifts_decide;
    Alcotest.test_case "auto: overload control composes" `Quick
      test_auto_overload_control;
    Alcotest.test_case "decide: degraded sites fall back to CA" `Quick
      test_degraded_falls_back_to_ca;
    Alcotest.test_case "serve: breaker re-plans onto CA" `Quick
      test_breaker_forces_ca;
    Alcotest.test_case "decide: the fallback's cause is typed" `Quick
      test_fallback_cause;
    Alcotest.test_case "serve: gray fallbacks are counted" `Quick
      test_gray_fallbacks_counted;
    QCheck_alcotest.to_alcotest prop_auto_equals_fixed;
    Alcotest.test_case "auto-sweep win condition" `Quick
      test_auto_sweep_win_condition;
  ]

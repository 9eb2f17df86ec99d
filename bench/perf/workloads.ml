(* The benchmark's six workloads. Each builds its inputs from the seed and
   yields a fixed cycle of ops. An op makes the libraries' public calls
   inside spans named after the layer they enter, and returns a check of
   its output: a digest, or an error naming the broken invariant. Where a
   workload knows the right answer independently, it gives the expected
   digest; otherwise the warm-up pass's digest is the reference.

   [replay] makes, outside the op, the public calls the library makes inside
   it (Strategy.run, Serve.run or Figures.fig9), each in its layer's span.
   The op's own span minus the replayed layers is that library's self time. *)

open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
module Serve = Msdq_serve.Serve
module Synth = Msdq_workload.Synth
module Rng = Msdq_workload.Rng
module Params = Msdq_workload.Params
module Tracer = Msdq_obs.Tracer
module Json = Msdq_obs.Json
module Figures = Msdq_exp.Figures
module Shapes = Msdq_exp.Shapes
module Run_report = Msdq_exp.Run_report
module Param_sim = Msdq_opt.Param_sim
module Fault = Msdq_fault.Fault

type op = {
  label : string;
  run : Spans.t -> unit -> (string, string) result;
      (** does the op's work, then returns its check: the check records the
          op's counts (simulated times among them) into the same recorder
          and digests the output *)
  replay : Spans.t -> unit;
}

type t = {
  ops : op array;
  expected : string option array;  (** per op *)
}

let digest s = Digest.to_hex (Digest.string s)
let schema_of fed = Global_schema.schema (Federation.global_schema fed)
let fingerprint a = digest (Serve.answer_fingerprint a)
let mean f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)
let certain_set a = Answer.goids a Answer.Certain

(* The [i]th independent random stream of a run's seed. *)
let rng ~seed i = Rng.split_ix (Rng.create ~seed) ~i

let rec product xs ys =
  match xs with [] -> [] | x :: rest -> List.map (fun y -> (x, y)) ys @ product rest ys

(* ---- Replay of a strategy's layer calls (Strategy.build's sequence) ---- *)

let local_eval sp ~tracer fed analysis ~db =
  let r = Spans.span sp "local_eval" (fun () -> Local_eval.run ~tracer fed analysis ~db) in
  Spans.count sp "local_eval.examined" (float_of_int r.Local_result.examined);
  Spans.count sp "local_eval.rows" (float_of_int (List.length r.Local_result.rows));
  r

let certify sp ~tracer fed analysis ~results ~verdicts =
  let c =
    Spans.span sp "certify" (fun () -> Certify.run ~tracer fed analysis ~results ~verdicts)
  in
  List.iter
    (fun (r : Local_result.t) ->
      Spans.count sp "certify.rows" (float_of_int (List.length r.Local_result.rows)))
    results;
  Spans.count sp "certify.promoted" (float_of_int c.Certify.promoted)

let ca sp ~tracer fed analysis =
  let o = Spans.span sp "ca" (fun () -> Ca.run ~tracer fed analysis) in
  Spans.count sp "ca.entities" (float_of_int o.Ca.materialize_stats.Materialize.entities)

let checks_build sp ?signatures ~tracer fed analysis ~db ~root_class ~items =
  let b =
    Spans.span sp "checks.build" (fun () ->
        Checks.build ?signatures ~tracer fed analysis ~db ~root_class ~items)
  in
  Spans.count sp "checks.requests" (float_of_int (List.length b.Checks.requests));
  Spans.count sp "checks.filtered" (float_of_int b.Checks.filtered);
  b

(* BL/PL/BLS/PLS/LO: localize, evaluate (PL probes first), build checks,
   serve them batched per (origin, target) in discovery order, certify. *)
let localized sp ~tracer ~signatures fed analysis ~parallel ~checks ~signed =
  let plans = Spans.span sp "query.localize" (fun () -> Localize.plan fed analysis) in
  let signatures = if signed then Some (signatures ()) else None in
  let phases =
    List.map
      (fun (plan : Localize.db_plan) ->
        let db = plan.Localize.db and root_class = plan.Localize.local_class in
        if parallel then
          let probe = Spans.span sp "probe" (fun () -> Probe.run ~tracer fed analysis ~db) in
          let built =
            checks_build sp ?signatures ~tracer fed analysis ~db ~root_class
              ~items:probe.Probe.items
          in
          (local_eval sp ~tracer fed analysis ~db, Some built)
        else
          let result = local_eval sp ~tracer fed analysis ~db in
          let items =
            List.concat_map (fun (r : Local_result.row) -> r.Local_result.unsolved)
              result.Local_result.rows
          in
          ( result,
            if checks then
              Some (checks_build sp ?signatures ~tracer fed analysis ~db ~root_class ~items)
            else None ))
      plans
  in
  let built = List.filter_map snd phases in
  let batches = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (r : Checks.request) ->
      let key = (r.Checks.origin_db, r.Checks.target_db) in
      match Hashtbl.find_opt batches key with
      | Some l -> l := r :: !l
      | None ->
        Hashtbl.add batches key (ref [ r ]);
        order := key :: !order)
    (List.concat_map (fun b -> b.Checks.requests) built);
  let served =
    List.concat_map
      (fun ((_, target) as key) ->
        let reqs = List.rev !(Hashtbl.find batches key) in
        (Spans.span sp "checks.serve" (fun () -> Checks.serve ~tracer fed ~db:target reqs))
          .Checks.verdicts)
      (List.rev !order)
  in
  certify sp ~tracer fed analysis ~results:(List.map fst phases)
    ~verdicts:(List.concat_map (fun b -> b.Checks.local_verdicts) built @ served)

let replay_strategy sp ~tracer ~signatures fed analysis (s : Strategy.t) =
  let localized = localized sp ~tracer ~signatures fed analysis in
  match s with
  | Ca -> ca sp ~tracer fed analysis
  | Cf ->
    let plans = Spans.span sp "query.localize" (fun () -> Localize.plan fed analysis) in
    let results =
      List.map (fun (p : Localize.db_plan) -> local_eval sp ~tracer fed analysis ~db:p.Localize.db) plans
    in
    certify sp ~tracer fed analysis ~results ~verdicts:[];
    ca sp ~tracer fed analysis
  | Bl -> localized ~parallel:false ~checks:true ~signed:false
  | Pl -> localized ~parallel:true ~checks:true ~signed:false
  | Bls -> localized ~parallel:false ~checks:true ~signed:true
  | Pls -> localized ~parallel:true ~checks:true ~signed:true
  | Lo -> localized ~parallel:false ~checks:false ~signed:false

(* Strategy.run builds a signature catalog per query and records host
   spans on a fresh tracer; the replay does the same. *)
let replay_run sp fed analysis s =
  replay_strategy sp ~tracer:(Tracer.create ())
    ~signatures:(fun () -> Spans.span sp "sig_catalog" (fun () -> Sig_catalog.build fed))
    fed analysis s

let count sp name v = Spans.count sp name (float_of_int v)

let strategy_counts sp (m : Strategy.metrics) =
  let a = m.Strategy.availability in
  Spans.count sp "sim.response_ms" (Time.to_ms m.Strategy.response);
  Spans.count sp "sim.total_ms" (Time.to_ms m.Strategy.total);
  count sp "strategy.tasks" (List.length (Trace.entries m.Strategy.trace));
  count sp "fault.drops" a.Strategy.drops;
  count sp "fault.retries" a.Strategy.retries;
  count sp "fault.abandoned" a.Strategy.checks_abandoned;
  count sp "fault.recovered" a.Strategy.recovered;
  count sp "fault.demoted" a.Strategy.demoted;
  count sp "fault.certain_fault_free" a.Strategy.certain_fault_free

(* One op = one Strategy.run of a pre-analyzed query. *)
let strategy_op ?(options = Strategy.default_options) ~check fed ~label analysis s =
  {
    label;
    run =
      (fun sp ->
        let answer, m =
          Spans.span sp "strategy" (fun () -> Strategy.run ~options s fed analysis)
        in
        fun () ->
          strategy_counts sp m;
          check answer m);
    replay = (fun sp -> replay_run sp fed analysis s);
  }

(* ---- paper-q1 ---- *)

(* One op is [msdq query --json] for Q1 under one strategy: parse, analyze,
   run, report. Every strategy but LO certifies the paper's single certain
   row (Hedy, advised by Kelly); LO certifies nothing. The seed only
   rotates the cycle: the paper's federation is fixed. *)
let paper_q1 ~seed =
  let fed = (Paper_example.build ()).Paper_example.federation in
  let schema = schema_of fed in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
  let n = List.length Strategy.all in
  let strategies = List.init n (fun i -> List.nth Strategy.all ((i + seed) mod n)) in
  let certain_values answer =
    String.concat ";"
      (List.map
         (fun (r : Answer.row) -> String.concat "," (List.map Value.to_string r.Answer.values))
         (Answer.certain answer))
  in
  let op s =
    {
      label = "Q1/" ^ Strategy.to_string s;
      run =
        (fun sp ->
          let ast = Spans.span sp "query.parse" (fun () -> Parser.parse Paper_example.q1) in
          let analysis = Spans.span sp "query.analyze" (fun () -> Analysis.analyze schema ast) in
          let answer, m = Spans.span sp "strategy" (fun () -> Strategy.run s fed analysis) in
          let json =
            Spans.span sp "report" (fun () -> Json.to_string (Run_report.run_to_json answer m))
          in
          fun () ->
            strategy_counts sp m;
            match Json.of_string json with
            | Ok _ -> Ok (certain_values answer)
            | Error e -> Error ("report is not JSON: " ^ e));
      replay = (fun sp -> replay_run sp fed analysis s);
    }
  in
  {
    ops = Array.of_list (List.map op strategies);
    expected =
      Array.of_list
        (List.map (fun s -> Some (if s = Strategy.Lo then "" else "Hedy,Kelly")) strategies);
  }

(* ---- Synthetic federations ---- *)

(* The synthetic federations are fixed, like a benchmark database: 3
   databases hosting every class of a 3-class chain, 25% of the attributes
   missing from each constituent, 12% nulls and 40% extra copies. Seed 1996
   keeps every attribute in some constituent. [n_entities] 4000 gives about
   2,400 objects per constituent extent. The run's seed draws the query
   constants, the serve stream order and the fault schedules instead: a
   federation's missing-attribute pattern moves a run's cost by more than
   any usable bound. *)
let synth_federation ~n_entities =
  Synth.generate
    {
      Synth.default with
      Synth.seed = 1996;
      n_db = 3;
      n_classes = 3;
      n_entities;
      p_host = 1.0;
      p_attr_present = 0.75;
      p_null = 0.12;
      p_copy = 0.4;
    }

(* The 8 synthetic queries: root, nested and two-hop predicates over the
   K0 -> K1 -> K2 chain, two of them disjunctive, with seeded constants from
   the attribute domain [0, 4). *)
let query_shapes =
  let f = Printf.sprintf in
  [
    (fun c -> f "X.p0 = %d" c.(0));
    (fun c -> f "X.p1 = %d and X.next.p0 = %d" c.(0) c.(1));
    (fun c -> f "X.next.next.p2 = %d" c.(0));
    (fun c -> f "X.p0 <> %d and X.next.p1 = %d and X.next.next.p0 = %d" c.(0) c.(1) c.(2));
    (fun c -> f "X.p2 = %d and X.next.next.p1 <> %d" c.(0) c.(1));
    (fun c -> f "X.next.p2 = %d and X.next.p0 = %d" c.(0) c.(1));
    (fun c -> f "X.p0 = %d or X.next.p1 = %d" c.(0) c.(1));
    (fun c -> f "(X.p1 = %d and not X.next.p2 = %d) or X.next.next.p0 = %d" c.(0) c.(1) c.(2));
  ]

let synth_inputs ~seed ~n_entities =
  let fed = synth_federation ~n_entities in
  let schema = schema_of fed in
  let rng = rng ~seed 0 in
  let query k shape =
    let c = Array.init 3 (fun _ -> Rng.int rng ~bound:Synth.default.Synth.domain) in
    let text = "select X.key, X.next.p1 from K0 X where " ^ shape c in
    (Printf.sprintf "q%d" k, Analysis.analyze schema (Parser.parse text))
  in
  (fed, List.mapi query query_shapes)

let scan_strategies = Strategy.[ Ca; Bl; Pl; Bls; Pls ]

(* Fault-free reference runs of every (query, strategy) pair. Setup checks
   the paper's equivalences on their answers: BL, PL, BLS and PLS give every
   row the same status, and CA subsumes BL. *)
let reference_runs fed queries =
  let runs =
    List.map
      (fun ((qn, analysis), s) -> ((qn, s), Strategy.run s fed analysis))
      (product queries scan_strategies)
  in
  let answer qn s = fst (List.assoc (qn, s) runs) in
  List.iter
    (fun (qn, _) ->
      let bl = answer qn Strategy.Bl in
      List.iter
        (fun s ->
          if not (Answer.same_statuses (answer qn s) bl) then
            failwith (Printf.sprintf "setup: %s and BL differ on %s" (Strategy.to_string s) qn))
        Strategy.[ Pl; Bls; Pls ];
      if not (Answer.subsumes ~strong:(answer qn Strategy.Ca) ~weak:bl) then
        failwith ("setup: CA does not subsume BL on " ^ qn))
    queries;
  runs

(* ---- synth-scan ---- *)

let synth_scan ~seed =
  let fed, queries = synth_inputs ~seed ~n_entities:4000 in
  let runs = reference_runs fed queries in
  let pairs = product queries scan_strategies in
  {
    ops =
      Array.of_list
        (List.map
           (fun ((qn, analysis), s) ->
             strategy_op ~check:(fun a _ -> Ok (fingerprint a)) fed
               ~label:(qn ^ "/" ^ Strategy.to_string s) analysis s)
           pairs);
    expected =
      Array.of_list (List.map (fun ((qn, _), s) -> Some (fingerprint (fst (List.assoc (qn, s) runs)))) pairs);
  }

(* ---- synth-faulty ---- *)

(* The synth-scan inputs, each query under 3 random fault schedules of its
   own (database sites 90% available, 5% of transfers dropped, 20% jitter,
   over twice the query's fault-free mean response) with failover recovery.
   Three schedules per query, because one schedule's faults move a run's
   cost more than the bound. The check is the degradation contract:
   certain(faulty) is within certain(fault-free), and certain(faulty) +
   demoted = certain(fault-free). *)
let synth_faulty ~seed =
  let fed, queries = synth_inputs ~seed ~n_entities:4000 in
  let runs = reference_runs fed queries in
  let sites = List.map (Federation.site_of fed) (Federation.db_names fed) in
  let check ff answer (m : Strategy.metrics) =
    let a = m.Strategy.availability and certain = certain_set answer in
    if not (Oid.Goid.Set.subset certain ff) then Error "certain(faulty) not within certain(fault-free)"
    else if
      a.Strategy.certain_fault_free <> Oid.Goid.Set.cardinal ff
      || Oid.Goid.Set.cardinal certain + a.Strategy.demoted <> a.Strategy.certain_fault_free
    then Error "certain(faulty) + demoted <> certain(fault-free)"
    else Ok (fingerprint answer)
  in
  let ops =
    List.concat
      (List.mapi
         (fun i (qn, analysis) ->
           let horizon =
             2.0
             *. mean (fun s -> Time.to_us (snd (List.assoc (qn, s) runs)).Strategy.response) scan_strategies
           in
           List.concat_map
             (fun j ->
               let fault =
                 Fault.random ~rng:(rng ~seed (1 + (3 * i) + j)) ~sites ~availability:0.9
                   ~horizon:(Time.us horizon) ~drop:0.05 ~jitter:0.2 ()
               in
               let options = { Strategy.default_options with Strategy.fault; recovery = Recovery.default } in
               List.map
                 (fun s ->
                   let ff = certain_set (fst (List.assoc (qn, s) runs)) in
                   strategy_op ~options ~check:(check ff) fed
                     ~label:(Printf.sprintf "%s/f%d/%s" qn j (Strategy.to_string s)) analysis s)
                 scan_strategies)
             [ 0; 1; 2 ])
         queries)
  in
  { ops = Array.of_list ops; expected = Array.make (List.length ops) None }

(* ---- serve-warm / serve-cold ---- *)

(* One op is one Serve.run over a 64-job stream: jobs drawn from 8 queries
   x CA/BL/PL/BLS/LO over a 500-entity federation, one arrival every 2 ms
   of simulated time; the cycle is 4 such streams. Warm: 4 MiB caches and a
   500 us batching window. Cold: both off. Every job's answer must equal
   the fault-free Strategy.run answer, so warm and cold answer alike. *)
let serve ~warm ~seed =
  let fed, queries = synth_inputs ~seed ~n_entities:500 in
  let combos = Array.of_list (product queries Strategy.[ Ca; Bl; Pl; Bls; Lo ]) in
  let reference =
    Array.map (fun ((_, analysis), s) -> fingerprint (fst (Strategy.run s fed analysis))) combos
  in
  let config =
    if warm then { Serve.default_config with Serve.cache_bytes = 4 lsl 20; window = Time.us 500.0 }
    else { Serve.default_config with Serve.cache_bytes = 0; window = Time.zero }
  in
  (* Every stream holds the same 64 jobs, each query 8 times with the
     strategies spread evenly over them; the seed shuffles their order. *)
  let stream k =
    let rng = rng ~seed (32 + k) in
    let jobs = Array.init 64 (fun j -> (5 * (j mod 8)) + ((j mod 8) + (j / 8)) mod 5) in
    for i = 63 downto 1 do
      let j = Rng.int rng ~bound:(i + 1) in
      let x = jobs.(i) in
      jobs.(i) <- jobs.(j);
      jobs.(j) <- x
    done;
    Array.to_list jobs
  in
  let op picks =
    let jobs =
      List.mapi
        (fun j c ->
          let (_, analysis), strategy = combos.(c) in
          { Serve.strategy; analysis; arrival = Time.ms (2.0 *. float_of_int j); deadline = None })
        picks
    in
    {
      label = "stream";
      run =
        (fun sp ->
          let o = Spans.span sp "serve" (fun () -> Serve.run config fed jobs) in
          fun () ->
            let e = o.Serve.extent_cache and v = o.Serve.verdict_cache in
            let module Lru = Msdq_serve.Lru in
            Spans.count sp "sim.response_ms"
              (mean (fun (r : Serve.query_report) -> Time.to_ms r.Serve.latency) o.Serve.reports);
            Spans.count sp "sim.total_ms" (Time.to_ms o.Serve.makespan);
            count sp "serve.queries" (List.length o.Serve.reports);
            count sp "serve.extent_hits" e.Lru.hits;
            count sp "serve.extent_lookups" (e.Lru.hits + e.Lru.misses);
            count sp "serve.verdict_hits" v.Lru.hits;
            count sp "serve.verdict_lookups" (v.Lru.hits + v.Lru.misses);
            count sp "serve.cache_bytes" (e.Lru.bytes + v.Lru.bytes);
            count sp "serve.messages" o.Serve.messages;
            count sp "serve.coalesced" o.Serve.coalesced_checks;
            Ok
              (digest
                 (String.concat "\n"
                    (List.map (fun (r : Serve.query_report) -> fingerprint r.Serve.answer) o.Serve.reports))));
      replay =
        (fun sp ->
          (* Serve.run builds the signature catalog once per stream and
             records no host spans. *)
          let catalog = lazy (Spans.span sp "sig_catalog" (fun () -> Sig_catalog.build fed)) in
          List.iter
            (fun (j : Serve.job) ->
              replay_strategy sp ~tracer:Tracer.disabled
                ~signatures:(fun () -> Lazy.force catalog)
                fed j.Serve.analysis j.Serve.strategy)
            jobs);
    }
  in
  let streams = List.init 4 stream in
  {
    ops = Array.of_list (List.map op streams);
    expected =
      Array.of_list
        (List.map
           (fun picks -> Some (digest (String.concat "\n" (List.map (fun c -> reference.(c)) picks))))
           streams);
  }

(* ---- fig-sweep ---- *)

(* Figure 9's grid as Figures.fig9 sweeps it: CA/BL/PL x six class sizes,
   500 parameter draws per point. *)
let fig9_xs = [ 1000; 2000; 4000; 6000; 8000; 10000 ]
let fig9_samples = 500

(* One op is Figures.fig9 with no pool, on one of 4 draw seeds derived from
   the run's seed: one seed's draws move the heap peak by more than the
   bound. Its check is the paper's shape checks, and the warm-up's figure
   JSON is the reference bytes. *)
let fig_sweep ~seed =
  let op k =
    let seed = (4 * seed) + k in
    {
      label = Printf.sprintf "fig9/seed%d" seed;
      run =
        (fun sp ->
          let fig = Spans.span sp "figures" (fun () -> Figures.fig9 ~samples:fig9_samples ~seed ()) in
          fun () ->
            let over f =
              1000.0 *. mean (fun s -> mean Fun.id (Array.to_list (f s))) fig.Figures.series
            in
            Spans.count sp "sim.response_ms" (over (fun s -> s.Figures.responses));
            Spans.count sp "sim.total_ms" (over (fun s -> s.Figures.totals));
            count sp "param_sim.draws"
              (fig9_samples * List.length fig9_xs * List.length fig.Figures.series);
            match List.filter (fun (_, ok) -> not ok) (Shapes.check_fig9 fig) with
            | [] -> Ok (digest (Json.to_string (Run_report.figure_to_json fig)))
            | failed -> Error ("shape checks fail: " ^ String.concat ", " (List.map fst failed)));
      replay =
        (fun sp ->
          List.iter
            (fun (s, n) ->
              let ranges = { Params.default with Params.n_o = (n, n + (n / 5)) } in
              ignore
                (Spans.span sp "param_sim" (fun () ->
                     Param_sim.average ~cost:Cost.default ~samples:fig9_samples ~seed ~ranges s)))
            (product Strategy.[ Ca; Bl; Pl ] fig9_xs));
    }
  in
  { ops = Array.init 4 op; expected = Array.make 4 None }

let all =
  [
    ("paper-q1", paper_q1);
    ("synth-scan", synth_scan);
    ("synth-faulty", synth_faulty);
    ("serve-warm", serve ~warm:true);
    ("serve-cold", serve ~warm:false);
    ("fig-sweep", fig_sweep);
  ]

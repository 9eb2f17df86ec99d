(* The benchmark harness regenerates every table and figure of the paper's
   evaluation (Section 4), and adds:

   - a concrete-engine validation: the same sweeps at reduced scale on real
     generated data through the actual executors (not the parametric model);
   - a signature-filtering ablation (future-work extension);
   - Bechamel microbenchmarks of the core operators.

   Usage: dune exec bench/main.exe [-- --quick | -- --samples N]
   The paper's setting is 500 parameter draws per point (the default).

   Every run also writes a machine-readable BENCH_<timestamp>.json whose
   sections Msdq_exp.Bench declares (docs/COST_MODEL.md lists the schema
   versions): the per-strategy simulated times on the demo workload, the
   bechamel wall-clock medians, the run's seed, the parallel calibration,
   the fault, recovery, serve, AUTO, overload and gray sweeps, the
   latency quantiles and the columnar microbench; --out DIR picks the
   directory, --jobs N sizes the domain pool (default: all cores;
   1 = sequential), --smoke runs a reduced version for CI, and --check
   FILE validates an existing result file. *)

open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
open Msdq_exp
module Planner = Msdq_opt.Planner
module Param_sim = Msdq_opt.Param_sim

let section name = Format.printf "@.======== [%s] ========@.@." name

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2 *)

let tables () =
  section "table-1";
  Format.printf "System parameters (Table 1):@.%a@." Cost.pp Cost.default;
  section "table-2";
  Format.printf "Database and query parameters (Table 2):@.%a@." Params.pp_ranges
    Params.default

(* ------------------------------------------------------------------ *)
(* Figures 9-11 and the ablation (parametric simulation, paper method) *)

let figures ?pool ~samples ~seed () =
  List.iter
    (fun fig ->
      section fig.Figures.id;
      Format.printf "%a@.@." Report.pp_figure fig;
      Format.printf "shape checks against the paper's findings:@.%a@."
        Report.pp_checks (Shapes.check fig))
    (Figures.all ?pool ~samples ~seed ())

(* ------------------------------------------------------------------ *)
(* Parallel calibration: time one fixed sweep sequentially and on the
   pool, and assert the two outputs are byte-identical — the determinism
   contract, re-checked on every bench run, on real hardware. *)

let wall_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let figure_bytes fig =
  Msdq_obs.Json.to_string (Run_report.figure_to_json fig)

let calibrate ?pool ~seed ~samples () =
  section "parallel";
  let grid fig =
    List.length fig.Figures.series * Array.length fig.Figures.xs
  in
  let seq_fig, seq_s = wall_time (fun () -> Figures.fig10 ~samples ~seed ()) in
  let p =
    match pool with
    | None ->
      {
        Bench.jobs = 1;
        grid_points = grid seq_fig;
        seq_s;
        par_s = seq_s;
        speedup = 1.0;
      }
    | Some pool ->
      let par_fig, par_s =
        wall_time (fun () -> Figures.fig10 ~pool ~samples ~seed ())
      in
      if not (String.equal (figure_bytes seq_fig) (figure_bytes par_fig)) then begin
        Format.eprintf
          "parallel calibration diverged from the sequential sweep@.";
        exit 1
      end;
      {
        Bench.jobs = Msdq_par.Pool.jobs pool;
        grid_points = grid seq_fig;
        seq_s;
        par_s;
        speedup = seq_s /. par_s;
      }
  in
  Format.printf
    "calibration sweep (fig10, %d samples/point, %d grid points):@.  %a@." samples
    p.Bench.grid_points Bench.pp_parallel p;
  Format.printf "  parallel output identical to sequential: true@.";
  p

(* ------------------------------------------------------------------ *)
(* Concrete-engine validation: the real executors on generated data.   *)

let concrete_validation () =
  section "concrete-validation";
  Format.printf
    "The actual CA/BL/PL executors on generated federations (3 databases,@.\
     3-class chain), sweeping the number of entities per class. Times come@.\
     from the same discrete-event engine, driven by real per-phase work.@.@.";
  let query =
    "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1 and X.next.next.p2 = 3"
  in
  Format.printf "query: %s@.@." query;
  Format.printf "%-9s %-6s %12s %12s %10s %8s@." "entities" "strat" "total"
    "response" "shipped" "checks";
  let ordering_ok = ref true in
  List.iter
    (fun n_entities ->
      let cfg =
        {
          Synth.default with
          Synth.seed = 31;
          n_entities;
          p_host = 1.0;
          p_attr_present = 0.75;
          p_null = 0.12;
          p_copy = 0.4;
        }
      in
      let fed = Synth.generate cfg in
      let results =
        List.filter_map
          (fun s ->
            match Strategy.run_query s fed query with
            | Ok (answer, m) -> Some (s, answer, m)
            | Error msg ->
              Format.printf "error: %s@." msg;
              None)
          [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
      in
      List.iter
        (fun (s, _, m) ->
          Format.printf "%-9d %-6s %12s %12s %9dB %8d@." n_entities
            (Strategy.to_string s)
            (Format.asprintf "%a" Msdq_simkit.Time.pp m.Strategy.total)
            (Format.asprintf "%a" Msdq_simkit.Time.pp m.Strategy.response)
            m.Strategy.bytes_shipped m.Strategy.check_requests)
        results;
      (match results with
      | [ (_, ca_a, ca); (_, bl_a, bl); (_, pl_a, pl) ] ->
        let t m = Msdq_simkit.Time.to_us m.Strategy.total in
        let r m = Msdq_simkit.Time.to_us m.Strategy.response in
        if not (t bl < t ca && t bl <= t pl && r bl < r ca && r pl < r ca) then
          ordering_ok := false;
        if
          not
            (Answer.same_statuses bl_a pl_a && Answer.subsumes ~strong:ca_a ~weak:bl_a)
        then ordering_ok := false
      | _ -> ordering_ok := false);
      Format.printf "@.")
    [ 100; 200; 400; 800 ];
  Format.printf "paper ordering holds on concrete data (BL < PL on total,@.";
  Format.printf "both < CA; localized response < CA response): %b@." !ordering_ok

(* ------------------------------------------------------------------ *)
(* Planner accuracy: predicted vs measured strategy ordering.           *)

let planner_study () =
  section "planner";
  Format.printf "Cost-based strategy selection (extension): the planner@.";
  Format.printf "profiles the federation into Table-2 statistics and predicts@.";
  Format.printf "each strategy's cost; predicted vs measured per seed.@.@.";
  let query = "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1" in
  Format.printf "query: %s@.@." query;
  Format.printf "%-5s %-11s %-10s %12s %12s %8s@." "seed" "predicted" "measured"
    "pred total" "meas total" "regret";
  let hits = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let cfg =
        {
          Synth.default with
          Synth.seed;
          n_entities = 150;
          p_host = 1.0;
          p_attr_present = 0.75;
          p_null = 0.12;
        }
      in
      let fed = Synth.generate cfg in
      let analysis =
        Analysis.analyze (Global_schema.schema (Federation.global_schema fed))
          (Parser.parse query)
      in
      let chosen, predictions =
        Planner.choose ~objective:Planner.Total_time fed analysis
      in
      let measured =
        List.map
          (fun s ->
            let _, m = Strategy.run s fed analysis in
            (s, m.Strategy.total))
          [ Strategy.Ca; Strategy.Cf; Strategy.Bl; Strategy.Pl ]
      in
      let best =
        fst
          (List.fold_left
             (fun ((_, bt) as b) ((_, t) as c) ->
               if Msdq_simkit.Time.compare t bt < 0 then c else b)
             (List.hd measured) (List.tl measured))
      in
      incr total;
      if chosen = best then incr hits;
      let p = List.hd predictions in
      let t s = Msdq_simkit.Time.to_us (List.assoc s measured) in
      Format.printf "%-5d %-11s %-10s %12s %12s %7.2fx@." seed
        (Strategy.to_string chosen) (Strategy.to_string best)
        (Format.asprintf "%a" Msdq_simkit.Time.pp p.Planner.total)
        (Format.asprintf "%a" Msdq_simkit.Time.pp (List.assoc chosen measured))
        (t chosen /. t best))
    [ 1; 2; 3; 4; 5; 6 ];
  Format.printf
    "@.planner picked the measured-best strategy in %d/%d cases (regret = \
     chosen / best measured total)@."
    !hits !total

(* ------------------------------------------------------------------ *)
(* Heterogeneous hardware: a straggler site (extension).               *)

let straggler_study () =
  section "straggler";
  Format.printf "Heterogeneous hardware (extension): one component database@.";
  Format.printf "runs on a slow machine (factor 0.25). CA only scans and ships@.";
  Format.printf "there; the localized strategies also evaluate there, so the@.";
  Format.printf "straggler hurts their response time relatively more.@.@.";
  let cfg =
    {
      Synth.default with
      Synth.seed = 17;
      n_entities = 300;
      p_host = 1.0;
      p_attr_present = 0.75;
      p_null = 0.12;
    }
  in
  let fed = Synth.generate cfg in
  let analysis =
    Analysis.analyze (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1")
  in
  Format.printf "%-6s %14s %14s %9s@." "strat" "uniform resp" "straggler resp"
    "slowdown";
  List.iter
    (fun s ->
      let _, base = Strategy.run s fed analysis in
      let options =
        { Strategy.default_options with Strategy.site_speeds = [ (1, 0.25) ] }
      in
      let _, slow = Strategy.run ~options s fed analysis in
      let r m = Msdq_simkit.Time.to_us m.Strategy.response in
      Format.printf "%-6s %14s %14s %8.2fx@." (Strategy.to_string s)
        (Format.asprintf "%a" Msdq_simkit.Time.pp base.Strategy.response)
        (Format.asprintf "%a" Msdq_simkit.Time.pp slow.Strategy.response)
        (r slow /. r base))
    [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* ------------------------------------------------------------------ *)
(* Multi-query throughput (extension): a stream of queries shares the     *)
(* simulated system; mean latency under load separates the strategies    *)
(* further than single-query response time does.                         *)

(* The federation and the four query shapes the throughput and latency
   studies stream. *)
let stream_workload () =
  let fed =
    Synth.generate
      {
        Synth.default with
        Synth.seed = 23;
        n_entities = 200;
        p_host = 1.0;
        p_attr_present = 0.75;
        p_null = 0.12;
      }
  in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  ( fed,
    List.map
      (fun q -> Analysis.analyze schema (Parser.parse q))
      [
        "select X.key from K0 X where X.p0 = 2 and X.next.p1 = 1";
        "select X.key from K0 X where X.p1 = 3";
        "select X.key from K0 X where X.next.p0 = 0 and X.p2 = 1";
        "select X.key from K0 X where X.p0 = 1 or X.p1 = 2";
      ] )

let throughput_study () =
  section "throughput";
  Format.printf "Multi-query workloads (extension): 8 queries arrive at a@.";
  Format.printf "fixed interval; all share the simulated sites, so they queue@.";
  Format.printf "on disks, CPUs and the global site's incoming link.@.@.";
  let fed, analyses = stream_workload () in
  Format.printf "%-6s %-14s %14s %14s %14s@." "strat" "interval" "mean latency"
    "max latency" "makespan";
  List.iter
    (fun strategy ->
      List.iter
        (fun interval_ms ->
          let jobs =
            List.init 8 (fun i ->
                ( strategy,
                  List.nth analyses (i mod List.length analyses),
                  Msdq_simkit.Time.ms (float_of_int i *. interval_ms) ))
          in
          let out = Strategy.run_concurrent fed jobs in
          let latencies =
            List.map
              (fun q ->
                Msdq_simkit.Time.to_ms
                  (Msdq_simkit.Time.sub q.Strategy.completed q.Strategy.started))
              out.Strategy.queries
          in
          let mean =
            List.fold_left ( +. ) 0.0 latencies /. float_of_int (List.length latencies)
          in
          let worst = List.fold_left Float.max 0.0 latencies in
          Format.printf "%-6s %12.0fms %12.1fms %12.1fms %12.1fms@."
            (Strategy.to_string strategy) interval_ms mean worst
            (Msdq_simkit.Time.to_ms out.Strategy.combined_makespan))
        [ 1000.0; 250.0; 50.0 ])
    [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* ------------------------------------------------------------------ *)
(* Latency quantiles (telemetry extension): a telemetry-enabled serve run  *)
(* per strategy; the per-query latency summaries become the bench file's   *)
(* "latency" section, so CI tracks tail latency across commits.            *)

let latency_summaries () =
  let module Serve = Msdq_serve.Serve in
  let fed, analyses = stream_workload () in
  let scfg =
    {
      Serve.default_config with
      Serve.options =
        { Strategy.default_options with Strategy.telemetry = true };
    }
  in
  List.map
    (fun strategy ->
      let jobs =
        List.init 8 (fun i ->
            {
              Serve.strategy;
              analysis = List.nth analyses (i mod List.length analyses);
              arrival = Msdq_simkit.Time.ms (float_of_int i *. 50.0);
              deadline = None;
            })
      in
      let out = Serve.run scfg fed jobs in
      let lats =
        List.map
          (fun (r : Serve.query_report) -> Msdq_simkit.Time.to_us r.Serve.latency)
          out.Serve.reports
      in
      (Strategy.to_string strategy, Msdq_simkit.Stats.summarize lats))
    [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* ------------------------------------------------------------------ *)
(* One study behind a JSON section: a header, what it measures, the run
   and the section's table. *)

let study name about run pp =
  section name;
  Format.printf "%s@.@." about;
  let x = run () in
  Format.printf "%a@." pp x;
  x

(* ------------------------------------------------------------------ *)
(* Per-strategy simulated times on the demo workload, for the JSON file. *)

let strategy_times () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  List.map
    (fun s ->
      let _, m = Strategy.run s fed analysis in
      ( Strategy.to_string s,
        Msdq_simkit.Time.to_s m.Strategy.total,
        Msdq_simkit.Time.to_s m.Strategy.response ))
    Strategy.all

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks *)

let microbenches ~quota () =
  section "microbench";
  let open Bechamel in
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analysis = Analysis.analyze schema (Parser.parse Paper_example.q1) in
  let db1 = ex.Paper_example.db1 in
  let john = ex.Paper_example.s1 in
  let pred = List.hd (List.rev Paper_example.q1_predicates) in
  let small_fed =
    Synth.generate
      { Synth.default with Synth.seed = 3; n_entities = 60; p_host = 1.0 }
  in
  let small_query =
    "select X.key from K0 X where X.p0 = 1 and X.next.p1 = 2"
  in
  let table = Federation.goids fed in
  let john_loid = Msdq_odb.Dbobject.loid john in
  let tests =
    Test.make_grouped ~name:"msdq"
      [
        Test.make ~name:"parse-q1" (Staged.stage (fun () ->
            ignore (Parser.parse Paper_example.q1)));
        Test.make ~name:"analyze-q1" (Staged.stage (fun () ->
            ignore (Analysis.analyze schema (Parser.parse Paper_example.q1))));
        Test.make ~name:"predicate-eval" (Staged.stage (fun () ->
            ignore (Msdq_odb.Predicate.eval db1 john pred)));
        Test.make ~name:"goid-lookup" (Staged.stage (fun () ->
            ignore (Goid_table.goid_of_local table ~db:"DB1" john_loid)));
        Test.make ~name:"materialize-paper-fed" (Staged.stage (fun () ->
            ignore (Materialize.build fed)));
        Test.make ~name:"local-eval-db1" (Staged.stage (fun () ->
            ignore (Local_eval.run fed analysis ~db:"DB1")));
        Test.make ~name:"strategy-ca-paper" (Staged.stage (fun () ->
            ignore (Strategy.run Strategy.Ca fed analysis)));
        Test.make ~name:"strategy-bl-paper" (Staged.stage (fun () ->
            ignore (Strategy.run Strategy.Bl fed analysis)));
        Test.make ~name:"strategy-bl-synth-60" (Staged.stage (fun () ->
            ignore (Strategy.run_query Strategy.Bl small_fed small_query)));
        Test.make ~name:"param-sim-bl" (Staged.stage (fun () ->
            let rng = Rng.create ~seed:1 in
            let s = Params.sample rng Params.default in
            ignore (Param_sim.simulate ~cost:Cost.default Strategy.Bl s)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols_result) in
      rows := (name, ns, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows in
  Format.printf "%-32s %16s %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ns, r2) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns < 1e3 then Printf.sprintf "%.0fns" ns
        else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
        else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
        else Printf.sprintf "%.2fs" (ns /. 1e9)
      in
      Format.printf "%-32s %16s %8.3f@." name human r2)
    rows;
  List.filter_map
    (fun (name, ns, _) -> if Float.is_nan ns then None else Some (name, ns))
    rows

(* ------------------------------------------------------------------ *)
(* Columnar microbench (the /10 section): objects/sec of local predicate
   evaluation and BLS/PLS signature filtering, measured in both the boxed
   (per-object) and columnar representations over the same extent, plus
   end-to-end certification rows/sec. Each boxed/columnar pair computes the
   same answer from the same data and is cross-checked before timing, so
   the speedup ratio is honest; being a same-process ratio it is also
   machine-independent enough for tools/bench_gate to enforce the >= 5x
   acceptance bar on fresh documents. *)

(* Repeats [f] until it has accumulated enough wall-clock to trust the
   rate; returns (repeats, elapsed_s). *)
let mb_time f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < 0.05 || !reps = 0 do
    ignore (f ());
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  (!reps, !elapsed)

let mb_rate ~per_pass (reps, elapsed) = float_of_int (reps * per_pass) /. elapsed

let microbench_study ~objects () =
  section "columnar microbench";
  let open Msdq_odb in
  let schema =
    Schema.create
      [
        {
          Schema.cname = "C";
          attrs =
            [
              { Schema.aname = "id"; atype = Schema.Prim Schema.P_int };
              { Schema.aname = "score"; atype = Schema.Prim Schema.P_float };
              { Schema.aname = "name"; atype = Schema.Prim Schema.P_string };
              { Schema.aname = "grade"; atype = Schema.Prim Schema.P_int };
            ];
        };
      ]
  in
  let db = Database.create ~name:"MB" ~schema in
  for i = 0 to objects - 1 do
    (* every 7th grade is null, so the null verdict path is exercised too *)
    let grade = if i mod 7 = 0 then Value.Null else Value.Int (i mod 50) in
    ignore
      (Database.add db ~cls:"C"
         [
           Value.Int i;
           Value.Float (float_of_int (i mod 1000) /. 8.0);
           Value.Str (Printf.sprintf "n%03d" (i mod 97));
           grade;
         ])
  done;
  let ext = Database.extent_handle db "C" in
  let operand = Value.Int 7 in
  let pred =
    Predicate.make ~path:[ "grade" ] ~op:Predicate.Eq ~operand
  in
  let boxed_pass () =
    let sat = ref 0 in
    Extent.iter
      (fun obj ->
        match Predicate.eval db obj pred with
        | Predicate.Sat -> incr sat
        | Predicate.Viol | Predicate.Blocked _ -> ())
      ext;
    !sat
  in
  let columnar_pass () =
    match Extent.eval_attr ext ~attr:"grade" ~op:Relop.Eq ~operand with
    | None -> assert false (* typed equality never falls back *)
    | Some codes ->
      let sat = ref 0 in
      for r = 0 to Extent.size ext - 1 do
        if Extent.verdict codes r = Extent.V_sat then incr sat
      done;
      !sat
  in
  (* the two arms must compute the same answer before either is timed *)
  if boxed_pass () <> columnar_pass () then begin
    Format.eprintf "microbench: boxed and columnar local-eval disagree@.";
    exit 1
  end;
  let boxed_eval = mb_rate ~per_pass:objects (mb_time boxed_pass) in
  let columnar_eval = mb_rate ~per_pass:objects (mb_time columnar_pass) in
  (* signature filtering: precomputed per-object signatures (the catalog
     form the boxed BLS/PLS path consulted) vs the extent's packed store *)
  let sigs = Extent.signatures ext in
  let boxed_sigs =
    Array.init (Extent.size ext) (fun r ->
        Signature.of_object (Extent.handle ext r))
  in
  let grade_index = 3 in
  let boxed_sig_pass () =
    let refuted = ref 0 in
    Array.iter
      (fun sg ->
        if not (Signature.may_satisfy sg ~index:grade_index ~op:Relop.Eq ~operand)
        then incr refuted)
      boxed_sigs;
    !refuted
  in
  let bitset_sig_pass () =
    Sigset.refuted_count sigs ~index:grade_index ~op:Relop.Eq ~operand
  in
  if boxed_sig_pass () <> bitset_sig_pass () then begin
    Format.eprintf "microbench: boxed and bitset signature filters disagree@.";
    exit 1
  end;
  let boxed_sig = mb_rate ~per_pass:objects (mb_time boxed_sig_pass) in
  let bitset_sig = mb_rate ~per_pass:objects (mb_time bitset_sig_pass) in
  (* certification throughput on a synthetic federation: local results are
     precomputed, the timed pass is the global merge + certification *)
  let fed =
    Synth.generate
      { Synth.default with Synth.seed = 11; n_entities = 300; p_host = 1.0 }
  in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse "select X.key from K0 X where X.p0 = 1 and X.next.p1 = 2")
  in
  let results =
    List.map
      (fun (p : Localize.db_plan) ->
        Local_eval.run fed analysis ~db:p.Localize.db)
      (Localize.plan fed analysis)
  in
  let rows =
    List.fold_left
      (fun acc r -> acc + List.length r.Local_result.rows)
      0 results
  in
  let certify_pass () =
    Certify.run fed analysis ~results ~verdicts:[]
  in
  let certify_rate = mb_rate ~per_pass:rows (mb_time certify_pass) in
  let m =
    {
      Bench.mb_objects = objects;
      mb_boxed_eval = boxed_eval;
      mb_columnar_eval = columnar_eval;
      mb_eval_speedup = columnar_eval /. boxed_eval;
      mb_boxed_sig = boxed_sig;
      mb_bitset_sig = bitset_sig;
      mb_sig_speedup = bitset_sig /. boxed_sig;
      mb_certify_rows = rows;
      mb_certify_rows_per_s = certify_rate;
    }
  in
  Format.printf "%a@." Bench.pp_microbench m;
  m

(* ------------------------------------------------------------------ *)
(* Machine-readable result file *)

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Studies every JSON section in document order and writes the file.
   [samples] sizes the calibration, fault, recovery and serve sweeps,
   [objects] the columnar microbench and [quota] each bechamel test. *)
let write_bench_json ?pool ~out ~seed ~samples:(calibration, fault, recovery, serve)
    ~objects ~quota () =
  let parallel = calibrate ?pool ~seed ~samples:calibration () in
  let fault_sweep =
    study "fault-sweep"
      "Fault injection (extension): random recoverable crash schedules and\n\
       5% lossy links on the component sites. Recall = fraction of the\n\
       fault-free certain results the degraded run still certifies; the\n\
       fail-stop series is a client of the same faulty BL execution that\n\
       aborts on any loss instead of degrading."
      (fun () -> Fault_sweep.run ?pool ~seed ~samples:fault ())
      Fault_sweep.pp
  in
  let recovery_sweep =
    study "recovery-sweep"
      "Failover recovery (extension): the same chaos grid, comparing the\n\
       recovery policies on each faulty execution. retry = per-link retries\n\
       only; failover adds replica re-routing behind per-link circuit\n\
       breakers; hedged also races a duplicate check to the second-best\n\
       replica. CA has no check round trips, so its triple is the flat\n\
       control. The a=1.00 column is lossy-link-only, not fault-free."
      (fun () -> Fault_sweep.run_recovery ?pool ~seed ~samples:recovery ())
      Fault_sweep.pp_recovery
  in
  let serve_sweep =
    study "serve-sweep"
      "Workload engine (extension): repeated-query streams through the\n\
       multi-query serve layer. Throughput = queries per simulated second;\n\
       speedup = warm-over-cold makespan ratio at each cache capacity\n\
       (capacity 0 is the cold anchor). Caching and batching never change\n\
       an answer — the cache-soundness property the test suite checks."
      (fun () -> Serve_sweep.run ?pool ~seed ~samples:serve ())
      Serve_sweep.pp
  in
  let latency =
    study "latency"
      "Query-latency quantiles (telemetry): 8-query streams through the\n\
       workload engine with telemetry histograms enabled; per-strategy\n\
       p50/p90/p99/max of query latency (arrival to answer)."
      latency_summaries Bench.pp_latency
  in
  (* The AUTO, overload and gray sweeps take the same parameters in smoke
     and full runs, so the CI bench gate can compare them across runs. *)
  let auto_sweep =
    study "auto"
      "Adaptive strategy selection (AUTO): one mixed workload served once\n\
       per fixed candidate strategy and once under the cost-based\n\
       optimizer. Win condition: AUTO makespan <= best fixed makespan."
      (fun () -> Auto_sweep.run ~seed ())
      Auto_sweep.pp
  in
  let overload_sweep =
    study "overload"
      "Overload robustness: one BL workload offered at 0.5x..3x capacity,\n\
       served naively (unbounded queue, no deadline) and under each shed\n\
       policy with a depth-bounded queue and a deadline budget. Win\n\
       condition: admitted p99 under rejecting policies stays within 2x\n\
       the at-capacity p99 while the naive tail grows without bound."
      (fun () -> Overload_sweep.run ?pool ~seed ())
      Overload_sweep.pp
  in
  let gray_sweep =
    study "gray"
      "Gray-failure tolerance: one BL workload served per (timeout policy,\n\
       fault kind, severity) cell over a lossy link."
      (fun () -> Gray_sweep.run ?pool ~seed ())
      Gray_sweep.pp
  in
  let microbench = microbench_study ~objects () in
  let wall = microbenches ~quota () in
  let generated_at = timestamp () in
  let doc =
    Bench.to_json ~generated_at ~seed ~parallel ~fault_sweep ~recovery_sweep
      ~serve_sweep ~latency ~auto_sweep ~overload_sweep ~gray_sweep ~microbench
      ~strategies:(strategy_times ()) ~wall
  in
  (match Bench.validate doc with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "internal error: generated an invalid bench document: %s@." msg;
    exit 1);
  let file_stamp =
    String.map (function ':' -> '-' | c -> c) generated_at
  in
  let path = Filename.concat out (Printf.sprintf "BENCH_%s.json" file_stamp) in
  let oc = open_out path in
  output_string oc (Msdq_obs.Json.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." path

let check_file path =
  match Bench.load path with
  | Ok (schema, _) -> Format.printf "%s: valid %s document@." path schema
  | Error msg ->
    Format.eprintf "%s@." msg;
    exit 1

(* ------------------------------------------------------------------ *)

let () =
  let samples = ref 500 in
  let seed = ref 1996 in
  let smoke = ref false in
  let out = ref "." in
  let check = ref None in
  let jobs = ref 0 in
  let spec =
    [
      ("--samples", Arg.Set_int samples, "N  parameter draws per point (default 500)");
      ("--quick", Arg.Unit (fun () -> samples := 120), " reduced draws for a fast run");
      ("--seed", Arg.Set_int seed, "N  random seed (default 1996)");
      ( "--jobs",
        Arg.Set_int jobs,
        "N  domain-pool size for the sweeps (default: all cores; 1 = sequential)" );
      ( "--smoke",
        Arg.Set smoke,
        " minimal run for CI: skip the sweeps, still write the JSON file" );
      ("--out", Arg.Set_string out, "DIR  directory for BENCH_<timestamp>.json (default .)");
      ( "--check",
        Arg.String (fun f -> check := Some f),
        "FILE  validate FILE against the bench schema (/6../10) and exit" );
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "bench/main.exe [--quick|--samples N|--jobs N|--smoke|--check FILE]";
  match !check with
  | Some path -> check_file path
  | None ->
    let jobs =
      if !jobs = 0 then Domain.recommended_domain_count ()
      else if !jobs >= 1 then !jobs
      else begin
        Format.eprintf "--jobs must be >= 1@.";
        exit 2
      end
    in
    let pool = if jobs > 1 then Some (Msdq_par.Pool.create ~jobs ()) else None in
    Fun.protect ~finally:(fun () -> Option.iter Msdq_par.Pool.shutdown pool)
    @@ fun () ->
    Format.printf
      "Reproduction harness: Koh & Chen, ICDCS 1996 — every table and figure.@.";
    Format.printf "seed: %d, jobs: %d@." !seed jobs;
    if !smoke then begin
      Format.printf
        "smoke mode: strategy times, parallel calibration + a minimal \
         microbench only.@.";
      tables ();
      write_bench_json ?pool ~out:!out ~seed:!seed ~samples:(40, 3, 2, 2)
        ~objects:20_000 ~quota:0.05 ()
    end
    else begin
      Format.printf "parameter draws per point: %d@." !samples;
      tables ();
      figures ?pool ~samples:!samples ~seed:!seed ();
      concrete_validation ();
      planner_study ();
      straggler_study ();
      throughput_study ();
      write_bench_json ?pool ~out:!out ~seed:!seed
        ~samples:(!samples, 12, 8, 6) ~objects:200_000 ~quota:0.4 ();
      Format.printf "@.done.@."
    end

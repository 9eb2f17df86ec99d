(* The parallel determinism contract, property-style: for random sweep
   grids, --jobs 1 and --jobs N produce identical figure tables, identical
   merged metrics snapshots and identical Run_report JSON — byte for byte,
   because every downstream export is a pure function of the figure data.
   The concrete-execution sweeps keep the same contract. *)

open Msdq_exp
module Json = Msdq_obs.Json
module Param_sim = Msdq_opt.Param_sim
module Metrics = Msdq_obs.Metrics
module Pool = Msdq_par.Pool

let figure_builders =
  [|
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("ablation-signatures", Figures.ablation_signatures);
    ("ablation-checks", Figures.ablation_checks);
    ("ablation-semijoin", Figures.ablation_semijoin);
  |]

(* One random grid: which figure, how many draws per point, which seed. *)
let grid_arb =
  QCheck.(
    triple (int_bound (Array.length figure_builders - 1)) (1 -- 8) (0 -- 1000))

let build ?pool (which, samples, seed) =
  let registry = Metrics.create () in
  let _, builder = figure_builders.(which) in
  let fig = builder ?pool ~registry ~samples ~seed () in
  (fig, registry)

let prop_jobs_invariant =
  QCheck.Test.make ~name:"jobs=1 and jobs=4 emit identical bytes" ~count:12
    grid_arb (fun grid ->
      let seq_fig, seq_reg = build grid in
      let par_fig, par_reg =
        Pool.with_pool ~jobs:4 (fun pool -> build ~pool grid)
      in
      let fig_bytes f = Json.to_string ~indent:2 (Run_report.figure_to_json f) in
      let report_bytes f =
        Json.to_string ~indent:2 (Run_report.figures_to_json [ f ])
      in
      let reg_bytes r = Json.to_string ~indent:2 (Metrics.to_json r) in
      String.equal (fig_bytes seq_fig) (fig_bytes par_fig)
      && String.equal (report_bytes seq_fig) (report_bytes par_fig)
      && String.equal (reg_bytes seq_reg) (reg_bytes par_reg))

let prop_average_pool_invariant =
  QCheck.Test.make ~name:"Param_sim.average with and without a pool" ~count:20
    QCheck.(pair (1 -- 40) (0 -- 1000))
    (fun (samples, seed) ->
      let run ?pool () =
        Param_sim.average ?pool ~cost:Msdq_exec.Cost.default ~samples ~seed
          ~ranges:Msdq_workload.Params.default Msdq_exec.Strategy.Bl
      in
      let seq = run () in
      let par = Pool.with_pool ~jobs:3 (fun pool -> run ~pool ()) in
      Msdq_simkit.Time.compare seq.Param_sim.total par.Param_sim.total = 0
      && Msdq_simkit.Time.compare seq.Param_sim.response par.Param_sim.response
         = 0)

(* The same figure computed twice on one shared pool: no state bleeds from
   batch to batch. *)
let test_repeated_batches_stable () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let one () =
        let fig, _ = build ~pool (1, 4, 42) in
        Json.to_string (Run_report.figure_to_json fig)
      in
      let first = one () in
      for _ = 1 to 3 do
        Alcotest.(check string) "stable across batches" first (one ())
      done)

(* The concrete-execution sweeps on the shared grid runner: each one's
   JSON, registry included, is the same without a pool and on four
   workers. *)
let test_sweeps_jobs_invariant () =
  let sweeps =
    [
      ( "fault-sweep",
        fun ?pool registry ->
          Fault_sweep.to_json (Fault_sweep.run ?pool ~registry ~samples:2 ~seed:7 ()) );
      ( "recovery-sweep",
        fun ?pool registry ->
          Fault_sweep.recovery_to_json
            (Fault_sweep.run_recovery ?pool ~registry ~samples:1 ~seed:7 ()) );
      ( "serve-sweep",
        fun ?pool registry ->
          Serve_sweep.to_json
            (Serve_sweep.run ?pool ~registry ~samples:2 ~queries:2 ~seed:7 ()) );
      ( "gray-sweep",
        fun ?pool registry ->
          Gray_sweep.to_json (Gray_sweep.run ?pool ~registry ~queries:2 ~seed:7 ()) );
    ]
  in
  let bytes ?pool run =
    let registry = Metrics.create () in
    let doc = run ?pool registry in
    Json.to_string ~indent:2 (Json.Obj [ ("sweep", doc); ("registry", Metrics.to_json registry) ])
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (id, run) ->
          Alcotest.(check string) (id ^ ": jobs=1 and jobs=4 agree") (bytes run)
            (bytes ~pool run))
        sweeps)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_average_pool_invariant;
    Alcotest.test_case "repeated batches on one pool" `Quick
      test_repeated_batches_stable;
    Alcotest.test_case "concrete sweeps at any --jobs" `Quick
      test_sweeps_jobs_invariant;
  ]

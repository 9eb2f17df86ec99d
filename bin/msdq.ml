(* msdq — command-line interface to the library.

   Subcommands:
     demo        the paper's running example (DB1/DB2/DB3, query Q1)
     query       run a SQL/X query against the demo or a synthetic federation
     experiment  regenerate the paper's figures with the parametric simulator
     serve       run a multi-query workload through the caching/batching engine
     metrics     expose a telemetry-enabled workload as OpenMetrics text
     params      print the Table 1 / Table 2 settings
     generate    summarize a synthetic federation
     plan        print the optimizer's cost-ranked strategy comparison
     validate    cross-check the strategies on random federations *)

open Cmdliner
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
open Msdq_exp
module Planner = Msdq_opt.Planner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let verbosity =
  let env = Cmd.Env.info "MSDQ_VERBOSITY" in
  Term.(const setup_logs $ Logs_cli.level ~env ())

(* Prepends log setup (-v / -vv / --verbosity) to a command's term. *)
let with_logs term = Term.(const (fun () result -> result) $ verbosity $ term)

(* Prints one line on stderr and exits 1: a refused argument or input. *)
let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s@." msg;
      exit 1)
    fmt

let strategy_conv =
  let parse s =
    match Strategy.of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S (CA|BL|PL|BLS|PLS|LO|CF)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Strategy.to_string s))

let strategy_arg =
  Arg.(
    value
    & opt (some strategy_conv) None
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Execution strategy: CA, BL, PL, BLS, PLS, LO or CF. Default: all of them.")

(* Serve accepts AUTO on top of the fixed strategies; the error message
   lists the full accepted set (Strategy.selection_of_string). *)
let selection_conv =
  let parse s =
    match Strategy.selection_of_string s with
    | Ok sel -> Ok sel
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf sel ->
        Format.pp_print_string ppf (Strategy.selection_to_string sel) )

let multi_arg =
  Arg.(
    value & flag
    & info [ "multi-valued" ]
        ~doc:"Integrate disagreeing isomeric values into value sets with               existential semantics (extension).")

let gantt_arg =
  Arg.(
    value & flag
    & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart of each strategy's task schedule.")

let deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ] ~doc:"Enable deep certification (extension) for localized strategies.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* ---- flags several subcommands share ----

   Each is defined once and takes the subcommand's own default and doc. *)

let samples_arg ?docv default ~doc =
  Arg.(value & opt int default & info [ "samples" ] ?docv ~doc)

let jobs_arg ~doc = Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_out_arg ~doc =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let synthetic_arg ~doc = Arg.(value & flag & info [ "synthetic" ] ~doc)

(* The QUERY operand: required unless the subcommand has a [default]. *)
let query_arg ?default ~doc () =
  let arg = Arg.(pos 0 (some string) None & info [] ~docv:"QUERY" ~doc) in
  match default with
  | None -> Arg.required arg
  | Some q -> Term.(const (Option.value ~default:q) $ Arg.value arg)

(* The link-fault knobs, each checked here once: a drop probability
   outside [0, 1] or an inflation below 1 or infinite is refused before
   any work. Without a [default], an absent --drop is [None]. *)
let drop_arg default ~doc =
  let check = function
    | Some p when not (p >= 0.0 && p <= 1.0) ->
      fail "--drop must be a probability in [0, 1]"
    | p -> p
  in
  Term.(
    const check
    $ Arg.(value & opt (some' float) default & info [ "drop" ] ~docv:"P" ~doc))

let inflate_arg ~doc =
  let check f =
    if Float.is_finite f && f >= 1.0 then f
    else fail "--inflate must be a finite factor >= 1"
  in
  Term.(
    const check $ Arg.(value & opt float 1.0 & info [ "inflate" ] ~docv:"F" ~doc))

(* A serve-style stream: [queries] jobs at [arrival] per simulated second. *)
let queries_arg ~doc =
  Arg.(value & opt int 8 & info [ "n"; "queries" ] ~docv:"N" ~doc)

let arrival_arg ~doc =
  Arg.(value & opt float 50.0 & info [ "arrival" ] ~docv:"RATE" ~doc)

(* [Some flag] when the command line sets any argument of [t]. *)
let given flag t =
  Term.(
    const (fun (_, used) -> if used = [] then None else Some flag)
    $ with_used_args t)

(* The names among [flags] that the command line sets, in list order. *)
let given_names flags =
  List.fold_right
    (fun flag acc -> Term.(const (fun g rest -> Option.to_list g @ rest) $ flag $ acc))
    flags (Term.const [])

let check_stream ~queries ~arrival =
  if queries < 1 then fail "--queries must be >= 1";
  if arrival <= 0.0 || Float.is_nan arrival then
    fail "--arrival must be a positive rate"

let write_json path json =
  match open_out path with
  | exception Sys_error msg -> fail "cannot write %s: %s" path msg
  | oc ->
    output_string oc (Msdq_obs.Json.to_string ~indent:2 json);
    output_char oc '\n';
    close_out oc

let run_strategies fed analysis ~strategies ~deep ~multi ~gantt ~json
    ~telemetry ~explain ~critical_path ~trace_out =
  let options =
    {
      Strategy.default_options with
      Strategy.deep_certify = deep;
      multi_valued = multi;
      telemetry;
    }
  in
  let runs =
    List.map (fun s -> Strategy.run ~options s fed analysis) strategies
  in
  if not json then
    List.iter2
      (fun s (answer, metrics) ->
        Format.printf "@.--- %s ---@.%a@.%a@." (Strategy.to_string s) Answer.pp
          answer Strategy.pp_metrics metrics;
        Format.printf "@.%a@." Run_report.pp_utilization metrics;
        if explain then Format.printf "@.%a@." Run_report.pp_explain answer;
        if critical_path then
          Format.printf "@.%a@." Msdq_telemetry.Critical_path.pp
            (Msdq_telemetry.Critical_path.analyze
               (Msdq_simkit.Trace.entries metrics.Strategy.trace));
        if gantt then
          Format.printf "@.%a@.%a@."
            (Msdq_simkit.Gantt.pp ~width:72)
            metrics.Strategy.trace Msdq_simkit.Gantt.pp_legend
            metrics.Strategy.trace)
      strategies runs;
  (match trace_out with
  | None -> ()
  | Some path ->
    write_json path (Run_report.chrome_trace (List.map snd runs));
    if not json then Format.printf "wrote %s@." path);
  runs

let data_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "data" ] ~docv:"FILE"
        ~doc:"Load the federation from FILE (see the Loader format) instead               of the built-in demo.")

let federation_of ~data ~synthetic ~seed =
  match data with
  | Some path -> (
    match Loader.load_file path with
    | Ok fed -> fed
    | Error msg -> fail "cannot load %s: %s" path msg)
  | None ->
    if synthetic then Synth.generate { Synth.default with Synth.seed }
    else (Paper_example.build ()).Paper_example.federation

let analyze_or_exit fed src =
  match Parser.parse_result src with
  | Error msg -> fail "parse error: %s" msg
  | Ok ast -> (
    let schema = Global_schema.schema (Federation.global_schema fed) in
    match Analysis.analyze schema ast with
    | exception Analysis.Error msg -> fail "analysis error: %s" msg
    | analysis -> analysis)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit a machine-readable JSON report on stdout instead of the               plain-text tables.")

(* demo's and query's --trace-out *)
let runs_trace_out_arg =
  trace_out_arg
    ~doc:"Write a Chrome trace_event file of every run to FILE (open it               in chrome://tracing or Perfetto)."

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Report progress on stderr while computing.")

let telemetry_arg =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:
          "Record latency histograms per (strategy, site, resource, phase) \
           into the metrics registry. Off by default so existing JSON \
           reports stay byte-identical.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print per-row provenance: why each maybe row is maybe (missing \
           data vs a degraded check) and which certain rows were certified \
           from cached verdicts.")

let critical_path_arg =
  Arg.(
    value & flag
    & info [ "critical-path" ]
        ~doc:
          "Analyze each run's task trace and print the critical path: the \
           causal chain of tasks and transfers whose durations and queue \
           waits sum to the response time, plus the dominant site, resource \
           and phase.")

(* The telemetry store in [path], if that file exists. *)
let load_store path =
  if not (Sys.file_exists path) then None
  else
    match Msdq_telemetry.Store.load path with
    | Ok s -> Some s
    | Error msg -> fail "cannot load %s: %s" path msg

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Persistent telemetry store: merge this run's observed statistics \
           (check latency, drop rate, cache hit rate, demotions per \
           strategy) into FILE with exponential decay, creating it if \
           missing.")

(* query's and plan's QUERY *)
let sql_arg = query_arg ~doc:"SQL/X query string." ()

(* ---- demo ---- *)

let demo strategy deep multi gantt json telemetry explain critical_path
    trace_out =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  if not json then begin
    Format.printf "The paper's running example: three school databases.@.@.";
    Format.printf "%a@." Federation.pp fed;
    Format.printf "@.Global schema (figure 2):@.%a@." Global_schema.pp
      (Federation.global_schema fed);
    Format.printf "@.GOid mapping tables (figure 5):@.%a@." Goid_table.pp
      (Federation.goids fed);
    Format.printf "@.Query Q1:@.  %s@." Paper_example.q1
  end;
  let analysis = analyze_or_exit fed Paper_example.q1 in
  let strategies = match strategy with Some s -> [ s ] | None -> Strategy.all in
  let runs =
    run_strategies fed analysis ~strategies ~deep ~multi ~gantt ~json
      ~telemetry ~explain ~critical_path ~trace_out
  in
  if json then
    print_endline
      (Msdq_obs.Json.to_string ~indent:2
         (Run_report.query_to_json ~query:Paper_example.q1 runs));
  `Ok ()

let demo_cmd =
  let term =
    with_logs
      Term.(
        ret
          (const demo $ strategy_arg $ deep_arg $ multi_arg $ gantt_arg
         $ json_arg $ telemetry_arg $ explain_arg $ critical_path_arg
         $ runs_trace_out_arg))
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the paper's running example end to end.") term

(* ---- query ---- *)

let query strategy deep multi gantt json telemetry explain critical_path
    trace_out data synthetic seed sql =
  let fed = federation_of ~data ~synthetic ~seed in
  let analysis = analyze_or_exit fed sql in
  let strategies = match strategy with Some s -> [ s ] | None -> Strategy.all in
  if not json then Format.printf "query: %a@." Ast.pp analysis.Analysis.query;
  let runs =
    run_strategies fed analysis ~strategies ~deep ~multi ~gantt ~json
      ~telemetry ~explain ~critical_path ~trace_out
  in
  if json then
    print_endline
      (Msdq_obs.Json.to_string ~indent:2 (Run_report.query_to_json ~query:sql runs));
  `Ok ()

let query_cmd =
  let synthetic =
    synthetic_arg
      ~doc:"Query a generated synthetic federation instead of the paper demo."
  in
  let term =
    with_logs
      Term.(
        ret
          (const query $ strategy_arg $ deep_arg $ multi_arg $ gantt_arg
         $ json_arg $ telemetry_arg $ explain_arg $ critical_path_arg
         $ runs_trace_out_arg $ data_arg $ synthetic $ seed_arg $ sql_arg))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run a global query under one or all execution strategies.")
    term

(* ---- experiment ---- *)

(* Runs [f] on a domain pool of [jobs] workers (0 = all cores, 1 = none). *)
let with_pool jobs f =
  let jobs =
    if jobs = 0 then Domain.recommended_domain_count ()
    else if jobs >= 1 then jobs
    else fail "--jobs must be >= 1 (or 0 for all cores)"
  in
  let pool = if jobs > 1 then Some (Msdq_par.Pool.create ~jobs ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Msdq_par.Pool.shutdown pool) (fun () ->
      f pool)

(* Rejects a draw count below 1, which would average over nothing. *)
let check_samples samples = if samples < 1 then fail "--samples must be >= 1"

let experiment which fault_sweep recovery_sweep auto_sweep overload_sweep
    gray_sweep samples seed jobs drop inflate csv chart json progress =
  check_samples samples;
  let registry = Msdq_obs.Metrics.create () in
  let progress =
    if progress then
      Some
        (fun ~figure ~completed ~total ->
          Format.eprintf "%s: %d/%d points\r%!" figure completed total;
          if completed = total then Format.eprintf "@.")
    else None
  in
  with_pool jobs @@ fun pool ->
  let save_csv name contents =
    match csv with
    | None -> ()
    | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      if not json then Format.printf "wrote %s@." path
  in
  (* A sweep prints its table, or under --json its bench section keyed as
     in BENCH_*.json plus the metrics registry. *)
  let report (section : Bench_section.t) pp to_json x =
    if json then
      print_endline
        (Msdq_obs.Json.to_string ~indent:2
           (Msdq_obs.Json.Obj
              [
                (section.Bench_section.key, to_json x);
                ("registry", Msdq_obs.Metrics.to_json registry);
              ]))
    else Format.printf "%a@." pp x
  in
  if fault_sweep || String.equal which "fault-sweep" then begin
    (* The figure sweeps default to the paper's 500 draws per point; a
       concrete-execution sweep at that scale would run six full strategy
       executions per draw, so its default is smaller. An explicit --samples
       below the figure default is honoured. *)
    let samples = if samples = 500 then 12 else samples in
    let drop = Option.value drop ~default:0.05 in
    let sweep =
      Fault_sweep.run ?pool ~registry ?progress ~samples ~seed ~drop ~inflate ()
    in
    report Fault_sweep.section Fault_sweep.pp Fault_sweep.to_json sweep;
    save_csv sweep.Fault_sweep.id (Fault_sweep.to_csv sweep);
    `Ok ()
  end
  else if recovery_sweep || String.equal which "recovery-sweep" then begin
    (* Nine series of full strategy executions per draw: the default sample
       count is smaller still than the fault sweep's. *)
    let samples = if samples = 500 then 8 else samples in
    let drop = Option.value drop ~default:0.2 in
    let sweep =
      Fault_sweep.run_recovery ?pool ~registry ?progress ~samples ~seed ~drop
        ~inflate ()
    in
    report Fault_sweep.recovery_section Fault_sweep.pp_recovery
      Fault_sweep.recovery_to_json sweep;
    save_csv sweep.Fault_sweep.rid (Fault_sweep.recovery_to_csv sweep);
    `Ok ()
  end
  else if auto_sweep || String.equal which "auto-sweep" then begin
    (* The sweep is a handful of serve runs on one fixed-size federation; it
       needs no domain pool and ignores --samples. *)
    report Auto_sweep.section Auto_sweep.pp Auto_sweep.to_json
      (Auto_sweep.run ~registry ?progress ~seed ());
    `Ok ()
  end
  else if overload_sweep || String.equal which "overload-sweep" then begin
    report Overload_sweep.section Overload_sweep.pp Overload_sweep.to_json
      (Overload_sweep.run ?pool ~registry ?progress ~seed ());
    `Ok ()
  end
  else if gray_sweep || String.equal which "gray-sweep" then begin
    report Gray_sweep.section Gray_sweep.pp Gray_sweep.to_json
      (Gray_sweep.run ?pool ~registry ?progress ~seed ());
    `Ok ()
  end
  else
  let figures =
    match which with
    | "fig9" -> [ Figures.fig9 ?pool ~registry ?progress ~samples ~seed () ]
    | "fig10" -> [ Figures.fig10 ?pool ~registry ?progress ~samples ~seed () ]
    | "fig11" -> [ Figures.fig11 ?pool ~registry ?progress ~samples ~seed () ]
    | "ablation" | "ablation-signatures" ->
      [ Figures.ablation_signatures ?pool ~registry ?progress ~samples ~seed () ]
    | "ablation-checks" ->
      [ Figures.ablation_checks ?pool ~registry ?progress ~samples ~seed () ]
    | "ablation-semijoin" ->
      [ Figures.ablation_semijoin ?pool ~registry ?progress ~samples ~seed () ]
    | "all" -> Figures.all ?pool ~registry ?progress ~samples ~seed ()
    | other ->
      fail
        "unknown experiment %S \
         (fig9|fig10|fig11|ablation-signatures|ablation-checks|ablation-semijoin|fault-sweep|recovery-sweep|auto-sweep|overload-sweep|gray-sweep|all)"
        other
  in
  List.iter
    (fun fig ->
      if not json then begin
        Format.printf "%a@.@." Report.pp_figure fig;
        if chart then begin
          Report.pp_ascii_chart Format.std_formatter fig ~metric:`Total;
          Format.printf "@."
        end;
        Format.printf "%a@." Report.pp_checks (Shapes.check fig)
      end;
      save_csv fig.Figures.id (Report.to_csv fig))
    figures;
  if json then begin
    let doc = Run_report.figures_to_json figures in
    let doc =
      match doc with
      | Msdq_obs.Json.Obj fields ->
        Msdq_obs.Json.Obj
          (fields @ [ ("registry", Msdq_obs.Metrics.to_json registry) ])
      | other -> other
    in
    print_endline (Msdq_obs.Json.to_string ~indent:2 doc)
  end;
  `Ok ()

let experiment_cmd =
  let which =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "fig9, fig10, fig11, ablation-signatures (alias: ablation), \
             ablation-checks, ablation-semijoin, fault-sweep, \
             recovery-sweep, auto-sweep, overload-sweep, gray-sweep or \
             all.")
  in
  let fault_sweep_flag =
    Arg.(
      value & flag
      & info [ "fault-sweep" ]
          ~doc:
            "Run the robustness sweep instead of the figures: the concrete \
             CA/BL/PL executors under random site crashes and lossy links, \
             reporting response time and certain-set recall per \
             (availability, drop, inflate) point against a hard-failing \
             baseline. Only availability is swept; the link knobs are fixed \
             across the grid at $(b,--drop) (default 0.05) and \
             $(b,--inflate) (default 1). Defaults to 12 samples per level; \
             $(b,--samples) overrides.")
  in
  let recovery_sweep_flag =
    Arg.(
      value & flag
      & info [ "recovery-sweep" ]
          ~doc:
            "Run the failover-recovery sweep instead of the figures: \
             retry-only vs failover vs failover+hedging on the same faulty \
             executions, reporting certain-set recall and mean demoted rows \
             per availability level for CA, BL and PL. The availability-1.0 \
             column keeps its lossy links ($(b,--drop), default 0.2 here) \
             instead of going fault-free. Defaults to 8 samples per level; \
             $(b,--samples) overrides.")
  in
  let auto_sweep_flag =
    Arg.(
      value & flag
      & info [ "auto-sweep" ]
          ~doc:
            "Run the adaptive-selection experiment instead of the figures: \
             one mixed workload served once per fixed candidate strategy \
             (CA, BL, PL) and once under the cost-based AUTO selector, \
             reporting makespans, per-strategy decision counts and the \
             estimator's rank-match rate. Uses $(b,--seed); \
             $(b,--samples) is ignored.")
  in
  let overload_sweep_flag =
    Arg.(
      value & flag
      & info [ "overload-sweep" ]
          ~doc:
            "Run the overload-robustness experiment instead of the figures: \
             one BL workload offered at 0.5x..3x the calibrated capacity, \
             served naively (unbounded queue, no deadline) and under each \
             shed policy with a bounded queue and a deadline budget, \
             reporting goodput, deadline-hit rate and p50/p99 of admitted \
             latency per (policy, load) cell. Uses $(b,--seed) and \
             $(b,--jobs); $(b,--samples) is ignored.")
  in
  let gray_sweep_flag =
    Arg.(
      value & flag
      & info [ "gray-sweep" ]
          ~doc:
            "Run the gray-failure tolerance experiment instead of the \
             figures: one BL workload served per (timeout policy, fault \
             kind, severity) cell — slowdown, jitter, flapping and one-way \
             partitions over a lossy link — comparing a conservative static \
             retransmission timeout against the telemetry-driven adaptive \
             one, reporting demoted rows, abandoned checks and mean/p99 \
             response per cell. Uses $(b,--seed) and $(b,--jobs); \
             $(b,--samples) is ignored.")
  in
  let drop =
    drop_arg None
      ~doc:
        "Loss probability of every site's incoming link in the sweeps \
         (default 0.05 for $(b,--fault-sweep), 0.2 for \
         $(b,--recovery-sweep))."
  in
  let inflate =
    inflate_arg
      ~doc:
        "Latency inflation factor of every site's incoming link in the \
         sweeps (default 1: no inflation)."
  in
  let csv =
    Arg.(
      value
      & opt (some dir) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write one CSV per figure into DIR.")
  in
  let chart =
    Arg.(value & flag & info [ "chart" ] ~doc:"Print rough ASCII charts.")
  in
  let jobs =
    jobs_arg
      ~doc:"Domain-pool size for the sweeps: 0 = all cores (the default),               1 = sequential. Results are identical for every setting."
  in
  let samples =
    samples_arg 500 ~doc:"Parameter draws per configuration (the paper uses 500)."
  in
  let term =
    with_logs
      Term.(
        ret
          (const experiment $ which $ fault_sweep_flag $ recovery_sweep_flag
         $ auto_sweep_flag $ overload_sweep_flag $ gray_sweep_flag
         $ samples $ seed_arg $ jobs $ drop $ inflate $ csv $ chart
         $ json_arg $ progress_arg))
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate the paper's figures with the parametric simulator.")
    term

(* ---- serve ---- *)

(* serve's and metrics' QUERY *)
let stream_query_arg =
  query_arg ~default:Paper_example.q1
    ~doc:"SQL/X query repeated by the stream. Default: the demo's Q1." ()

let serve_outcome_to_json ~query cfg (out : Msdq_serve.Serve.outcome) =
  let module Serve = Msdq_serve.Serve in
  let module Lru = Msdq_serve.Lru in
  let module Json = Msdq_obs.Json in
  let time t = Json.Float (Msdq_simkit.Time.to_us t) in
  let cache (s : Lru.stats) =
    Json.Obj
      [
        ("hits", Json.Int s.Lru.hits);
        ("misses", Json.Int s.Lru.misses);
        ("evictions", Json.Int s.Lru.evictions);
        ("invalidations", Json.Int s.Lru.invalidations);
        ("entries", Json.Int s.Lru.entries);
        ("bytes", Json.Int s.Lru.bytes);
      ]
  in
  Json.Obj
    [
      ("query", Json.Str query);
      ("cache_bytes", Json.Int cfg.Serve.cache_bytes);
      ("window_us", Json.Float (Msdq_simkit.Time.to_us cfg.Serve.window));
      ( "reports",
        Json.Arr
          (List.map
             (fun (r : Serve.query_report) ->
               Json.Obj
                 [
                   ("index", Json.Int r.Serve.index);
                   ("strategy", Json.Str (Strategy.to_string r.Serve.strategy));
                   ("arrival_us", time r.Serve.arrival);
                   ("completed_us", time r.Serve.completed);
                   ("latency_us", time r.Serve.latency);
                   ("rows", Json.Int (Answer.size r.Serve.answer));
                   ( "certain",
                     Json.Int (List.length (Answer.certain r.Serve.answer)) );
                   ("maybe", Json.Int (List.length (Answer.maybe r.Serve.answer)));
                   ( "degraded",
                     Json.Int
                       (Msdq_odb.Oid.Goid.Set.cardinal
                          (Answer.degraded r.Serve.answer)) );
                   ( "cached",
                     Json.Int
                       (Msdq_odb.Oid.Goid.Set.cardinal
                          (Answer.cached r.Serve.answer)) );
                   ("extent_hits", Json.Int r.Serve.extent_hits);
                   ("verdict_hits", Json.Int r.Serve.verdict_hits);
                   ("deadline_demoted", Json.Int r.Serve.deadline_demoted);
                 ])
             out.Serve.reports) );
      ( "shed",
        Json.Arr
          (List.map
             (fun (sr : Serve.shed_report) ->
               Json.Obj
                 [
                   ("index", Json.Int sr.Serve.s_index);
                   ( "strategy",
                     Json.Str (Strategy.to_string sr.Serve.s_strategy) );
                   ("arrival_us", time sr.Serve.s_arrival);
                   ( "policy",
                     Json.Str (Serve.shed_policy_to_string sr.Serve.s_policy)
                   );
                 ])
             out.Serve.shed) );
      ("max_queue_depth", Json.Int out.Serve.max_queue_depth);
      ("makespan_us", time out.Serve.makespan);
      ("throughput_qps", Json.Float out.Serve.throughput);
      ("extent_cache", cache out.Serve.extent_cache);
      ("verdict_cache", cache out.Serve.verdict_cache);
      ("messages", Json.Int out.Serve.messages);
      ("coalesced_checks", Json.Int out.Serve.coalesced_checks);
      ("registry", Msdq_obs.Metrics.to_json out.Serve.registry);
    ]

(* One dashboard frame per query completion, replayed in arrival order. The
   engine reports exact per-query latencies, cache hits and arrival times;
   workload-global totals (lookups, messages) are only known at the end, so
   intermediate frames prorate them by completion fraction — the final frame
   is exact. *)
let dashboard_frames (out : Msdq_serve.Serve.outcome) =
  let module Serve = Msdq_serve.Serve in
  let module Lru = Msdq_serve.Lru in
  let module T = Msdq_simkit.Time in
  let reports =
    List.sort
      (fun (a : Serve.query_report) (b : Serve.query_report) ->
        compare (T.to_us a.Serve.completed) (T.to_us b.Serve.completed))
      out.Serve.reports
  in
  let total = List.length reports in
  let arrivals =
    List.map
      (fun (r : Serve.query_report) ->
        (Strategy.to_string r.Serve.strategy, T.to_us r.Serve.arrival))
      out.Serve.reports
  in
  let names = List.sort_uniq compare (List.map fst arrivals) in
  let ext_lookups =
    out.Serve.extent_cache.Lru.hits + out.Serve.extent_cache.Lru.misses
  in
  let ver_lookups =
    out.Serve.verdict_cache.Lru.hits + out.Serve.verdict_cache.Lru.misses
  in
  let gray_slow_legs =
    Msdq_obs.Metrics.total out.Serve.registry "msdq_gray_slow_legs_total"
  in
  let gray_fallbacks =
    Msdq_obs.Metrics.total out.Serve.registry "msdq_gray_fallbacks_total"
  in
  let done_ = ref [] in
  List.mapi
    (fun i (r : Serve.query_report) ->
      done_ := r :: !done_;
      let k = i + 1 in
      let now_us = T.to_us r.Serve.completed in
      let admitted name =
        List.length
          (List.filter
             (fun (s, a) -> (name = "" || String.equal s name) && a <= now_us)
             arrivals)
      in
      let completed_of name =
        List.length
          (List.filter
             (fun (q : Serve.query_report) ->
               String.equal (Strategy.to_string q.Serve.strategy) name)
             !done_)
      in
      let sum f = List.fold_left (fun acc q -> acc + f q) 0 !done_ in
      let scale n =
        if k = total then n
        else
          int_of_float
            (Float.round (float_of_int n *. float_of_int k /. float_of_int total))
      in
      let ehits = sum (fun (q : Serve.query_report) -> q.Serve.extent_hits) in
      let vhits = sum (fun (q : Serve.query_report) -> q.Serve.verdict_hits) in
      {
        Msdq_telemetry.Dashboard.now_us;
        admitted = admitted "";
        completed = k;
        total;
        extent_hits = ehits;
        extent_lookups = max ehits (scale ext_lookups);
        verdict_hits = vhits;
        verdict_lookups = max vhits (scale ver_lookups);
        breakers_open = 0;
        messages = scale out.Serve.messages;
        shed =
          (* sheds can arrive after the last admitted completion, so the
             final frame takes the full count *)
          (if k = total then List.length out.Serve.shed
           else
             List.length
               (List.filter
                  (fun (s : Serve.shed_report) ->
                    T.to_us s.Serve.s_arrival <= now_us)
                  out.Serve.shed));
        deadline_demotions =
          sum (fun (q : Serve.query_report) -> q.Serve.deadline_demoted);
        gray_slow_legs = scale gray_slow_legs;
        gray_fallbacks = scale gray_fallbacks;
        latency =
          Msdq_simkit.Stats.summarize
            (List.map
               (fun (q : Serve.query_report) -> T.to_us q.Serve.latency)
               !done_);
        per_strategy =
          List.map (fun name -> (name, admitted name, completed_of name)) names;
      })
    reports

let serve queries arrival cache_mb window_us deadline_ms queue_limit
    shed_policy strategy data synthetic seed sweep samples jobs drop inflate
    flap_ms adaptive json dashboard store trace_out src stream_flags =
  let module Serve = Msdq_serve.Serve in
  let module Lru = Msdq_serve.Lru in
  if sweep then begin
    (match stream_flags with
    | name :: _ -> fail "%s sets up one stream; --sweep does not take it" name
    | [] -> ());
    check_samples samples;
    with_pool jobs @@ fun pool ->
    let sweep = Serve_sweep.run ?pool ~samples ~seed () in
    if json then
      print_endline (Msdq_obs.Json.to_string ~indent:2 (Serve_sweep.to_json sweep))
    else Format.printf "%a@." Serve_sweep.pp sweep;
    `Ok ()
  end
  else begin
    check_stream ~queries ~arrival;
    if flap_ms < 0.0 || not (Float.is_finite flap_ms) then
      fail "--flap-ms must be a finite period >= 0";
    if cache_mb < 0.0 || Float.is_nan cache_mb then fail "--cache-mb must be >= 0";
    (* the byte count must fit an int, or caching would silently turn off *)
    let cache_bytes = cache_mb *. 1024.0 *. 1024.0 in
    if not (cache_bytes < float_of_int max_int) then
      fail "--cache-mb must be finite and below 2^42 MiB";
    (match deadline_ms with
    | Some d when Float.is_nan d || d <= 0.0 || not (Float.is_finite d) ->
      fail "--deadline must be a positive budget in milliseconds"
    | _ -> ());
    (match queue_limit with
    | Some q when q < 1 -> fail "--queue-limit must be >= 1"
    | _ -> ());
    let shed_policy =
      match shed_policy with
      | None -> Msdq_serve.Serve.default_config.Serve.shed_policy
      | Some name -> (
        match Serve.shed_policy_of_string name with
        | Ok p -> p
        | Error msg -> fail "--shed-policy: %s" msg)
    in
    let drop = Option.value drop ~default:0.0 in
    let fed = federation_of ~data ~synthetic ~seed in
    let analysis = analyze_or_exit fed src in
    let inter_us = 1e6 /. arrival in
    let arrival_of i = Msdq_simkit.Time.us (float_of_int i *. inter_us) in
    let telemetry = dashboard || store <> None in
    let fault =
      let module Fault = Msdq_fault.Fault in
      if drop = 0.0 && inflate = 1.0 && flap_ms = 0.0 then Fault.none
      else begin
        let sites =
          List.map
            (fun (db, _) -> Federation.site_of fed db)
            (Federation.databases fed)
        in
        let links =
          if drop > 0.0 || inflate <> 1.0 then
            List.map
              (fun s -> { Fault.dst = s; drop; inflate; jitter = 0.0 })
              sites
          else []
        in
        let flapping =
          if flap_ms > 0.0 then begin
            let horizon = float_of_int queries *. inter_us in
            let train =
              Fault.flap_train ~from:Msdq_simkit.Time.zero
                ~until:(Msdq_simkit.Time.us horizon)
                ~period:(Msdq_simkit.Time.ms flap_ms)
                ~duty:0.3
            in
            List.map (fun s -> { Fault.site = s; outages = train }) sites
          end
          else []
        in
        {
          Fault.seed;
          sites = flapping;
          links;
          slowdowns = [];
          partitions = [];
        }
      end
    in
    let retry =
      {
        Strategy.default_retry with
        Strategy.adaptive =
          (if adaptive then Some Strategy.default_adaptive else None);
      }
    in
    let cfg =
      {
        Serve.cache_bytes = int_of_float cache_bytes;
        window = Msdq_simkit.Time.us window_us;
        options =
          { Strategy.default_options with Strategy.telemetry; fault; retry };
        deadline = Option.map (fun d -> Msdq_simkit.Time.ms d) deadline_ms;
        queue_limit;
        shed_policy;
      }
    in
    (* Read the store once, before the run: a corrupt file fails before
       anything is printed, and AUTO selection and the merge below see the
       same contents. *)
    let old_store = Option.bind store load_store in
    let out, auto_info =
      try
        match strategy with
        | Strategy.Fixed strategy ->
          let jobs_list =
            List.init queries (fun i ->
                { Serve.strategy; analysis; arrival = arrival_of i; deadline = None })
          in
          (Serve.run ~trace:(trace_out <> None) cfg fed jobs_list, None)
        | Strategy.Auto ->
          (* An existing --store file also feeds selection: observed
             per-strategy latencies blend into the model's estimates. *)
          let a =
            Serve.run_auto ?store:old_store
              ~trace:(trace_out <> None) cfg fed
              (List.init queries (fun i -> (analysis, arrival_of i)))
          in
          (a.Serve.auto, Some a)
      with Invalid_argument msg -> fail "%s" msg
    in
    if json then begin
      let doc = serve_outcome_to_json ~query:src cfg out in
      let doc =
        match (auto_info, doc) with
        | Some a, Msdq_obs.Json.Obj fields ->
          Msdq_obs.Json.Obj
            (fields
            @ [
                ( "auto",
                  Msdq_obs.Json.Obj
                    [
                      ( "decisions",
                        Msdq_obs.Json.Arr
                          (List.map
                             (fun (d : Serve.auto_decision) ->
                               Msdq_obs.Json.Obj
                                 [
                                   ("index", Msdq_obs.Json.Int d.Serve.d_index);
                                   ( "preferred",
                                     Msdq_obs.Json.Str
                                       (Strategy.to_string d.Serve.d_preferred)
                                   );
                                   ( "chosen",
                                     Msdq_obs.Json.Str
                                       (Strategy.to_string d.Serve.d_chosen) );
                                   ( "switched",
                                     Msdq_obs.Json.Bool d.Serve.d_switched );
                                 ])
                             a.Serve.decisions) );
                      ("switches", Msdq_obs.Json.Int a.Serve.switches);
                    ] );
              ])
        | _, doc -> doc
      in
      print_endline (Msdq_obs.Json.to_string ~indent:2 doc)
    end
    else begin
      Format.printf
        "workload: %d x %s under %s, arrival %.1f q/s, cache %.1f MiB, window \
         %.0f us@.@."
        queries src
        (Strategy.selection_to_string strategy)
        arrival cache_mb window_us;
      Format.printf "%-3s %12s %12s %12s %7s %7s %7s %9s@." "#" "arrival"
        "completed" "latency" "xhits" "vhits" "cached" "degraded";
      List.iter
        (fun (r : Serve.query_report) ->
          Format.printf "%-3d %12s %12s %12s %7d %7d %7d %9d@." r.Serve.index
            (Format.asprintf "%a" Msdq_simkit.Time.pp r.Serve.arrival)
            (Format.asprintf "%a" Msdq_simkit.Time.pp r.Serve.completed)
            (Format.asprintf "%a" Msdq_simkit.Time.pp r.Serve.latency)
            r.Serve.extent_hits r.Serve.verdict_hits
            (Msdq_odb.Oid.Goid.Set.cardinal (Answer.cached r.Serve.answer))
            (Msdq_odb.Oid.Goid.Set.cardinal (Answer.degraded r.Serve.answer)))
        out.Serve.reports;
      let pp_cache name (s : Lru.stats) =
        Format.printf
          "%s cache: %d hits, %d misses, %d evictions, %d invalidations, %d \
           entries (%d bytes)@."
          name s.Lru.hits s.Lru.misses s.Lru.evictions s.Lru.invalidations
          s.Lru.entries s.Lru.bytes
      in
      Format.printf "@.makespan %a, throughput %.2f queries/simulated-second@."
        Msdq_simkit.Time.pp out.Serve.makespan out.Serve.throughput;
      pp_cache "extent" out.Serve.extent_cache;
      pp_cache "verdict" out.Serve.verdict_cache;
      Format.printf "%d serve-path messages, %d coalesced check requests@."
        out.Serve.messages out.Serve.coalesced_checks;
      let demoted =
        List.fold_left
          (fun acc (r : Serve.query_report) -> acc + r.Serve.deadline_demoted)
          0 out.Serve.reports
      in
      if out.Serve.shed <> [] || demoted > 0 || out.Serve.max_queue_depth > 0
      then begin
        Format.printf
          "overload: %d shed, %d rows demoted at the deadline, peak queue \
           depth %d@."
          (List.length out.Serve.shed)
          demoted out.Serve.max_queue_depth;
        List.iter
          (fun (sr : Serve.shed_report) ->
            Format.printf "  shed #%d (%s arrival %a, policy %s)@."
              sr.Serve.s_index
              (Strategy.to_string sr.Serve.s_strategy)
              Msdq_simkit.Time.pp sr.Serve.s_arrival
              (Serve.shed_policy_to_string sr.Serve.s_policy))
          out.Serve.shed
      end;
      match auto_info with
      | None -> ()
      | Some a ->
        let count s =
          List.length
            (List.filter
               (fun (d : Serve.auto_decision) -> d.Serve.d_chosen = s)
               a.Serve.decisions)
        in
        Format.printf "AUTO decisions:";
        List.iter
          (fun s -> Format.printf " %s=%d" (Strategy.to_string s) (count s))
          [ Strategy.Ca; Strategy.Bl; Strategy.Pl ];
        Format.printf ", strategy switches: %d@." a.Serve.switches
    end;
    if dashboard && not json then begin
      let frames = dashboard_frames out in
      let live = Unix.isatty Unix.stdout in
      let replay f =
        print_string Msdq_telemetry.Dashboard.clear;
        print_string (Msdq_telemetry.Dashboard.render f);
        flush stdout;
        Unix.sleepf 0.08
      in
      match frames with
      | [] -> ()
      | frames when live -> List.iter replay frames
      | frames ->
        (* not a terminal: print the final (exact) frame once *)
        print_string
          (Msdq_telemetry.Dashboard.render
             (List.nth frames (List.length frames - 1)))
    end;
    (match store with
    | None -> ()
    | Some path ->
      let fresh = Msdq_telemetry.Store.create () in
      Run_report.record_serve_stats ~store:fresh out;
      let merged =
        match old_store with
        | Some old -> Msdq_telemetry.Store.merge old fresh
        | None -> fresh
      in
      (try Msdq_telemetry.Store.save merged path
       with Sys_error msg -> fail "cannot write %s: %s" path msg);
      if not json then
        Format.printf "@.telemetry store %s (%d runs):@.%a@." path
          (Msdq_telemetry.Store.runs merged)
          Msdq_telemetry.Store.pp merged);
    (match trace_out with
    | None -> ()
    | Some path ->
      write_json path (Run_report.chrome_trace_of_entries out.Serve.trace);
      if not json then Format.printf "wrote %s@." path);
    `Ok ()
  end

let serve_cmd =
  let queries = queries_arg ~doc:"Number of queries in the stream." in
  let arrival =
    arrival_arg
      ~doc:
        "Arrival rate in queries per simulated second; the stream is evenly \
         spaced at 1/RATE."
  in
  let cache_mb =
    Arg.(
      value & opt float 4.0
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Capacity of each site's extent cache and of the global verdict \
             cache, in MiB. 0 disables caching (every query runs cold).")
  in
  let window =
    Arg.(
      value & opt float 0.0
      & info [ "window" ] ~docv:"US"
          ~doc:
            "Check-batching admission window in simulated microseconds: \
             check requests reaching the same target site within the window \
             coalesce into one message. 0 disables cross-query batching.")
  in
  let strategy =
    Arg.(
      value
      & opt selection_conv (Strategy.Fixed Strategy.Bl)
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Strategy for every query in the stream: CA, BL, PL, BLS, PLS, \
             LO (CF has no serve-path integration) or AUTO — the cost-based \
             optimizer picks per query, blending the model's estimates with \
             observed latencies from $(b,--store) when the store file \
             already exists. Default: BL.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS"
          ~doc:
            "Per-query deadline budget in simulated milliseconds. At \
             expiry outstanding check round trips are abandoned and their \
             rows demote to uncertified maybe with a Deadline reason; rows \
             already certified are returned as-is (anytime answers). \
             Default: unbounded.")
  in
  let queue_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission-queue depth bound: an arrival finding N queries \
             queued or in service is handled by $(b,--shed-policy). \
             Default: unbounded.")
  in
  let shed_policy =
    Arg.(
      value
      & opt (some string) None
      & info [ "shed-policy" ] ~docv:"POLICY"
          ~doc:
            "What to do with an over-capacity arrival (with \
             $(b,--queue-limit)): $(b,reject-newest) sheds it, \
             $(b,reject-oldest) evicts the oldest still-queued query in its \
             favor, $(b,degrade) admits it but forces the cheapest \
             predicted strategy. Default: reject-newest.")
  in
  let sweep_flag =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the throughput sweep instead of one workload: synthetic \
             repeated-query streams over cache capacities 0..4MiB and \
             admission windows 0/500us for CA, BL and PL, reporting \
             queries per simulated second and warm-over-cold makespan \
             speedup. $(b,--samples) workloads per cell (default 4).")
  in
  let samples =
    samples_arg ~docv:"N" 4
      ~doc:"Workload draws per sweep cell (with $(b,--sweep))."
  in
  let jobs =
    jobs_arg
      ~doc:
        "Domain-pool size for $(b,--sweep): 0 = all cores (the default), 1 = \
         sequential. Results are identical for every setting."
  in
  let synthetic =
    synthetic_arg
      ~doc:
        "Serve against a generated synthetic federation (pass QUERY \
         explicitly; the demo query names demo classes)."
  in
  let serve_drop =
    drop_arg (Some 0.0)
      ~doc:
        "Loss probability of every database site's incoming link (default \
         0: lossless). Dropped check legs retransmit after the retry \
         timeout; see $(b,--adaptive)."
  in
  let serve_inflate =
    inflate_arg
      ~doc:
        "Latency inflation factor of every database site's incoming link \
         (default 1: no inflation). Factors at or beyond the gray-slowness \
         ratio make delivered check legs count as slow for AUTO's gray-site \
         detection."
  in
  let serve_flap =
    Arg.(
      value & opt float 0.0
      & info [ "flap-ms" ] ~docv:"PERIOD"
          ~doc:
            "Flap every database site with the given period in simulated \
             milliseconds (down 30% of each period), over the whole \
             stream. 0 disables flapping (the default).")
  in
  let serve_adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Use telemetry-driven adaptive retry timeouts instead of the \
             static default: each destination's timeout is clamp(lo, k x \
             observed check latency, hi), falling back to the ceiling for \
             sites with no observations yet.")
  in
  let dashboard =
    Arg.(
      value & flag
      & info [ "dashboard" ]
          ~doc:
            "Replay the workload as a live TTY dashboard after the tables: \
             one frame per query completion with admitted/completed \
             progress, cache hit rates, message counts and latency \
             quantiles. When stdout is not a terminal only the final \
             (exact) frame is printed, so the flag is CI-safe.")
  in
  let serve_trace_out =
    trace_out_arg
      ~doc:
        "Write a Chrome trace_event file of the whole workload to FILE: every \
         task and transfer carries its query's trace id, and flow events draw \
         the causal edges across sites."
  in
  (* The sweep draws its own streams: it refuses every flag that sets up
     one stream. *)
  let stream_flags =
    given_names
      [
        given "QUERY" stream_query_arg;
        given "--queries" queries;
        given "--arrival" arrival;
        given "--cache-mb" cache_mb;
        given "--window" window;
        given "--deadline" deadline;
        given "--queue-limit" queue_limit;
        given "--shed-policy" shed_policy;
        given "--strategy" strategy;
        given "--data" data_arg;
        given "--synthetic" synthetic;
        given "--drop" serve_drop;
        given "--inflate" serve_inflate;
        given "--flap-ms" serve_flap;
        given "--adaptive" serve_adaptive;
        given "--dashboard" dashboard;
        given "--store" store_arg;
        given "--trace-out" serve_trace_out;
      ]
  in
  let term =
    with_logs
      Term.(
        ret
          (const serve $ queries $ arrival $ cache_mb $ window $ deadline
         $ queue_limit $ shed_policy $ strategy $ data_arg $ synthetic
         $ seed_arg $ sweep_flag $ samples $ jobs $ serve_drop
         $ serve_inflate $ serve_flap $ serve_adaptive $ json_arg $ dashboard
         $ store_arg $ serve_trace_out $ stream_query_arg $ stream_flags))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a multi-query workload through the serve engine: shared \
          simulated system, cross-query GOid/extent and verdict caching, \
          check batching, and overload controls (deadline budgets, bounded \
          admission with load shedding).")
    term

(* ---- metrics ---- *)

let metrics queries arrival strategy data synthetic seed store sql =
  let module Serve = Msdq_serve.Serve in
  check_stream ~queries ~arrival;
  let fed = federation_of ~data ~synthetic ~seed in
  let analysis = analyze_or_exit fed sql in
  let inter_us = 1e6 /. arrival in
  let jobs_list =
    List.init queries (fun i ->
        {
          Serve.strategy;
          analysis;
          arrival = Msdq_simkit.Time.us (float_of_int i *. inter_us);
          deadline = None;
        })
  in
  let cfg =
    {
      Serve.default_config with
      Serve.options = { Strategy.default_options with Strategy.telemetry = true };
    }
  in
  let out =
    try Serve.run cfg fed jobs_list with Invalid_argument msg -> fail "%s" msg
  in
  let fresh_store () =
    let s = Msdq_telemetry.Store.create () in
    Run_report.record_serve_stats ~store:s out;
    s
  in
  let store =
    Option.map
      (fun path ->
        match load_store path with
        | Some old -> Msdq_telemetry.Store.merge old (fresh_store ())
        | None -> fresh_store ())
      store
  in
  print_string (Msdq_telemetry.Openmetrics.render ?store out.Serve.registry);
  `Ok ()

let metrics_cmd =
  let queries = queries_arg ~doc:"Number of queries in the sampled workload." in
  let arrival =
    arrival_arg ~doc:"Arrival rate in queries per simulated second."
  in
  let strategy =
    Arg.(
      value & opt strategy_conv Strategy.Bl
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:"Strategy for every query in the stream. Default: BL.")
  in
  let synthetic =
    synthetic_arg
      ~doc:"Sample a generated synthetic federation instead of the demo."
  in
  let term =
    with_logs
      Term.(
        ret
          (const metrics $ queries $ arrival $ strategy $ data_arg $ synthetic
         $ seed_arg $ store_arg $ stream_query_arg))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a telemetry-enabled serve workload and print its metrics \
          registry in the OpenMetrics text format (counters, gauges and \
          latency histograms with cumulative buckets). With $(b,--store) \
          the persistent statistics store is merged in and exposed as \
          msdq_store_* gauges.")
    term

(* ---- params ---- *)

let params () =
  Format.printf "Table 1 — system parameters:@.%a@.@." Cost.pp Cost.default;
  Format.printf "Table 2 — database and query parameters:@.%a@." Params.pp_ranges
    Params.default;
  `Ok ()

let params_cmd =
  Cmd.v
    (Cmd.info "params" ~doc:"Print the paper's parameter tables.")
    (with_logs Term.(ret (const params $ const ())))

(* ---- generate ---- *)

let generate seed n_db n_classes n_entities =
  let at_least flag min v = if v < min then fail "%s must be >= %d" flag min in
  at_least "--databases" 1 n_db;
  at_least "--classes" 1 n_classes;
  at_least "--entities" 0 n_entities;
  let cfg =
    { Synth.default with Synth.seed; n_db; n_classes; n_entities }
  in
  let fed = Synth.generate cfg in
  Format.printf "%a@.@." Federation.pp fed;
  Format.printf "global schema:@.%a@." Global_schema.pp (Federation.global_schema fed);
  let conflicts =
    Isomerism.check_consistency (Federation.global_schema fed)
      ~databases:(Federation.databases fed) (Federation.goids fed)
  in
  Format.printf "@.consistency check: %d conflicts@." (List.length conflicts);
  let rng = Rng.create ~seed in
  let q = Synth.random_query rng cfg ~disjunctive:false in
  Format.printf "@.a random query over it:@.  %a@." Ast.pp q;
  `Ok ()

let generate_cmd =
  let n_db = Arg.(value & opt int 3 & info [ "databases" ] ~doc:"Component databases.") in
  let n_classes = Arg.(value & opt int 3 & info [ "classes" ] ~doc:"Chain length.") in
  let n_entities =
    Arg.(value & opt int 24 & info [ "entities" ] ~doc:"Entities per class.")
  in
  let term =
    with_logs
      Term.(ret (const generate $ seed_arg $ n_db $ n_classes $ n_entities))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate and summarize a synthetic federation.")
    term

(* ---- plan ---- *)

let plan data synthetic seed objective sql =
  let fed = federation_of ~data ~synthetic ~seed in
  let analysis = analyze_or_exit fed sql in
  let objective =
    match objective with
    | "total" -> Planner.Total_time
    | "response" -> Planner.Response_time
    | other -> fail "unknown objective %S (total|response)" other
  in
  let chosen, predictions = Planner.choose ~objective fed analysis in
  Format.printf "query: %a@.@." Ast.pp analysis.Analysis.query;
  List.iter (fun p -> Format.printf "%a@." Planner.pp_prediction p) predictions;
  Format.printf "@.recommended strategy: %s@.@." (Strategy.to_string chosen);
  (* Run the recommendation so the user sees the actual outcome. *)
  let answer, metrics = Strategy.run chosen fed analysis in
  Format.printf "%a@.%a@." Answer.pp answer Strategy.pp_metrics metrics;
  `Ok ()

let plan_cmd =
  let synthetic =
    synthetic_arg ~doc:"Plan against a generated synthetic federation."
  in
  let objective =
    Arg.(
      value & opt string "total"
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:"Optimization objective: total or response.")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Profile the federation, predict each strategy's cost and run the              recommended one.")
    (with_logs
       Term.(ret (const plan $ data_arg $ synthetic $ seed_arg $ objective $ sql_arg)))

(* ---- validate ---- *)

let validate_src = Logs.Src.create "msdq.validate" ~doc:"strategy cross-checks"

module Validate_log = (val Logs.src_log validate_src : Logs.LOG)

let validate seeds progress =
  if seeds < 1 then fail "--seeds must be >= 1";
  let registry = Msdq_obs.Metrics.create () in
  let outcomes outcome =
    Msdq_obs.Metrics.counter registry
      ~labels:[ ("outcome", outcome) ]
      "msdq_validate_federations_total"
  in
  let checked = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  for seed = 0 to seeds - 1 do
    let cfg = { Synth.default with Synth.seed } in
    let fed = Synth.generate cfg in
    let schema = Global_schema.schema (Federation.global_schema fed) in
    (* a random path may name an attribute no constituent kept; retry a few
       query draws before skipping the federation *)
    let rec try_query attempt =
      if attempt >= 10 then None
      else
        let rng = Rng.create ~seed:(seed + (attempt * 7919)) in
        let q = Synth.random_query rng cfg ~disjunctive:(seed mod 3 = 0) in
        match Analysis.analyze schema q with
        | analysis -> Some analysis
        | exception Analysis.Error _ -> try_query (attempt + 1)
    in
    (match try_query 0 with
    | None ->
      incr skipped;
      Msdq_obs.Metrics.inc (outcomes "skipped") 1
    | Some analysis ->
      incr checked;
      Msdq_obs.Metrics.inc (outcomes "checked") 1;
      let ca, _ = Strategy.run Strategy.Ca fed analysis in
      let bl, _ = Strategy.run Strategy.Bl fed analysis in
      let pl, _ = Strategy.run Strategy.Pl fed analysis in
      let options =
        { Strategy.default_options with Strategy.deep_certify = true }
      in
      let deep, _ = Strategy.run ~options Strategy.Bl fed analysis in
      let note name ok = if not ok then failures := (seed, name) :: !failures in
      note "BL = PL" (Answer.same_statuses bl pl);
      note "CA subsumes BL" (Answer.subsumes ~strong:ca ~weak:bl);
      note "deep BL = CA" (Answer.same_statuses ca deep));
    Validate_log.info (fun m ->
        m "seed %d/%d: %d checked, %d skipped, %d failures" (seed + 1) seeds
          !checked !skipped (List.length !failures));
    if progress then begin
      Format.eprintf "validate: %d/%d federations\r%!" (seed + 1) seeds;
      if seed + 1 = seeds then Format.eprintf "@."
    end
  done;
  Format.printf "validated %d random federations (%d skipped)@." !checked !skipped;
  if !failures = [] then begin
    Format.printf "all invariants hold@.";
    `Ok ()
  end
  else begin
    List.iter
      (fun (seed, name) -> Format.printf "FAILED seed %d: %s@." seed name)
      !failures;
    exit 1
  end

let validate_cmd =
  let seeds =
    Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"Number of random federations.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Cross-check strategy answers on random federations.")
    (with_logs Term.(ret (const validate $ seeds $ progress_arg)))

let main_cmd =
  let doc =
    "query execution strategies for missing data in distributed heterogeneous \
     object databases (Koh & Chen, ICDCS 1996)"
  in
  Cmd.group
    (Cmd.info "msdq" ~version:"1.0.0" ~doc)
    [
      demo_cmd;
      query_cmd;
      plan_cmd;
      experiment_cmd;
      serve_cmd;
      metrics_cmd;
      params_cmd;
      generate_cmd;
      validate_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

(* Exportable run reports: golden files for the JSON metrics document and
   the Chrome trace, plus the bench schema validator.

   The golden tests pin the exact bytes of the exports. Everything fed into
   them is deterministic: simulated times, counter values, stable JSON field
   order. Host spans carry wall-clock timestamps, so the trace golden runs
   with host spans stripped. To regenerate after an intentional format
   change: dune exec test/gen_golden.exe. *)

open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_exp
module Json = Msdq_obs.Json

let q1_run s =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  Strategy.run s fed analysis

let bl_run () = q1_run Strategy.Bl

let read_file path =
  let ic = open_in_bin (Testutil.beside_exe path) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_metrics_golden () =
  let answer, m = bl_run () in
  let got = Json.to_string ~indent:2 (Run_report.run_to_json answer m) ^ "\n" in
  let want = read_file "golden/bl_q1_report.json" in
  Alcotest.(check string) "report bytes" want got

let test_trace_golden () =
  let _, m = bl_run () in
  let sim_only = { m with Strategy.host_spans = [] } in
  let got =
    Json.to_string ~indent:2 (Run_report.chrome_trace [ sim_only ]) ^ "\n"
  in
  let want = read_file "golden/bl_q1_trace.json" in
  Alcotest.(check string) "trace bytes" want got

(* Q1's report and simulated-clock trace under every strategy, pinned
   byte for byte (BL's pair doubles as the two tests above). *)
let test_q1_goldens_all_strategies () =
  List.iter
    (fun s ->
      let answer, m = q1_run s in
      let stem =
        "golden/" ^ String.lowercase_ascii (Strategy.to_string s) ^ "_q1"
      in
      Alcotest.(check string)
        (Strategy.to_string s ^ " report bytes")
        (read_file (stem ^ "_report.json"))
        (Json.to_string ~indent:2 (Run_report.run_to_json answer m) ^ "\n");
      let sim_only = { m with Strategy.host_spans = [] } in
      Alcotest.(check string)
        (Strategy.to_string s ^ " trace bytes")
        (read_file (stem ^ "_trace.json"))
        (Json.to_string ~indent:2 (Run_report.chrome_trace [ sim_only ]) ^ "\n"))
    Strategy.all

(* Acceptance shape: one complete event per engine task, attributed to
   strategy, site (pid) and phase. *)
let test_trace_attribution () =
  let _, m = bl_run () in
  let doc = Run_report.chrome_trace [ m ] in
  let events =
    match Option.(Json.member "traceEvents" doc |> map Json.to_list |> join) with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents"
  in
  let completes =
    List.filter
      (fun e -> Option.(Json.member "ph" e |> map Json.to_str |> join) = Some "X")
      events
  in
  let n_tasks =
    List.length (Msdq_simkit.Trace.entries m.Strategy.trace)
    + List.length m.Strategy.host_spans
  in
  Alcotest.(check int) "one complete event per task and host span" n_tasks
    (List.length completes);
  let sim_events =
    List.filter
      (fun e ->
        Option.(Json.member "pid" e |> map Json.to_int |> join)
        <> Some Msdq_obs.Tracer.host_pid)
      completes
  in
  Alcotest.(check bool) "simulated events exist" true (sim_events <> []);
  List.iter
    (fun e ->
      let arg k =
        Option.(
          Json.member "args" e |> map (Json.member k) |> join |> map Json.to_str
          |> join)
      in
      Alcotest.(check (option string)) "strategy attributed" (Some "BL")
        (arg "strategy");
      match Option.(Json.member "name" e |> map Json.to_str |> join) with
      | Some "answer" -> () (* the fence carries no phase *)
      | _ ->
        Alcotest.(check bool) "phase is O, P or I" true
          (match arg "phase" with
          | Some ("O" | "P" | "I") -> true
          | _ -> false))
    sim_events

let test_utilization_renders () =
  let _, m = bl_run () in
  let s = Format.asprintf "%a" Run_report.pp_utilization m in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the global site" true (contains "global" s);
  Alcotest.(check bool) "has the phase columns" true
    (contains "O" s && contains "P" s && contains "I" s)

let test_figure_json () =
  let fig = Figures.fig10 ~samples:2 ~seed:7 () in
  let j = Run_report.figure_to_json fig in
  Alcotest.(check (option string)) "id" (Some "fig10")
    Option.(Json.member "id" j |> map Json.to_str |> join);
  let series =
    match Option.(Json.member "series" j |> map Json.to_list |> join) with
    | Some s -> s
    | None -> Alcotest.fail "no series"
  in
  Alcotest.(check int) "CA, BL, PL" 3 (List.length series);
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrips" true (j = j')
  | Error msg -> Alcotest.fail msg

let parallel_section =
  {
    Bench.jobs = 4;
    grid_points = 21;
    seq_s = 1.2;
    par_s = 0.4;
    speedup = 3.0;
  }

let fault_sweep_section =
  {
    Fault_sweep.id = "fault-sweep";
    title = "robustness";
    xlabel = "site availability";
    xs = [| 0.8; 1.0 |];
    samples = 2;
    seed = 1;
    series =
      [
        {
          Fault_sweep.label = "BL";
          responses = [| 0.2; 0.1 |];
          recalls = [| 0.9; 1.0 |];
        };
        {
          Fault_sweep.label = "fail-stop";
          responses = [| 0.2; 0.1 |];
          recalls = [| 0.0; 1.0 |];
        };
      ];
  }

let recovery_sweep_section =
  {
    Fault_sweep.rid = "recovery-sweep";
    rtitle = "recovery";
    rxlabel = "site availability";
    rxs = [| 0.8; 1.0 |];
    rsamples = 2;
    rseed = 1;
    rseries =
      [
        {
          Fault_sweep.r_label = "BL+retry";
          r_responses = [| 0.2; 0.1 |];
          r_recalls = [| 0.8; 0.9 |];
          r_demoted = [| 1.5; 0.5 |];
        };
        {
          Fault_sweep.r_label = "BL+failover";
          r_responses = [| 0.2; 0.1 |];
          r_recalls = [| 0.95; 1.0 |];
          r_demoted = [| 0.5; 0.0 |];
        };
      ];
  }

let serve_sweep_section =
  {
    Serve_sweep.id = "serve-sweep";
    title = "serve";
    xlabel = "cache capacity (KiB)";
    xs = [| 0.0; 16.0 |];
    windows_us = [| 0.0; 500.0 |];
    queries = 6;
    samples = 2;
    seed = 1;
    series =
      [
        {
          Serve_sweep.label = "BL w=0us";
          strategy = "BL";
          window_us = 0.0;
          throughputs = [| 120.0; 150.0 |];
          speedups = [| 1.0; 1.25 |];
          hits = [| 0.0; 2.5 |];
        };
      ];
  }

let parallel_json =
  Json.Obj
    [
      ("jobs", Json.Int 4);
      ("grid_points", Json.Int 21);
      ("seq_s", Json.Float 1.2);
      ("par_s", Json.Float 0.4);
      ("speedup", Json.Float 3.0);
    ]

let latency_section =
  [
    ( "BL",
      {
        Msdq_simkit.Stats.n = 8;
        mean_us = 5000.0;
        p50_us = 4000.0;
        p90_us = 9000.0;
        p99_us = 9500.0;
        max_us = 9800.0;
      } );
  ]

let auto_sweep_section =
  {
    Auto_sweep.id = "auto-sweep";
    title = "AUTO vs fixed strategies";
    queries = 8;
    distinct = 4;
    seed = 1;
    spacing_us = 20_000.0;
    fixed =
      [
        { Auto_sweep.f_strategy = Strategy.Ca; f_makespan_s = 0.30 };
        { Auto_sweep.f_strategy = Strategy.Bl; f_makespan_s = 0.25 };
        { Auto_sweep.f_strategy = Strategy.Pl; f_makespan_s = 0.28 };
      ];
    auto_makespan_s = 0.24;
    decisions = [ ("CA", 2); ("BL", 4); ("PL", 2) ];
    switches = 0;
    rank_matches = 4;
    rank_match_rate = 1.0;
  }

let overload_sweep_section =
  let point policy multiplier p99 =
    {
      Overload_sweep.pt_policy = policy;
      pt_multiplier = multiplier;
      pt_offered = 8;
      pt_admitted = 6;
      pt_shed = 2;
      pt_goodput = 5.0;
      pt_deadline_hits = 6;
      pt_hit_rate = 1.0;
      pt_p50_ms = p99 /. 2.0;
      pt_p99_ms = p99;
      pt_demoted_rows = 0;
      pt_abandoned_checks = 0;
    }
  in
  let row policy p99s =
    List.map2 (fun m p -> point policy m p) [ 0.5; 1.0; 2.0; 3.0 ] p99s
  in
  {
    Overload_sweep.id = "overload-sweep";
    title = "Goodput and tail latency vs offered load and shed policy";
    seed = 1;
    queries = 8;
    queue_limit = 2;
    solo_response_ms = 10.0;
    deadline_ms = 18.0;
    multipliers = [| 0.5; 1.0; 2.0; 3.0 |];
    policies = [ "naive"; "reject-newest"; "reject-oldest"; "degrade" ];
    points =
      row "naive" [ 10.0; 10.0; 15.0; 30.0 ]
      @ row "reject-newest" [ 10.0; 10.0; 18.0; 19.0 ]
      @ row "reject-oldest" [ 10.0; 10.0; 12.0; 10.0 ]
      @ row "degrade" [ 10.0; 12.0; 40.0; 50.0 ];
    cap_p99_ms = 10.0;
  }

let gray_sweep_section =
  let point policy kind severity ~demoted ~mean =
    {
      Gray_sweep.pt_policy = policy;
      pt_kind = kind;
      pt_severity = severity;
      pt_queries = 8;
      pt_demoted_rows = demoted;
      pt_abandoned_checks = demoted;
      pt_mean_ms = mean;
      pt_p99_ms = mean *. 2.0;
      pt_gray_sites = 3;
    }
  in
  let cells policy ~demoted ~mean =
    List.concat_map
      (fun kind ->
        List.map
          (fun sev -> point policy kind sev ~demoted ~mean)
          Gray_sweep.severities)
      Gray_sweep.kinds
  in
  {
    Gray_sweep.id = "gray-sweep";
    title = "Static vs adaptive retry timeouts across gray-failure kinds";
    seed = 1;
    queries = 8;
    drop = 0.15;
    static_timeout_ms = 4.0;
    kinds = Gray_sweep.kinds;
    severities = Gray_sweep.severities;
    policies = Gray_sweep.policies;
    points =
      cells Gray_sweep.static_policy ~demoted:4 ~mean:20.0
      @ cells Gray_sweep.adaptive_policy ~demoted:4 ~mean:15.0;
  }

let microbench_section =
  {
    Bench.mb_objects = 20_000;
    mb_boxed_eval = 1.0e6;
    mb_columnar_eval = 1.2e7;
    mb_eval_speedup = 12.0;
    mb_boxed_sig = 2.0e7;
    mb_bitset_sig = 6.0e7;
    mb_sig_speedup = 3.0;
    mb_certify_rows = 500;
    mb_certify_rows_per_s = 4.0e5;
  }

(* A document from the fixtures above; each argument overrides one section. *)
let bench_doc ?(parallel = parallel_section) ?(fault_sweep = fault_sweep_section)
    ?(recovery_sweep = recovery_sweep_section) ?(serve_sweep = serve_sweep_section)
    ?(latency = latency_section) ?(auto_sweep = auto_sweep_section)
    ?(overload_sweep = overload_sweep_section) ?(gray_sweep = gray_sweep_section)
    ?(microbench = microbench_section) ?(strategies = [ ("BL", 0.1, 0.05) ]) () =
  Bench.to_json ~generated_at:"t" ~seed:1 ~parallel ~fault_sweep ~recovery_sweep
    ~serve_sweep ~latency ~auto_sweep ~overload_sweep ~gray_sweep ~microbench
    ~strategies

(* The committed baselines, oldest first. *)
let results_dir = Testutil.beside_exe "../bench/results"

let committed () =
  Sys.readdir results_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat results_dir)

let newest_committed () = List.nth (committed ()) (List.length (committed ()) - 1)

let load_committed path =
  match Bench.load path with
  | Ok (_, doc) -> doc
  | Error msg -> Alcotest.failf "committed baseline rejected: %s" msg

(* [update path f j] applies [f] at [path]; a ["*"] step maps every element
   of an array. *)
let rec update path f j =
  match (path, j) with
  | [], _ -> f j
  | "*" :: rest, Json.Arr l -> Json.Arr (List.map (update rest f) l)
  | k :: rest, Json.Obj l ->
      Json.Obj (List.map (fun (k', v) -> (k', if k = k' then update rest f v else v)) l)
  | _ -> j

let test_bench_validation () =
  let good =
    Bench.to_json ~generated_at:"2026-01-01T00:00:00Z" ~seed:1996
      ~parallel:parallel_section ~fault_sweep:fault_sweep_section
      ~recovery_sweep:recovery_sweep_section ~serve_sweep:serve_sweep_section
      ~latency:latency_section ~auto_sweep:auto_sweep_section
      ~overload_sweep:overload_sweep_section ~gray_sweep:gray_sweep_section
      ~microbench:microbench_section
      ~strategies:[ ("BL", 0.1, 0.05) ]
  in
  (match Bench.validate good with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid document rejected: %s" msg);
  (* /1 through /5 are no longer accepted: no committed document uses
     them. *)
  let v1 =
    Json.Obj
      [
        ("schema", Json.Str "msdq-bench/1");
        ("generated_at", Json.Str "2026-01-01T00:00:00Z");
        ( "strategies",
          Json.Arr
            [
              Json.Obj
                [
                  ("name", Json.Str "BL");
                  ("total_s", Json.Float 0.1);
                  ("response_s", Json.Float 0.05);
                ];
            ] );
        ("wall", Json.Arr []);
      ]
  in
  let reject name j =
    match Bench.validate j with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  reject "/1 document" v1;
  let strategies_json =
    Json.Arr
      [
        Json.Obj
          [
            ("name", Json.Str "BL");
            ("total_s", Json.Float 0.1);
            ("response_s", Json.Float 0.05);
          ];
      ]
  in
  let v2 =
    Json.Obj
      [
        ("schema", Json.Str "msdq-bench/2");
        ("generated_at", Json.Str "2026-01-01T00:00:00Z");
        ("seed", Json.Int 1996);
        ("parallel", parallel_json);
        ("strategies", strategies_json);
        ("wall", Json.Arr []);
      ]
  in
  reject "/2 document" v2;
  reject "empty object" (Json.Obj []);
  reject "wrong schema"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/999");
         ("generated_at", Json.Str "t");
         ("strategies", Json.Arr [ Json.Obj [] ]);
         ("wall", Json.Arr []);
       ]);
  reject "empty strategies"
    (Json.Obj
       [
         ("schema", Json.Str Bench.schema);
         ("generated_at", Json.Str "t");
         ("strategies", Json.Arr []);
         ("wall", Json.Arr []);
       ]);
  reject "negative time" (bench_doc ~strategies:[ ("BL", -1.0, 0.05) ] ());
  (* Newer schemas declared without their sections: the validator must
     demand them. *)
  reject "/2 without parallel"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/2");
         ("generated_at", Json.Str "t");
         ("seed", Json.Int 1);
         ("strategies", strategies_json);
         ("wall", Json.Arr []);
       ]);
  reject "/3 without fault_sweep"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/3");
         ("generated_at", Json.Str "t");
         ("seed", Json.Int 1);
         ("parallel", parallel_json);
         ("strategies", strategies_json);
         ("wall", Json.Arr []);
       ]);
  reject "/4 without recovery_sweep"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/4");
         ("generated_at", Json.Str "t");
         ("seed", Json.Int 1);
         ("parallel", parallel_json);
         ("fault_sweep", Fault_sweep.to_json fault_sweep_section);
         ("strategies", strategies_json);
         ("wall", Json.Arr []);
       ]);
  reject "/5 without serve_sweep"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/5");
         ("generated_at", Json.Str "t");
         ("seed", Json.Int 1);
         ("parallel", parallel_json);
         ("fault_sweep", Fault_sweep.to_json fault_sweep_section);
         ( "recovery_sweep",
           Fault_sweep.recovery_to_json recovery_sweep_section );
         ("strategies", strategies_json);
         ("wall", Json.Arr []);
       ]);
  reject "/6 without latency"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/6");
         ("generated_at", Json.Str "t");
         ("seed", Json.Int 1);
         ("parallel", parallel_json);
         ("fault_sweep", Fault_sweep.to_json fault_sweep_section);
         ( "recovery_sweep",
           Fault_sweep.recovery_to_json recovery_sweep_section );
         ("serve_sweep", Serve_sweep.to_json serve_sweep_section);
         ("strategies", strategies_json);
         ("wall", Json.Arr []);
       ]);
  reject "/5 document"
    (Json.Obj
       [
         ("schema", Json.Str "msdq-bench/5");
         ("generated_at", Json.Str "t");
         ("seed", Json.Int 1);
         ("parallel", parallel_json);
         ("fault_sweep", Fault_sweep.to_json fault_sweep_section);
         ("recovery_sweep", Fault_sweep.recovery_to_json recovery_sweep_section);
         ("serve_sweep", Serve_sweep.to_json serve_sweep_section);
         ("strategies", strategies_json);
         ("wall", Json.Arr []);
       ]);
  (* The /7 section: a /7 document must carry it, a /6 one need not. *)
  let obj_map f = function Json.Obj l -> Json.Obj (f l) | j -> j in
  let without key = obj_map (List.filter (fun (k, _) -> k <> key)) in
  let with_schema s =
    obj_map
      (List.map (fun (k, v) ->
           if String.equal k "schema" then (k, Json.Str s) else (k, v)))
  in
  (* /11 retired the wall section: documents up to /10 must carry it. *)
  let with_wall = obj_map (fun l -> l @ [ ("wall", Json.Arr []) ]) in
  reject "/10 without wall" (with_schema "msdq-bench/10" good);
  reject "/10 with a malformed wall"
    (with_schema "msdq-bench/10"
       (obj_map (fun l -> l @ [ ("wall", Json.Arr [ Json.Obj [] ]) ]) good));
  (match Bench.validate (with_schema "msdq-bench/10" (with_wall good)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid /10 document rejected: %s" msg);
  reject "/7 without auto_sweep" (without "auto_sweep" good);
  (* The /10 section: a /10 document must carry a well-formed microbench,
     a /9 one need not. *)
  reject "/10 without microbench" (without "microbench" good);
  (match
     Bench.validate
       (with_schema "msdq-bench/9" (with_wall (without "microbench" good)))
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid /9 document rejected: %s" msg);
  let with_microbench microbench = bench_doc ~microbench () in
  reject "non-positive microbench speedup"
    (with_microbench
       { microbench_section with Bench.mb_eval_speedup = 0.0 });
  reject "microbench without objects"
    (with_microbench { microbench_section with Bench.mb_objects = 0 });
  (match
     Bench.validate
       (with_schema "msdq-bench/6" (with_wall (without "auto_sweep" good)))
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid /6 document rejected: %s" msg);
  let with_parallel parallel = bench_doc ~parallel () in
  reject "parallel jobs < 1"
    (with_parallel { parallel_section with Bench.jobs = 0 });
  reject "negative speedup"
    (with_parallel { parallel_section with Bench.speedup = -2.0 });
  let with_sweep series =
    bench_doc ~fault_sweep:{ fault_sweep_section with Fault_sweep.series } ()
  in
  reject "empty fault_sweep series" (with_sweep []);
  reject "recall above 1"
    (with_sweep
       [ { Fault_sweep.label = "BL"; responses = [| 0.1; 0.1 |]; recalls = [| 1.5; 1.0 |] } ]);
  reject "series length mismatch"
    (with_sweep
       [ { Fault_sweep.label = "BL"; responses = [| 0.1 |]; recalls = [| 1.0 |] } ]);
  let with_rsweep rseries =
    bench_doc ~recovery_sweep:{ recovery_sweep_section with Fault_sweep.rseries } ()
  in
  reject "empty recovery_sweep series" (with_rsweep []);
  reject "recovery recall above 1"
    (with_rsweep
       [
         {
           Fault_sweep.r_label = "BL+failover";
           r_responses = [| 0.1; 0.1 |];
           r_recalls = [| 1.5; 1.0 |];
           r_demoted = [| 0.0; 0.0 |];
         };
       ]);
  reject "negative demoted mean"
    (with_rsweep
       [
         {
           Fault_sweep.r_label = "BL+failover";
           r_responses = [| 0.1; 0.1 |];
           r_recalls = [| 1.0; 1.0 |];
           r_demoted = [| -1.0; 0.0 |];
         };
       ]);
  reject "recovery series length mismatch"
    (with_rsweep
       [
         {
           Fault_sweep.r_label = "BL+failover";
           r_responses = [| 0.1 |];
           r_recalls = [| 1.0 |];
           r_demoted = [| 0.0 |];
         };
       ]);
  let with_ssweep series =
    bench_doc ~serve_sweep:{ serve_sweep_section with Serve_sweep.series } ()
  in
  reject "empty serve_sweep series" (with_ssweep []);
  let sserie throughputs speedups hits =
    {
      Serve_sweep.label = "BL w=0us";
      strategy = "BL";
      window_us = 0.0;
      throughputs;
      speedups;
      hits;
    }
  in
  reject "negative throughput"
    (with_ssweep [ sserie [| -1.0; 1.0 |] [| 1.0; 1.0 |] [| 0.0; 0.0 |] ]);
  reject "negative speedup mean"
    (with_ssweep [ sserie [| 1.0; 1.0 |] [| 1.0; -0.5 |] [| 0.0; 0.0 |] ]);
  reject "serve series length mismatch"
    (with_ssweep [ sserie [| 1.0 |] [| 1.0 |] [| 0.0 |] ]);
  let with_latency latency = bench_doc ~latency () in
  let summary n p50 p90 p99 =
    {
      Msdq_simkit.Stats.n;
      mean_us = p50;
      p50_us = p50;
      p90_us = p90;
      p99_us = p99;
      max_us = p99;
    }
  in
  reject "empty latency section" (with_latency []);
  reject "negative latency quantile"
    (with_latency [ ("BL", summary 4 (-1.0) 2.0 3.0) ]);
  reject "non-monotone latency quantiles"
    (with_latency [ ("BL", summary 4 5.0 2.0 3.0) ]);
  (* An all-zero summary from an empty sample is fine. *)
  (match
     Bench.validate (with_latency [ ("BL", summary 0 0.0 0.0 0.0) ])
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "empty-sample latency summary rejected: %s" msg);
  let with_auto auto_sweep = bench_doc ~auto_sweep () in
  (* The win condition is enforced: AUTO slower than the best fixed
     strategy fails validation. *)
  reject "auto_sweep regression"
    (with_auto { auto_sweep_section with Auto_sweep.auto_makespan_s = 0.26 });
  (* A section is checked whenever it is present, even below the version
     that made it required. *)
  reject "/6 carrying a regressed auto_sweep"
    (with_schema "msdq-bench/6"
       (with_wall
          (with_auto { auto_sweep_section with Auto_sweep.auto_makespan_s = 0.26 })));
  reject "auto_sweep empty fixed"
    (with_auto { auto_sweep_section with Auto_sweep.fixed = [] });
  reject "auto_sweep rank rate above 1"
    (with_auto { auto_sweep_section with Auto_sweep.rank_match_rate = 1.5 });
  reject "auto_sweep negative switches"
    (with_auto { auto_sweep_section with Auto_sweep.switches = -1 });
  (* AUTO exactly matching the best fixed strategy passes (the tolerance
     admits ties). *)
  (match
     Bench.validate
       (with_auto { auto_sweep_section with Auto_sweep.auto_makespan_s = 0.25 })
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "AUTO tie with best fixed rejected: %s" msg);
  (* The /8 section: required at /8, not at /7; its robustness win
     condition is enforced on the document, not just printed. *)
  reject "/8 without overload_sweep" (without "overload_sweep" good);
  (match
     Bench.validate
       (with_schema "msdq-bench/7" (with_wall (without "overload_sweep" good)))
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid /7 document rejected: %s" msg);
  let with_overload overload_sweep = bench_doc ~overload_sweep () in
  let set_p99 policy multiplier p99 o =
    {
      o with
      Overload_sweep.points =
        List.map
          (fun (p : Overload_sweep.point) ->
            if
              String.equal p.Overload_sweep.pt_policy policy
              && p.Overload_sweep.pt_multiplier = multiplier
            then { p with Overload_sweep.pt_p99_ms = p99 }
            else p)
          o.Overload_sweep.points;
    }
  in
  (* A rejecting policy's p99 escaping twice the at-capacity p99 at an
     overloaded point is the regression the section exists to catch. *)
  reject "overload tail-bound regression"
    (with_overload (set_p99 "reject-newest" 3.0 25.0 overload_sweep_section));
  reject "overload naive p99 drops under load"
    (with_overload (set_p99 "naive" 2.0 5.0 overload_sweep_section));
  reject "overload sweep never overloaded"
    (with_overload (set_p99 "naive" 3.0 15.0 overload_sweep_section));
  reject "overload nonpositive cap_p99"
    (with_overload
       { overload_sweep_section with Overload_sweep.cap_p99_ms = 0.0 });
  (* degrade admits everything and is reported but exempt from the tail
     bound. *)
  (match
     Bench.validate
       (with_overload (set_p99 "degrade" 3.0 500.0 overload_sweep_section))
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "degrade row wrongly held to the bound: %s" msg);
  (* The /9 section: required at /9, and its win condition is enforced. *)
  reject "/9 without gray_sweep"
    (with_schema "msdq-bench/9" (with_wall (without "gray_sweep" good)));
  let with_gray f =
    let g = gray_sweep_section in
    bench_doc ~gray_sweep:{ g with Gray_sweep.points = f g.Gray_sweep.points } ()
  in
  let set_cell policy kind severity f =
    List.map (fun (p : Gray_sweep.point) ->
        if
          p.Gray_sweep.pt_policy = policy
          && p.Gray_sweep.pt_kind = kind
          && p.Gray_sweep.pt_severity = severity
        then f p
        else p)
  in
  reject "gray adaptive demotes more than static"
    (with_gray
       (set_cell Gray_sweep.adaptive_policy "jitter" "mild" (fun p ->
            { p with Gray_sweep.pt_demoted_rows = 5 })));
  (* static 20 ms, so the 5% margin asks for at most 19 ms *)
  reject "gray slowdown margin missed"
    (with_gray
       (set_cell Gray_sweep.adaptive_policy "slowdown" "severe" (fun p ->
            { p with Gray_sweep.pt_mean_ms = 19.5 })));
  reject "gray arm missing"
    (with_gray
       (List.filter (fun (p : Gray_sweep.point) ->
            not
              (p.Gray_sweep.pt_policy = Gray_sweep.adaptive_policy
              && p.Gray_sweep.pt_kind = "flap"))));
  (* Non-numbers are rejected, not skipped: the newest committed baseline
     with every fault_sweep recall a string, or every serve_sweep
     throughput null. *)
  let newest = load_committed (newest_committed ()) in
  reject "string recalls"
    (update
       [ "fault_sweep"; "series"; "*"; "recalls"; "*" ]
       (fun _ -> Json.Str "x")
       newest);
  reject "null throughputs"
    (update
       [ "serve_sweep"; "series"; "*"; "throughputs"; "*" ]
       (fun _ -> Json.Null)
       newest)

(* The gate on committed baselines: each passes against itself, and each
   check the gate runs trips on a doctored copy of the newest one. *)
let test_bench_gate () =
  let fails =
    List.filter_map (function Bench_section.Fail s -> Some s | _ -> None)
  in
  List.iter
    (fun path ->
      match fails (Bench.gate ~tolerance:0.2 ~baseline:path ~fresh:path) with
      | [] -> ()
      | l -> Alcotest.failf "%s against itself: %s" path (String.concat "; " l))
    (committed ());
  let base = load_committed (newest_committed ()) in
  let gate doc =
    let path = Filename.temp_file "bench" ".json" in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Json.to_string doc));
    let verdicts = Bench.gate ~tolerance:0.2 ~baseline:results_dir ~fresh:path in
    Sys.remove path;
    verdicts
  in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let trips name ~by doc =
    if not (List.exists (contains by) (fails (gate doc))) then
      Alcotest.failf "%s: no FAIL verdict mentions %S" name by
  in
  let where k v f j = if Json.member k j = Some v then f j else j in
  let set k v = update [ k ] (fun _ -> v) in
  trips "AUTO slower than the best fixed strategy" ~by:"exceeds the best fixed"
    (update [ "auto_sweep"; "auto_makespan_s" ] (fun _ -> Json.Float 1e3) base);
  trips "naive p99 never overloaded" ~by:"the sweep is not overloaded"
    (update
       [ "overload_sweep"; "points"; "*" ]
       (where "policy"
          (Json.Str Overload_sweep.naive_policy)
          (set "p99_ms" (Json.Float 0.0)))
       base);
  trips "recall below fail-stop" ~by:"below fail-stop"
    (update
       [ "fault_sweep"; "series"; "*" ]
       (where "label" (Json.Str "BL")
          (update [ "recalls"; "*" ] (fun _ -> Json.Float 0.0)))
       base);
  trips "serve speedup ends below its start" ~by:"across the cache sweep"
    (update
       [ "serve_sweep"; "series"; "*"; "speedups" ]
       (function
         | Json.Arr l ->
             Json.Arr (List.rev (Json.Float 0.5 :: List.tl (List.rev l)))
         | j -> j)
       base);
  let slow_eval =
    update [ "microbench"; "local_eval"; "speedup" ] (fun _ -> Json.Float 4.9) base
  in
  (match Bench.validate slow_eval with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "a 4.9x microbench must pass --check: %s" msg);
  trips "local-eval microbench at 4.9x" ~by:"local_eval.speedup" slow_eval;
  trips "strategies entry 21% slower" ~by:"strategies BL total_s"
    (update [ "strategies"; "*" ]
       (where "name" (Json.Str "BL")
          (update [ "total_s" ] (function
             | Json.Float t -> Json.Float (t *. 1.21)
             | j -> j)))
       base);
  let reseeded = update [ "fault_sweep"; "seed" ] (fun _ -> Json.Int 7) base in
  let verdicts = gate reseeded in
  Alcotest.(check (list string)) "seed mismatch fails nothing" [] (fails verdicts);
  Alcotest.(check bool) "seed mismatch is a skip" true
    (List.exists
       (function
         | Bench_section.Skip s -> contains "fault_sweep: seed" s
         | _ -> false)
       verdicts);
  (* A missing file is a readable error, never an exception. *)
  let missing = Filename.concat results_dir "no-such-bench.json" in
  (match Bench.load missing with
  | Ok _ -> Alcotest.fail "a missing file loaded"
  | Error msg ->
      Alcotest.(check bool) "names the path" true (contains (missing ^ ": ") msg));
  List.iter
    (fun (name, baseline, fresh) ->
      if fails (Bench.gate ~tolerance:0.2 ~baseline ~fresh) = [] then
        Alcotest.failf "%s passed the gate" name)
    [
      ("missing fresh", results_dir, missing);
      ("missing baseline", missing, newest_committed ());
    ]

let suite =
  [
    Alcotest.test_case "metrics golden" `Quick test_metrics_golden;
    Alcotest.test_case "trace golden" `Quick test_trace_golden;
    Alcotest.test_case "trace attribution" `Quick test_trace_attribution;
    Alcotest.test_case "utilization table" `Quick test_utilization_renders;
    Alcotest.test_case "figure json" `Quick test_figure_json;
    Alcotest.test_case "bench validation" `Quick test_bench_validation;
    Alcotest.test_case "bench gate" `Quick test_bench_gate;
    Alcotest.test_case "Q1 goldens, all strategies" `Quick
      test_q1_goldens_all_strategies;
  ]

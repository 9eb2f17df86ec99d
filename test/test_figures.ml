open Msdq_exec
open Msdq_exp

(* Reduced sample counts keep the suite fast; the bench harness runs the
   full 500-sample version. *)
let samples = 120
let seed = 7

let fig9 = lazy (Figures.fig9 ~samples ~seed ())
let fig10 = lazy (Figures.fig10 ~samples ~seed ())
let fig11 = lazy (Figures.fig11 ~samples ~seed ())
let ablation = lazy (Figures.ablation_signatures ~samples ~seed ())
let ablation_checks = lazy (Figures.ablation_checks ~samples ~seed ())

let assert_shapes fig =
  let checks = Shapes.check fig in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    checks

let test_fig9 () = assert_shapes (Lazy.force fig9)
let test_fig10 () = assert_shapes (Lazy.force fig10)
let test_fig11 () = assert_shapes (Lazy.force fig11)
let test_ablation () = assert_shapes (Lazy.force ablation)
let test_ablation_checks () = assert_shapes (Lazy.force ablation_checks)

let test_structure () =
  let fig = Lazy.force fig9 in
  Alcotest.(check int) "three series" 3 (List.length fig.Figures.series);
  List.iter
    (fun s ->
      Alcotest.(check int) "totals per point" (Array.length fig.Figures.xs)
        (Array.length s.Figures.totals);
      Alcotest.(check int) "responses per point" (Array.length fig.Figures.xs)
        (Array.length s.Figures.responses))
    fig.Figures.series;
  Alcotest.(check bool) "series_of finds CA" true
    (try
       ignore (Figures.series_of fig Strategy.Ca);
       true
     with Not_found -> false);
  Alcotest.(check bool) "series_of rejects BLS" true
    (try
       ignore (Figures.series_of fig Strategy.Bls);
       false
     with Not_found -> true)

let test_report_rendering () =
  let fig = Lazy.force fig11 in
  let text = Format.asprintf "%a" Report.pp_figure fig in
  Alcotest.(check bool) "mentions figure id" true
    (Testutil.contains ~needle:"fig11" text);
  Alcotest.(check bool) "mentions CA" true (Testutil.contains ~needle:"CA" text);
  let checks_text = Format.asprintf "%a" Report.pp_checks (Shapes.check fig) in
  Alcotest.(check bool) "checks render" true
    (Testutil.contains ~needle:"[ok]" checks_text);
  let chart =
    Format.asprintf "%a"
      (fun ppf fig -> Report.pp_ascii_chart ppf fig ~metric:`Total)
      fig
  in
  Alcotest.(check bool) "chart renders" true (Testutil.contains ~needle:"#" chart)

let test_csv () =
  let fig = Lazy.force fig10 in
  let csv = Report.to_csv fig in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per x"
    (Array.length fig.Figures.xs + 1)
    (List.length lines);
  match lines with
  | header :: _ ->
    Alcotest.(check bool) "header names strategies" true
      (Testutil.contains ~needle:"CA total s" header
      && Testutil.contains ~needle:"PL response s" header)
  | [] -> Alcotest.fail "empty csv"

(* The parametric simulator's numbers, pinned byte for byte: every figure
   at 20 draws per point as figure JSON and CSV, and the planner's Q1
   predictions under every strategy. A host-side change to Param_sim or the
   engine must leave all of them unchanged; regenerate with
   dune exec test/gen_golden.exe only when a figure number moves on purpose. *)
let test_goldens () =
  let read path =
    In_channel.with_open_bin
      (Testutil.beside_exe ("golden/" ^ path))
      In_channel.input_all
  in
  let figs = Figures.all ~samples:20 ~seed:1996 () in
  Alcotest.(check string) "figure JSON bytes" (read "figures_s20.json")
    (Msdq_obs.Json.to_string ~indent:2 (Run_report.figures_to_json figs) ^ "\n");
  List.iter
    (fun fig ->
      let id = fig.Figures.id in
      Alcotest.(check string) (id ^ " CSV bytes") (read (id ^ "_s20.csv"))
        (Report.to_csv fig))
    figs;
  let fed = (Msdq_fed.Paper_example.build ()).Msdq_fed.Paper_example.federation in
  let analysis =
    Msdq_query.Analysis.analyze
      (Msdq_fed.Global_schema.schema (Msdq_fed.Federation.global_schema fed))
      (Msdq_query.Parser.parse Msdq_fed.Paper_example.q1)
  in
  let predictions =
    Msdq_opt.Planner.predict ~strategies:Strategy.all fed analysis
  in
  Alcotest.(check string) "planner Q1 bytes" (read "planner_q1.txt")
    (String.concat ""
       (List.map
          (fun (p : Msdq_opt.Planner.prediction) ->
            Printf.sprintf "%s total %.17g response %.17g\n"
              (Strategy.to_string p.strategy) p.total p.response)
          predictions))

let suite =
  [
    Alcotest.test_case "fig9 shapes" `Slow test_fig9;
    Alcotest.test_case "fig10 shapes" `Slow test_fig10;
    Alcotest.test_case "fig11 shapes" `Slow test_fig11;
    Alcotest.test_case "ablation shapes" `Slow test_ablation;
    Alcotest.test_case "ablation-checks shapes" `Slow test_ablation_checks;
    Alcotest.test_case "figure structure" `Quick test_structure;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "csv rendering" `Quick test_csv;
    Alcotest.test_case "figure, CSV and planner goldens" `Quick test_goldens;
  ]

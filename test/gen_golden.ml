(* Regenerates the golden files under test/golden/ from the current export
   and execution code. Run from the repository root after an intentional format change:

     dune exec test/gen_golden.exe

   and review the diff before committing. *)

open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_exp
module Json = Msdq_obs.Json

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let ex = Paper_example.build () in
  let fed = ex.Paper_example.federation in
  let analysis =
    Analysis.analyze
      (Global_schema.schema (Federation.global_schema fed))
      (Parser.parse Paper_example.q1)
  in
  List.iter
    (fun s ->
      let answer, m = Strategy.run s fed analysis in
      let stem =
        "test/golden/" ^ String.lowercase_ascii (Strategy.to_string s) ^ "_q1"
      in
      write (stem ^ "_report.json")
        (Json.to_string ~indent:2 (Run_report.run_to_json answer m) ^ "\n");
      let sim_only = { m with Strategy.host_spans = [] } in
      write (stem ^ "_trace.json")
        (Json.to_string ~indent:2 (Run_report.chrome_trace [ sim_only ]) ^ "\n"))
    Strategy.all;
  (* The parametric simulator's outputs: every figure at 20 draws per point,
     as figure JSON and as CSV, and the planner's Q1 predictions (the
     numbers behind msdq plan and AUTO), with %.17g so every bit shows. *)
  let figs = Figures.all ~samples:20 ~seed:1996 () in
  write "test/golden/figures_s20.json"
    (Json.to_string ~indent:2 (Run_report.figures_to_json figs) ^ "\n");
  List.iter
    (fun fig -> write ("test/golden/" ^ fig.Figures.id ^ "_s20.csv") (Report.to_csv fig))
    figs;
  write "test/golden/planner_q1.txt"
    (String.concat ""
       (List.map
          (fun (p : Msdq_opt.Planner.prediction) ->
            Printf.sprintf "%s total %.17g response %.17g\n"
              (Strategy.to_string p.strategy) p.total p.response)
          (Msdq_opt.Planner.predict ~strategies:Strategy.all fed analysis)))
  ;
  (* Every strategy's answers and metrics on the synthetic federation
     (test/synth_golden.ml). *)
  write "test/golden/synth_answers.txt" (Synth_golden.render ());
  (* The same shapes under seeded fault schedules and every recovery
     policy (test/fault_golden.ml). *)
  write "test/golden/fault_answers.txt" (Fault_golden.render ());
  (* Four serve streams on the same federation (test/serve_golden.ml). *)
  write "test/golden/serve_streams.txt" (Serve_golden.render ())

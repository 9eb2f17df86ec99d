open Msdq_simkit
open Msdq_workload
open Msdq_exec
module Param_sim = Msdq_opt.Param_sim

let sample_of seed =
  let rng = Rng.create ~seed in
  Params.sample rng Params.default

let test_deterministic () =
  let t1 = Param_sim.simulate ~cost:Cost.default Strategy.Bl (sample_of 4) in
  let t2 = Param_sim.simulate ~cost:Cost.default Strategy.Bl (sample_of 4) in
  Alcotest.(check bool) "same sample same times" true
    (Time.compare t1.Param_sim.total t2.Param_sim.total = 0
    && Time.compare t1.Param_sim.response t2.Param_sim.response = 0)

let test_response_le_total () =
  for seed = 0 to 30 do
    let s = sample_of seed in
    List.iter
      (fun strategy ->
        let t = Param_sim.simulate ~cost:Cost.default strategy s in
        if Time.compare t.Param_sim.response t.Param_sim.total > 0 then
          Alcotest.fail
            (Printf.sprintf "seed %d %s: response > total" seed
               (Strategy.to_string strategy)))
      Strategy.all
  done

let test_positive_times () =
  let s = sample_of 7 in
  List.iter
    (fun strategy ->
      let t = Param_sim.simulate ~cost:Cost.default strategy s in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " positive")
        true
        (Time.to_us t.Param_sim.total > 0.0))
    Strategy.all

(* More objects means more time, for every strategy. *)
let test_monotone_in_objects () =
  let small = { Params.default with Params.n_o = (1000, 1100) } in
  let big = { Params.default with Params.n_o = (9000, 9100) } in
  List.iter
    (fun strategy ->
      let t_small =
        Param_sim.average ~cost:Cost.default ~samples:40 ~seed:5 ~ranges:small
          strategy
      in
      let t_big =
        Param_sim.average ~cost:Cost.default ~samples:40 ~seed:5 ~ranges:big
          strategy
      in
      Alcotest.(check bool)
        (Strategy.to_string strategy ^ " grows with objects")
        true
        (Time.compare t_small.Param_sim.total t_big.Param_sim.total < 0))
    [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* The Figure 11 knob: a higher forced local selectivity keeps more
   survivors, so BL does more work; CA is untouched. *)
let test_selectivity_override () =
  let ranges = { Params.default with Params.n_o = (1000, 2000) } in
  let run strategy sel =
    Param_sim.average
      ~overrides:{ Param_sim.root_local_selectivity = Some sel }
      ~cost:Cost.default ~samples:60 ~seed:11 ~ranges strategy
  in
  let bl_low = run Strategy.Bl 0.1 and bl_high = run Strategy.Bl 0.9 in
  Alcotest.(check bool) "BL total grows with selectivity" true
    (Time.compare bl_low.Param_sim.total bl_high.Param_sim.total < 0);
  let ca_low = run Strategy.Ca 0.1 and ca_high = run Strategy.Ca 0.9 in
  Alcotest.(check (float 1e-6)) "CA unaffected"
    (Time.to_us ca_low.Param_sim.total)
    (Time.to_us ca_high.Param_sim.total)

(* Averaging is deterministic in the seed and uses the same draws for every
   strategy (paired comparison). *)
let test_average_deterministic () =
  let t1 =
    Param_sim.average ~cost:Cost.default ~samples:30 ~seed:3
      ~ranges:Params.default Strategy.Pl
  in
  let t2 =
    Param_sim.average ~cost:Cost.default ~samples:30 ~seed:3
      ~ranges:Params.default Strategy.Pl
  in
  Alcotest.(check (float 1e-9)) "deterministic average"
    (Time.to_us t1.Param_sim.total) (Time.to_us t2.Param_sim.total)

(* Averaging over no draws is refused, naming the function. *)
let test_average_rejects_no_samples () =
  List.iter
    (fun samples ->
      Alcotest.check_raises
        (Printf.sprintf "samples = %d" samples)
        (Invalid_argument
           (Printf.sprintf "Param_sim.average: samples must be >= 1 (got %d)" samples))
        (fun () ->
          ignore
            (Param_sim.average ~cost:Cost.default ~samples ~seed:3
               ~ranges:Params.default Strategy.Bl)))
    [ 0; -3 ]

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "response <= total (31 seeds x 5 strategies)" `Quick
      test_response_le_total;
    Alcotest.test_case "positive times" `Quick test_positive_times;
    Alcotest.test_case "monotone in objects" `Quick test_monotone_in_objects;
    Alcotest.test_case "selectivity override" `Quick test_selectivity_override;
    Alcotest.test_case "average deterministic" `Quick test_average_deterministic;
    Alcotest.test_case "average rejects samples < 1" `Quick
      test_average_rejects_no_samples;
  ]

(* Times two data layers against the references they replaced, in one
   process, on the inputs of bench/perf's synth-scan workload: its
   federation (3 databases, a 3-class chain, 4,000 entities per class) and
   its 8 query shapes with the constants its seed draws.

   - Local evaluation: for each of the 24 (query, database) pairs, the
     scan ([Local_eval.scan]) and its three derivations (the local result,
     the touched counts and PL's probe) against the per-object reference
     (test/local_eval_ref.ml: the local result, [Touch.count]'s and
     [Probe.run]'s walks, each by name). It also times the local result
     and the touched counts alone, and counts the minor words of one round
     of each side.
   - Certification: per query the inputs of BL, PL, BLS, PLS and CF (CF
     certifies its round-1 filter without verdicts), [Certify.run] against
     the list-based reference (test/certify_ref.ml).

   Both sides of a section first run every input once and must agree (exit
   1 otherwise); then each round times all inputs per side, the side that
   goes first alternating.

     dune exec --display quiet test/layer_timing.exe -- [ROUNDS [SEED]]

   prints each side's median round in ms and the ratio of the medians. *)

open Msdq_fed
open Msdq_query
open Msdq_exec
module Synth = Msdq_workload.Synth
module Rng = Msdq_workload.Rng

(* bench/perf/workloads.ml's [synth_federation ~n_entities:4000]. *)
let federation () =
  Synth.generate
    {
      Synth.default with
      Synth.seed = 1996;
      n_db = 3;
      n_classes = 3;
      n_entities = 4000;
      p_host = 1.0;
      p_attr_present = 0.75;
      p_null = 0.12;
      p_copy = 0.4;
    }

(* bench/perf/workloads.ml's [query_shapes], constants drawn as its
   [synth_inputs] draws them. *)
let queries fed ~seed =
  let f = Printf.sprintf in
  let shapes =
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
  in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let rng = Rng.split_ix (Rng.create ~seed) ~i:0 in
  List.map
    (fun shape ->
      let c = Array.init 3 (fun _ -> Rng.int rng ~bound:Synth.default.Synth.domain) in
      Analysis.analyze schema
        (Parser.parse ("select X.key, X.next.p1 from K0 X where " ^ shape c)))
    shapes

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  a.(Array.length a / 2)

let time f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  (Unix.gettimeofday () -. t0) *. 1000.0

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Median ms of [a] and [b] over [rounds] alternating rounds. *)
let race ~rounds a b =
  let a_ms = ref [] and b_ms = ref [] in
  for r = 1 to rounds do
    if r mod 2 = 0 then begin
      a_ms := time a :: !a_ms;
      b_ms := time b :: !b_ms
    end
    else begin
      b_ms := time b :: !b_ms;
      a_ms := time a :: !a_ms
    end
  done;
  (median !a_ms, median !b_ms)

let disagree what =
  Printf.eprintf "layer_timing: %s and the reference disagree\n" what;
  exit 1

let local_evaluation ~rounds fed analyses =
  let inputs =
    List.concat_map
      (fun analysis ->
        List.map
          (fun (p : Localize.db_plan) -> (analysis, p.Localize.db))
          (Localize.plan fed analysis))
      analyses
  in
  let scan ~probe () =
    List.map
      (fun (analysis, db) ->
        (* in a localized plan's order: the result, then the probe *)
        let s = Local_eval.scan fed analysis ~db in
        let result = Local_eval.result s in
        (result, Local_eval.touched s, if probe then Some (Local_eval.probe s) else None))
      inputs
  in
  let reference ~probe () =
    List.map
      (fun (analysis, db) ->
        ( Local_eval_ref.run fed analysis ~db,
          Local_eval_ref.touched fed analysis ~db,
          if probe then Some (Local_eval_ref.probe fed analysis ~db) else None ))
      inputs
  in
  List.iter2
    (fun (r, t, p) (r', t', p') ->
      match (p, p') with
      | Some p, Some p' ->
        if
          not
            (String.equal (Local_eval_ref.render r t p) (Local_eval_ref.render r' t' p')
            && Local_eval_ref.same_objects r r' p p')
        then disagree "Local_eval"
      | _ -> disagree "Local_eval")
    (scan ~probe:true ()) (reference ~probe:true ());
  let all_scan, all_ref = race ~rounds (scan ~probe:true) (reference ~probe:true) in
  let two_scan, two_ref = race ~rounds (scan ~probe:false) (reference ~probe:false) in
  Printf.printf
    "local evaluation, %d (query, database) inputs, %d rounds:\n\
    \  scan + result + touched + probe %.2f ms, reference %.2f ms, ratio %.2fx\n\
    \  scan + result + touched %.2f ms, reference %.2f ms, ratio %.2fx\n\
    \  minor words per round: scan %.0f, reference %.0f\n"
    (List.length inputs) rounds all_scan all_ref (all_ref /. all_scan) two_scan two_ref
    (two_ref /. two_scan)
    (minor_words (scan ~probe:true))
    (minor_words (reference ~probe:true))

let certification ~rounds fed analyses =
  let inputs analysis =
    let signatures = Some (Sig_catalog.build fed) in
    let bl = Certify_ref.inputs ~parallel:false ~signatures:None fed analysis in
    [
      bl;
      Certify_ref.inputs ~parallel:true ~signatures:None fed analysis;
      Certify_ref.inputs ~parallel:false ~signatures fed analysis;
      Certify_ref.inputs ~parallel:true ~signatures fed analysis;
      (fst bl, []);
    ]
  in
  let cases =
    List.concat_map
      (fun analysis -> List.map (fun (results, verdicts) -> (analysis, results, verdicts)) (inputs analysis))
      analyses
  in
  let dense () =
    List.map (fun (analysis, results, verdicts) -> Certify.run fed analysis ~results ~verdicts) cases
  in
  let reference () =
    List.map (fun (analysis, results, verdicts) -> Certify_ref.run fed analysis ~results ~verdicts) cases
  in
  if
    not
      (List.for_all2
         (fun a b -> String.equal (Certify_ref.render a) (Certify_ref.render b))
         (dense ()) (reference ()))
  then disagree "Certify.run";
  let d, r = race ~rounds dense reference in
  Printf.printf "%d certifications, %d rounds: Certify.run %.2f ms, reference %.2f ms, ratio %.2fx\n"
    (List.length cases) rounds d r (r /. d)

let () =
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 21 in
  let seed = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1 in
  let fed = federation () in
  let analyses = queries fed ~seed in
  local_evaluation ~rounds fed analyses;
  certification ~rounds fed analyses

(* Times [Certify.run] against the list-based reference it replaced
   (test/certify_ref.ml) in one process, on the certifications that
   bench/perf's synth-scan workload makes: its federation (3 databases, a
   3-class chain, 4,000 entities per class), its 8 query shapes with the
   constants its seed draws, and per query the inputs of BL, PL, BLS, PLS
   and CF (CF certifies its round-1 filter without verdicts). Both sides
   first certify every input once and must agree; then each round times
   all 40 certifications per side, the side that goes first alternating.

     dune exec --display quiet test/certify_timing.exe -- [ROUNDS [SEED]]

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

let inputs fed analysis =
  let signatures = Some (Sig_catalog.build fed) in
  let bl = Certify_ref.inputs ~parallel:false ~signatures:None fed analysis in
  [
    bl;
    Certify_ref.inputs ~parallel:true ~signatures:None fed analysis;
    Certify_ref.inputs ~parallel:false ~signatures fed analysis;
    Certify_ref.inputs ~parallel:true ~signatures fed analysis;
    (fst bl, []);
  ]

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  a.(Array.length a / 2)

let () =
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 21 in
  let seed = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1 in
  let fed = federation () in
  let cases =
    List.concat_map
      (fun analysis -> List.map (fun (results, verdicts) -> (analysis, results, verdicts)) (inputs fed analysis))
      (queries fed ~seed)
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
  then begin
    prerr_endline "certify_timing: Certify.run and the reference disagree";
    exit 1
  end;
  let time f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let dense_ms = ref [] and reference_ms = ref [] in
  for r = 1 to rounds do
    if r mod 2 = 0 then begin
      dense_ms := time dense :: !dense_ms;
      reference_ms := time reference :: !reference_ms
    end
    else begin
      reference_ms := time reference :: !reference_ms;
      dense_ms := time dense :: !dense_ms
    end
  done;
  let d = median !dense_ms and r = median !reference_ms in
  Printf.printf "%d certifications, %d rounds: Certify.run %.2f ms, reference %.2f ms, ratio %.2fx\n"
    (List.length cases) rounds d r (r /. d)

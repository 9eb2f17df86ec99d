(* The synthetic golden: every strategy's answer and metrics on a small
   fixed federation shaped like the host-clock benchmark's (3 databases, a
   3-class chain, 25% missing attributes, 12% nulls, 40% extra copies) under
   its 8 query shapes with fixed constants. Nested, disjunctive and
   missing-attribute data with isomeric copies is where a change to the
   data layers would show first; test/golden/synth_answers.txt pins the
   bytes. *)

open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
module Synth = Msdq_workload.Synth

let federation () =
  Synth.generate
    { Synth.dense with Synth.seed = 1996; n_entities = 120 }

(* The benchmark's 8 query shapes over the K0 -> K1 -> K2 chain; the
   constants are fixed per shape instead of seeded. *)
let queries =
  let f = Printf.sprintf in
  [
    f "X.p0 = %d" 1;
    f "X.p1 = %d and X.next.p0 = %d" 2 0;
    f "X.next.next.p2 = %d" 3;
    f "X.p0 <> %d and X.next.p1 = %d and X.next.next.p0 = %d" 0 1 2;
    f "X.p2 = %d and X.next.next.p1 <> %d" 1 3;
    f "X.next.p2 = %d and X.next.p0 = %d" 2 2;
    f "X.p0 = %d or X.next.p1 = %d" 3 0;
    f "(X.p1 = %d and not X.next.p2 = %d) or X.next.next.p0 = %d" 0 1 3;
  ]

let g = Printf.sprintf "%.17g"

let render_run buf s answer (m : Strategy.metrics) =
  let add fmt = Printf.bprintf buf fmt in
  add "%s response %s total %s\n" (Strategy.to_string s)
    (g (Time.to_us m.Strategy.response))
    (g (Time.to_us m.Strategy.total));
  add
    "  bytes %d disk %d messages %d checks %d filtered %d work %d goid %d \
     promoted %d eliminated %d conflicts %d\n"
    m.Strategy.bytes_shipped m.Strategy.disk_bytes m.Strategy.messages
    m.Strategy.check_requests m.Strategy.checks_filtered m.Strategy.work_units
    m.Strategy.goid_lookups m.Strategy.promoted m.Strategy.eliminated_at_global
    m.Strategy.conflicts;
  List.iter
    (fun (label, busy, n) -> add "  busy %s %s %d\n" label (g (Time.to_us busy)) n)
    m.Strategy.breakdown;
  List.iter
    (fun (r : Answer.row) ->
      add "  %s %s %s\n" (Oid.Goid.to_string r.Answer.goid)
        (match r.Answer.status with
        | Answer.Certain -> "certain"
        | Answer.Maybe -> "maybe")
        (String.concat "," (List.map Value.to_string r.Answer.values)))
    (Answer.rows answer)

let render () =
  let fed = federation () in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let buf = Buffer.create 65536 in
  List.iter
    (fun where ->
      let text = "select X.key, X.next.p1 from K0 X where " ^ where in
      Printf.bprintf buf "query %s\n" text;
      let analysis = Analysis.analyze schema (Parser.parse text) in
      List.iter
        (fun s ->
          let answer, m = Strategy.run s fed analysis in
          render_run buf s answer m)
        Strategy.all)
    queries;
  Buffer.contents buf

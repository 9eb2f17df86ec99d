(* The faulty golden: BL, PL, BLS, PLS, CA and CF on the synthetic golden's
   federation and query shapes (test/synth_golden.ml) under seeded random
   fault schedules, each with the retry-only, failover and hedged recovery
   policies. Each run renders its times at %.17g, its availability record,
   its busy time per label and every row with its degraded provenance, so a
   change to what a lost check means for the answer shows here first;
   test/golden/fault_answers.txt pins the bytes. *)

open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
module Fault = Msdq_fault.Fault
module Rng = Msdq_workload.Rng

let strategies = Strategy.[ Bl; Pl; Bls; Pls; Ca; Cf ]

let policies =
  [
    ("retry-only", Recovery.disabled);
    ("failover", Recovery.default);
    ("hedged", Recovery.hedged (Time.us 500.0));
  ]

(* Two schedules per query shape, over a 1 s horizon (a few fault-free
   responses): crash windows at an availability in [0.5, 1), every database
   site's incoming link dropping up to 30%, and a 10% lossy link into the
   global site 0. *)
let schedule fed ~seed =
  let rng = Rng.create ~seed in
  let availability = 0.5 +. (0.5 *. Rng.float rng) in
  let drop = 0.3 *. Rng.float rng in
  let sched =
    Fault.random ~rng
      ~sites:
        (List.map (fun (db, _) -> Federation.site_of fed db) (Federation.databases fed))
      ~availability ~horizon:(Time.ms 1000.0) ~drop ()
  in
  {
    sched with
    Fault.links =
      { Fault.dst = 0; drop = 0.1; inflate = 1.0; jitter = 0.0 } :: sched.Fault.links;
  }

let g = Printf.sprintf "%.17g"

let render_run buf name answer (m : Strategy.metrics) =
  let add fmt = Printf.bprintf buf fmt in
  let a = m.Strategy.availability in
  add "%s response %s total %s\n" name
    (g (Time.to_us m.Strategy.response))
    (g (Time.to_us m.Strategy.total));
  add
    "  availability faults %b sites [%s] drops %d retries %d abandoned %d \
     certain_fault_free %d demoted %d recovered %d resurrected %d partial %b \
     ratio %s\n"
    a.Strategy.faults_active
    (String.concat "," (List.map string_of_int a.Strategy.failed_sites))
    a.Strategy.drops a.Strategy.retries a.Strategy.checks_abandoned
    a.Strategy.certain_fault_free a.Strategy.demoted a.Strategy.recovered
    a.Strategy.resurrected a.Strategy.partial
    (g a.Strategy.degradation_ratio);
  List.iter
    (fun (label, busy, n) -> add "  busy %s %s %d\n" label (g (Time.to_us busy)) n)
    m.Strategy.breakdown;
  List.iter
    (fun (r : Answer.row) ->
      let goid = r.Answer.goid in
      add "  %s %s %s%s\n" (Oid.Goid.to_string goid)
        (Answer.status_to_string r.Answer.status)
        (String.concat "," (List.map Value.to_string r.Answer.values))
        (if not (Oid.Goid.Set.mem goid (Answer.degraded answer)) then ""
         else
           match Answer.degraded_reason answer goid with
           | None -> " degraded"
           | Some why -> " degraded: " ^ Answer.reason_to_string why))
    (Answer.rows answer)

let render () =
  let fed = Synth_golden.federation () in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let buf = Buffer.create 65536 in
  List.iteri
    (fun i where ->
      let text = "select X.key, X.next.p1 from K0 X where " ^ where in
      let analysis = Analysis.analyze schema (Parser.parse text) in
      List.iter
        (fun seed ->
          Printf.bprintf buf "query %s schedule %d\n" text seed;
          let fault = schedule fed ~seed in
          List.iter
            (fun (pname, recovery) ->
              let options =
                { Strategy.default_options with Strategy.fault; recovery }
              in
              List.iter
                (fun s ->
                  let answer, m = Strategy.run ~options s fed analysis in
                  render_run buf
                    (Strategy.to_string s ^ " " ^ pname)
                    answer m)
                strategies)
            policies)
        [ 1996 + (2 * i); 1997 + (2 * i) ])
    Synth_golden.queries;
  Buffer.contents buf

(* The serve golden: four streams through the workload engine on the
   synthetic golden's federation and query shapes (test/synth_golden.ml),
   each job's times at %.17g with its cache hits, deadline demotions,
   answer fingerprint and cached rows, and each stream's totals. The
   streams repeat every query under several strategies, cold, warm, warm
   under a lossy flapping schedule with a deadline (lost and doomed check
   groups re-certify) and under AUTO; test/golden/serve_streams.txt pins
   the bytes. *)

open Msdq_odb
open Msdq_simkit
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_serve
module Fault = Msdq_fault.Fault

let strategies = Strategy.[| Ca; Bl; Pl; Bls; Pls; Lo |]

let n_jobs = 40

let arrival j = Time.ms (2.0 *. float_of_int j)

(* Job j asks shape j mod 8 under strategy j mod 6: each shape comes back
   every 16 ms, under three strategies, two of them twice. *)
let jobs analyses =
  List.init n_jobs (fun j ->
      {
        Serve.strategy = strategies.(j mod 6);
        analysis = analyses.(j mod 8);
        arrival = arrival j;
        deadline = None;
      })

let warm =
  {
    Serve.default_config with
    Serve.cache_bytes = 4 * 1024 * 1024;
    window = Time.us 500.0;
  }

let cold = { warm with Serve.cache_bytes = 0; window = Time.zero }

(* Every database site's incoming link drops 30% of transfers and every
   site flaps (down 30% of each 40 ms period), so some check groups are
   lost; the 10 s budget dooms the round trips of the later queries, which
   queue behind the earlier ones. *)
let faulty fed =
  let sites =
    List.map (fun (db, _) -> Federation.site_of fed db) (Federation.databases fed)
  in
  let train =
    Fault.flap_train ~from:Time.zero ~until:(arrival n_jobs) ~period:(Time.ms 40.0)
      ~duty:0.3
  in
  let fault =
    {
      Fault.seed = 1996;
      sites = List.map (fun site -> { Fault.site; outages = train }) sites;
      links =
        List.map
          (fun dst -> { Fault.dst; drop = 0.3; inflate = 1.0; jitter = 0.0 })
          sites;
      slowdowns = [];
      partitions = [];
    }
  in
  {
    warm with
    Serve.options = { Strategy.default_options with Strategy.fault };
    deadline = Some (Time.ms 10000.0);
  }

let g t = Printf.sprintf "%.17g" (Time.to_us t)

let render_stream buf name (o : Serve.outcome) =
  let add fmt = Printf.bprintf buf fmt in
  add "stream %s\n" name;
  List.iter
    (fun (r : Serve.query_report) ->
      add "#%d %s arrival %s completed %s latency %s xhits %d vhits %d demoted %d\n"
        r.Serve.index
        (Strategy.to_string r.Serve.strategy)
        (g r.Serve.arrival) (g r.Serve.completed) (g r.Serve.latency)
        r.Serve.extent_hits r.Serve.verdict_hits r.Serve.deadline_demoted;
      List.iter
        (fun line -> if line <> "" then add "  %s\n" line)
        (String.split_on_char '\n' (Serve.answer_fingerprint r.Serve.answer));
      add "  cached %s\n"
        (String.concat ","
           (List.map Oid.Goid.to_string
              (Oid.Goid.Set.elements (Answer.cached r.Serve.answer)))))
    o.Serve.reports;
  add "makespan %s messages %d coalesced %d\n" (g o.Serve.makespan)
    o.Serve.messages o.Serve.coalesced_checks;
  let cache label (s : Lru.stats) =
    add "%s cache hits %d misses %d evictions %d invalidations %d entries %d bytes %d\n"
      label s.Lru.hits s.Lru.misses s.Lru.evictions s.Lru.invalidations
      s.Lru.entries s.Lru.bytes
  in
  cache "extent" o.Serve.extent_cache;
  cache "verdict" o.Serve.verdict_cache;
  List.iter
    (fun (site, mean_us, legs) ->
      add "check latency site %d mean %.17g legs %d\n" site mean_us legs)
    o.Serve.check_latency

let render () =
  let fed = Synth_golden.federation () in
  let schema = Global_schema.schema (Federation.global_schema fed) in
  let analyses =
    Array.of_list
      (List.map
         (fun where ->
           Analysis.analyze schema
             (Parser.parse ("select X.key, X.next.p1 from K0 X where " ^ where)))
         Synth_golden.queries)
  in
  let jobs = jobs analyses in
  let buf = Buffer.create 65536 in
  render_stream buf "cold" (Serve.run cold fed jobs);
  render_stream buf "warm" (Serve.run warm fed jobs);
  render_stream buf "faulty" (Serve.run (faulty fed) fed jobs);
  let auto =
    Serve.run_auto warm fed
      (List.map (fun (j : Serve.job) -> (j.Serve.analysis, j.Serve.arrival)) jobs)
  in
  render_stream buf "auto" auto.Serve.auto;
  Buffer.contents buf

open Msdq_simkit
open Msdq_exec
open Msdq_workload
open Msdq_serve
module Metrics = Msdq_obs.Metrics
module Json = Msdq_obs.Json
module S = Bench_section

let log_src = Logs.Src.create "msdq.exp.serve" ~doc:"workload-engine sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

type series = {
  label : string;
  strategy : string;
  window_us : float;
  throughputs : float array;
  speedups : float array;
  hits : float array;
}

type sweep = {
  id : string;
  title : string;
  xlabel : string;
  xs : float array;
  windows_us : float array;
  queries : int;
  samples : int;
  seed : int;
  series : series list;
}

let strategies = [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
let cache_bytes_grid = [| 0; 16 * 1024; 256 * 1024; 4 * 1024 * 1024 |]
let windows_us = [| 0.0; 500.0 |]

type cell = { throughput : float; makespan_s : float; hits_per_query : float }

(* One sample: every (strategy, window, cache) cell over one workload. The
   returned array is strategy-major, window-minor, cache-innermost. *)
let point ~seed ~cost ~queries ~si =
  let n_cache = Array.length cache_bytes_grid in
  let n_cells = List.length strategies * Array.length windows_us * n_cache in
  (* The fault sweep's dense case: the workloads actually read extents and
     send checks — the work caching can share. *)
  let case =
    Synth.case { Synth.dense with Synth.n_entities = 60 }
      (Rng.int (Rng.split_ix (Rng.create ~seed) ~i:si) ~bound:100_000)
  in
  match case with
  | None ->
      Array.make n_cells { throughput = 0.0; makespan_s = 0.0; hits_per_query = 0.0 }
  | Some (fed, analysis) ->
      let options = { Strategy.default_options with Strategy.cost } in
      let cells = ref [] in
      List.iter
        (fun s ->
          Array.iter
            (fun w ->
              Array.iter
                (fun cache_bytes ->
                  let cfg =
                    {
                      Serve.default_config with
                      Serve.options;
                      cache_bytes;
                      window = Time.us w;
                    }
                  in
                  let jobs =
                    List.init queries (fun i ->
                        {
                          Serve.strategy = s;
                          analysis;
                          arrival = Time.us (float_of_int i *. 500.0);
                          deadline = None;
                        })
                  in
                  let out = Serve.run cfg fed jobs in
                  let hits =
                    List.fold_left
                      (fun acc r ->
                        acc + r.Serve.extent_hits + r.Serve.verdict_hits)
                      0 out.Serve.reports
                  in
                  cells :=
                    {
                      throughput = out.Serve.throughput;
                      makespan_s = Time.to_s out.Serve.makespan;
                      hits_per_query = float_of_int hits /. float_of_int queries;
                    }
                    :: !cells)
                cache_bytes_grid)
            windows_us)
        strategies;
      Array.of_list (List.rev !cells)

let run ?pool ?registry ?progress ?(samples = 4) ?(queries = 6) ?(seed = 1996)
    ?(cost = Cost.default) () =
  let id = "serve-sweep" in
  let log si _ ~completed ~total =
    Log.info (fun m -> m "%s: sample %d done (%d/%d)" id si completed total)
  in
  let results =
    Grid.map ?pool ?progress ~id ~log
      (fun si -> point ~seed ~cost ~queries ~si)
      (Array.init samples Fun.id)
  in
  (match registry with
  | Some reg ->
      Metrics.inc
        (Metrics.counter reg ~labels:[ ("figure", id) ] "msdq_serve_samples_total")
        samples
  | None -> ());
  let n_cache = Array.length cache_bytes_grid in
  let n_win = Array.length windows_us in
  let mean f cell_idx =
    Array.fold_left (fun acc sample -> acc +. f sample.(cell_idx)) 0.0 results
    /. float_of_int samples
  in
  let series =
    List.concat
      (List.mapi
         (fun s_i s ->
           List.init n_win (fun w_i ->
               let base = ((s_i * n_win) + w_i) * n_cache in
               let throughputs =
                 Array.init n_cache (fun c_i ->
                     mean (fun c -> c.throughput) (base + c_i))
               in
               let hits =
                 Array.init n_cache (fun c_i ->
                     mean (fun c -> c.hits_per_query) (base + c_i))
               in
               (* mean per-sample warm-over-cold ratio, not ratio of means:
                  each sample is its own cold anchor *)
               let speedups =
                 Array.init n_cache (fun c_i ->
                     Array.fold_left
                       (fun acc sample ->
                         let cold = sample.(base).makespan_s in
                         let warm = sample.(base + c_i).makespan_s in
                         acc +. (if warm > 0.0 then cold /. warm else 1.0))
                       0.0 results
                     /. float_of_int samples)
               in
               {
                 label =
                   Printf.sprintf "%s w=%.0fus" (Strategy.to_string s)
                     windows_us.(w_i);
                 strategy = Strategy.to_string s;
                 window_us = windows_us.(w_i);
                 throughputs;
                 speedups;
                 hits;
               }))
         strategies)
  in
  {
    id;
    title = "Workload throughput vs cache capacity and admission window";
    xlabel = "cache capacity (KiB)";
    xs = Array.map (fun b -> float_of_int b /. 1024.0) cache_bytes_grid;
    windows_us;
    queries;
    samples;
    seed;
    series;
  }

let series_of sweep label =
  List.find (fun s -> String.equal s.label label) sweep.series

(* ---- reports ---- *)

let to_json s =
  let floats a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  Json.Obj
    [
      ("id", Json.Str s.id);
      ("title", Json.Str s.title);
      ("xlabel", Json.Str s.xlabel);
      ("cache_kib", floats s.xs);
      ("windows_us", floats s.windows_us);
      ("queries", Json.Int s.queries);
      ("samples", Json.Int s.samples);
      ("seed", Json.Int s.seed);
      ( "series",
        Json.Arr
          (List.map
             (fun ser ->
               Json.Obj
                 [
                   ("label", Json.Str ser.label);
                   ("strategy", Json.Str ser.strategy);
                   ("window_us", Json.Float ser.window_us);
                   ("throughputs", floats ser.throughputs);
                   ("speedups", floats ser.speedups);
                   ("hits_per_query", floats ser.hits);
                 ])
             s.series) );
    ]

let pp ppf sweep =
  Format.fprintf ppf
    "@[<v>%s — %s@,\
     (%d queries per workload, %d samples, seed %d; speedup = cold/warm \
     makespan)@,@,"
    sweep.id sweep.title sweep.queries sweep.samples sweep.seed;
  Format.fprintf ppf "%-18s" sweep.xlabel;
  Array.iter
    (fun kib -> Format.fprintf ppf " %10s" (Printf.sprintf "%gKiB" kib))
    sweep.xs;
  Format.fprintf ppf "@,";
  List.iter
    (fun ser ->
      Format.fprintf ppf "%-18s" (ser.label ^ " q/s");
      Array.iter (fun t -> Format.fprintf ppf " %10.2f" t) ser.throughputs;
      Format.fprintf ppf "@,%-18s" (ser.label ^ " speedup");
      Array.iter (fun s -> Format.fprintf ppf " %10.3f" s) ser.speedups;
      Format.fprintf ppf "@,")
    sweep.series;
  Format.fprintf ppf "@]"

(* ---- bench section ---- *)

(* Non-negative, equal-length series over a non-empty cache grid; warm
   caches must not end slower than the cold-cache starting point. *)
let check c =
  let n = List.length (S.floats c "cache_kib") in
  if n = 0 then S.invalid (S.field c "cache_kib") "is empty";
  List.iter
    (fun ser ->
      let arr k = S.floats ~range:S.Nonneg ~len:n ser k in
      ignore (arr "throughputs");
      ignore (arr "hits_per_query");
      let speedups = arr "speedups" in
      let first = List.hd speedups and last = List.nth speedups (n - 1) in
      if last < first -. 1e-9 then
        S.invalid ser "%s speedup fell from %.3f to %.3f across the cache sweep"
          (S.str ser "label") first last)
    (S.elements ~nonempty:true (S.field c "series"))

let section =
  {
    S.key = "serve_sweep";
    since = 5;
    until = None;
    check;
    bars = [];
    guard = [ "seed"; "samples"; "queries" ];
    metrics =
      Some
        (fun c ->
          List.filter_map
            (fun ser ->
              match S.floats ser "throughputs" with
              | [] -> None
              | ts -> Some (S.Rate (S.str ser "label" ^ " mean throughput", S.mean ts)))
            (S.elements (S.field c "series")));
  }

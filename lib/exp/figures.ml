open Msdq_simkit
open Msdq_workload
open Msdq_exec
module Metrics = Msdq_obs.Metrics
module Param_sim = Msdq_opt.Param_sim

let log_src = Logs.Src.create "msdq.exp" ~doc:"experiment sweeps"

module Log = (val Logs.src_log log_src : Logs.LOG)

type series = {
  strategy : Strategy.t;
  totals : float array;
  responses : float array;
}

type figure = {
  id : string;
  title : string;
  xlabel : string;
  xs : float array;
  series : series list;
}

let paper_strategies = [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]

(* One sweep = a flat grid of (strategy, x) points, each an independent
   [Param_sim.average] with its own graphs, rng streams and (per run) metrics
   instances, evaluated by [Grid.map]. The merge below walks the grid in
   index order, so series arrays, registry counters and therefore every
   downstream report are bit-identical for any worker count. *)
let sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost ~strategies ~xs
    ~config_of () =
  let strategies_a = Array.of_list strategies in
  let nx = Array.length xs in
  let strategy_of i = strategies_a.(i / nx) and x_of i = xs.(i mod nx) in
  let point i =
    let ranges, overrides = config_of (x_of i) in
    Param_sim.average ~overrides ~cost ~samples ~seed ~ranges (strategy_of i)
  in
  let log i _ ~completed ~total =
    Log.info (fun m ->
        m "%s: %s x=%g done (%d/%d points)" id
          (Strategy.to_string (strategy_of i))
          (x_of i) completed total)
  in
  let results =
    Grid.map ?pool ?progress ~id ~log point
      (Array.init (Array.length strategies_a * nx) Fun.id)
  in
  List.mapi
    (fun si strategy ->
      let totals = Array.make nx 0.0 in
      let responses = Array.make nx 0.0 in
      for xi = 0 to nx - 1 do
        let t = results.((si * nx) + xi) in
        totals.(xi) <- Time.to_s t.Param_sim.total;
        responses.(xi) <- Time.to_s t.Param_sim.response;
        match registry with
        | Some reg ->
          Metrics.inc
            (Metrics.counter reg
               ~labels:
                 [ ("figure", id); ("strategy", Strategy.to_string strategy) ]
               "msdq_param_samples_total")
            samples
        | None -> ()
      done;
      { strategy; totals; responses })
    strategies

let fig9 ?pool ?registry ?progress ?(samples = 500) ?(seed = 1996) ?(cost = Cost.default) () =
  let xs = [| 1000.; 2000.; 4000.; 6000.; 8000.; 10000. |] in
  let config_of x =
    let n = int_of_float x in
    ( { Params.default with Params.n_o = (n, n + (n / 5)) },
      Param_sim.no_overrides )
  in
  let id = "fig9" in
  {
    id;
    title = "Varying the average number of objects in each constituent class";
    xlabel = "objects per constituent class";
    xs;
    series =
      sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost
        ~strategies:paper_strategies ~xs ~config_of ();
  }

let fig10 ?pool ?registry ?progress ?(samples = 500) ?(seed = 1996) ?(cost = Cost.default) () =
  let xs = [| 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let config_of x =
    ({ Params.default with Params.n_db = int_of_float x }, Param_sim.no_overrides)
  in
  let id = "fig10" in
  {
    id;
    title = "Varying the number of component databases";
    xlabel = "component databases";
    xs;
    series =
      sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost
        ~strategies:paper_strategies ~xs ~config_of ();
  }

let fig11 ?pool ?registry ?progress ?(samples = 500) ?(seed = 1996) ?(cost = Cost.default) () =
  let xs = [| 0.1; 0.3; 0.5; 0.7; 0.9 |] in
  let config_of x =
    ( { Params.default with Params.n_o = (1000, 2000) },
      { Param_sim.root_local_selectivity = Some x } )
  in
  let id = "fig11" in
  {
    id;
    title = "Varying the selectivity of one local predicate";
    xlabel = "selectivity of the local predicates on the root class";
    xs;
    series =
      sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost
        ~strategies:paper_strategies ~xs ~config_of ();
  }

let ablation_signatures ?pool ?registry ?progress ?(samples = 500) ?(seed = 1996) ?(cost = Cost.default) () =
  let xs = [| 2.; 4.; 6.; 8. |] in
  let config_of x =
    ({ Params.default with Params.n_db = int_of_float x }, Param_sim.no_overrides)
  in
  let id = "ablation-signatures" in
  {
    id;
    title = "Signature filtering of assistant checks (extension)";
    xlabel = "component databases";
    xs;
    series =
      sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost
        ~strategies:[ Strategy.Bl; Strategy.Bls; Strategy.Pl; Strategy.Pls ]
        ~xs ~config_of ();
  }

let ablation_checks ?pool ?registry ?progress ?(samples = 500) ?(seed = 1996) ?(cost = Cost.default) () =
  let xs = [| 2.; 4.; 6.; 8. |] in
  let config_of x =
    ({ Params.default with Params.n_db = int_of_float x }, Param_sim.no_overrides)
  in
  let id = "ablation-checks" in
  {
    id;
    title = "Cost of assistant checking: localized with and without phase O (extension)";
    xlabel = "component databases";
    xs;
    series =
      sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost
        ~strategies:[ Strategy.Lo; Strategy.Bl; Strategy.Pl ]
        ~xs ~config_of ();
  }

let ablation_semijoin ?pool ?registry ?progress ?(samples = 500) ?(seed = 1996) ?(cost = Cost.default) () =
  let xs = [| 0.1; 0.3; 0.5; 0.7; 0.9 |] in
  let config_of x =
    ( { Params.default with Params.n_o = (1000, 2000) },
      { Param_sim.root_local_selectivity = Some x } )
  in
  let id = "ablation-semijoin" in
  {
    id;
    title = "Semijoin-filtered centralized (CF) vs CA and BL (extension)";
    xlabel = "selectivity of the local predicates on the root class";
    xs;
    series =
      sweep ?pool ?registry ?progress ~id ~samples ~seed ~cost
        ~strategies:[ Strategy.Ca; Strategy.Cf; Strategy.Bl ]
        ~xs ~config_of ();
  }

let all ?pool ?registry ?progress ?samples ?seed ?cost () =
  [
    fig9 ?pool ?registry ?progress ?samples ?seed ?cost ();
    fig10 ?pool ?registry ?progress ?samples ?seed ?cost ();
    fig11 ?pool ?registry ?progress ?samples ?seed ?cost ();
    ablation_signatures ?pool ?registry ?progress ?samples ?seed ?cost ();
    ablation_checks ?pool ?registry ?progress ?samples ?seed ?cost ();
    ablation_semijoin ?pool ?registry ?progress ?samples ?seed ?cost ();
  ]

let series_of fig strategy =
  match List.find_opt (fun s -> s.strategy = strategy) fig.series with
  | Some s -> s
  | None -> raise Not_found

open Msdq_simkit
open Msdq_odb
open Msdq_fed
open Msdq_query
open Msdq_exec
open Msdq_workload
module Metrics = Msdq_obs.Metrics
module Fault = Msdq_fault.Fault
module Json = Msdq_obs.Json
module S = Bench_section

let log_src = Logs.Src.create "msdq.exp.fault" ~doc:"fault-injection sweeps"

module Log = (val Logs.src_log log_src : Logs.LOG)

type series = {
  label : string;
  responses : float array;
  recalls : float array;
}

type sweep = {
  id : string;
  title : string;
  xlabel : string;
  xs : float array;
  samples : int;
  seed : int;
  series : series list;
}

let strategies = [ Strategy.Ca; Strategy.Bl; Strategy.Pl ]
let fail_stop = "fail-stop"
let availabilities = [| 0.7; 0.8; 0.9; 0.95; 1.0 |]

(* Certain-set recall of a degraded run against its fault-free reference:
   the fraction of fault-free certain results the faulty run still
   certifies. An empty reference certain set recalls trivially. *)
let recall ~reference ~faulty =
  let ref_c = Answer.goids reference Answer.Certain in
  let got_c = Answer.goids faulty Answer.Certain in
  let n_ref = Oid.Goid.Set.cardinal ref_c in
  if n_ref = 0 then 1.0
  else
    float_of_int (Oid.Goid.Set.cardinal (Oid.Goid.Set.inter ref_c got_c))
    /. float_of_int n_ref

type point_result = {
  (* per strategy, in [strategies] order *)
  p_responses : float array;
  p_recalls : float array;
  (* the hard-failing client observing the BL faulty run *)
  p_hard_response : float;
  p_hard_recall : float;
}

(* What the points of both sweeps share: sample [si]'s concrete case (a
   dense synthetic federation and a query), its fault-free reference
   answers in [strategies] order, the options every run starts from, and
   on demand a random schedule over the component sites drawn from the
   stream of grid point [idx] — keyed by the flat (level, sample) index so
   every point draws independently of evaluation order — with a horizon of
   twice the longest reference response. The global site never crashes
   (it hosts the client), but its incoming link is as lossy as the others —
   otherwise CA, whose transfers all terminate there, would be trivially
   immune. *)
let setup ~seed ~cost ~salt ~idx ~si ~availability ~drop ~inflate =
  let case_seed = Rng.int (Rng.split_ix (Rng.create ~seed) ~i:si) ~bound:100_000 in
  Option.map
    (fun (fed, analysis) ->
      let options = { Strategy.default_options with Strategy.cost } in
      let fault_free = List.map (fun s -> Strategy.run ~options s fed analysis) strategies in
      let horizon =
        let longest =
          List.fold_left
            (fun acc (_, m) -> Time.max acc m.Strategy.response)
            (Time.ms 1.0) fault_free
        in
        Time.us (2.0 *. Time.to_us longest)
      in
      let lossy =
        lazy
          (let sites = List.init (List.length (Federation.databases fed)) (fun i -> i + 1) in
           let rng = Rng.split_ix (Rng.create ~seed:(seed + salt)) ~i:idx in
           let sched = Fault.random ~rng ~sites ~availability ~horizon ~drop ~inflate () in
           {
             sched with
             Fault.links = { Fault.dst = 0; drop; inflate; jitter = 0.0 } :: sched.Fault.links;
           })
      in
      (fed, analysis, options, List.map fst fault_free, lossy))
    (Synth.case { Synth.dense with Synth.n_entities = 60 } case_seed)

let point ~seed ~cost ~drop ~inflate ~idx ~si ~availability =
  match setup ~seed ~cost ~salt:7919 ~idx ~si ~availability ~drop ~inflate with
  | None ->
    (* no analyzable query for this stream: a vacuous, neutral sample *)
    {
      p_responses = Array.make (List.length strategies) 0.0;
      p_recalls = Array.make (List.length strategies) 1.0;
      p_hard_response = 0.0;
      p_hard_recall = 1.0;
    }
  | Some (fed, analysis, options, references, lossy) ->
    (* the 1.0 column is the fault-free anchor, whatever the link knobs *)
    let fault = if availability >= 1.0 then Fault.none else Lazy.force lossy in
    let options = { options with Strategy.fault } in
    let faulty =
      List.map (fun s -> Strategy.run ~options s fed analysis) strategies
    in
    let p_responses =
      Array.of_list
        (List.map (fun (_, m) -> Time.to_s m.Strategy.response) faulty)
    in
    let p_recalls =
      Array.of_list
        (List.map2
           (fun reference (got, _) -> recall ~reference ~faulty:got)
           references faulty)
    in
    (* The hard-failing baseline: a client of the same faulty BL execution
       that has no degraded-answer mode. Any loss aborts the query — recall
       collapses to zero instead of degrading. [strategies] is CA; BL; PL,
       so BL is index 1. *)
    let _, bl_metrics = List.nth faulty 1 in
    let bl_av = bl_metrics.Strategy.availability in
    let p_hard_recall =
      if bl_av.Strategy.drops > 0 || bl_av.Strategy.partial then 0.0
      else p_recalls.(1)
    in
    { p_responses; p_recalls; p_hard_response = p_responses.(1); p_hard_recall }

(* Evaluates [point ~idx ~si ~availability] over the flat (level, sample)
   grid and returns the per-level mean of a projection of its results. *)
let levels ?pool ?registry ?progress ~id ~counter ~samples point =
  let xs = availabilities in
  let log i _ ~completed ~total =
    Log.info (fun m ->
        m "%s: availability=%g sample %d done (%d/%d points)" id
          xs.(i / samples) (i mod samples) completed total)
  in
  let results =
    Grid.map ?pool ?progress ~id ~log
      (fun i -> point ~idx:i ~si:(i mod samples) ~availability:xs.(i / samples))
      (Array.init (Array.length xs * samples) Fun.id)
  in
  (match registry with
  | Some reg ->
    Metrics.inc
      (Metrics.counter reg ~labels:[ ("figure", id) ] counter)
      (Array.length results)
  | None -> ());
  fun f ->
    Array.init (Array.length xs) (fun li ->
        let acc = ref 0.0 in
        for si = 0 to samples - 1 do
          acc := !acc +. f results.((li * samples) + si)
        done;
        !acc /. float_of_int samples)

let run ?pool ?registry ?progress ?(samples = 12) ?(seed = 1996)
    ?(cost = Cost.default) ?(drop = 0.05) ?(inflate = 1.0) () =
  let id = "fault-sweep" in
  let mean =
    levels ?pool ?registry ?progress ~id ~counter:"msdq_fault_samples_total"
      ~samples (point ~seed ~cost ~drop ~inflate)
  in
  let series label response recall =
    { label; responses = mean response; recalls = mean recall }
  in
  {
    id;
    title =
      "Response time and certain-set recall under site crashes and lossy links";
    xlabel = "site availability";
    xs = availabilities;
    samples;
    seed;
    series =
      List.mapi
        (fun k s ->
          series (Strategy.to_string s)
            (fun r -> r.p_responses.(k))
            (fun r -> r.p_recalls.(k)))
        strategies
      @ [ series fail_stop (fun r -> r.p_hard_response) (fun r -> r.p_hard_recall) ];
  }

let series_of sweep label =
  match List.find_opt (fun s -> String.equal s.label label) sweep.series with
  | Some s -> s
  | None -> raise Not_found

(* ---- the recovery sweep: retry-only vs failover vs failover+hedging ---- *)

type rmode = Retry_only | Failover | Hedged

let rmodes = [ Retry_only; Failover; Hedged ]

let rmode_label = function
  | Retry_only -> "retry"
  | Failover -> "failover"
  | Hedged -> "hedged"

let rmode_policy = function
  | Retry_only -> Strategy.Recovery.disabled
  | Failover -> Strategy.Recovery.default
  | Hedged -> Strategy.Recovery.hedged (Time.ms 0.5)

type rseries = {
  r_label : string;
  r_responses : float array;
  r_recalls : float array;
  r_demoted : float array;
}

type recovery_sweep = {
  rid : string;
  rtitle : string;
  rxlabel : string;
  rxs : float array;
  rsamples : int;
  rseed : int;
  rseries : rseries list;
}

type rpoint_result = {
  (* per (strategy, mode), flattened strategy-major *)
  rp_responses : float array;
  rp_recalls : float array;
  rp_demoted : float array;
}

let rpoint ~seed ~cost ~drop ~inflate ~idx ~si ~availability =
  let n_cells = List.length strategies * List.length rmodes in
  match setup ~seed ~cost ~salt:6271 ~idx ~si ~availability ~drop ~inflate with
  | None ->
    {
      rp_responses = Array.make n_cells 0.0;
      rp_recalls = Array.make n_cells 1.0;
      rp_demoted = Array.make n_cells 0.0;
    }
  | Some (fed, analysis, options, references, lossy) ->
    (* unlike the fault sweep, the 1.0 column is NOT fault-free: sites never
       crash but links stay lossy (Fault.random at availability 1.0), so the
       column isolates what failover buys against pure message loss *)
    let fault = Lazy.force lossy in
    let cells =
      List.concat_map
        (fun (s, reference) ->
          List.map
            (fun mode ->
              let options =
                { options with Strategy.fault; recovery = rmode_policy mode }
              in
              let got, m = Strategy.run ~options s fed analysis in
              ( Time.to_s m.Strategy.response,
                recall ~reference ~faulty:got,
                float_of_int m.Strategy.availability.Strategy.demoted ))
            rmodes)
        (List.combine strategies references)
    in
    {
      rp_responses = Array.of_list (List.map (fun (r, _, _) -> r) cells);
      rp_recalls = Array.of_list (List.map (fun (_, r, _) -> r) cells);
      rp_demoted = Array.of_list (List.map (fun (_, _, d) -> d) cells);
    }

let run_recovery ?pool ?registry ?progress ?(samples = 12) ?(seed = 2024)
    ?(cost = Cost.default) ?(drop = 0.2) ?(inflate = 1.0) () =
  let id = "recovery-sweep" in
  let mean =
    levels ?pool ?registry ?progress ~id ~counter:"msdq_recovery_samples_total"
      ~samples (rpoint ~seed ~cost ~drop ~inflate)
  in
  let rseries =
    List.concat
      (List.mapi
         (fun k s ->
           List.mapi
             (fun j mode ->
               let cell = (k * List.length rmodes) + j in
               {
                 r_label = Strategy.to_string s ^ "+" ^ rmode_label mode;
                 r_responses = mean (fun r -> r.rp_responses.(cell));
                 r_recalls = mean (fun r -> r.rp_recalls.(cell));
                 r_demoted = mean (fun r -> r.rp_demoted.(cell));
               })
             rmodes)
         strategies)
  in
  {
    rid = id;
    rtitle =
      "Certain-set recall vs availability: retry-only vs failover vs \
       failover+hedging";
    rxlabel = "site availability";
    rxs = availabilities;
    rsamples = samples;
    rseed = seed;
    rseries;
  }

let rseries_of sweep label =
  match
    List.find_opt (fun s -> String.equal s.r_label label) sweep.rseries
  with
  | Some s -> s
  | None -> raise Not_found

(* ---- reports ---- *)

let json_floats a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) a))

let to_json s =
  Json.Obj
    [
      ("id", Json.Str s.id);
      ("title", Json.Str s.title);
      ("xlabel", Json.Str s.xlabel);
      ("availabilities", json_floats s.xs);
      ("samples", Json.Int s.samples);
      ("seed", Json.Int s.seed);
      ( "series",
        Json.Arr
          (List.map
             (fun ser ->
               Json.Obj
                 [
                   ("label", Json.Str ser.label);
                   ("responses_s", json_floats ser.responses);
                   ("recalls", json_floats ser.recalls);
                 ])
             s.series) );
    ]

let recovery_to_json s =
  Json.Obj
    [
      ("id", Json.Str s.rid);
      ("title", Json.Str s.rtitle);
      ("xlabel", Json.Str s.rxlabel);
      ("availabilities", json_floats s.rxs);
      ("samples", Json.Int s.rsamples);
      ("seed", Json.Int s.rseed);
      ( "series",
        Json.Arr
          (List.map
             (fun ser ->
               Json.Obj
                 [
                   ("label", Json.Str ser.r_label);
                   ("responses_s", json_floats ser.r_responses);
                   ("recalls", json_floats ser.r_recalls);
                   ("demoted", json_floats ser.r_demoted);
                 ])
             s.rseries) );
    ]

let pp ppf sweep =
  Format.fprintf ppf "@[<v>%s — %s@,(%d samples per level, seed %d)@,@,"
    sweep.id sweep.title sweep.samples sweep.seed;
  Format.fprintf ppf "%-16s" sweep.xlabel;
  Array.iter
    (fun a -> Format.fprintf ppf " %9s" (Printf.sprintf "%.2f" a))
    sweep.xs;
  Format.fprintf ppf "@,";
  List.iter
    (fun ser ->
      Format.fprintf ppf "%-16s" (ser.label ^ " recall");
      Array.iter (fun r -> Format.fprintf ppf " %9.3f" r) ser.recalls;
      Format.fprintf ppf "@,%-16s" (ser.label ^ " response");
      Array.iter (fun r -> Format.fprintf ppf " %8.4fs" r) ser.responses;
      Format.fprintf ppf "@,")
    sweep.series;
  Format.fprintf ppf "@]"

let pp_recovery ppf sweep =
  Format.fprintf ppf "@[<v>%s — %s@,(%d samples per level, seed %d)@,@,"
    sweep.rid sweep.rtitle sweep.rsamples sweep.rseed;
  Format.fprintf ppf "%-20s" sweep.rxlabel;
  Array.iter
    (fun a -> Format.fprintf ppf " %9s" (Printf.sprintf "%.2f" a))
    sweep.rxs;
  Format.fprintf ppf "@,";
  List.iter
    (fun ser ->
      Format.fprintf ppf "%-20s" (ser.r_label ^ " recall");
      Array.iter (fun r -> Format.fprintf ppf " %9.3f" r) ser.r_recalls;
      Format.fprintf ppf "@,%-20s" (ser.r_label ^ " demoted");
      Array.iter (fun d -> Format.fprintf ppf " %9.2f" d) ser.r_demoted;
      Format.fprintf ppf "@,")
    sweep.rseries;
  Format.fprintf ppf "@]"

(* One row per availability level; [columns] names each series' columns and
   reads the row's values. *)
let csv ~xs ~labels ~columns ~row =
  let b = Buffer.create 256 in
  Buffer.add_string b "availability";
  List.iter
    (fun label ->
      List.iter (fun c -> Buffer.add_string b (Printf.sprintf ",%s_%s" label c)) columns)
    labels;
  Buffer.add_char b '\n';
  Array.iteri
    (fun i a ->
      Buffer.add_string b (Printf.sprintf "%g" a);
      List.iter
        (fun vs -> List.iter (fun v -> Buffer.add_string b (Printf.sprintf ",%g" v)) vs)
        (row i);
      Buffer.add_char b '\n')
    xs;
  Buffer.contents b

let to_csv s =
  csv ~xs:s.xs
    ~labels:(List.map (fun ser -> ser.label) s.series)
    ~columns:[ "recall"; "response_s" ]
    ~row:(fun i -> List.map (fun ser -> [ ser.recalls.(i); ser.responses.(i) ]) s.series)

let recovery_to_csv s =
  csv ~xs:s.rxs
    ~labels:(List.map (fun ser -> ser.r_label) s.rseries)
    ~columns:[ "recall"; "demoted"; "response_s" ]
    ~row:(fun i ->
      List.map
        (fun ser -> [ ser.r_recalls.(i); ser.r_demoted.(i); ser.r_responses.(i) ])
        s.rseries)

(* ---- bench sections ---- *)

(* The shape both availability sweeps share: a non-empty grid and, per
   series, arrays of its length ([extra] adds arrays beyond responses and
   recalls). Returns every series' label and recalls. *)
let check_series ~extra c =
  let n = List.length (S.floats c "availabilities") in
  if n = 0 then S.invalid (S.field c "availabilities") "is empty";
  List.map
    (fun ser ->
      ignore (S.floats ~len:n ser "responses_s");
      List.iter (fun (k, range) -> ignore (S.floats ~range ~len:n ser k)) extra;
      (S.str ser "label", S.floats ~range:S.Fraction ~len:n ser "recalls"))
    (S.elements ~nonempty:true (S.field c "series"))

(* Every strategy keeps at least the fail-stop baseline's certain-set
   recall at every availability level: what sound degraded answers buy. *)
let check c =
  let series = check_series ~extra:[] c in
  match List.assoc_opt fail_stop series with
  | None -> ()
  | Some floor ->
      List.iter
        (fun (label, recalls) ->
          List.iteri
            (fun i (r, b) ->
              if r < b -. 1e-9 then
                S.invalid c "%s recall %.3f below fail-stop %.3f at point %d" label r b i)
            (List.combine recalls floor))
        series

let mean_responses c =
  List.filter_map
    (fun ser ->
      match S.floats ser "responses_s" with
      | [] -> None
      | rs -> Some (S.Time (S.str ser "label" ^ " mean response", S.mean rs)))
    (S.elements (S.field c "series"))

let section =
  {
    S.key = "fault_sweep";
    since = 3;
    until = None;
    check;
    bars = [];
    guard = [ "seed"; "samples" ];
    metrics = Some mean_responses;
  }

let recovery_section =
  {
    section with
    S.key = "recovery_sweep";
    since = 4;
    check = (fun c -> ignore (check_series ~extra:[ ("demoted", S.Nonneg) ] c));
  }

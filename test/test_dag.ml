(* The static DAG runner against the discrete-event engine.

   The equivalence property submits one random static graph to both
   runners and compares everything they report, floats by their bits:
   totals, task count, per-label and per-(site, kind) busy time, and the
   trace entries. Durations come from a small set that includes 0, so
   completion events tie often and every tie-breaking rule is exercised;
   the graphs mix resource tasks, transfers (self-transfers included),
   fences and delays, and list some dependencies twice. CI reruns this
   suite under a rotating seed:

     QCHECK_SEED=<seed> dune exec test/main.exe -- test simkit.dag *)

open Msdq_simkit

type op =
  | Task of int * Resource.kind * Time.t
  | Transfer of int * int * Time.t
  | Fence
  | Delay of Time.t

type spec = {
  op : op;
  label : string;
  attrs : (string * string) list;
  deps : int list;  (* indices of earlier tasks, repeats allowed *)
}

let sites = 4

let gen_graph ~max_tasks =
  QCheck.Gen.(
    let duration = oneofl [ 0.0; 0.0; 0.5; 1.0; 2.0; 3.25; 7.0 ] in
    let* n = 1 -- max_tasks in
    flatten_l
      (List.init n (fun i ->
           let* op =
             frequency
               [
                 ( 5,
                   map3
                     (fun s k d -> Task (s, k, d))
                     (0 -- (sites - 1))
                     (oneofl Resource.all_kinds) duration );
                 ( 3,
                   map3
                     (fun s d dur -> Transfer (s, d, dur))
                     (0 -- (sites - 1))
                     (0 -- (sites - 1))
                     duration );
                 (1, return Fence);
                 (1, map (fun d -> Delay d) duration);
               ]
           in
           let* label = oneofl [ "read"; "eval"; "ship"; "check" ] in
           let* attrs =
             oneofl [ []; [ ("phase", "O") ]; [ ("phase", "P"); ("db", "DB1") ] ]
           in
           let* deps =
             if i = 0 then return []
             else
               let* k = 0 -- 3 in
               list_repeat k (0 -- (i - 1))
           in
           return { op; label; attrs; deps })))

let print_graph specs =
  String.concat "\n"
    (List.mapi
       (fun i s ->
         let op =
           match s.op with
           | Task (site, kind, d) ->
             Printf.sprintf "task site%d/%s %g" site (Resource.kind_to_string kind) d
           | Transfer (src, dst, d) -> Printf.sprintf "transfer %d->%d %g" src dst d
           | Fence -> "fence"
           | Delay d -> Printf.sprintf "delay %g" d
         in
         Printf.sprintf "%d: %s %s deps [%s]" i op s.label
           (String.concat ";" (List.map string_of_int s.deps)))
       specs)

let arbitrary_graph = QCheck.make ~print:print_graph (gen_graph ~max_tasks:60)

let engine_run specs =
  let e = Engine.create ~trace:true () in
  let handles = Array.make (List.length specs) None in
  List.iteri
    (fun i { op; label; attrs; deps } ->
      let deps = List.map (fun j -> Option.get handles.(j)) deps in
      let h =
        match op with
        | Task (site, kind, duration) ->
          Engine.task e ~deps ~attrs ~site ~kind ~label ~duration ()
        | Transfer (src, dst, duration) ->
          Engine.transfer e ~deps ~attrs ~src ~dst ~label ~duration ()
        | Fence -> Engine.fence e ~deps ~attrs ~label ()
        | Delay duration -> Engine.delay e ~deps ~attrs ~label ~duration ()
      in
      handles.(i) <- Some h)
    specs;
  Engine.run e;
  (Engine.stats e, Engine.trace e)

let dag_run specs =
  let g = Dag.create () in
  List.iter
    (fun { op; label; attrs; deps } ->
      ignore
        (match op with
        | Task (site, kind, duration) ->
          Dag.task g ~deps ~attrs ~site ~kind ~label ~duration ()
        | Transfer (src, dst, duration) ->
          Dag.transfer g ~deps ~attrs ~src ~dst ~label ~duration ()
        | Fence -> Dag.fence g ~deps ~attrs ~label ()
        | Delay duration -> Dag.delay g ~deps ~attrs ~label ~duration ()))
    specs;
  let totals = Dag.run g in
  (totals, Dag.stats g, Dag.trace g)

(* Everything a run reports, floats in hex so equal text means equal bits. *)
let render st tr =
  let b = Buffer.create 1024 in
  Printf.bprintf b "total %h makespan %h tasks %d\n" (Stats.total_busy st)
    (Stats.makespan st) (Stats.task_count st);
  List.iter
    (fun (label, busy, count) -> Printf.bprintf b "label %s %h %d\n" label busy count)
    (Stats.by_label st);
  for site = 0 to sites - 1 do
    List.iter
      (fun kind ->
        Printf.bprintf b "busy site%d/%s %h\n" site (Resource.kind_to_string kind)
          (Stats.busy_of st ~site ~kind))
      Resource.all_kinds
  done;
  List.iter
    (fun (e : Trace.entry) ->
      Printf.bprintf b "#%d %s %s [%h .. %h] deps [%s] attrs [%s]\n" e.tid e.label
        (match (e.site, e.kind) with
        | Some s, Some k -> Printf.sprintf "site%d/%s" s (Resource.kind_to_string k)
        | _ -> "fence")
        e.start e.finish
        (String.concat ";" (List.map string_of_int e.deps))
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) e.attrs)))
    (Trace.entries tr);
  Buffer.contents b

let equivalent specs =
  let engine_stats, engine_trace = engine_run specs in
  let engine = render engine_stats engine_trace in
  let totals, st, tr = dag_run specs in
  let dag = render st tr in
  if not (String.equal engine dag) then
    QCheck.Test.fail_reportf "Engine:\n%s\nDag:\n%s" engine dag;
  Int64.equal
    (Int64.bits_of_float totals.Dag.total_busy)
    (Int64.bits_of_float (Stats.total_busy st))
  && Int64.equal
       (Int64.bits_of_float totals.Dag.makespan)
       (Int64.bits_of_float (Stats.makespan st))

let prop_equivalent =
  QCheck.Test.make ~name:"Dag schedules static graphs exactly as Engine" ~count:500
    arbitrary_graph equivalent

(* Graphs past the runner's initial capacity, so its arrays grow. *)
let test_large_graphs () =
  let rand = Random.State.make [| 1996 |] in
  for _ = 1 to 10 do
    let specs = QCheck.Gen.generate1 ~rand (gen_graph ~max_tasks:300) in
    Alcotest.(check bool) "Dag matches Engine" true (equivalent specs)
  done

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_invalid_arguments () =
  let g = Dag.create () in
  let task duration () =
    Dag.task g ~site:0 ~kind:Resource.Cpu ~label:"bad" ~duration ()
  in
  Alcotest.(check bool) "negative duration" true (raises (task (-1.0)));
  Alcotest.(check bool) "nan duration" true (raises (task Float.nan));
  Alcotest.(check bool) "infinite duration" true (raises (task Float.infinity));
  Alcotest.(check bool) "negative delay" true
    (raises (fun () -> Dag.delay g ~label:"bad" ~duration:(-1.0) ()));
  Alcotest.(check bool) "negative site" true
    (raises (fun () ->
         Dag.task g ~site:(-1) ~kind:Resource.Cpu ~label:"bad" ~duration:1.0 ()));
  Alcotest.(check bool) "unknown dependency" true
    (raises (fun () -> Dag.fence g ~deps:[ 0 ] ~label:"bad" ()));
  Alcotest.(check bool) "stats before run" true (raises (fun () -> Dag.stats g));
  (* A rejected task leaves no trace in the graph. *)
  let a = Dag.fence g ~label:"a" () in
  Alcotest.(check bool) "one unknown dependency among known ones" true
    (raises (fun () -> Dag.fence g ~deps:[ a; 7 ] ~label:"bad" ()));
  let b = Dag.fence g ~label:"b" () in
  ignore (Dag.run g);
  Alcotest.(check (list (pair int (list int))))
    "only the accepted tasks, with their own dependencies"
    [ (a, []); (b, []) ]
    (List.map (fun (e : Trace.entry) -> (e.tid, e.deps)) (Trace.entries (Dag.trace g)))

let test_runs_once () =
  let g = Dag.create () in
  let a = Dag.task g ~site:0 ~kind:Resource.Disk ~label:"a" ~duration:2.0 () in
  let self = Dag.transfer g ~deps:[ a ] ~src:1 ~dst:1 ~label:"local" ~duration:9.0 () in
  let totals = Dag.run g in
  Alcotest.(check (float 0.0)) "a self-transfer costs nothing" 2.0 totals.Dag.makespan;
  Alcotest.(check (float 0.0)) "busy counts the read only" 2.0 totals.Dag.total_busy;
  Alcotest.(check (list int)) "the self-transfer waited for its dependency"
    [ a; self ]
    (List.map (fun (e : Trace.entry) -> e.tid) (Trace.entries (Dag.trace g)));
  Alcotest.(check bool) "second run" true (raises (fun () -> Dag.run g));
  Alcotest.(check bool) "task after run" true
    (raises (fun () -> Dag.fence g ~label:"late" ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equivalent;
    Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_arguments;
    Alcotest.test_case "a graph runs once" `Quick test_runs_once;
    Alcotest.test_case "graphs past the initial capacity" `Quick test_large_graphs;
  ]

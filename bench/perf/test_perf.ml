(* Tests of the benchmark itself: its statistics, its span arithmetic, its
   metric names against BENCHMARK.json, and its failure accounting. *)

open Perf
module Json = Msdq_obs.Json

let check_float = Alcotest.(check (float 1e-9))

let percentile () =
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let same = Alcotest.(check (pair (float 0.0) int)) in
  same "p90 of 1..100" (90.0, 10) (Stats.percentile hundred 90.0);
  same "p50 of 1..100" (50.0, 50) (Stats.percentile hundred 50.0);
  same "p100 of 1..100" (100.0, 0) (Stats.percentile hundred 100.0);
  same "p90 of 1..99 has 9 beyond" (90.0, 9) (Stats.percentile (Array.sub hundred 0 99) 90.0);
  same "one sample" (7.0, 0) (Stats.percentile [| 7.0 |] 90.0);
  check_float "median sorts" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "p out of range" (Invalid_argument "Stats.percentile: p not in (0, 100]")
    (fun () -> ignore (Stats.percentile hundred 0.0))

(* op [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]. *)
let self_time () =
  let ticks = ref [ 0.0; 1.0; 4.0; 5.0; 6.0; 7.0; 9.0; 10.0 ] in
  let clock () =
    match !ticks with
    | t :: rest ->
      ticks := rest;
      t
    | [] -> Alcotest.fail "clock read too often"
  in
  let sp = Spans.create ~clock () in
  Spans.span sp "op" (fun () ->
      Spans.span sp "a" ignore;
      Spans.span sp "b" (fun () -> Spans.span sp "c" ignore));
  List.iter
    (fun (name, self) -> check_float ("live self time of " ^ name) self (Spans.self sp name))
    [ ("op", 3.0); ("a", 3.0); ("b", 3.0); ("c", 1.0) ];
  check_float "duration" 10.0 (Spans.dur sp "op");
  Alcotest.(check (list (pair string int))) "parents" [ ("a", 0); ("c", 2); ("b", 0); ("op", -1) ]
    (List.map (fun (s : Spans.span) -> (s.Spans.name, s.Spans.parent)) (Spans.kept sp));
  let sp = Spans.create () in
  (try Spans.span sp "x" (fun () -> failwith "boom") with Failure _ -> ());
  Spans.span sp "y" ignore;
  Alcotest.(check (list int)) "an exception still closes its span" [ -1; -1 ]
    (List.map (fun (s : Spans.span) -> s.Spans.parent) (Spans.kept sp))

let name_ok name =
  String.length name <= 64
  && name <> ""
  && (match name.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let declared section =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  | Ok j ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> (n, u)
        | _ -> Alcotest.fail "metric without name or unit")
      (Option.get (Option.bind (Json.member section j) Json.to_list))

let name_rule () =
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (name_ok n)) [ "ops_per_s"; "gc.minor_mb_per_op"; "paper-q1" ];
  List.iter (fun n -> Alcotest.(check bool) ("invalid name " ^ n) false (name_ok n)) [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun (n, _) -> Alcotest.(check bool) ("declared name " ^ n) true (name_ok n))
    (declared "end_to_end" @ declared "per_layer" @ List.map (fun (w, _) -> (w, "")) Workloads.all)

(* Every workload in both modes: every declared metric with its unit,
   finite, and no failed op. Set-up runs and checks every op; the runs
   measure the first 10, to keep the test short. *)
let every_workload () =
  let metric_names (r : Runner.result) = List.map (fun (n, _, u) -> (n, u)) r.Runner.metrics in
  List.iter
    (fun (w, _) ->
      let p = Runner.prepare w ~seed:3 in
      let k = min 10 (Array.length p.Runner.ops) in
      let p = { p with Runner.ops = Array.sub p.Runner.ops 0 k; references = Array.sub p.Runner.references 0 k } in
      let plain = Runner.measure p ~seconds:0.2 ~setup_s:0.1 in
      let traced = Runner.traced p ~seconds:0.2 in
      List.iter
        (fun (section, (r : Runner.result)) ->
          Alcotest.(check (list (pair string string))) (w ^ " reports the " ^ section ^ " metrics")
            (declared section) (metric_names r);
          Alcotest.(check int) (w ^ " has no failed op") 0 r.Runner.failed;
          Alcotest.(check bool) (w ^ " attempted ops") true (r.Runner.attempted > 0);
          List.iter
            (fun (n, v, _) -> Alcotest.(check bool) (w ^ " " ^ n ^ " is finite") true (Float.is_finite v))
            r.Runner.metrics)
        [ ("end_to_end", plain); ("per_layer", traced) ])
    Workloads.all

let failures_counted () =
  let p = Runner.prepare "paper-q1" ~seed:1 in
  p.Runner.references.(0) <- "corrupted";
  let r = Runner.measure p ~seconds:0.05 ~setup_s:0.0 in
  Alcotest.(check bool) "a corrupted reference fails its op" true (r.Runner.failed > 0);
  Alcotest.(check bool) "the run goes on" true (r.Runner.attempted > r.Runner.failed);
  let boom =
    {
      Runner.ops = [| { Workloads.label = "boom"; run = (fun _ -> failwith "boom"); replay = ignore } |];
      references = [| "" |];
      sim_response_ms = 0.0;
      sim_total_ms = 0.0;
    }
  in
  let r = Runner.measure boom ~seconds:0.01 ~setup_s:0.0 in
  Alcotest.(check bool) "an exception fails its op" true (r.Runner.failed = r.Runner.attempted && r.Runner.failed > 0)

let () =
  Alcotest.run "perf"
    [
      ( "bench",
        [
          Alcotest.test_case "percentile and samples beyond" `Quick percentile;
          Alcotest.test_case "self-time arithmetic" `Quick self_time;
          Alcotest.test_case "metric-name rule" `Quick name_rule;
          Alcotest.test_case "every workload reports every metric" `Quick every_workload;
          Alcotest.test_case "failure accounting" `Quick failures_counted;
        ] );
    ]

open Msdq_simkit

let check_time = Alcotest.(check (float 1e-6))

(* A single task occupies its resource for its duration. *)
let test_single_task () =
  let e = Engine.create () in
  let t = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"work" ~duration:(Time.us 10.0) () in
  Engine.run e;
  Alcotest.(check bool) "finished" true (Engine.finished e t);
  check_time "finish time" 10.0 (Time.to_us (Engine.finish_time e t));
  check_time "total" 10.0 (Time.to_us (Stats.total_busy (Engine.stats e)));
  check_time "makespan" 10.0 (Time.to_us (Stats.makespan (Engine.stats e)))

(* Tasks on the same resource serialize; on different resources they overlap. *)
let test_serialization () =
  let e = Engine.create () in
  let _ = Engine.task e ~site:0 ~kind:Resource.Disk ~label:"a" ~duration:(Time.us 5.0) () in
  let b = Engine.task e ~site:0 ~kind:Resource.Disk ~label:"b" ~duration:(Time.us 5.0) () in
  let c = Engine.task e ~site:1 ~kind:Resource.Disk ~label:"c" ~duration:(Time.us 5.0) () in
  Engine.run e;
  check_time "same disk serializes" 10.0 (Time.to_us (Engine.finish_time e b));
  check_time "other site overlaps" 5.0 (Time.to_us (Engine.finish_time e c));
  check_time "total sums all work" 15.0 (Time.to_us (Stats.total_busy (Engine.stats e)));
  check_time "makespan is critical path" 10.0 (Time.to_us (Stats.makespan (Engine.stats e)))

(* Dependencies delay eligibility. *)
let test_dependencies () =
  let e = Engine.create () in
  let a = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"a" ~duration:(Time.us 4.0) () in
  let b = Engine.task e ~site:1 ~kind:Resource.Cpu ~label:"b" ~duration:(Time.us 6.0) () in
  let c =
    Engine.task e ~deps:[ a; b ] ~site:2 ~kind:Resource.Cpu ~label:"c"
      ~duration:(Time.us 1.0) ()
  in
  Engine.run e;
  check_time "starts after slowest dep" 7.0 (Time.to_us (Engine.finish_time e c))

(* Completion callbacks run at completion time and may submit more tasks. *)
let test_dynamic_submission () =
  let e = Engine.create () in
  let second_finish = ref Time.zero in
  let _ =
    Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"first" ~duration:(Time.us 3.0)
      ~on_complete:(fun () ->
        let _ =
          Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"second"
            ~duration:(Time.us 2.0)
            ~on_complete:(fun () -> second_finish := Engine.now e)
            ()
        in
        ())
      ()
  in
  Engine.run e;
  check_time "chained task time" 5.0 (Time.to_us !second_finish)

(* Transfers into the same site serialize on the incoming link: the paper's
   contention effect at the global processing site. *)
let test_link_contention () =
  let e = Engine.create () in
  let t1 = Engine.transfer e ~src:1 ~dst:0 ~label:"t1" ~duration:(Time.us 8.0) () in
  let t2 = Engine.transfer e ~src:2 ~dst:0 ~label:"t2" ~duration:(Time.us 8.0) () in
  let t3 = Engine.transfer e ~src:3 ~dst:9 ~label:"t3" ~duration:(Time.us 8.0) () in
  Engine.run e;
  check_time "first transfer" 8.0 (Time.to_us (Engine.finish_time e t1));
  check_time "second queues behind first" 16.0 (Time.to_us (Engine.finish_time e t2));
  check_time "other destination unaffected" 8.0 (Time.to_us (Engine.finish_time e t3))

(* A local transfer (src = dst) is free: local data never crosses the wire. *)
let test_local_transfer_free () =
  let e = Engine.create () in
  let t = Engine.transfer e ~src:0 ~dst:0 ~label:"local" ~duration:(Time.us 100.0) () in
  Engine.run e;
  check_time "free" 0.0 (Time.to_us (Engine.finish_time e t));
  check_time "no busy time" 0.0 (Time.to_us (Stats.total_busy (Engine.stats e)))

(* Fences synchronize without consuming resources; delays add pure latency. *)
let test_fence_and_delay () =
  let e = Engine.create () in
  let a = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"a" ~duration:(Time.us 2.0) () in
  let f = Engine.fence e ~deps:[ a ] ~label:"sync" () in
  let d = Engine.delay e ~deps:[ f ] ~label:"wait" ~duration:(Time.us 7.0) () in
  Engine.run e;
  check_time "fence at dep" 2.0 (Time.to_us (Engine.finish_time e f));
  check_time "delay adds latency" 9.0 (Time.to_us (Engine.finish_time e d));
  check_time "no resource time charged" 2.0 (Time.to_us (Stats.total_busy (Engine.stats e)))

(* Submitting after run keeps the clock monotone. *)
let test_rerun () =
  let e = Engine.create () in
  let _ = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"a" ~duration:(Time.us 5.0) () in
  Engine.run e;
  let b = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"b" ~duration:(Time.us 5.0) () in
  Engine.run e;
  check_time "second run continues clock" 10.0 (Time.to_us (Engine.finish_time e b))

let test_invalid_duration () =
  let e = Engine.create () in
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"bad" ~duration:(-1.0) ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan rejected" true
    (try
       ignore (Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"bad" ~duration:Float.nan ());
       false
     with Invalid_argument _ -> true)

(* The remaining invalid arguments raise before anything is recorded: a
   site indexes the engine's resource arrays, so a negative one is
   refused. *)
let test_invalid_arguments () =
  let e = Engine.create ~trace:true () in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "infinite duration" true
    (raises (fun () ->
         Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"bad" ~duration:Float.infinity ()));
  Alcotest.(check bool) "negative delay" true
    (raises (fun () -> Engine.delay e ~label:"bad" ~duration:(-1.0) ()));
  Alcotest.(check bool) "negative site" true
    (raises (fun () ->
         Engine.task e ~site:(-1) ~kind:Resource.Cpu ~label:"bad" ~duration:1.0 ()));
  Alcotest.(check bool) "transfer into a negative site" true
    (raises (fun () -> Engine.transfer e ~src:0 ~dst:(-1) ~label:"bad" ~duration:1.0 ()));
  Alcotest.(check bool) "speed of a negative site" true
    (raises (fun () -> Engine.set_speed e ~site:(-1) ~kind:Resource.Cpu ~factor:2.0));
  ignore (Engine.fence e ~label:"ok" ());
  Engine.run e;
  Alcotest.(check (list string)) "only the accepted task ran" [ "ok" ]
    (List.map (fun (x : Trace.entry) -> x.label) (Trace.entries (Engine.trace e)))

let test_stats_breakdown () =
  let e = Engine.create () in
  let _ = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"eval" ~duration:(Time.us 4.0) () in
  let _ = Engine.task e ~site:0 ~kind:Resource.Disk ~label:"read" ~duration:(Time.us 6.0) () in
  let _ = Engine.task e ~site:1 ~kind:Resource.Cpu ~label:"eval" ~duration:(Time.us 2.0) () in
  Engine.run e;
  let st = Engine.stats e in
  check_time "site 0 busy" 10.0 (Time.to_us (Stats.busy_of_site st 0));
  check_time "cpu busy" 6.0 (Time.to_us (Stats.busy_of_kind st Resource.Cpu));
  check_time "cell" 4.0 (Time.to_us (Stats.busy_of st ~site:0 ~kind:Resource.Cpu));
  (match Stats.by_label st with
  | (top_label, top_busy, _) :: _ ->
    Alcotest.(check string) "largest label" "eval" top_label;
    check_time "label busy" 6.0 (Time.to_us top_busy)
  | [] -> Alcotest.fail "no labels");
  Alcotest.(check int) "task count" 3 (Stats.task_count st)

let test_trace () =
  let e = Engine.create ~trace:true () in
  let _ = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"a" ~duration:(Time.us 1.0) () in
  let _ = Engine.fence e ~label:"f" () in
  Engine.run e;
  let entries = Trace.entries (Engine.trace e) in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  Alcotest.(check bool) "renders" true
    (String.length (Format.asprintf "%a" Trace.pp (Engine.trace e)) > 0)

(* A drained queue with unfinished tasks raises Stuck, and each entry names
   the stuck task, its site and the unmet dependencies (or the unresolved
   promise) it is awaiting — the culprit, not just the victim. *)
let test_stuck_diagnostics () =
  let e = Engine.create () in
  let p = Engine.promise e ~label:"never" in
  let _ =
    Engine.task e ~deps:[ p ] ~site:1 ~kind:Resource.Cpu ~label:"work"
      ~duration:(Time.us 5.0) ()
  in
  match Engine.run e with
  | () -> Alcotest.fail "expected Stuck"
  | exception Engine.Stuck entries ->
    Alcotest.(check (list string))
      "each stuck task names its site and unmet dependencies"
      [
        "never (fence): promise never resolved";
        "work (site 1 cpu): awaiting never (fence)";
      ]
      entries

let test_stuck_names_failed_chain () =
  let e = Engine.create () in
  let a =
    Engine.task e ~site:2 ~kind:Resource.Disk ~label:"read" ~duration:(Time.us 1.0) ()
  in
  let p = Engine.promise e ~label:"settled" in
  let _ = Engine.fence e ~deps:[ a; p ] ~label:"collect" () in
  match Engine.run e with
  | () -> Alcotest.fail "expected Stuck"
  | exception Engine.Stuck entries ->
    Alcotest.(check (list string))
      "finished dependencies are not listed as unmet"
      [
        "settled (fence): promise never resolved";
        "collect (fence): awaiting settled (fence)";
      ]
      entries

(* The failable-task API: a judged transfer completes Dropped at its
   would-be finish time; untouched transfers complete Delivered. *)
let test_judge_outcomes () =
  let e = Engine.create () in
  Engine.set_judge e (fun ~site:_ ~kind:_ ~src:_ ~label ~start:_ ~duration ->
      if String.equal label "doomed" then
        Some { Engine.fault_duration = duration; fault_drop = Some "lossy" }
      else None);
  let doomed_outcome = ref None and ok_outcome = ref None in
  let d =
    Engine.transfer e ~src:1 ~dst:0 ~label:"doomed" ~duration:(Time.us 8.0)
      ~on_outcome:(fun o -> doomed_outcome := Some o)
      ()
  in
  let ok =
    Engine.transfer e ~src:2 ~dst:3 ~label:"fine" ~duration:(Time.us 4.0)
      ~on_outcome:(fun o -> ok_outcome := Some o)
      ()
  in
  Engine.run e;
  Alcotest.(check bool) "dropped outcome" true
    (!doomed_outcome = Some (Engine.Dropped "lossy"));
  Alcotest.(check bool) "delivered outcome" true (!ok_outcome = Some Engine.Delivered);
  check_time "doomed still occupies the link until its finish" 8.0
    (Time.to_us (Engine.finish_time e d));
  check_time "unjudged transfer unaffected" 4.0 (Time.to_us (Engine.finish_time e ok))

let test_judge_inflation () =
  let e = Engine.create () in
  Engine.set_judge e (fun ~site:_ ~kind ~src:_ ~label:_ ~start:_ ~duration ->
      if kind = Resource.Link then
        Some { Engine.fault_duration = Time.us (2.5 *. Time.to_us duration); fault_drop = None }
      else None);
  let t = Engine.transfer e ~src:1 ~dst:0 ~label:"t" ~duration:(Time.us 10.0) () in
  let c = Engine.task e ~site:0 ~kind:Resource.Cpu ~label:"c" ~duration:(Time.us 10.0) () in
  Engine.run e;
  check_time "link stretched" 25.0 (Time.to_us (Engine.finish_time e t));
  check_time "cpu untouched" 10.0 (Time.to_us (Engine.finish_time e c));
  Alcotest.(check bool) "stretched transfer still delivers" true
    (Engine.outcome_of e t = Engine.Delivered)

(* Response time never exceeds total execution time (with >= 1 task). *)
let prop_response_le_total =
  QCheck.Test.make ~name:"makespan <= total busy time" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 3) (float_bound_inclusive 50.0)))
    (fun specs ->
      let e = Engine.create () in
      List.iter
        (fun (site, d) ->
          ignore (Engine.task e ~site ~kind:Resource.Cpu ~label:"w" ~duration:d ()))
        specs;
      Engine.run e;
      let st = Engine.stats e in
      Time.compare (Stats.makespan st) (Stats.total_busy st) <= 0)

(* Determinism: same submissions yield identical stats. *)
let prop_deterministic =
  QCheck.Test.make ~name:"identical runs are identical" ~count:50
    QCheck.(list_of_size Gen.(1 -- 15) (pair (int_bound 2) (float_bound_inclusive 20.0)))
    (fun specs ->
      let run_once () =
        let e = Engine.create () in
        List.iter
          (fun (site, d) ->
            ignore
              (Engine.task e ~site ~kind:Resource.Disk ~label:"w" ~duration:d ()))
          specs;
        Engine.run e;
        let st = Engine.stats e in
        (Stats.total_busy st, Stats.makespan st)
      in
      run_once () = run_once ())

(* A disabled trace must never even build its entries: the recording path
   goes through Trace.addf, whose thunk only runs when tracing is on. *)
let test_trace_addf_lazy () =
  let entry () =
    {
      Trace.tid = 0;
      label = "x";
      site = None;
      kind = None;
      start = Time.zero;
      finish = Time.zero;
      deps = [];
      attrs = [];
    }
  in
  let calls = ref 0 in
  let off = Trace.create ~enabled:false in
  Trace.addf off (fun () ->
      incr calls;
      entry ());
  Alcotest.(check int) "thunk skipped when disabled" 0 !calls;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.entries off));
  let on = Trace.create ~enabled:true in
  Trace.addf on (fun () ->
      incr calls;
      entry ());
  Alcotest.(check int) "thunk ran when enabled" 1 !calls;
  Alcotest.(check int) "recorded" 1 (List.length (Trace.entries on))

(* Task attrs flow into the trace entries; an untraced engine records none. *)
let test_task_attrs () =
  let e = Engine.create ~trace:true () in
  ignore
    (Engine.task e ~site:1 ~kind:Resource.Cpu ~label:"work"
       ~attrs:[ ("strategy", "BL"); ("phase", "P") ]
       ~duration:(Time.us 5.0) ());
  Engine.run e;
  (match Trace.entries (Engine.trace e) with
  | [ entry ] ->
    Alcotest.(check (option string)) "strategy attr" (Some "BL")
      (List.assoc_opt "strategy" entry.Trace.attrs);
    Alcotest.(check (option string)) "phase attr" (Some "P")
      (List.assoc_opt "phase" entry.Trace.attrs)
  | entries -> Alcotest.failf "expected 1 entry, got %d" (List.length entries));
  let off = Engine.create () in
  ignore
    (Engine.task off ~site:1 ~kind:Resource.Cpu ~label:"work"
       ~attrs:[ ("strategy", "BL") ]
       ~duration:(Time.us 5.0) ());
  Engine.run off;
  Alcotest.(check int) "untraced engine records nothing" 0
    (List.length (Trace.entries (Engine.trace off)))

let suite =
  [
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "trace addf is lazy" `Quick test_trace_addf_lazy;
    Alcotest.test_case "task attrs in trace" `Quick test_task_attrs;
    Alcotest.test_case "resource serialization" `Quick test_serialization;
    Alcotest.test_case "dependencies" `Quick test_dependencies;
    Alcotest.test_case "dynamic submission" `Quick test_dynamic_submission;
    Alcotest.test_case "link contention" `Quick test_link_contention;
    Alcotest.test_case "local transfer is free" `Quick test_local_transfer_free;
    Alcotest.test_case "fence and delay" `Quick test_fence_and_delay;
    Alcotest.test_case "re-run continues clock" `Quick test_rerun;
    Alcotest.test_case "invalid durations rejected" `Quick test_invalid_duration;
    Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_arguments;
    Alcotest.test_case "stats breakdown" `Quick test_stats_breakdown;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "stuck diagnostics" `Quick test_stuck_diagnostics;
    Alcotest.test_case "stuck skips finished deps" `Quick test_stuck_names_failed_chain;
    Alcotest.test_case "judge outcomes" `Quick test_judge_outcomes;
    Alcotest.test_case "judge inflation" `Quick test_judge_inflation;
    QCheck_alcotest.to_alcotest prop_response_le_total;
    QCheck_alcotest.to_alcotest prop_deterministic;
  ]

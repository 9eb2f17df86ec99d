(* Set-up, the closed measurement loop, the traced run, and the metrics each
   reports. One process, one domain: the next op starts when the previous
   one has finished. *)

type prepared = {
  ops : Workloads.op array;
  references : string array;  (** the digest each op must reproduce *)
  sim_response_ms : float;  (** mean over one cycle of ops *)
  sim_total_ms : float;
}

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  report : string;  (** human-readable summary *)
}

let now = Spans.now

(* Inputs, reference answers and a warm-up pass over every distinct op;
   the warm-up digests become the references, after matching any reference
   the workload knows independently. *)
let prepare name ~seed =
  let setup =
    match List.assoc_opt name Workloads.all with
    | Some f -> f
    | None -> invalid_arg ("unknown workload " ^ name)
  in
  let w = setup ~seed in
  let sp = Spans.create ~keep:0 () in
  let references =
    Array.mapi
      (fun i (op : Workloads.op) ->
        match (op.Workloads.run sp (), w.Workloads.expected.(i)) with
        | Error e, _ -> failwith (Printf.sprintf "setup: %s: %s" op.Workloads.label e)
        | Ok d, Some r when d <> r ->
          failwith (Printf.sprintf "setup: %s does not match its reference" op.Workloads.label)
        | Ok d, _ -> d)
      w.Workloads.ops
  in
  let per_op name = Spans.counted sp name /. float_of_int (Array.length references) in
  {
    ops = w.Workloads.ops;
    references;
    sim_response_ms = per_op "sim.response_ms";
    sim_total_ms = per_op "sim.total_ms";
  }

(* Set up at least 3 times, and until a second has gone by, each time from
   a heap collected after dropping the previous set-up; the median time is
   [setup_s], and the last set-up is the one measured. *)
let setup name ~seed =
  let times = ref [] and last = ref None and spent = ref 0.0 in
  while List.length !times < 3 || (!spent < 1.0 && List.length !times < 100) do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    last := Some (prepare name ~seed);
    let dt = now () -. t0 in
    times := dt :: !times;
    spent := !spent +. dt
  done;
  (Option.get !last, Stats.median (Array.of_list !times))

(* Growable sample buffer, kept off the OCaml heap so that [heap_peak_mb]
   measures the libraries, not the benchmark's bookkeeping. *)
type samples = { mutable data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable len : int }

let samples () = { data = Bigarray.(Array1.create float64 c_layout 4096); len = 0 }

let push s x =
  let open Bigarray in
  if s.len = Array1.dim s.data then begin
    let d = Array1.create float64 c_layout (2 * s.len) in
    Array1.blit s.data (Array1.sub d 0 s.len);
    s.data <- d
  end;
  Array1.set s.data s.len x;
  s.len <- s.len + 1

let sorted s = Stats.sorted_copy (Array.init s.len (Bigarray.Array1.get s.data))

(* A run whose every op failed has no latency samples. *)
let pct sorted p = if Array.length sorted = 0 then (0.0, 0) else Stats.percentile sorted p

let first_error = ref None

let failure label why =
  if !first_error = None then first_error := Some (label ^ ": " ^ why);
  false

(* One op: its time, and whether its check passed. An exception in the op
   or its check fails the op without stopping the run. *)
let exec p sp i =
  let op = p.ops.(i) in
  let t0 = now () in
  match Spans.span sp "op" (fun () -> op.Workloads.run sp) with
  | exception e -> (now () -. t0, failure op.Workloads.label (Printexc.to_string e))
  | check ->
    let dt = now () -. t0 in
    let ok =
      match check () with
      | Ok d when String.equal d p.references.(i) -> true
      | Ok _ -> failure op.Workloads.label "output differs from the reference"
      | Error e -> failure op.Workloads.label e
      | exception e -> failure op.Workloads.label (Printexc.to_string e)
    in
    (dt, ok)

(* Ops in cycle order until [seconds] have passed, and at least one full
   cycle, so every distinct op is measured. *)
let loop p ~seconds body =
  let n = Array.length p.ops in
  let t0 = now () in
  let k = ref 0 in
  while !k < n || now () -. t0 < seconds do
    body !k (!k mod n);
    incr k
  done

let ms x = x *. 1e3
let ratio a b = if b = 0.0 then 0.0 else a /. b

let measure p ~seconds ~setup_s =
  let lat = samples () and attempted = ref 0 and failed = ref 0 in
  loop p ~seconds (fun _ i ->
      let dt, ok = exec p Spans.off i in
      incr attempted;
      if ok then push lat dt else incr failed);
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let s = sorted lat in
  let p50, _ = pct s 50.0 and p90, beyond = pct s 90.0 in
  let busy = Array.fold_left ( +. ) 0.0 s in
  let metrics =
    [
      ("ops_per_s", ratio (float_of_int lat.len) busy, "ops/s");
      ("op_ms_p50", ms p50, "ms");
      ("op_ms_p90", ms p90, "ms");
      ("setup_s", setup_s, "s");
      ("heap_peak_mb", heap_mb, "MiB");
    ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    report =
      Printf.sprintf "%d ops (%d failed); p50 %.3f ms, p90 %.3f ms with %d samples beyond it"
        !attempted !failed (ms p50) (ms p90) beyond;
  }

(* Layers whose public call the traced op makes directly, and whose
   internals the replay re-enacts: their self time is their span minus the
   replayed layers. *)
let inner = [ "strategy"; "serve"; "figures" ]

(* Each step of the traced run makes the op twice: untraced (for the
   tracing overhead and the GC rates) and traced, with the replay between
   them, so the replay and the traced op alternate which goes first, and so
   do the traced and untraced op. A failed replay fails the traced op.
   Times cover every traced op; counts cover exactly the first cycle, so
   they repeat exactly from run to run. *)
let traced ?trace_out p ~seconds =
  let n = Array.length p.ops in
  let sp = Spans.create () in
  let plain = samples () and traced_t = samples () in
  let attempted = ref 0 and failed = ref 0 and cycle_counts = ref (Hashtbl.create 0) in
  let minor = ref 0.0 and promoted = ref 0.0 and majors = ref 0 in
  let record samples (dt, ok) =
    incr attempted;
    if ok then push samples dt else incr failed
  in
  loop p ~seconds (fun k i ->
      let untraced () =
        let m0, p0, _ = Gc.counters () and c0 = (Gc.quick_stat ()).Gc.major_collections in
        record plain (exec p Spans.off i);
        let m1, p1, _ = Gc.counters () and c1 = (Gc.quick_stat ()).Gc.major_collections in
        minor := !minor +. (m1 -. m0);
        promoted := !promoted +. (p1 -. p0);
        majors := !majors + (c1 - c0)
      in
      let replay () =
        match Spans.span sp "replay" (fun () -> p.ops.(i).Workloads.replay sp) with
        | () -> true
        | exception e -> failure p.ops.(i).Workloads.label ("replay: " ^ Printexc.to_string e)
      in
      Spans.set_op sp k;
      if k mod 2 = 0 then begin
        untraced ();
        let replayed = replay () in
        let dt, ok = exec p sp i in
        record traced_t (dt, ok && replayed)
      end
      else begin
        let dt, ok = exec p sp i in
        let replayed = replay () in
        record traced_t (dt, ok && replayed);
        untraced ()
      end;
      if k = n - 1 then cycle_counts := Hashtbl.copy sp.Spans.counts);
  let nt = float_of_int (Spans.calls sp "op") and cyc = float_of_int n in
  let us x = x *. 1e6 in
  let dur = Spans.dur sp and all = Spans.counted sp in
  let c name = Option.value ~default:0.0 (Hashtbl.find_opt !cycle_counts name) in
  let d_op = dur "op" in
  let replayed = dur "replay" -. Spans.self sp "replay" in
  let self_of name = if dur name > 0.0 then Float.max 0.0 (dur name -. replayed) else 0.0 in
  let accounted =
    dur "op" -. Spans.self sp "op"
    +. List.fold_left (fun acc l -> acc -. dur l +. self_of l) 0.0 inner
    +. replayed
  in
  let per_op name = us (dur name) /. nt and share x = ratio x d_op in
  let layer name = [ (name ^ ".us_per_op", per_op name, "us"); (name ^ ".share", share (dur name), "ratio") ] in
  let mib_per_op words = ratio (words *. float_of_int (Sys.word_size / 8) /. 1048576.0) (float_of_int plain.len) in
  let metrics =
    [
      ("query.parse_us", per_op "query.parse", "us");
      ("query.analyze_us", per_op "query.analyze", "us");
      ("query.localize_us", per_op "query.localize", "us");
      ("query.share", share (dur "query.parse" +. dur "query.analyze" +. dur "query.localize"), "ratio");
      ("report.us", per_op "report", "us");
      ("report.share", share (dur "report"), "ratio");
    ]
    @ layer "local_eval"
    @ [
        ("local_eval.objects_per_s", ratio (all "local_eval.examined") (dur "local_eval"), "objects/s");
        ("local_eval.kept_ratio", ratio (c "local_eval.rows") (c "local_eval.examined"), "ratio");
      ]
    @ layer "probe" @ layer "sig_catalog"
    @ [
        ("checks.build_us", per_op "checks.build", "us");
        ("checks.serve_us", per_op "checks.serve", "us");
        ("checks.share", share (dur "checks.build" +. dur "checks.serve"), "ratio");
        ("checks.requests_per_op", c "checks.requests" /. cyc, "requests/op");
        ( "checks.filtered_ratio",
          ratio (c "checks.filtered") (c "checks.requests" +. c "checks.filtered"),
          "ratio" );
      ]
    @ layer "certify"
    @ [
        ("certify.rows_per_s", ratio (all "certify.rows") (dur "certify"), "rows/s");
        ("certify.promoted_ratio", ratio (c "certify.promoted") (c "certify.rows"), "ratio");
      ]
    @ layer "ca"
    @ [
        ("ca.entities_per_s", ratio (all "ca.entities") (dur "ca"), "entities/s");
        ("strategy.self_us", us (self_of "strategy") /. nt, "us");
        ("strategy.share", share (self_of "strategy"), "ratio");
        ("strategy.tasks_per_op", c "strategy.tasks" /. cyc, "tasks/op");
        ("strategy.self_us_per_task", ratio (us (self_of "strategy")) (all "strategy.tasks"), "us");
        ("fault.drops_per_op", c "fault.drops" /. cyc, "count/op");
        ("fault.retries_per_op", c "fault.retries" /. cyc, "count/op");
        ("fault.abandoned_per_op", c "fault.abandoned" /. cyc, "count/op");
        ("fault.recovered_per_op", c "fault.recovered" /. cyc, "count/op");
        ("fault.demoted_ratio", ratio (c "fault.demoted") (c "fault.certain_fault_free"), "ratio");
        ("serve.us_per_query", ratio (us (dur "serve")) (all "serve.queries"), "us");
        ("serve.self_share", share (self_of "serve"), "ratio");
        ("serve.extent_hit_rate", ratio (c "serve.extent_hits") (c "serve.extent_lookups"), "ratio");
        ("serve.verdict_hit_rate", ratio (c "serve.verdict_hits") (c "serve.verdict_lookups"), "ratio");
        ("serve.messages_per_query", ratio (c "serve.messages") (c "serve.queries"), "count");
        ("serve.coalesced_per_message", ratio (c "serve.coalesced") (c "serve.messages"), "count");
        ("serve.cache_kib", c "serve.cache_bytes" /. 1024.0 /. cyc, "KiB");
        ("param_sim.us_per_draw", ratio (us (dur "param_sim")) (all "param_sim.draws"), "us");
        ("param_sim.share", share (dur "param_sim"), "ratio");
        ("figures.self_us", us (self_of "figures") /. nt, "us");
        ("gc.minor_mb_per_op", mib_per_op !minor, "MiB/op");
        ("gc.promoted_mb_per_op", mib_per_op !promoted, "MiB/op");
        ("gc.major_per_kop", ratio (1000.0 *. float_of_int !majors) (float_of_int plain.len), "count/kop");
        ("sim.response_ms_mean", p.sim_response_ms, "sim_ms");
        ("sim.total_ms_mean", p.sim_total_ms, "sim_ms");
        ( "trace.overhead_ratio",
          ratio (fst (pct (sorted traced_t) 50.0)) (fst (pct (sorted plain) 50.0)),
          "ratio" );
        ("trace.accounted_ratio", ratio accounted d_op, "ratio");
      ]
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Msdq_obs.Json.to_string (Spans.chrome sp));
      close_out oc)
    trace_out;
  let table =
    List.map
      (fun name ->
        let self = if List.mem name inner then self_of name else Spans.self sp name in
        Printf.sprintf "  %-16s %9d calls %12.3f ms self %7.1f%%" name (Spans.calls sp name)
          (ms self) (100.0 *. share self))
      (List.filter (fun l -> l <> "op" && l <> "replay") (Spans.names sp))
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    report =
      String.concat "\n"
        (Printf.sprintf "%d traced ops, %d untraced; per-layer self time and share of op time:"
           traced_t.len plain.len
        :: table);
  }

let to_json r =
  let module Json = Msdq_obs.Json in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
             r.metrics) );
    ]

(* A whole run: set-up, then the untraced or the traced measurement. *)
let run ?trace_out ~workload ~seed ~seconds ~trace () =
  first_error := None;
  let r =
    if trace then traced ?trace_out (prepare workload ~seed) ~seconds
    else
      let p, setup_s = setup workload ~seed in
      measure p ~seconds ~setup_s
  in
  match !first_error with
  | None -> r
  | Some e -> { r with report = r.report ^ "\nfirst failure: " ^ e }

module Json = Msdq_obs.Json
module Stats = Msdq_simkit.Stats
module S = Bench_section

let oldest = 6
let version = 10
let schema = Printf.sprintf "msdq-bench/%d" version

(* ---- sections only the bench produces ---- *)

type parallel = {
  jobs : int;
  grid_points : int;
  seq_s : float;
  par_s : float;
  speedup : float;
}

type microbench = {
  mb_objects : int;
  mb_boxed_eval : float;
  mb_columnar_eval : float;
  mb_eval_speedup : float;
  mb_boxed_sig : float;
  mb_bitset_sig : float;
  mb_sig_speedup : float;
  mb_certify_rows : int;
  mb_certify_rows_per_s : float;
}

let parallel_to_json p =
  Json.Obj
    [
      ("jobs", Json.Int p.jobs);
      ("grid_points", Json.Int p.grid_points);
      ("seq_s", Json.Float p.seq_s);
      ("par_s", Json.Float p.par_s);
      ("speedup", Json.Float p.speedup);
    ]

let latency_to_json latency =
  Json.Arr
    (List.map
       (fun (name, (s : Stats.summary)) ->
         Json.Obj
           [
             ("name", Json.Str name);
             ("count", Json.Int s.Stats.n);
             ("p50_us", Json.Float s.Stats.p50_us);
             ("p90_us", Json.Float s.Stats.p90_us);
             ("p99_us", Json.Float s.Stats.p99_us);
             ("max_us", Json.Float s.Stats.max_us);
           ])
       latency)

let microbench_to_json m =
  Json.Obj
    [
      ("objects", Json.Int m.mb_objects);
      ( "local_eval",
        Json.Obj
          [
            ("boxed_objs_per_s", Json.Float m.mb_boxed_eval);
            ("columnar_objs_per_s", Json.Float m.mb_columnar_eval);
            ("speedup", Json.Float m.mb_eval_speedup);
          ] );
      ( "signature_filter",
        Json.Obj
          [
            ("boxed_objs_per_s", Json.Float m.mb_boxed_sig);
            ("bitset_objs_per_s", Json.Float m.mb_bitset_sig);
            ("speedup", Json.Float m.mb_sig_speedup);
          ] );
      ( "certify",
        Json.Obj
          [
            ("rows", Json.Int m.mb_certify_rows);
            ("rows_per_s", Json.Float m.mb_certify_rows_per_s);
          ] );
    ]

let pp_parallel ppf p =
  Format.fprintf ppf "jobs %d: sequential %.3fs, parallel %.3fs, speedup %.2fx"
    p.jobs p.seq_s p.par_s p.speedup

let pp_latency ppf latency =
  Format.fprintf ppf "@[<v>%-6s %10s %10s %10s %10s" "strat" "p50" "p90" "p99" "max";
  List.iter
    (fun (name, (s : Stats.summary)) ->
      Format.fprintf ppf "@,%-6s %8.0fus %8.0fus %8.0fus %8.0fus" name s.Stats.p50_us
        s.Stats.p90_us s.Stats.p99_us s.Stats.max_us)
    latency;
  Format.fprintf ppf "@]"

let pp_microbench ppf m =
  let row arm = Format.fprintf ppf "@,%-20s %14.0f %14.0f %8.1fx" arm in
  Format.fprintf ppf "@[<v>%-20s %14s %14s %9s" "arm" "boxed/s" "columnar/s" "speedup";
  row "local-eval" m.mb_boxed_eval m.mb_columnar_eval m.mb_eval_speedup;
  row "signature-filter" m.mb_boxed_sig m.mb_bitset_sig m.mb_sig_speedup;
  Format.fprintf ppf "@,%-20s %d rows at %.0f rows/s@]" "certify" m.mb_certify_rows
    m.mb_certify_rows_per_s

(* The sections below copy [parallel]'s empty bars, guard and metrics. *)
let parallel =
  {
    S.key = "parallel";
    since = 2;
    check =
      (fun c ->
        ignore (S.int ~min:1 c "jobs");
        ignore (S.int ~min:0 c "grid_points");
        List.iter
          (fun k -> ignore (S.num ~range:S.Nonneg c k))
          [ "seq_s"; "par_s"; "speedup" ]);
    bars = [];
    guard = [];
    metrics = None;
  }

(* Quantiles are ordered p50 <= p90 <= p99 whenever a sample was taken. *)
let latency =
  {
    parallel with
    S.key = "latency";
    since = 6;
    check =
      (fun c ->
        List.iter
          (fun e ->
            ignore (S.str e "name");
            let count = S.int ~min:0 e "count" in
            let q k = S.num ~range:S.Nonneg e k in
            let p50 = q "p50_us" in
            let p90 = q "p90_us" in
            let p99 = q "p99_us" in
            ignore (q "max_us");
            if count > 0 && not (p50 <= p90 && p90 <= p99) then
              S.invalid e "quantiles must be non-decreasing")
          (S.elements ~nonempty:true c));
    metrics =
      Some
        (fun c ->
          List.concat_map
            (fun e ->
              List.filter_map
                (fun k ->
                  let v = S.num e k in
                  if v > 0.0 then Some (S.Time (S.str e "name" ^ " " ^ k, v)) else None)
                [ "p50_us"; "p99_us" ])
            (S.elements c));
  }

(* Raw objects/sec are machine-dependent, so the check asks only for
   positive rates; the bars are same-process ratios, safe to hold on any
   machine, and only the gate holds them so a noisy machine still writes
   a valid document. *)
let microbench =
  {
    parallel with
    S.key = "microbench";
    since = 10;
    check =
      (fun c ->
        ignore (S.int ~min:1 c "objects");
        List.iter
          (fun (arm, fields) ->
            List.iter
              (fun k -> ignore (S.num ~range:S.Positive (S.field c arm) k))
              fields)
          [
            ("local_eval", [ "boxed_objs_per_s"; "columnar_objs_per_s"; "speedup" ]);
            ("signature_filter", [ "boxed_objs_per_s"; "bitset_objs_per_s"; "speedup" ]);
            ("certify", [ "rows_per_s" ]);
          ];
        ignore (S.int ~min:1 (S.field c "certify") "rows"));
    bars = [ ("local_eval.speedup", 5.0); ("signature_filter.speedup", 1.0) ];
  }

let strategies =
  {
    parallel with
    S.key = "strategies";
    since = 1;
    check =
      (fun c ->
        List.iter
          (fun e ->
            ignore (S.str e "name");
            ignore (S.num ~range:S.Nonneg e "total_s");
            ignore (S.num ~range:S.Nonneg e "response_s"))
          (S.elements ~nonempty:true c));
    metrics =
      Some
        (fun c ->
          List.concat_map
            (fun e ->
              List.map
                (fun k -> S.Time (S.str e "name" ^ " " ^ k, S.num e k))
                [ "total_s"; "response_s" ])
            (S.elements c));
  }

(* Bechamel wall-clock medians: machine-dependent, never compared. *)
let wall =
  {
    parallel with
    S.key = "wall";
    since = 1;
    check =
      (fun c ->
        List.iter
          (fun e ->
            ignore (S.str e "name");
            ignore (S.num ~range:S.Nonneg e "ns_per_run"))
          (S.elements c));
  }

let sections =
  [
    parallel;
    Fault_sweep.section;
    Fault_sweep.recovery_section;
    Serve_sweep.section;
    latency;
    Auto_sweep.section;
    Overload_sweep.section;
    Gray_sweep.section;
    microbench;
    strategies;
    wall;
  ]

let to_json ~generated_at ~seed ~parallel:p ~fault_sweep ~recovery_sweep
    ~serve_sweep ~latency:l ~auto_sweep ~overload_sweep ~gray_sweep
    ~microbench:m ~strategies:st ~wall:w =
  let entry (name, total_s, response_s) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("total_s", Json.Float total_s);
        ("response_s", Json.Float response_s);
      ]
  in
  let wall_entry (name, ns) =
    Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float ns) ]
  in
  Json.Obj
    (("schema", Json.Str schema)
    :: ("generated_at", Json.Str generated_at)
    :: ("seed", Json.Int seed)
    :: List.map
         (fun ((s : S.t), j) -> (s.S.key, j))
         [
           (parallel, parallel_to_json p);
           (Fault_sweep.section, Fault_sweep.to_json fault_sweep);
           (Fault_sweep.recovery_section, Fault_sweep.recovery_to_json recovery_sweep);
           (Serve_sweep.section, Serve_sweep.to_json serve_sweep);
           (latency, latency_to_json l);
           (Auto_sweep.section, Auto_sweep.to_json auto_sweep);
           (Overload_sweep.section, Overload_sweep.to_json overload_sweep);
           (Gray_sweep.section, Gray_sweep.to_json gray_sweep);
           (microbench, microbench_to_json m);
           (strategies, Json.Arr (List.map entry st));
           (wall, Json.Arr (List.map wall_entry w));
         ])

(* ---- validation ---- *)

let schemas =
  List.init (version - oldest + 1) (fun i ->
      (Printf.sprintf "msdq-bench/%d" (oldest + i), oldest + i))

let validate doc =
  let c = S.root doc in
  match
    let id = S.str c "schema" in
    let v =
      match List.assoc_opt id schemas with
      | Some v -> v
      | None ->
          S.invalid c "schema %S, expected msdq-bench/%d through %s" id oldest schema
    in
    ignore (S.str c "generated_at");
    ignore (S.int c "seed");
    (* a section is required from its version on, and checked whenever
       present *)
    List.iter
      (fun (s : S.t) ->
        if s.S.since <= v || Json.member s.S.key doc <> None then
          s.S.check (S.field c s.S.key))
      sections
  with
  | () -> Ok ()
  | exception S.Invalid msg -> Error ("bench document: " ^ msg)

(* ---- files and the gate ---- *)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      (* Sys_error messages usually lead with the path already *)
      Error
        (if String.starts_with ~prefix:(path ^ ": ") msg then msg
         else path ^ ": " ^ msg)
  | text -> (
      match Json.of_string text with
      | Error msg -> Error (Printf.sprintf "%s: not valid JSON: %s" path msg)
      | Ok doc -> (
          match validate doc with
          | Ok () ->
              Ok (Option.get (Option.bind (Json.member "schema" doc) Json.to_str), doc)
          | Error msg -> Error (path ^ ": " ^ msg)))

(* A directory stands for the lexicographically last BENCH_*.json in it:
   timestamps sort, so that is the newest. *)
let resolve path =
  if not (Sys.file_exists path && Sys.is_directory path) then Ok path
  else
    let bench f =
      String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json"
    in
    match List.filter bench (Array.to_list (Sys.readdir path)) with
    | exception Sys_error msg -> Error msg
    | [] -> Error (Printf.sprintf "baseline directory %s holds no BENCH_*.json" path)
    | files -> Ok (Filename.concat path (List.fold_left max "" files))

let gate ~tolerance ~baseline ~fresh =
  let load_as role path =
    match load path with
    | Ok (id, doc) ->
        (S.Pass (Printf.sprintf "%s %s: valid %s document" role path id), Some doc)
    | Error msg -> (S.Fail (role ^ " " ^ msg), None)
  in
  let base_verdict, base =
    match resolve baseline with
    | Ok path -> load_as "baseline" path
    | Error msg -> (S.Fail msg, None)
  in
  let fresh_verdict, fresh = load_as "fresh" fresh in
  base_verdict :: fresh_verdict
  ::
  (match (base, fresh) with
  | Some base, Some fresh -> (
      try
        List.concat_map
          (fun s -> S.bars s fresh @ S.compare ~tolerance s ~base ~fresh)
          sections
      with S.Invalid msg -> [ S.Fail msg ])
  | _ -> [])

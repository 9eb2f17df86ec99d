(* Host-clock benchmark of the msdq libraries.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]

   Prints a human-readable summary on stderr and, as the last line of
   stdout, one JSON object: correct, attempted, failed and the metrics
   (end-to-end ones untraced, per-layer ones with --trace 1). With
   --trace-out, the traced run also writes the spans of its first ops as a
   Chrome trace_event file. *)

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
    (String.concat "|" (List.map fst Perf.Workloads.all));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w Perf.Workloads.all ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string_opt n;
      parse rest
    | "--seconds" :: s :: rest
      when match float_of_string_opt s with Some x -> x >= 0.0 | None -> false ->
      seconds := float_of_string_opt s;
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--trace-out" :: file :: rest ->
      trace_out := Some file;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds ->
    let r =
      Perf.Runner.run ?trace_out:!trace_out ~workload ~seed ~seconds ~trace:!trace ()
    in
    prerr_endline (workload ^ ": " ^ r.Perf.Runner.report);
    print_endline (Msdq_obs.Json.to_string (Perf.Runner.to_json r))
  | _ -> usage ()

(* Table-driven pin of bin/msdq's --help output: every subcommand's
   documented flag set must match this table exactly, so adding or
   removing a flag without updating its help (or this table) fails the
   suite. The binary is a declared test dependency; each case runs
   [msdq <sub> --help=plain] and parses the option-definition lines. *)

let msdq_exe = Testutil.beside_exe "../bin/msdq.exe"

(* Option-definition lines in cmdliner's plain output are indented
   exactly seven spaces ("       --flag" or "       -j N, --jobs=N");
   description lines are indented deeper and section headers not at
   all. Collect every --long-flag token on definition lines. *)
let long_flags_in line =
  let n = String.length line in
  let is_flag_char = function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false in
  let out = ref [] in
  let i = ref 0 in
  while !i < n - 2 do
    if
      line.[!i] = '-'
      && line.[!i + 1] = '-'
      && (match line.[!i + 2] with 'a' .. 'z' -> true | _ -> false)
    then begin
      let j = ref (!i + 2) in
      while !j < n && is_flag_char line.[!j] do
        incr j
      done;
      out := String.sub line !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

let definition_line line =
  String.length line > 8
  && String.sub line 0 7 = "       "
  && line.[7] = '-'

let help_output args =
  let tmp = Filename.temp_file "msdq_help" ".txt" in
  let cmd = Filename.quote_command msdq_exe ~stdout:tmp args in
  let rc = Sys.command cmd in
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  if rc <> 0 then
    Alcotest.failf "%s exited %d" (String.concat " " (msdq_exe :: args)) rc;
  text

let flags_of_help text =
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         if definition_line line then long_flags_in line else [])
  |> List.sort_uniq compare

let common = [ "--help"; "--quiet"; "--verbose"; "--verbosity"; "--version" ]

(* One row per subcommand: the complete documented flag set (beyond the
   cmdliner common options above). *)
let table =
  [
    ( "demo",
      [
        "--critical-path"; "--deep"; "--explain"; "--gantt"; "--json";
        "--multi-valued"; "--strategy"; "--telemetry"; "--trace-out";
      ] );
    ( "query",
      [
        "--critical-path"; "--data"; "--deep"; "--explain"; "--gantt";
        "--json"; "--multi-valued"; "--seed"; "--strategy"; "--synthetic";
        "--telemetry"; "--trace-out";
      ] );
    ( "experiment",
      [
        "--auto-sweep"; "--chart"; "--csv"; "--drop"; "--fault-sweep";
        "--gray-sweep"; "--inflate"; "--jobs"; "--json"; "--overload-sweep";
        "--progress"; "--recovery-sweep"; "--samples"; "--seed";
      ] );
    ( "serve",
      [
        "--adaptive"; "--arrival"; "--cache-mb"; "--dashboard"; "--data";
        "--deadline"; "--drop"; "--flap-ms"; "--inflate"; "--jobs"; "--json";
        "--queries"; "--queue-limit"; "--samples"; "--seed"; "--shed-policy";
        "--store"; "--strategy"; "--sweep"; "--synthetic"; "--trace-out";
        "--window";
      ] );
    ( "metrics",
      [
        "--arrival"; "--data"; "--queries"; "--seed"; "--store"; "--strategy";
        "--synthetic";
      ] );
    ("params", []);
    ("generate", [ "--classes"; "--databases"; "--entities"; "--seed" ]);
    ("plan", [ "--data"; "--objective"; "--seed"; "--synthetic" ]);
    ("validate", [ "--progress"; "--seeds" ]);
  ]

let test_subcommand_flags (sub, expected) () =
  let got = flags_of_help (help_output [ sub; "--help=plain" ]) in
  let want = List.sort_uniq compare (common @ expected) in
  Alcotest.(check (list string)) (sub ^ " flags") want got

(* The top-level help must list every subcommand — the drift this pins
   is a command missing from the group page. *)
let test_group_lists_all () =
  let text = help_output [ "--help=plain" ] in
  List.iter
    (fun (sub, _) ->
      let needle = "\n       " ^ sub in
      let found =
        let n = String.length text and m = String.length needle in
        let rec scan i =
          i + m <= n && (String.sub text i m = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) (sub ^ " listed in group help") true found)
    table

(* The experiment positional's doc must name every accepted spelling the
   dispatch recognizes — the drift the issue called out. *)
let test_experiment_doc_names_all () =
  let text = help_output [ "experiment"; "--help=plain" ] in
  let contains needle =
    let n = String.length text and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub text i m = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " documented") true (contains name))
    [
      "fig9"; "fig10"; "fig11"; "ablation-signatures"; "ablation-checks";
      "ablation-semijoin"; "fault-sweep"; "recovery-sweep"; "auto-sweep";
      "overload-sweep"; "gray-sweep";
    ]

let suite =
  List.map
    (fun ((sub, _) as row) ->
      Alcotest.test_case (sub ^ " --help") `Quick (test_subcommand_flags row))
    table
  @ [
      Alcotest.test_case "group lists all subcommands" `Quick
        test_group_lists_all;
      Alcotest.test_case "experiment doc names all experiments" `Quick
        test_experiment_doc_names_all;
    ]

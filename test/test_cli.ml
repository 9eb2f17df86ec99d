(* Argument checks of bin/msdq that run before any work: a draw count
   below 1 would average over nothing, so each command that takes
   --samples refuses it with a readable message and exit code 1; so do
   generate's sizes, validate's seed count, serve's flapping period and
   cache size, and the link-fault knobs of serve and the sweeps. serve
   --sweep draws its own streams, so it refuses every flag that sets up
   one stream instead of ignoring it. *)

let msdq_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/msdq.exe"

(* Exit code and stderr of [msdq args]; stdout is discarded. *)
let run args =
  let err = Filename.temp_file "msdq_cli" ".txt" in
  let rc =
    Sys.command (Filename.quote_command msdq_exe ~stdout:Filename.null ~stderr:err args)
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (rc, text)

let rejects ?(needle = "--samples must be >= 1") args () =
  let rc, err = run args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ " exit code") 1 rc;
  Alcotest.(check bool) (cmd ^ " says " ^ needle) true
    (Testutil.contains ~needle err)

let suite =
  [
    Alcotest.test_case "experiment fig9 rejects --samples 0 and -3" `Quick
      (fun () ->
        rejects [ "experiment"; "fig9"; "--samples"; "0" ] ();
        rejects [ "experiment"; "fig9"; "--samples=-3" ] ());
    Alcotest.test_case "experiment fault-sweep rejects --samples 0" `Quick
      (rejects [ "experiment"; "fault-sweep"; "--samples"; "0" ]);
    Alcotest.test_case "serve --sweep rejects --samples 0" `Quick
      (rejects [ "serve"; "--sweep"; "--samples"; "0" ]);
    Alcotest.test_case "generate rejects --databases 0" `Quick
      (rejects ~needle:"--databases must be >= 1"
         [ "generate"; "--databases"; "0" ]);
    Alcotest.test_case "generate rejects --classes 0" `Quick
      (rejects ~needle:"--classes must be >= 1" [ "generate"; "--classes"; "0" ]);
    Alcotest.test_case "generate rejects --entities=-5" `Quick
      (rejects ~needle:"--entities must be >= 0" [ "generate"; "--entities=-5" ]);
    Alcotest.test_case "serve rejects --flap-ms=-1 and inf" `Quick (fun () ->
        let needle = "--flap-ms must be a finite period >= 0" in
        rejects ~needle [ "serve"; "--flap-ms=-1" ] ();
        rejects ~needle [ "serve"; "--flap-ms=inf" ] ());
    Alcotest.test_case "sweeps and serve reject a bad --drop or --inflate" `Quick
      (fun () ->
        let drop = "--drop must be a probability in [0, 1]" in
        let inflate = "--inflate must be a finite factor >= 1" in
        List.iter
          (fun sub ->
            List.iter
              (fun (needle, flag) -> rejects ~needle (sub @ [ flag ]) ())
              [
                (drop, "--drop=2");
                (drop, "--drop=-1");
                (drop, "--drop=nan");
                (inflate, "--inflate=0");
                (inflate, "--inflate=inf");
              ])
          [
            [ "experiment"; "fault-sweep"; "--samples"; "1" ];
            [ "experiment"; "recovery-sweep"; "--samples"; "1" ];
            [ "serve" ];
          ]);
    Alcotest.test_case "serve rejects --cache-mb inf and 1e13" `Quick (fun () ->
        let needle = "--cache-mb must be finite and below 2^42 MiB" in
        rejects ~needle [ "serve"; "--cache-mb=inf" ] ();
        rejects ~needle [ "serve"; "--cache-mb=1e13" ] ());
    Alcotest.test_case "serve --sweep refuses the single-stream flags" `Quick
      (fun () ->
        let store = Filename.temp_file "msdq_cli" ".json" in
        let trace = Filename.temp_file "msdq_cli" ".json" in
        Sys.remove store;
        Sys.remove trace;
        List.iter
          (fun (flag, args) ->
            rejects
              ~needle:(flag ^ " sets up one stream; --sweep does not take it")
              ([ "serve"; "--sweep"; "--samples"; "1" ] @ args)
              ())
          [
            ("QUERY", [ Msdq_fed.Paper_example.q1 ]);
            ("--queries", [ "--queries"; "3"; "--json" ]);
            ("--queries", [ "-n"; "3" ]);
            ("--arrival", [ "--arrival"; "10" ]);
            ("--cache-mb", [ "--cache-mb"; "0" ]);
            ("--window", [ "--window"; "500" ]);
            ("--deadline", [ "--deadline"; "5" ]);
            ("--queue-limit", [ "--queue-limit"; "1" ]);
            ("--shed-policy", [ "--shed-policy"; "degrade" ]);
            ("--strategy", [ "--strategy"; "CA" ]);
            ("--data", [ "--data"; Sys.executable_name ]);
            ("--synthetic", [ "--synthetic" ]);
            ("--drop", [ "--drop"; "0.1" ]);
            ("--inflate", [ "--inflate"; "2" ]);
            ("--flap-ms", [ "--flap-ms"; "3" ]);
            ("--adaptive", [ "--adaptive" ]);
            ("--dashboard", [ "--dashboard" ]);
            ("--store", [ "--store"; store ]);
            ("--trace-out", [ "--trace-out"; trace ]);
          ];
        Alcotest.(check bool) "--store wrote no file" false (Sys.file_exists store);
        Alcotest.(check bool) "--trace-out wrote no file" false
          (Sys.file_exists trace));
    Alcotest.test_case "validate rejects --seeds 0 and -3" `Quick (fun () ->
        let needle = "--seeds must be >= 1" in
        rejects ~needle [ "validate"; "--seeds"; "0" ] ();
        rejects ~needle [ "validate"; "--seeds=-3" ] ());
  ]

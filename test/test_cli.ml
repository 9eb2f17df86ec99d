(* Argument checks of bin/msdq that run before any work: a draw count
   below 1 would average over nothing, so each command that takes
   --samples refuses it with a readable message and exit code 1; so do
   generate's sizes and serve's flapping period. *)

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
  ]

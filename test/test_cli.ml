(* Argument checks of bin/msdq that run before any work: a draw count
   below 1 would average over nothing, so each command that takes
   --samples refuses it with a readable message and exit code 1. *)

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

let rejects args () =
  let rc, err = run args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ " exit code") 1 rc;
  Alcotest.(check bool)
    (cmd ^ " names --samples")
    true
    (Testutil.contains ~needle:"--samples must be >= 1" err)

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
  ]

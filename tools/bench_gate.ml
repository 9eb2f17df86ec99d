(* bench_gate — the CI bench-regression gate.

   Compares a freshly generated BENCH_*.json against the committed baseline
   in bench/results/ and fails (exit 1) on:

   - a baseline or fresh document that does not load or validate
     (Bench.validate, which also enforces every sweep's win condition);
   - a same-run bar broken on the fresh document (the columnar local-eval
     speedup under 5x, the bitset signature filter slower than the
     per-object one);
   - per-section simulated-time regressions beyond --tolerance (default
     0.2 = 20%) against the baseline.

   Simulated times are deterministic given a seed, so sweep sections are
   only compared when the two documents agree on seed and sample counts
   (anything else is an apples-to-oranges diff and is skipped with a
   printed reason). Bechamel wall-clock medians are never gated. The
   checks themselves live in the section registry (Msdq_exp.Bench); this
   driver only prints its verdicts.

   Usage: bench_gate --baseline FILE|DIR --fresh FILE [--tolerance F]
   A DIR baseline picks the lexicographically last BENCH_*.json in it
   (timestamps sort, so that is the newest). Exit codes: 0 pass, 1 fail,
   2 usage. *)

module Bench = Msdq_exp.Bench
module S = Msdq_exp.Bench_section

let () =
  let baseline = ref "" in
  let fresh = ref "" in
  let tolerance = ref 0.2 in
  let spec =
    [
      ( "--baseline",
        Arg.Set_string baseline,
        "PATH  baseline BENCH_*.json, or a directory (newest file wins)" );
      ("--fresh", Arg.Set_string fresh, "FILE  freshly generated BENCH_*.json");
      ( "--tolerance",
        Arg.Set_float tolerance,
        "F  allowed relative regression (default 0.2)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench_gate --baseline FILE|DIR --fresh FILE [--tolerance F]";
  if !baseline = "" || !fresh = "" then begin
    prerr_endline "bench_gate: --baseline and --fresh are required";
    exit 2
  end;
  if !tolerance < 0.0 || Float.is_nan !tolerance then begin
    prerr_endline "bench_gate: --tolerance must be >= 0";
    exit 2
  end;
  let verdicts =
    Bench.gate ~tolerance:!tolerance ~baseline:!baseline ~fresh:!fresh
  in
  List.iter
    (function
      | S.Pass s -> Format.printf "ok   %s@." s
      | S.Skip s -> Format.printf "skip %s@." s
      | S.Fail s -> Format.printf "FAIL %s@." s)
    verdicts;
  if List.exists (function S.Fail _ -> true | _ -> false) verdicts then begin
    Format.printf "@.bench gate: FAILED@.";
    exit 1
  end
  else Format.printf "@.bench gate: passed@."

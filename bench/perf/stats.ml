(* Order statistics over one run's op latencies. *)

(* Nearest-rank percentile of an ascending array, with the number of samples
   strictly beyond the rank position: p90 of 100 samples is the 90th value,
   with 10 samples beyond it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "Stats.percentile: p not in (0, 100]";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  let ix = max 0 (min (n - 1) (rank - 1)) in
  (sorted.(ix), n - 1 - ix)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = fst (percentile (sorted_copy a) 50.0)

type cell = { mutable busy : Time.t; mutable count : int }

type t = {
  by_site_kind : (int * Resource.kind, cell) Hashtbl.t;
  by_label : (string, cell) Hashtbl.t;
  mutable total_busy : Time.t;
  mutable makespan : Time.t;
  mutable task_count : int;
}

let create () =
  {
    by_site_kind = Hashtbl.create 16;
    by_label = Hashtbl.create 16;
    total_busy = Time.zero;
    makespan = Time.zero;
    task_count = 0;
  }

let cell_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = { busy = Time.zero; count = 0 } in
    Hashtbl.add tbl key c;
    c

let record t ~site ~kind ~label ~duration ~finish =
  let sk = cell_of t.by_site_kind (site, kind) in
  sk.busy <- Time.add sk.busy duration;
  sk.count <- sk.count + 1;
  let lb = cell_of t.by_label label in
  lb.busy <- Time.add lb.busy duration;
  lb.count <- lb.count + 1;
  t.total_busy <- Time.add t.total_busy duration;
  t.makespan <- Time.max t.makespan finish;
  t.task_count <- t.task_count + 1

let record_fence t ~finish = t.makespan <- Time.max t.makespan finish
let total_busy t = t.total_busy
let makespan t = t.makespan
let task_count t = t.task_count

let busy_of_site t site =
  Hashtbl.fold
    (fun (s, _) c acc -> if s = site then Time.add acc c.busy else acc)
    t.by_site_kind Time.zero

let busy_of_kind t kind =
  Hashtbl.fold
    (fun (_, k) c acc ->
      if Resource.equal_kind k kind then Time.add acc c.busy else acc)
    t.by_site_kind Time.zero

let busy_of t ~site ~kind =
  match Hashtbl.find_opt t.by_site_kind (site, kind) with
  | Some c -> c.busy
  | None -> Time.zero

let by_label t =
  Hashtbl.fold (fun label c acc -> (label, c.busy, c.count) :: acc) t.by_label []
  |> List.sort (fun (_, a, _) (_, b, _) -> Time.compare b a)

(* ---- Sample summaries ----

   Guarded against the empty case throughout: a summary of zero
   observations is all-zero, never an exception and never a NaN that
   would poison a JSON report. *)

type summary = {
  n : int;
  mean_us : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  max_us : float;
}

let empty_summary =
  { n = 0; mean_us = 0.0; p50_us = 0.0; p90_us = 0.0; p99_us = 0.0; max_us = 0.0 }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile on a sorted copy; [q] is clamped to [0, 1]. *)
let percentile xs q =
  match xs with
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(Int.max 0 (Int.min (n - 1) rank))

let percentile_ms xs q = percentile xs q /. 1000.0

let summarize xs =
  match xs with
  | [] -> empty_summary
  | xs ->
    {
      n = List.length xs;
      mean_us = mean xs;
      p50_us = percentile xs 0.50;
      p90_us = percentile xs 0.90;
      p99_us = percentile xs 0.99;
      max_us = List.fold_left Float.max neg_infinity xs;
    }

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>total execution time: %a@,response time: %a@,tasks: %d@]"
    Time.pp t.total_busy Time.pp t.makespan t.task_count

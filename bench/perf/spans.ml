(* Outside-in tracing: spans recorded by the benchmark around its calls into
   the libraries, plus named counts taken at the same boundaries.

   Spans of one op share its op id. Per-name totals (duration, self time,
   calls) are folded in as each span closes, so a long run keeps only its
   first [keep] spans in memory, for the Chrome export. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;
  name : string;
  start : float;  (** seconds *)
  stop : float;
}

type total = { mutable dur : float; mutable self : float; mutable calls : int }

type t = {
  on : bool;
  clock : unit -> float;
  keep : int;
  mutable op : int;
  mutable next_id : int;
  mutable stack : (int * float ref) list;
      (* open spans, innermost first, each with the time its children used *)
  totals : (string, total) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
  mutable kept : span list;  (* newest first *)
  mutable n_kept : int;
}

(* Monotonic nanoseconds, as seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(clock = now) ?(keep = 150) () =
  {
    on = true;
    clock;
    keep;
    op = 0;
    next_id = 0;
    stack = [];
    totals = Hashtbl.create 32;
    counts = Hashtbl.create 32;
    kept = [];
    n_kept = 0;
  }

(* Records nothing; [span off name f] is [f ()]. *)
let off = { (create ()) with on = false }

let set_op t op = t.op <- op

let total t name =
  match Hashtbl.find_opt t.totals name with
  | Some x -> x
  | None ->
    let x = { dur = 0.0; self = 0.0; calls = 0 } in
    Hashtbl.add t.totals name x;
    x

let close t ~id ~parent ~name ~start ~children =
  let stop = t.clock () in
  let dur = stop -. start in
  t.stack <- List.tl t.stack;
  (match t.stack with (_, acc) :: _ -> acc := !acc +. dur | [] -> ());
  let x = total t name in
  x.dur <- x.dur +. dur;
  x.self <- x.self +. (dur -. children);
  x.calls <- x.calls + 1;
  if t.n_kept < t.keep then begin
    t.kept <- { id; parent; op = t.op; name; start; stop } :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with (p, _) :: _ -> p | [] -> -1 in
    let children = ref 0.0 in
    t.stack <- (id, children) :: t.stack;
    let start = t.clock () in
    Fun.protect
      ~finally:(fun () -> close t ~id ~parent ~name ~start ~children:!children)
      f
  end

let count t name v =
  if t.on then
    Hashtbl.replace t.counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let dur t name = match Hashtbl.find_opt t.totals name with Some x -> x.dur | None -> 0.0
let self t name = match Hashtbl.find_opt t.totals name with Some x -> x.self | None -> 0.0
let calls t name = match Hashtbl.find_opt t.totals name with Some x -> x.calls | None -> 0
let counted t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let names t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.totals [])

let kept t = List.rev t.kept

(* Chrome trace_event JSON through the repo's own exporter: one host lane,
   span/op/parent ids in each event's args. *)
let chrome t =
  let module Tracer = Msdq_obs.Tracer in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity t.kept in
  Tracer.chrome
    ~process_names:[ (Tracer.host_pid, "msdq perf benchmark (host clock)") ]
    (List.map
       (fun s ->
         {
           Tracer.name = s.name;
           cat = "perf";
           pid = Tracer.host_pid;
           tid = 0;
           ts_us = (s.start -. t0) *. 1e6;
           dur_us = (s.stop -. s.start) *. 1e6;
           args =
             [
               ("op", string_of_int s.op);
               ("id", string_of_int s.id);
               ("parent", string_of_int s.parent);
             ];
         })
       (kept t))

open Msdq_simkit

type window = { down : Time.t; up : Time.t }

type site_faults = { site : int; outages : window list }

type link_faults = { dst : int; drop : float; inflate : float; jitter : float }

type direction = Inbound | Outbound

type slowdown = { slow_site : int; factor : float; busy : window list }

type partition = { part_site : int; direction : direction; cut : window list }

type schedule = {
  seed : int;
  sites : site_faults list;
  links : link_faults list;
  slowdowns : slowdown list;
  partitions : partition list;
}

let none = { seed = 0; sites = []; links = []; slowdowns = []; partitions = [] }

let is_none s =
  s.sites = [] && s.links = [] && s.slowdowns = [] && s.partitions = []

let fail fmt = Printf.ksprintf invalid_arg fmt

(* Shared window-train check; [what] is "site %d" for outages and a longer
   phrase for slowdown/partition windows, so the historical outage messages
   stay byte-identical. *)
let check_windows ~what ws =
  let rec loop prev = function
    | [] -> ()
    | w :: rest ->
      if Time.compare w.down Time.zero < 0 then
        fail "Fault.validate: %s: window starts before time zero" what;
      if Time.compare w.up w.down <= 0 then
        fail "Fault.validate: %s: window recovers at %g, not after crash at %g"
          what (Time.to_us w.up) (Time.to_us w.down);
      (match prev with
      | Some p when Time.compare w.down p.up < 0 ->
        fail "Fault.validate: %s: windows overlap or are unordered" what
      | _ -> ());
      loop (Some w) rest
  in
  loop None ws

let validate s =
  List.iter
    (fun sf ->
      if sf.site < 0 then fail "Fault.validate: negative site id %d" sf.site;
      check_windows ~what:(Printf.sprintf "site %d" sf.site) sf.outages)
    s.sites;
  List.iter
    (fun lf ->
      if lf.dst < 0 then fail "Fault.validate: negative link site id %d" lf.dst;
      if not (Float.is_finite lf.drop) || lf.drop < 0.0 || lf.drop > 1.0 then
        fail "Fault.validate: link to %d: drop probability %g outside [0,1]"
          lf.dst lf.drop;
      if Float.is_nan lf.inflate || lf.inflate < 1.0 then
        fail "Fault.validate: link to %d: inflation %g below 1" lf.dst lf.inflate;
      if lf.inflate = Float.infinity then
        fail "Fault.validate: link to %d: inflation %g not finite" lf.dst lf.inflate;
      if not (Float.is_finite lf.jitter) || lf.jitter < 0.0 then
        fail "Fault.validate: link to %d: jitter %g negative or not finite"
          lf.dst lf.jitter)
    s.links;
  List.iter
    (fun sl ->
      if sl.slow_site < 0 then
        fail "Fault.validate: negative slowdown site id %d" sl.slow_site;
      if not (Float.is_finite sl.factor) || sl.factor < 1.0 then
        fail "Fault.validate: slowdown at site %d: factor %g below 1"
          sl.slow_site sl.factor;
      check_windows
        ~what:(Printf.sprintf "slowdown at site %d" sl.slow_site)
        sl.busy)
    s.slowdowns;
  List.iter
    (fun p ->
      if p.part_site < 0 then
        fail "Fault.validate: negative partition site id %d" p.part_site;
      check_windows
        ~what:(Printf.sprintf "partition at site %d" p.part_site)
        p.cut)
    s.partitions

let covering_window ws ~at =
  List.find_opt
    (fun w -> Time.compare w.down at <= 0 && Time.compare at w.up < 0)
    ws

let outages_of s site =
  match List.find_opt (fun sf -> sf.site = site) s.sites with
  | Some sf -> sf.outages
  | None -> []

let covering s ~site ~at = covering_window (outages_of s site) ~at

let site_down s ~site ~at = covering s ~site ~at <> None

let next_up s ~site ~at =
  match covering s ~site ~at with
  | None -> Some at
  | Some w -> if Float.is_finite w.up then Some w.up else None

let generation s ~site ~at =
  List.fold_left
    (fun n sf ->
      if sf.site = site then
        n
        + List.length
            (List.filter (fun w -> Time.compare w.up at <= 0) sf.outages)
      else n)
    0 s.sites

let permanently_down s ~site ~at =
  match covering s ~site ~at with
  | None -> false
  | Some w -> not (Float.is_finite w.up)

let failed_sites s =
  List.sort_uniq compare
    (List.filter_map
       (fun sf -> if sf.outages <> [] then Some sf.site else None)
       s.sites)

let link_of s dst = List.find_opt (fun lf -> lf.dst = dst) s.links

let slow_factor s ~site ~at =
  List.fold_left
    (fun acc sl ->
      if sl.slow_site = site && covering_window sl.busy ~at <> None then
        acc *. sl.factor
      else acc)
    1.0 s.slowdowns

let gray_sites s =
  let slow =
    List.filter_map
      (fun sl -> if sl.busy <> [] then Some sl.slow_site else None)
      s.slowdowns
  in
  let cut =
    List.filter_map
      (fun p -> if p.cut <> [] then Some p.part_site else None)
      s.partitions
  in
  List.sort_uniq compare (slow @ cut)

let one_way_cut s ~src ~dst ~at =
  List.exists
    (fun p ->
      covering_window p.cut ~at <> None
      &&
      match p.direction with
      | Inbound -> p.part_site = dst
      | Outbound -> ( match src with Some sr -> p.part_site = sr | None -> false))
    s.partitions

(* The per-transfer loss draw. SplitMix64-style avalanche over the transfer's
   identity; purely functional in (seed, dst, label, start), so it cannot
   depend on evaluation order. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_draw ?(salt = 0L) s ~dst ~label ~start =
  let h = ref (mix64 (Int64.logxor (Int64.of_int s.seed) salt)) in
  let absorb i = h := mix64 (Int64.logxor !h i) in
  absorb (Int64.of_int dst);
  String.iter (fun c -> absorb (Int64.of_int (Char.code c))) label;
  absorb (Int64.bits_of_float (Time.to_us start));
  let bits = Int64.shift_right_logical !h 11 in
  Int64.to_float bits /. 9007199254740992.0

let drop_draw s ~dst ~label ~start ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_draw s ~dst ~label ~start < p

(* The deterministic jitter draw: a second, independently-salted hash of the
   same transfer identity, scaled into [1, 1 + jitter). Same order-independence
   contract as [drop_draw]. *)
let jitter_draw s ~dst ~label ~start =
  match link_of s dst with
  | Some lf when lf.jitter > 0.0 ->
    1.0 +. (lf.jitter *. unit_draw ~salt:0x6A69747465724CL s ~dst ~label ~start)
  | Some _ | None -> 1.0

let stretch s ~dst ~label ~start duration =
  let mult =
    (match link_of s dst with
    | Some lf when lf.inflate > 1.0 -> lf.inflate
    | Some _ | None -> 1.0)
    *. jitter_draw s ~dst ~label ~start
  in
  if mult > 1.0 then Time.us (Time.to_us duration *. mult) else duration

(* One shared interpretation of a link transfer, used by the engine judge and
   by host-side fate precomputation (serve admission, recovery probes):
   [stretch], then doom the transfer if the destination is down at the
   stretched finish, a one-way partition cuts the direction of travel, or
   the loss draw fires. *)
let link_fate s ?src ~dst ~label ~start ~duration () =
  let duration = stretch s ~dst ~label ~start duration in
  let finish = Time.add start duration in
  let drop =
    if site_down s ~site:dst ~at:finish then
      Some (Printf.sprintf "site %d down" dst)
    else if
      List.exists
        (fun p ->
          p.direction = Inbound && p.part_site = dst
          && covering_window p.cut ~at:finish <> None)
        s.partitions
    then Some (Printf.sprintf "one-way partition into %d" dst)
    else
      match src with
      | Some sr
        when List.exists
               (fun p ->
                 p.direction = Outbound && p.part_site = sr
                 && covering_window p.cut ~at:start <> None)
               s.partitions ->
        Some (Printf.sprintf "one-way partition out of %d" sr)
      | _ -> (
        match link_of s dst with
        | Some lf when drop_draw s ~dst ~label ~start ~p:lf.drop ->
          Some (Printf.sprintf "link to %d lossy" dst)
        | Some _ | None -> None)
  in
  (duration, drop)

let slowdown_judge s : Engine.judge =
 fun ~site ~kind ~src:_ ~label:_ ~start ~duration ->
  match kind with
  | Resource.Link -> None
  | Resource.Cpu | Resource.Disk -> (
    match slow_factor s ~site ~at:start with
    | f when f > 1.0 ->
      Some
        {
          Engine.fault_duration = Time.us (Time.to_us duration *. f);
          fault_drop = None;
        }
    | _ -> None)

let judge s : Engine.judge =
 fun ~site ~kind ~src ~label ~start ~duration ->
  match kind with
  | Resource.Cpu | Resource.Disk ->
    slowdown_judge s ~site ~kind ~src ~label ~start ~duration
  | Resource.Link ->
    let duration, drop = link_fate s ?src ~dst:site ~label ~start ~duration () in
    Some { Engine.fault_duration = duration; fault_drop = drop }

let install s e = if not (is_none s) then Engine.set_judge e (judge s)

let flap_train ~from ~until ~period ~duty =
  if not (Time.is_finite period) || Time.compare period Time.zero <= 0 then
    invalid_arg "Fault.flap_train: period must be positive and finite";
  if not (Float.is_finite duty) || duty <= 0.0 || duty >= 1.0 then
    invalid_arg "Fault.flap_train: duty must be in (0, 1)";
  if Time.compare from Time.zero < 0 then
    invalid_arg "Fault.flap_train: from must be >= 0";
  if Time.compare until from <= 0 then
    invalid_arg "Fault.flap_train: until must be after from";
  let p = Time.to_us period and hi = Time.to_us until in
  let rec build t acc =
    if t >= hi then List.rev acc
    else
      let up_at = Float.min hi (t +. (duty *. p)) in
      if up_at <= t then List.rev acc
      else build (t +. p) ({ down = Time.us t; up = Time.us up_at } :: acc)
  in
  build (Time.to_us from) []

let random ~rng ~sites ~availability ~horizon ?(drop = 0.0) ?(inflate = 1.0)
    ?(jitter = 0.0) ?(slow = 1.0) ?flap ?(oneway = 0.0) () =
  if
    (not (Float.is_finite availability))
    || availability <= 0.0 || availability > 1.0
  then invalid_arg "Fault.random: availability must be in (0, 1]";
  if not (Time.is_finite horizon) || Time.compare horizon Time.zero <= 0 then
    invalid_arg "Fault.random: horizon must be positive and finite";
  if not (Float.is_finite jitter) || jitter < 0.0 then
    invalid_arg "Fault.random: jitter must be >= 0";
  if not (Float.is_finite slow) || slow < 1.0 then
    invalid_arg "Fault.random: slow must be >= 1";
  if not (Float.is_finite oneway) || oneway < 0.0 || oneway > 1.0 then
    invalid_arg "Fault.random: oneway must be in [0, 1]";
  let seed = Msdq_workload.Rng.int rng ~bound:0x3FFFFFFF in
  let h = Time.to_us horizon in
  (* Alternating up/down trains from one per-purpose stream; [share] is the
     expected degraded fraction of the horizon. *)
  let train srng ~share =
    let cycle = h /. 10.0 in
    let mean_down = cycle *. share in
    let mean_up = cycle *. (1.0 -. share) in
    let duration mean =
      (* uniform in [0.5, 1.5) x mean: bounded, never zero *)
      mean *. Msdq_workload.Rng.frange srng ~lo:0.5 ~hi:1.5
    in
    let rec build t acc =
      if t >= h then List.rev acc
      else
        let up_for = duration mean_up in
        let down_at = t +. up_for in
        if down_at >= h then List.rev acc
        else
          let down_for = Float.max 1.0 (duration mean_down) in
          let up_at = Float.min h (down_at +. down_for) in
          build up_at ({ down = Time.us down_at; up = Time.us up_at } :: acc)
    in
    build 0.0 []
  in
  let site_plans =
    if availability >= 1.0 then []
    else
      List.mapi
        (fun rank site ->
          let srng = Msdq_workload.Rng.split_ix rng ~i:rank in
          match flap with
          | None -> { site; outages = train srng ~share:(1.0 -. availability) }
          | Some period ->
            (* Rapid down/up trains at the requested period, phase-shifted
               per site; the duty cycle keeps the expected down share. *)
            let phase =
              Msdq_workload.Rng.frange srng ~lo:0.0
                ~hi:(Time.to_us period)
            in
            {
              site;
              outages =
                flap_train ~from:(Time.us phase) ~until:horizon ~period
                  ~duty:(1.0 -. availability);
            })
        sites
  in
  let links =
    if drop > 0.0 || inflate > 1.0 || jitter > 0.0 then
      List.map (fun site -> { dst = site; drop; inflate; jitter }) sites
    else []
  in
  (* Gray draws come from streams far above the per-site outage ranks, so
     turning a gray knob on never perturbs the binary-fault schedule. *)
  let gray_share = if availability < 1.0 then 1.0 -. availability else 0.5 in
  let slowdowns =
    if slow <= 1.0 then []
    else
      List.mapi
        (fun rank site ->
          let srng = Msdq_workload.Rng.split_ix rng ~i:(2000 + rank) in
          { slow_site = site; factor = slow; busy = train srng ~share:gray_share })
        sites
  in
  let partitions =
    if oneway <= 0.0 then []
    else
      List.concat
        (List.mapi
           (fun rank site ->
             let srng = Msdq_workload.Rng.split_ix rng ~i:(3000 + rank) in
             let u = Msdq_workload.Rng.frange srng ~lo:0.0 ~hi:1.0 in
             if u >= oneway then []
             else
               let direction =
                 if Msdq_workload.Rng.frange srng ~lo:0.0 ~hi:1.0 < 0.5 then
                   Inbound
                 else Outbound
               in
               [ { part_site = site; direction; cut = train srng ~share:gray_share } ])
           sites)
  in
  let s = { seed; sites = site_plans; links; slowdowns; partitions } in
  validate s;
  s

let pp_direction ppf = function
  | Inbound -> Format.fprintf ppf "inbound"
  | Outbound -> Format.fprintf ppf "outbound"

let pp_windows ppf ws =
  List.iter
    (fun w ->
      if Float.is_finite w.up then
        Format.fprintf ppf " [%a, %a)" Time.pp w.down Time.pp w.up
      else Format.fprintf ppf " [%a, forever)" Time.pp w.down)
    ws

let pp ppf s =
  if is_none s then Format.fprintf ppf "no faults"
  else begin
    Format.fprintf ppf "@[<v>fault schedule (seed %d):@," s.seed;
    List.iter
      (fun sf ->
        Format.fprintf ppf "  site %d down:" sf.site;
        pp_windows ppf sf.outages;
        Format.fprintf ppf "@,")
      s.sites;
    List.iter
      (fun lf ->
        Format.fprintf ppf "  link to %d: drop %.2f, inflate %.2fx" lf.dst
          lf.drop lf.inflate;
        if lf.jitter > 0.0 then Format.fprintf ppf ", jitter %.2f" lf.jitter;
        Format.fprintf ppf "@,")
      s.links;
    List.iter
      (fun sl ->
        Format.fprintf ppf "  site %d slow %.2fx:" sl.slow_site sl.factor;
        pp_windows ppf sl.busy;
        Format.fprintf ppf "@,")
      s.slowdowns;
    List.iter
      (fun p ->
        Format.fprintf ppf "  site %d partitioned %a:" p.part_site pp_direction
          p.direction;
        pp_windows ppf p.cut;
        Format.fprintf ppf "@,")
      s.partitions;
    Format.fprintf ppf "@]"
  end

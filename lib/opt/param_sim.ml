open Msdq_simkit
open Msdq_workload
open Msdq_exec

type times = { total : Time.t; response : Time.t }

type overrides = { root_local_selectivity : float option }

let no_overrides = { root_local_selectivity = None }

(* Expected-cardinality model.

   For one parameter sample, the per-phase work is estimated as:
   - shipped/read projection of class k at db i:
       N_o * (S_LOid + N_qa * S_a)                                [Table 2]
   - survivors of the local predicates at db i:
       S_i = N_o(root) * prod_k R_pps^k_i                         [R_pps]
   - maybe ratio: an object is a maybe result when any involved class holds
     missing data for it: 1 - prod_k (1 - R_m^k_i)                [R_m]
   - unsolved items of class k (BL): maybe results times the class's
     missing-data ratio, capped by the number of distinct referenced branch
     objects R_r * N_o^k * R_m (shared advisors are checked once)  [R_r]
   - (PL probes all root objects instead of the survivors)
   - assistant fan-out: R_iso = 1 - 0.9^(N_db-1) means each other database
     independently holds an isomer with probability q = 1-(1-R_iso)^(1/(N_db-1))
     (q = 0.1 under the default formula), so an item has q assistants in
     each other database — their count grows with N_db, which is what makes
     PL's total time overtake CA's in Figure 10. An assistant's database
     can only serve a check if its constituent holds the attribute
     (factor N_pa^j / N_p)                                          [R_iso]
   - a check fetches its assistant by LOid: a random access reading at
     least one S_page disk page, unlike the sequential extent scans
   - signature variants ship only the fraction R_ss of requests    [R_ss]
   - path work: a predicate landing on class k walks k+1 attribute
     accesses plus one comparison. *)

let fi = float_of_int

let simulate ?(overrides = no_overrides) ~cost strategy (s : Params.sample) =
  let c = cost in
  let n_db = s.Params.n_db in
  let n_c = Array.length s.Params.classes in
  let cls k = s.Params.classes.(k) in
  let at k i = (cls k).Params.per_db.(i) in
  (* q: the probability that one other database holds an isomer of a
     class-k object (the assistant fan-out note above). *)
  let isomer_q k =
    if n_db <= 1 then 0.0
    else 1.0 -. ((1.0 -. (cls k).Params.r_iso) ** (1.0 /. fi (n_db - 1)))
  in
  let r_pps k i =
    match (k, overrides.root_local_selectivity) with
    | 0, Some sel when (at k i).Params.n_pa > 0 -> sel
    | _ -> (at k i).Params.r_pps
  in
  let bytes_f b = Time.us (c.Cost.t_d *. b) in
  let net_f b = Time.us (c.Cost.t_net *. b) in
  let cpu_f u = Time.us (c.Cost.t_c *. Float.max 0.0 u) in
  (* CA ships (and reads) whole extents; a localized evaluation reads the
     root extent plus only the referenced fraction R_r of each branch
     extent. *)
  let read_bytes ~localized i =
    let b = ref 0.0 in
    for k = 0 to n_c - 1 do
      let cd = at k i in
      let frac = if localized && k > 0 then (cls k).Params.r_r else 1.0 in
      b :=
        !b
        +. (fi cd.Params.n_o *. frac
           *. fi (c.Cost.s_loid + (cd.Params.n_qa * c.Cost.s_a)))
    done;
    !b
  in
  let g = Engine.create () in
  let gsite = 0 in
  let site i = i + 1 in
  (match strategy with
  | Strategy.Ca ->
    let xfers =
      List.init n_db (fun i ->
          let b = read_bytes ~localized:false i in
          let read =
            Engine.task g ~site:(site i) ~kind:Resource.Disk ~label:"read"
              ~duration:(bytes_f b) ()
          in
          Engine.transfer g ~src:(site i) ~dst:gsite ~label:"ship"
            ~duration:(net_f b) ~deps:[ read ] ())
    in
    let integrate_units = ref 0.0 in
    let entities_root = ref 0.0 in
    for k = 0 to n_c - 1 do
      let o_k = ref 0.0 and merges = ref 0.0 in
      for i = 0 to n_db - 1 do
        let cd = at k i in
        o_k := !o_k +. fi cd.Params.n_o;
        merges := !merges +. (fi cd.Params.n_o *. fi cd.Params.n_qa)
      done;
      (* one hash probe and roughly one reference translation per object *)
      integrate_units := !integrate_units +. (2.0 *. !o_k) +. !merges;
      if k = 0 then
        entities_root := !o_k /. (1.0 +. (isomer_q 0 *. fi (n_db - 1)))
    done;
    let eval_units = ref 0.0 in
    for k = 0 to n_c - 1 do
      eval_units :=
        !eval_units +. (!entities_root *. fi (cls k).Params.n_p *. fi (k + 2))
    done;
    let integrate =
      Engine.task g ~site:gsite ~kind:Resource.Cpu ~label:"integrate"
        ~duration:(cpu_f !integrate_units) ~deps:xfers ()
    in
    ignore
      (Engine.task g ~site:gsite ~kind:Resource.Cpu ~label:"eval"
         ~duration:(cpu_f !eval_units) ~deps:[ integrate ] ())
  | Strategy.Cf ->
    (* Semijoin-filtered centralized: round 1 ships surviving GOid lists;
       round 2 ships only the candidates' root projections plus the branch
       extents. An entity survives globally when all its copies (q per
       other database) pass their local filters. *)
    let gsite = 0 in
    let sel i =
      let s = ref 1.0 in
      for k = 0 to n_c - 1 do
        s := !s *. r_pps k i
      done;
      !s
    in
    let mean_sel =
      let acc = ref 0.0 in
      for i = 0 to n_db - 1 do
        acc := !acc +. sel i
      done;
      !acc /. fi n_db
    in
    let other_copies = isomer_q 0 *. fi (n_db - 1) in
    let survive_global = mean_sel ** other_copies in
    let ships = ref [] in
    let cand_total = ref 0.0 in
    let round1 =
      List.init n_db (fun i ->
          let root = at 0 i in
          let survivors = fi root.Params.n_o *. sel i in
          let candidates = survivors *. survive_global in
          cand_total := !cand_total +. candidates;
          let eval_units = ref survivors in
          for k = 0 to n_c - 1 do
            let cd = at k i in
            eval_units :=
              !eval_units
              +. (fi root.Params.n_o *. fi cd.Params.n_pa *. fi (k + 2))
              +. fi root.Params.n_o
                 *. fi ((cls k).Params.n_p - cd.Params.n_pa)
                 *. fi (k + 1)
          done;
          let read =
            Engine.task g ~site:(site i) ~kind:Resource.Disk ~label:"read"
              ~duration:(bytes_f (read_bytes ~localized:true i)) ()
          in
          let filt =
            Engine.task g ~site:(site i) ~kind:Resource.Cpu ~label:"local-filter"
              ~duration:(cpu_f !eval_units) ~deps:[ read ] ()
          in
          let ship =
            Engine.transfer g ~src:(site i) ~dst:gsite ~label:"ship-goids"
              ~duration:(net_f (survivors *. fi c.Cost.s_goid)) ~deps:[ filt ] ()
          in
          ships := ship :: !ships;
          (i, candidates))
    in
    let entities = 1.0 +. other_copies in
    let global_candidates = !cand_total /. entities in
    let intersect =
      Engine.task g ~site:gsite ~kind:Resource.Cpu ~label:"intersect"
        ~duration:(cpu_f !cand_total) ~deps:(List.rev !ships) ()
    in
    let xfers =
      List.map
        (fun (i, candidates) ->
          let bcast =
            Engine.transfer g ~src:gsite ~dst:(site i) ~label:"ship-candidates"
              ~duration:(net_f (global_candidates *. fi c.Cost.s_goid))
              ~deps:[ intersect ] ()
          in
          let root = at 0 i in
          let b = ref (candidates *. fi (c.Cost.s_loid + (root.Params.n_qa * c.Cost.s_a))) in
          for k = 1 to n_c - 1 do
            let cd = at k i in
            (* only the branch objects the candidates reach *)
            let shipped =
              Float.min (fi cd.Params.n_o *. (cls k).Params.r_r) candidates
            in
            b := !b +. (shipped *. fi (c.Cost.s_loid + (cd.Params.n_qa * c.Cost.s_a)))
          done;
          let read =
            Engine.task g ~site:(site i) ~kind:Resource.Disk
              ~label:"read-candidates" ~duration:(bytes_f !b) ~deps:[ bcast ] ()
          in
          Engine.transfer g ~src:(site i) ~dst:gsite ~label:"ship" ~duration:(net_f !b)
            ~deps:[ read ] ())
        round1
    in
    (* Integration over candidates + branch extents; evaluation over the
       surviving candidates only. *)
    let integrate_units = ref (2.0 *. global_candidates) in
    for k = 1 to n_c - 1 do
      for i = 0 to n_db - 1 do
        let cd = at k i in
        integrate_units :=
          !integrate_units +. (fi cd.Params.n_o *. fi (2 + cd.Params.n_qa))
      done
    done;
    let eval_units = ref 0.0 in
    for k = 0 to n_c - 1 do
      eval_units :=
        !eval_units +. (global_candidates *. fi (cls k).Params.n_p *. fi (k + 2))
    done;
    let integrate =
      Engine.task g ~site:gsite ~kind:Resource.Cpu ~label:"integrate"
        ~duration:(cpu_f !integrate_units) ~deps:xfers ()
    in
    ignore
      (Engine.task g ~site:gsite ~kind:Resource.Cpu ~label:"eval"
         ~duration:(cpu_f !eval_units) ~deps:[ integrate ] ())
  | Strategy.Bl | Strategy.Pl | Strategy.Bls | Strategy.Pls | Strategy.Lo ->
    let parallel =
      match strategy with
      | Strategy.Pl | Strategy.Pls -> true
      | Strategy.Bl | Strategy.Bls | Strategy.Lo -> false
      | Strategy.Ca | Strategy.Cf -> assert false
    in
    let signatures =
      match strategy with
      | Strategy.Bls | Strategy.Pls -> true
      | Strategy.Bl | Strategy.Pl | Strategy.Lo -> false
      | Strategy.Ca | Strategy.Cf -> assert false
    in
    let with_checks = strategy <> Strategy.Lo in
    let global_deps = ref [] in
    (* Per-origin dispatch tasks and per (origin,target) request volumes. *)
    let iso_q = Array.init n_c isomer_q in
    let req_vol = Array.make_matrix n_db n_db 0.0 in
    let dispatch =
      Array.init n_db (fun i ->
          let root = at 0 i in
          let sel = ref 1.0 and p_no_missing = ref 1.0 in
          for k = 0 to n_c - 1 do
            sel := !sel *. r_pps k i;
            p_no_missing := !p_no_missing *. (1.0 -. (at k i).Params.r_m)
          done;
          let survivors = fi root.Params.n_o *. !sel in
          let maybe = survivors *. (1.0 -. !p_no_missing) in
          (* Unsolved (item, predicate) pairs per branch class, for BL
             (survivors only) or PL (all root objects). Distinct items are
             bounded by the referenced fraction of the branch extent; each item
             carries one check per unsolved predicate: all the class-missing
             predicates plus the nulled share of the locally present ones. *)
          let base = if parallel then fi root.Params.n_o else maybe in
          let items = Array.make n_c 0.0 in
          for k = 1 to n_c - 1 do
            let cd = at k i in
            let missing = (cls k).Params.n_p - cd.Params.n_pa in
            let null_rate = if missing > 0 then 0.1 else cd.Params.r_m in
            let unsolved_per_item =
              fi missing +. (null_rate *. fi cd.Params.n_pa)
            in
            let distinct = fi cd.Params.n_o *. (cls k).Params.r_r in
            items.(k) <-
              Float.min (base *. cd.Params.r_m) (distinct *. cd.Params.r_m)
              *. unsolved_per_item
          done;
          let total_items = Array.fold_left ( +. ) 0.0 items in
          (* Assistant fan-out to each other database. *)
          let sig_checks = ref 0.0 in
          for j = 0 to n_db - 1 do
            if j <> i then begin
              let vol = ref 0.0 in
              for k = 1 to n_c - 1 do
                let gc = cls k in
                let capable =
                  if gc.Params.n_p = 0 then 1.0
                  else fi (at k j).Params.n_pa /. fi gc.Params.n_p
                in
                let base_req = items.(k) *. iso_q.(k) *. capable in
                sig_checks := !sig_checks +. base_req;
                let shipped =
                  if signatures then base_req *. (at k j).Params.r_ss else base_req
                in
                vol := !vol +. shipped
              done;
              req_vol.(i).(j) <- (if with_checks then !vol else 0.0)
            end
          done;
          (* Work units. *)
          let eval_units = ref (survivors (* row tagging *)) in
          let probe_units = ref 0.0 in
          for k = 0 to n_c - 1 do
            let cd = at k i in
            let local = fi root.Params.n_o *. fi cd.Params.n_pa *. fi (k + 2) in
            let cut =
              fi root.Params.n_o *. fi ((cls k).Params.n_p - cd.Params.n_pa) *. fi (k + 1)
            in
            eval_units := !eval_units +. local +. cut;
            probe_units :=
              !probe_units +. (fi root.Params.n_o *. fi (cls k).Params.n_p *. fi (k + 1))
          done;
          let dispatch_units =
            if not with_checks then 0.0
            else total_items +. (if signatures then !sig_checks else 0.0)
          in
          let read =
            Engine.task g ~site:(site i) ~kind:Resource.Disk ~label:"read"
              ~duration:(bytes_f (read_bytes ~localized:true i)) ()
          in
          let d, after =
            if parallel then begin
              let probe =
                Engine.task g ~site:(site i) ~kind:Resource.Cpu ~label:"probe"
                  ~duration:(cpu_f !probe_units) ~deps:[ read ] ()
              in
              let d =
                Engine.task g ~site:(site i) ~kind:Resource.Cpu ~label:"dispatch"
                  ~duration:(cpu_f dispatch_units) ~deps:[ probe ] ()
              in
              let eval =
                Engine.task g ~site:(site i) ~kind:Resource.Cpu ~label:"eval"
                  ~duration:(cpu_f !eval_units) ~deps:[ d ] ()
              in
              (d, eval)
            end
            else begin
              let eval =
                Engine.task g ~site:(site i) ~kind:Resource.Cpu ~label:"eval"
                  ~duration:(cpu_f !eval_units) ~deps:[ read ] ()
              in
              let d =
                Engine.task g ~site:(site i) ~kind:Resource.Cpu ~label:"dispatch"
                  ~duration:(cpu_f dispatch_units) ~deps:[ eval ] ()
              in
              (d, d)
            end
          in
          (* Local results to the global site. *)
          let n_ta_total = ref 0 and unsolved_avg = ref 0.0 in
          for k = 0 to n_c - 1 do
            n_ta_total := !n_ta_total + (at k i).Params.n_ta;
            unsolved_avg := !unsolved_avg +. (at k i).Params.r_m
          done;
          let results_bytes =
            survivors
            *. fi (c.Cost.s_goid + c.Cost.s_loid + (!n_ta_total * c.Cost.s_a))
            +. (maybe *. !unsolved_avg *. fi (c.Cost.s_loid + c.Cost.s_a))
          in
          let ship =
            Engine.transfer g ~src:(site i) ~dst:gsite ~label:"ship-results"
              ~duration:(net_f results_bytes) ~deps:[ after ] ()
          in
          global_deps := ship :: !global_deps;
          d)
    in
    (* Check round trips per (origin, target). *)
    let total_verdicts = ref 0.0 in
    for i = 0 to n_db - 1 do
      for j = 0 to n_db - 1 do
        if i <> j && req_vol.(i).(j) > 0.0 then begin
          let n = req_vol.(i).(j) in
          total_verdicts := !total_verdicts +. n;
          let req_xfer =
            Engine.transfer g ~src:(site i) ~dst:(site j) ~label:"ship-requests"
              ~duration:(net_f (n *. fi ((2 * c.Cost.s_loid) + (2 * c.Cost.s_a))))
              ~deps:[ dispatch.(i) ] ()
          in
          let read =
            Engine.task g ~site:(site j) ~kind:Resource.Disk ~label:"check-read"
              ~duration:
                (bytes_f
                   (n *. fi (max c.Cost.s_page (c.Cost.s_loid + (2 * c.Cost.s_a)))))
              ~deps:[ req_xfer ] ()
          in
          let eval =
            Engine.task g ~site:(site j) ~kind:Resource.Cpu ~label:"check-eval"
              ~duration:(cpu_f (n *. 2.0)) ~deps:[ read ] ()
          in
          let verdicts =
            Engine.transfer g ~src:(site j) ~dst:gsite ~label:"ship-verdicts"
              ~duration:(net_f (n *. fi (c.Cost.s_loid + 2)))
              ~deps:[ eval ] ()
          in
          global_deps := verdicts :: !global_deps
        end
      done
    done;
    (* Certification. *)
    let certify_units = ref !total_verdicts in
    for i = 0 to n_db - 1 do
      let root = at 0 i in
      let sel = ref 1.0 in
      for k = 0 to n_c - 1 do
        sel := !sel *. r_pps k i
      done;
      let survivors = fi root.Params.n_o *. !sel in
      let n_p_total = ref 0 in
      for k = 0 to n_c - 1 do
        n_p_total := !n_p_total + (cls k).Params.n_p
      done;
      certify_units := !certify_units +. (survivors *. fi (1 + !n_p_total))
    done;
    ignore
      (Engine.task g ~site:gsite ~kind:Resource.Cpu ~label:"certify"
         ~duration:(cpu_f !certify_units) ~deps:(List.rev !global_deps) ()));
  Engine.run g;
  let run = Engine.totals g in
  { total = run.Engine.total_busy; response = run.Engine.makespan }

(* Sample [i] draws from [Rng.split_ix base ~i] — a private stream per index
   rather than one shared sequential stream. Two consequences:

   - parallel and sequential evaluation are bit-identical: the draw for
     sample [i] cannot depend on which domain ran sample [i-1], or whether
     it ran at all yet;
   - the paired-comparison property strengthens: sample [i] sees the same
     stream for every strategy and every sweep point, even when the ranges
     differ in how many values one draw consumes. *)
let average ?overrides ?pool ~cost ~samples ~seed ~ranges strategy =
  if samples < 1 then
    invalid_arg (Printf.sprintf "Param_sim.average: samples must be >= 1 (got %d)" samples);
  let base = Rng.create ~seed in
  let one rng _i () =
    let s = Params.sample rng ranges in
    let t = simulate ?overrides ~cost strategy s in
    (Time.to_us t.total, Time.to_us t.response)
  in
  (* Reduce in index order: float addition is not associative, so the merge
     order is part of the determinism contract. The sequential path sums as
     it draws: an array of 500 results would go straight to the major heap
     at every figure point. *)
  let sum_total = ref 0.0 and sum_resp = ref 0.0 in
  let add (t, r) =
    sum_total := !sum_total +. t;
    sum_resp := !sum_resp +. r
  in
  (match pool with
  | Some pool when Msdq_par.Pool.jobs pool > 1 ->
    Array.iter add
      (Msdq_par.Par.tabulate_seeded pool ~rng:base ~n:samples ~f:(fun rng i ->
           one rng i ()))
  | Some _ | None ->
    for i = 0 to samples - 1 do
      add (one (Rng.split_ix base ~i) i ())
    done);
  {
    total = Time.us (!sum_total /. fi samples);
    response = Time.us (!sum_resp /. fi samples);
  }

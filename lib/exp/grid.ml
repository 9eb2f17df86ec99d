let map ?pool ?progress ~id ~log f cells =
  let total = Array.length cells in
  let completed = Atomic.make 0 in
  let feedback = Mutex.create () in
  let at _ cell =
    let r = f cell in
    let completed = 1 + Atomic.fetch_and_add completed 1 in
    Mutex.protect feedback (fun () ->
        log cell r ~completed ~total;
        Option.iter (fun p -> p ~figure:id ~completed ~total) progress);
    r
  in
  match pool with
  | Some pool when Msdq_par.Pool.jobs pool > 1 ->
    Msdq_par.Pool.map_array pool ~f:at cells
  | Some _ | None -> Array.mapi at cells

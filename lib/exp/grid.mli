(** The one loop every sweep evaluates its grid with.

    A sweep is a flat array of independent cells (point indices, or
    explicit parameter tuples), each evaluated by a function that is pure
    in its cell: it draws only from cell-derived rng streams and owns its
    metrics instances. The cells run in index order without a pool (or on
    a one-worker pool) and on the pool's domains otherwise; results land
    by cell index either way, so everything built from them is
    bit-identical for any worker count. Only the live log and progress
    lines, serialized but unordered, depend on scheduling. *)

val map :
  ?pool:Msdq_par.Pool.t ->
  ?progress:(figure:string -> completed:int -> total:int -> unit) ->
  id:string ->
  log:('a -> 'b -> completed:int -> total:int -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ?pool ?progress ~id ~log f cells] is [Array.map f cells]. After
    each cell it calls [log cell result] and [progress ~figure:id], one
    cell at a time, with the number of cells completed so far. *)

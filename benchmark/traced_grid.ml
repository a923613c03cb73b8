(* A Space.S instance that forwards every call to Grid_space and times
   it from outside, plus counts the callbacks the engine hands in
   (pair visits, DSU unions and dissolves). The engine instantiated over
   this module runs exactly the calls Simulation's engine runs; the
   wrapper only reads the clock and bumps counters, which the report
   equality check in Oracle confirms.

   Counters are module-global: the benchmark drives one traced engine at
   a time. The wrapped callbacks are cached per engine closure, so a
   traced step allocates no more than an untraced one and the
   minor-words figure stays the engine's own. *)

module G = Mobile_network.Grid_space
module Space = Mobile_network.Space

let now = Obs.Clock.now_ns

type counters = {
  mutable move_ns : int;
  mutable index_ns : int;
  mutable pairs_ns : int;  (* iter_close_pairs + reconcile_components *)
  mutable observe_ns : int;
  mutable rebuilds : int;
  mutable deltas : int;
  mutable pairs : int;  (* iter_close_pairs callback visits *)
  mutable unions : int;
  mutable dissolves : int;
}

let c =
  {
    move_ns = 0;
    index_ns = 0;
    pairs_ns = 0;
    observe_ns = 0;
    rebuilds = 0;
    deltas = 0;
    pairs = 0;
    unions = 0;
    dissolves = 0;
  }

let reset () =
  c.move_ns <- 0;
  c.index_ns <- 0;
  c.pairs_ns <- 0;
  c.observe_ns <- 0;
  c.rebuilds <- 0;
  c.deltas <- 0;
  c.pairs <- 0;
  c.unions <- 0;
  c.dissolves <- 0

(* Wall time spent inside wrapped calls, for the engine's self time. *)
let wrapped_ns () = c.move_ns + c.index_ns + c.pairs_ns + c.observe_ns

type t = G.t
type pos = G.pos

let create = G.create
let grid = G.grid
let init_positions = G.init_positions

let move_all ?present t pos rngs mobility =
  let t0 = now () in
  G.move_all ?present t pos rngs mobility;
  c.move_ns <- c.move_ns + (now () - t0)

let rebuild_index ?present t pos =
  let t0 = now () in
  let u = G.rebuild_index ?present t pos in
  c.index_ns <- c.index_ns + (now () - t0);
  c.rebuilds <- c.rebuilds + 1;
  (match u with Space.Delta -> c.deltas <- c.deltas + 1 | Space.Rebuilt -> ());
  u

(* The engine passes the same preallocated closures every step, so each
   is wrapped once, in a single-entry cache keyed by physical equality.
   In the flooding engines every pair visit is a DSU union. *)
let cache2 cell bump f =
  match !cell with
  | Some (g, w) when g == f -> w
  | Some _ | None ->
      let w i j =
        bump ();
        f i j
      in
      cell := Some (f, w);
      w

let bump_pair () =
  c.pairs <- c.pairs + 1;
  c.unions <- c.unions + 1

let bump_union () = c.unions <- c.unions + 1
let pair_cache = ref None
let union_cache = ref None
let dissolve_cache = ref None

let iter_close_pairs t ~f =
  let t0 = now () in
  G.iter_close_pairs t ~f:(cache2 pair_cache bump_pair f);
  c.pairs_ns <- c.pairs_ns + (now () - t0)

let counted_dissolve f =
  match !dissolve_cache with
  | Some (g, w) when g == f -> w
  | Some _ | None ->
      let w i =
        c.dissolves <- c.dissolves + 1;
        f i
      in
      dissolve_cache := Some (f, w);
      w

let reconcile_components t ~dissolve ~union =
  let t0 = now () in
  G.reconcile_components t ~dissolve:(counted_dissolve dissolve)
    ~union:(cache2 union_cache bump_union union);
  c.pairs_ns <- c.pairs_ns + (now () - t0)

let max_occupancy = G.max_occupancy
let cover_cells = G.cover_cells
let cover_target = G.cover_target

let observe t pos ~informed ~frontier ~cover ~cover_any =
  let t0 = now () in
  let f = G.observe t pos ~informed ~frontier ~cover ~cover_any in
  c.observe_ns <- c.observe_ns + (now () - t0);
  f

(* Checks computed apart from the program: close pairs by brute force,
   informed components by BFS, the paper's shape properties by a
   least-squares fit, and direct re-computation of service results.
   Every check returns the list of its failure messages ([] = pass). *)

module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Exchange = Mobile_network.Exchange
module Simulation = Mobile_network.Simulation
module G = Mobile_network.Grid_space
module Ast = Scenario.Ast

(* The engine over the timing wrapper: the benchmark's traced runs and
   its sampled-step checks both go through it. *)
module TE = Engine.Make (Traced_grid)

(* The same engine parameters Simulation derives from a Config. *)
let spec_of_config (cfg : Config.t) =
  {
    Engine.agents = cfg.Config.agents;
    protocol = cfg.Config.protocol;
    exchange =
      (match cfg.Config.exchange with
      | Config.Flood_component -> Exchange.Flood_component
      | Config.Single_hop -> Exchange.Single_hop);
    seed = cfg.Config.seed;
    trial = cfg.Config.trial;
    source = cfg.Config.source;
    sources = cfg.Config.sources;
    max_steps = Config.effective_max_steps cfg;
    record_history = cfg.Config.record_history;
    track_islands = true;
    faults = cfg.Config.faults;
  }

let traced_space (cfg : Config.t) =
  let grid =
    Grid.create
      ~topology:(if cfg.Config.torus then Grid.Torus else Grid.Bounded)
      ~side:cfg.Config.side ()
  in
  Traced_grid.create grid ~kernel:cfg.Config.kernel ~radius:cfg.Config.radius

(* --- close pairs ---------------------------------------------------------- *)

(* Pairs as [i * k + j] with [i < j], sorted. *)
let brute_pairs ~side ~torus ~radius (pos : G.pos) =
  let k = G.agents pos in
  let xy i =
    let v = G.node_at pos i in
    (v mod side, v / side)
  in
  let out = Mobile_network.Intbuf.create () in
  if radius = 0 then begin
    (* cell-occupancy table: agents sharing a node are the only pairs *)
    let by_node = Hashtbl.create k in
    for i = k - 1 downto 0 do
      let v = G.node_at pos i in
      Hashtbl.replace by_node v
        (i :: Option.value ~default:[] (Hashtbl.find_opt by_node v))
    done;
    Hashtbl.iter
      (fun _ members ->
        let rec emit = function
          | [] -> ()
          | i :: rest ->
              List.iter (fun j -> Mobile_network.Intbuf.push out ((i * k) + j)) rest;
              emit rest
        in
        emit members)
      by_node
  end
  else begin
    let xs = Array.init k (fun i -> fst (xy i)) in
    let ys = Array.init k (fun i -> snd (xy i)) in
    let dist a b =
      let d = abs (a - b) in
      if torus then min d (side - d) else d
    in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if dist xs.(i) xs.(j) + dist ys.(i) ys.(j) <= radius then
          Mobile_network.Intbuf.push out ((i * k) + j)
      done
    done
  end;
  let a = Mobile_network.Intbuf.to_array out in
  Array.sort Int.compare a;
  a

(* Every visibility edge of the last rebuild, as iter_close_pairs visits
   it (duplicates kept, so "each pair once" is checkable). *)
let index_pairs space k =
  let out = Mobile_network.Intbuf.create () in
  Mobile_network.Grid_space.iter_close_pairs space ~f:(fun i j ->
      Mobile_network.Intbuf.push out ((min i j * k) + max i j));
  let a = Mobile_network.Intbuf.to_array out in
  Array.sort Int.compare a;
  a

let check_pairs ~label ~want space k =
  let got = index_pairs space k in
  let dup = ref false in
  for p = 1 to Array.length got - 1 do
    if got.(p) = got.(p - 1) then dup := true
  done;
  if !dup then [ label ^ ": iter_close_pairs visited a pair twice" ]
  else if want <> got then
    [
      Printf.sprintf "%s: iter_close_pairs gave %d pairs, brute force %d"
        label (Array.length got) (Array.length want);
    ]
  else []

(* Every component (by BFS over the brute-force edges) that holds an
   informed agent is fully informed. *)
let check_components ~label ~k pairs (informed : bool array) =
  let deg = Array.make k 0 in
  Array.iter
    (fun p ->
      deg.(p / k) <- deg.(p / k) + 1;
      deg.(p mod k) <- deg.(p mod k) + 1)
    pairs;
  let start = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    start.(i + 1) <- start.(i) + deg.(i)
  done;
  let adj = Array.make start.(k) 0 in
  let fill = Array.copy start in
  Array.iter
    (fun p ->
      let i = p / k and j = p mod k in
      adj.(fill.(i)) <- j;
      fill.(i) <- fill.(i) + 1;
      adj.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1)
    pairs;
  let seen = Array.make k false in
  let queue = Array.make k 0 in
  let bad = ref 0 in
  for s = 0 to k - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      let any = ref false and all = ref true in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        if informed.(v) then any := true else all := false;
        for e = start.(v) to start.(v + 1) - 1 do
          let w = adj.(e) in
          if not seen.(w) then begin
            seen.(w) <- true;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done;
      if !any && not !all then incr bad
    end
  done;
  if !bad > 0 then
    [ Printf.sprintf "%s: %d components hold informed and uninformed agents" label !bad ]
  else []

(* Step a traced engine to [steps] (or completion), checking pairs and
   components every [every] steps and that the informed count never
   falls. *)
let check_engine_run ~label ~every ~steps (cfg : Config.t) =
  let space = traced_space cfg in
  let e = TE.create ~metrics:Obs.Sink.null ~space (spec_of_config cfg) in
  let k = cfg.Config.agents in
  let side = cfg.Config.side and torus = cfg.Config.torus in
  let radius = cfg.Config.radius in
  let errs = ref [] in
  let sample () =
    let lbl = Printf.sprintf "%s t=%d" label (TE.time e) in
    let want = brute_pairs ~side ~torus ~radius (TE.pos e) in
    errs :=
      !errs
      @ check_pairs ~label:lbl ~want space k
      @ check_components ~label:lbl ~k want (TE.informed e)
  in
  sample ();
  let prev = ref (TE.informed_count e) in
  while (not (TE.is_done e)) && TE.time e < steps && !errs = [] do
    TE.step e;
    let inf = TE.informed_count e in
    if inf < !prev then
      errs := [ Printf.sprintf "%s: informed count fell at t=%d" label (TE.time e) ];
    prev := inf;
    if TE.time e mod every = 0 then sample ()
  done;
  !errs

(* The traced engine must give Simulation's report: the wrapper only
   observes. *)
let check_same_report ~label (cfg : Config.t) =
  let r = Simulation.run_config ~metrics:Obs.Sink.null cfg in
  Gc.full_major ();
  let space = traced_space cfg in
  let tr = TE.run (TE.create ~metrics:Obs.Sink.null ~space (spec_of_config cfg)) in
  let same_outcome =
    match (r.Simulation.outcome, tr.Engine.outcome) with
    | Simulation.Completed, Engine.Completed | Simulation.Timed_out, Engine.Timed_out ->
        true
    | Simulation.Completed, Engine.Timed_out | Simulation.Timed_out, Engine.Completed ->
        false
  in
  if
    same_outcome
    && r.Simulation.steps = tr.Engine.steps
    && r.Simulation.informed = tr.Engine.informed
    && r.Simulation.covered = tr.Engine.covered
  then []
  else
    [
      Printf.sprintf "%s: traced engine report (%d steps, %d informed) differs \
                      from Simulation.run_config (%d steps, %d informed)"
        label tr.Engine.steps tr.Engine.informed r.Simulation.steps
        r.Simulation.informed;
    ]

(* --- paper shape ---------------------------------------------------------- *)

(* Least-squares slope of log y against log x. *)
let loglog_slope pts =
  let n = float_of_int (List.length pts) in
  let lx = List.map (fun (x, _) -> log x) pts in
  let ly = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0. l /. n in
  let mx = mean lx and my = mean ly in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. lx ly in
  let sxx = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0. lx in
  sxy /. sxx

let in_band ~label ~lo ~hi v =
  if v >= lo && v <= hi then []
  else [ Printf.sprintf "%s = %.3f outside [%.2f, %.2f]" label v lo hi ]

(* --- service results ------------------------------------------------------ *)

(* (steps, informed) of one run of a scenario cell, computed here with
   the same derived parameters the CLI uses for each space. *)
let direct_cell (c : Ast.cell) ~seed ~trial =
  match c.Ast.c_space with
  | Ast.Grid ->
      let r = Simulation.run_config ~metrics:Obs.Sink.null (Ast.cell_config c ~seed ~trial) in
      (r.Simulation.steps, r.Simulation.informed)
  | Ast.Continuum ->
      let radius = float_of_int c.Ast.c_radius in
      let r =
        Continuum.broadcast ~metrics:Obs.Sink.null
          {
            Continuum.box_side = float_of_int c.Ast.c_side;
            agents = c.Ast.c_agents;
            radius;
            sigma = (if radius > 0. then radius /. 4. else 1.0);
            seed;
            trial;
            max_steps = Option.value c.Ast.c_max_steps ~default:1_000_000;
          }
      in
      (r.Continuum.steps, r.Continuum.informed)
  | Ast.Domain ->
      let side = c.Ast.c_side in
      let r =
        Barriers.Barrier_sim.broadcast ~metrics:Obs.Sink.null
          {
            Barriers.Barrier_sim.domain =
              Barriers.Domain.unobstructed (Grid.create ~side ());
            agents = c.Ast.c_agents;
            radius = c.Ast.c_radius;
            los_blocking = false;
            seed;
            trial;
            max_steps = Option.value c.Ast.c_max_steps ~default:(100 * side * side);
          }
      in
      (r.Barriers.Barrier_sim.steps, r.Barriers.Barrier_sim.informed)

(* The repository benchmark: one named workload per process, inputs made
   from --seed, outputs checked, one JSON result as the last stdout line.

     bench.exe --workload paper_sweep|bigk_steady|service_mixed
               --seed N --seconds S --trace 0|1
               [--mobisim PATH] [--state-dir DIR]

   --trace 0 prints the end-to-end metrics, measured with no
   instrumentation attached; --trace 1 runs the same work through the
   outside-timed engine (Traced_grid) and the service layers called
   directly, and prints the per-layer metrics. See README.md. *)

module Config = Mobile_network.Config
module Simulation = Mobile_network.Simulation
module Intbuf = Mobile_network.Intbuf
module Theory = Mobile_network.Theory
module Json = Obs.Json
module Compile = Scenario.Compile
module Ast = Scenario.Ast
module TE = Oracle.TE
module TG = Traced_grid

let now = Obs.Clock.now_ns

(* --- arguments ------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mobisim : string;
  state : string;
}

let usage =
  "usage: bench.exe --workload paper_sweep|bigk_steady|service_mixed --seed N \
   --seconds S --trace 0|1 [--mobisim PATH] [--state-dir DIR]"

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, v) :: acc) rest
    | x :: _ -> raise (Arg.Bad ("unexpected argument " ^ x))
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k d = match List.assoc_opt k kv with Some v -> v | None -> d in
  let req k =
    match List.assoc_opt k kv with Some v -> v | None -> raise (Arg.Bad ("missing " ^ k))
  in
  {
    workload = req "--workload";
    seed = int_of_string (req "--seed");
    seconds = float_of_string (req "--seconds");
    trace =
      (match req "--trace" with
      | "0" -> false
      | "1" -> true
      | v -> raise (Arg.Bad ("--trace must be 0 or 1, got " ^ v)));
    mobisim = get "--mobisim" "_build/default/bin/mobisim.exe";
    state = get "--state-dir" ".bench_build";
  }

(* --- statistics and checks ------------------------------------------------ *)

(* Linear-interpolation quantile of a sample (sorted copy). *)
let quantile (a : float array) q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median l = quantile (Array.of_list l) 0.5
let ns_array b = Array.map float_of_int (Intbuf.to_array b)
let mean_of sum n = if n = 0 then 0. else float_of_int sum /. float_of_int n

(* Every failed check makes the run incorrect. [failed] counts the
   operations (broadcasts, steps, submits) whose own checks failed;
   whole-run checks (paper bands, phase-clock agreement, layer
   round-trips) are not operations and only set [errors]. *)
let errors : string list ref = ref []
let failed = ref 0
let check errs = errors := !errors @ errs
let fail msg = check [ msg ]

(* The checks of one operation: any error counts it once as failed. *)
let check_op errs =
  if errs <> [] then begin
    incr failed;
    check errs
  end

(* A seed per (workload seed, input index): same seed, same inputs. *)
let sub_seed seed i = Hashtbl.hash (seed, i) land 0x3FFFFFFF

(* --- engine accounting (traced runs) -------------------------------------- *)

type acc = {
  mutable runs : int;
  mutable steps : int;
  mutable step_ns : int;
  mutable create_ns : int;
  mutable setup_words : float;
  mutable step_words : float;
  mutable index_words : float;
  mutable move_ns : int;
  mutable index_ns : int;
  mutable pairs_ns : int;
  mutable observe_ns : int;
  mutable rebuilds : int;
  mutable deltas : int;
  mutable pairs : int;
  mutable unions : int;
  mutable dissolves : int;
  (* over creation and steps, for the phase-clock agreement check *)
  mutable index_all_ns : int;
  mutable rebuilds_all : int;
}

let new_acc () =
  {
    runs = 0; steps = 0; step_ns = 0; create_ns = 0; setup_words = 0.;
    step_words = 0.; index_words = 0.; move_ns = 0; index_ns = 0;
    pairs_ns = 0; observe_ns = 0; rebuilds = 0; deltas = 0; pairs = 0;
    unions = 0; dissolves = 0; index_all_ns = 0; rebuilds_all = 0;
  }

let major_direct () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* One traced engine run: creation timed and its allocation counted,
   then up to [cap] steps (or to completion), each timed from outside.
   Returns the engine for inspection and the number of steps at which
   the informed count fell. *)
let traced_run acc ~sink ~cap (cfg : Config.t) =
  TG.reset ();
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let grid =
    Grid.create
      ~topology:(if cfg.Config.torus then Grid.Torus else Grid.Bounded)
      ~side:cfg.Config.side ()
  in
  let j0 = major_direct () in
  let space = TG.create grid ~kernel:cfg.Config.kernel ~radius:cfg.Config.radius in
  let j1 = major_direct () in
  let e = TE.create ~metrics:sink ~space (Oracle.spec_of_config cfg) in
  let t1 = now () in
  let m1 = Gc.minor_words () in
  acc.runs <- acc.runs + 1;
  acc.create_ns <- acc.create_ns + (t1 - t0);
  acc.setup_words <- acc.setup_words +. (m1 -. m0);
  acc.index_words <- acc.index_words +. (j1 -. j0);
  let c = TG.c in
  let move0 = c.move_ns and index0 = c.index_ns and pairs0 = c.pairs_ns in
  let observe0 = c.observe_ns and rebuilds0 = c.rebuilds and deltas0 = c.deltas in
  let npairs0 = c.pairs and unions0 = c.unions and dissolves0 = c.dissolves in
  let prev = ref (TE.informed_count e) and falls = ref 0 in
  let m2 = Gc.minor_words () in
  while (not (TE.is_done e)) && TE.time e < cap do
    let s0 = now () in
    TE.step e;
    let dt = now () - s0 in
    acc.step_ns <- acc.step_ns + dt;
    acc.steps <- acc.steps + 1;
    let inf = TE.informed_count e in
    if inf < !prev then incr falls;
    prev := inf
  done;
  acc.step_words <- acc.step_words +. (Gc.minor_words () -. m2);
  acc.move_ns <- acc.move_ns + (c.move_ns - move0);
  acc.index_ns <- acc.index_ns + (c.index_ns - index0);
  acc.pairs_ns <- acc.pairs_ns + (c.pairs_ns - pairs0);
  acc.observe_ns <- acc.observe_ns + (c.observe_ns - observe0);
  acc.rebuilds <- acc.rebuilds + (c.rebuilds - rebuilds0);
  acc.deltas <- acc.deltas + (c.deltas - deltas0);
  acc.pairs <- acc.pairs + (c.pairs - npairs0);
  acc.unions <- acc.unions + (c.unions - unions0);
  acc.dissolves <- acc.dissolves + (c.dissolves - dissolves0);
  acc.index_all_ns <- acc.index_all_ns + c.index_ns;
  acc.rebuilds_all <- acc.rebuilds_all + c.rebuilds;
  (e, !falls)

(* One untraced run through Simulation, the path users run. Each step's
   wall time goes to [samples] when given, and the creation time is
   added to [create_ns]. Returns the report and the number of steps at
   which the informed count fell. *)
let untraced_run ?samples ?create_ns (cfg : Config.t) =
  let t0 = now () in
  let s = Simulation.create cfg in
  Option.iter (fun c -> c := !c + (now () - t0)) create_ns;
  let prev = ref (Simulation.informed_count s) and falls = ref 0 in
  let last = ref (now ()) in
  let on_step s =
    let t = now () in
    Option.iter (fun b -> Intbuf.push b (t - !last)) samples;
    let inf = Simulation.informed_count s in
    if inf < !prev then incr falls;
    prev := inf;
    last := now ()
  in
  let r = Simulation.run ~on_step s in
  (r, !falls)

let phase reg name = Obs.Registry.histogram reg ("sim.phase." ^ name ^ "_ns")
let phase_mean reg name = Obs.Metric.Histogram.mean_ns (phase reg name)

(* The outside timings of move and index must agree with the engine's
   own phase clock over the same calls: exactly as many samples, and
   means within 10% or 0.5 us (the phase clock also times its own clock
   reads and the wrapper's). *)
let agreement_tolerance_ns mean = Float.max 500. (0.10 *. mean)

let check_agreement acc reg =
  let hm = phase reg "move" and hi = phase reg "index" in
  if Obs.Metric.Histogram.count hm <> acc.steps then
    fail "phase clock: move sample count differs from the steps timed outside";
  if Obs.Metric.Histogram.count hi <> acc.rebuilds_all then
    fail "phase clock: index sample count differs from the wrapped rebuilds";
  let agree name outside phase_mean =
    if Float.abs (outside -. phase_mean) > agreement_tolerance_ns phase_mean then
      fail
        (Printf.sprintf "phase clock %s mean %.0f ns vs outside %.0f ns" name
           phase_mean outside)
  in
  agree "move" (mean_of acc.move_ns acc.steps) (Obs.Metric.Histogram.mean_ns hm);
  agree "index" (mean_of acc.index_all_ns acc.rebuilds_all) (Obs.Metric.Histogram.mean_ns hi)

(* [fence] is the mean T_B of the workload's first round: fixed by the
   seed, so it moves only if a run's draws change. *)
let engine_layer_metrics acc reg ~fence =
  let per_step v = mean_of v acc.steps in
  let wrapped = acc.move_ns + acc.index_ns + acc.pairs_ns + acc.observe_ns in
  [
    ("walk.move_ns_per_step", "ns", per_step acc.move_ns);
    ("spatial.index_ns_per_step", "ns", per_step acc.index_ns);
    ("spatial.index_mb", "MB", acc.index_words *. 8. /. 1048576. /. float_of_int acc.runs);
    ("spatial.pairs_ns_per_step", "ns", per_step acc.pairs_ns);
    ("spatial.pairs_per_step", "count", per_step acc.pairs);
    ("spatial.delta_ratio", "ratio", mean_of acc.deltas acc.rebuilds);
    ("dsu.unions_per_step", "count", per_step acc.unions);
    ("dsu.dissolves_per_step", "count", per_step acc.dissolves);
    ("engine.move_phase_ns", "ns", phase_mean reg "move");
    ("engine.index_phase_ns", "ns", phase_mean reg "index");
    ("engine.components_ns_per_step", "ns", phase_mean reg "components");
    ("engine.exchange_ns_per_step", "ns", phase_mean reg "exchange");
    ("engine.record_ns_per_step", "ns", phase_mean reg "record");
    ("engine.observe_ns_per_step", "ns", per_step acc.observe_ns);
    ("engine.self_ns_per_step", "ns", per_step (acc.step_ns - wrapped));
    ("engine.step_ns_per_step", "ns", per_step acc.step_ns);
    ("engine.create_us", "us", mean_of acc.create_ns acc.runs /. 1e3);
    ("engine.minor_words_per_step", "words", acc.step_words /. float_of_int (max 1 acc.steps));
    ("engine.setup_minor_words", "words", acc.setup_words /. float_of_int (max 1 acc.runs));
    ("engine.steps_per_broadcast", "steps", fence);
  ]

(* --- the service session ---------------------------------------------------- *)

(* One scenario file of a round: label, text, and whether its protocol
   is the plain single-rumor broadcast. *)
type file = {
  label : string;
  text : string;
  broadcast : bool;
}

(* A cold submit; [bad] once any of its checks has failed. *)
type submitted = {
  file : file;
  compiled : Compile.compiled;
  response : string;
  runs : int;
  lines : Svc.line list;
  mutable bad : bool;
}

let fail_submit s msg =
  s.bad <- true;
  fail msg

(* One worker: at --jobs 2 the daemon's idle worker domains join every
   stop-the-world minor collection, and on this 2-vCPU class of machine
   that put warm-submit p90 at 0.95-2.03 ms over three paper_sweep runs
   against 0.61-0.72 ms at --jobs 1 (see README). *)
let daemon_jobs = 1

(* A daemon the workload submits to, and what its rounds measured. *)
type session = {
  args : args;
  tag : string;
  d : Svc.daemon;
  mutable start_ns : int list;  (* start-to-healthy of every daemon started *)
  mutable cold_ns : int;
  mutable cold_runs : int;
  mutable cold_agent_steps : int;
  mutable bcast_ns : int;
  mutable bcast_runs : int;
  mutable warm_runs : int;
  mutable submits : int;
  warm : Intbuf.t;  (* ns per warm submit *)
  mutable rounds : submitted list list;  (* newest first *)
}

let state_path args name = Filename.concat args.state (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let open_session args ~tag =
  let d, ns =
    Svc.start ~mobisim:args.mobisim ~root:(state_path args tag)
      ~socket:(state_path args tag ^ ".sock") ~jobs:daemon_jobs
  in
  {
    args; tag; d; start_ns = [ ns ]; cold_ns = 0; cold_runs = 0;
    cold_agent_steps = 0; bcast_ns = 0; bcast_runs = 0; warm_runs = 0;
    submits = 0; warm = Intbuf.create (); rounds = [];
  }

(* Start and stop one more daemon on a scratch root, to time start-up. *)
let probe_start s =
  let name = s.tag ^ "-probe" in
  let d, ns =
    Svc.start ~mobisim:s.args.mobisim ~root:(state_path s.args name)
      ~socket:(state_path s.args name ^ ".sock") ~jobs:daemon_jobs
  in
  Svc.stop d;
  s.start_ns <- ns :: s.start_ns

let compile_exn text =
  match Compile.compile text with
  | Ok c -> c
  | Error e -> failwith ("benchmark scenario rejected: " ^ String.concat "; " e)

(* Cold submits of the round's fresh-seed files, each timed from request
   sent to last byte, then [warm_reps] fully cached resubmits of all of
   them. Parsing and checks happen between the timed requests. *)
let service_round s files ~warm_reps =
  (* the client's heap starts each round with no collection owed, so
     the workload's own allocation between rounds does not leak into
     the submit latencies *)
  Gc.full_major ();
  let subs =
    List.map
      (fun file ->
        let t0 = now () in
        let response = Svc.submit s.d file.text in
        let dt = now () - t0 in
        s.submits <- s.submits + 1;
        let compiled = compile_exn file.text in
        let runs, lines = Svc.parse_response response in
        s.cold_ns <- s.cold_ns + dt;
        s.cold_runs <- s.cold_runs + runs;
        if file.broadcast then begin
          s.bcast_ns <- s.bcast_ns + dt;
          s.bcast_runs <- s.bcast_runs + runs
        end;
        let cells = Array.of_list compiled.Compile.cells in
        List.iter
          (fun (l : Svc.line) ->
            s.cold_agent_steps <-
              s.cold_agent_steps + (cells.(l.Svc.cell).Ast.c_agents * l.Svc.steps))
          lines;
        { file; compiled; response; runs; lines; bad = false })
      files
  in
  for _ = 1 to warm_reps do
    List.iter
      (fun sub ->
        let t0 = now () in
        let response = Svc.submit s.d sub.file.text in
        Intbuf.push s.warm (now () - t0);
        s.submits <- s.submits + 1;
        s.warm_runs <- s.warm_runs + sub.runs;
        if not (String.equal response sub.response) then
          check_op [ sub.file.label ^ ": warm response differs from the cold one" ])
      subs
  done;
  s.rounds <- subs :: s.rounds;
  subs

type svc_out = {
  sess : session;
  rounds : submitted list list;  (* oldest first *)
  rss_kb : int;
  metrics : Json.t;
}

(* The daemon's own counters must match the mix: every cold run one
   miss, every warm run one hit. *)
let close_session s =
  let metrics = Svc.metrics s.d in
  let counter name =
    match Option.bind (Json.member "counters" metrics) (Json.member name) with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  if counter "service.cache.misses" <> s.cold_runs then
    fail
      (Printf.sprintf "daemon counted %d misses for %d cold runs"
         (counter "service.cache.misses") s.cold_runs);
  if counter "service.cache.hits" <> s.warm_runs then
    fail
      (Printf.sprintf "daemon counted %d hits for %d warm runs"
         (counter "service.cache.hits") s.warm_runs);
  let rss_kb = Svc.vmhwm_kb s.d.Svc.pid in
  Svc.stop s.d;
  { sess = s; rounds = List.rev s.rounds; rss_kb; metrics }

(* Line counts, and sampled lines against a direct computation: line
   [r mod runs] of each file of round [r], for the first [max_rounds]
   rounds. Runs last among the checks on cold submits, so it also counts
   the failed ones. *)
let verify_service out ~max_rounds =
  List.iteri
    (fun r subs ->
      List.iter
        (fun s ->
          let c = s.compiled in
          let expect = List.length c.Compile.cells * c.Compile.trials in
          if s.runs <> expect || List.length s.lines <> expect then
            fail_submit s
              (Printf.sprintf "%s: %d result lines for %d cells x %d trials"
                 s.file.label (List.length s.lines) (List.length c.Compile.cells)
                 c.Compile.trials);
          if r < max_rounds && s.lines <> [] then begin
            let l = List.nth s.lines (r mod List.length s.lines) in
            let cell = List.nth c.Compile.cells l.Svc.cell in
            let steps, informed = Oracle.direct_cell cell ~seed:l.Svc.seed ~trial:l.Svc.trial in
            if steps <> l.Svc.steps || informed <> l.Svc.informed then
              fail_submit s
                (Printf.sprintf "%s: line (cell %d, trial %d) says %d steps/%d informed, \
                                 direct run %d/%d"
                   s.file.label l.Svc.cell l.Svc.trial l.Svc.steps l.Svc.informed steps
                   informed)
          end)
        subs)
    out.rounds;
  List.iter (List.iter (fun s -> if s.bad then incr failed)) out.rounds

let warm_p50_ms out = quantile (ns_array out.sess.warm) 0.5 /. 1e6

(* Per-layer service figures: the daemon's metrics op, plus compile,
   store and runner calls made here on the first round's files. *)
let service_layer_metrics out =
  let args = out.sess.args in
  let first = match out.rounds with r :: _ -> r | [] -> [] in
  let reps = 5 in
  let compile_ns = ref 0 and compiles = ref 0 in
  List.iter
    (fun s ->
      for _ = 1 to reps do
        let t0 = now () in
        ignore (compile_exn s.file.text);
        compile_ns := !compile_ns + (now () - t0);
        incr compiles
      done)
    first;
  let root = state_path args (out.sess.tag ^ "-layers") in
  Svc.rm_rf root;
  let store = Service.Store.create ~root () in
  let put_ns = ref 0 and get_ns = ref 0 and keys = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (l : Svc.line) ->
          let t0 = now () in
          Service.Store.put store ~hash:l.Svc.hash ~seed:l.Svc.seed ~trial:l.Svc.trial l.Svc.payload;
          let t1 = now () in
          (match Service.Store.get store ~hash:l.Svc.hash ~seed:l.Svc.seed ~trial:l.Svc.trial with
          | Some p when String.equal p l.Svc.payload -> ()
          | Some _ | None -> fail "store: payload did not round-trip");
          get_ns := !get_ns + (now () - t1);
          put_ns := !put_ns + (t1 - t0);
          incr keys)
        s.lines)
    first;
  (* one engine run per file of the first round, through the runner's
     own payload function *)
  let payload_ns = ref 0 and payloads = ref 0 in
  List.iter
    (fun s ->
      match s.lines with
      | [] -> ()
      | l :: _ ->
          let cell = List.nth s.compiled.Compile.cells l.Svc.cell in
          let t0 = now () in
          let p = Service.Runner.run_payload cell ~seed:l.Svc.seed ~trial:l.Svc.trial in
          payload_ns := !payload_ns + (now () - t0);
          incr payloads;
          if not (String.equal p l.Svc.payload) then
            fail (s.file.label ^ ": run_payload differs from the daemon's result"))
    first;
  let pool = Runtime.Pool.create ~jobs:1 in
  let warm_ns = ref 0 and warms = ref 0 in
  List.iter
    (fun s ->
      for _ = 1 to reps do
        let t0 = now () in
        let body = Service.Runner.run ~pool ~store s.compiled in
        warm_ns := !warm_ns + (now () - t0);
        incr warms;
        let header_end = String.index s.response '\n' + 1 in
        let cold_body = String.sub s.response header_end (String.length s.response - header_end) in
        if not (String.equal body cold_body) then
          fail (s.file.label ^ ": in-process warm run differs from the daemon's body")
      done)
    first;
  Runtime.Pool.shutdown pool;
  Svc.rm_rf root;
  let m = out.metrics in
  let section name = Option.value (Json.member name m) ~default:(Json.Assoc []) in
  let num = function
    | Some (Json.Int n) -> float_of_int n
    | Some (Json.Float f) -> f
    | _ -> 0.
  in
  let task = Option.value (Json.member "pool.task_ns" (section "histograms")) ~default:Json.Null in
  (* every pool row that ran tasks: the coordinator at --jobs 1, the
     worker domains above it *)
  let busy =
    match section "gauges" with
    | Json.Assoc kv ->
        List.filter_map
          (fun (k, v) ->
            let f = num (Some v) in
            if String.ends_with ~suffix:".busy_fraction" k && f > 0. then Some f else None)
          kv
    | _ -> []
  in
  let runner_warm_ms = mean_of !warm_ns !warms /. 1e6 in
  let counter name = num (Option.bind (Json.member "counters" m) (Json.member name)) in
  [
    ("scenario.compile_ms", "ms", mean_of !compile_ns !compiles /. 1e6);
    ("store.get_us", "us", mean_of !get_ns !keys /. 1e3);
    ("store.put_us", "us", mean_of !put_ns !keys /. 1e3);
    ("runner.payload_ms", "ms", mean_of !payload_ns !payloads /. 1e6);
    ("runner.warm_ms", "ms", runner_warm_ms);
    ("daemon.warm_submit_ms_p50", "ms", warm_p50_ms out);
    ("daemon.overhead_ms", "ms", warm_p50_ms out -. runner_warm_ms);
    ( "runtime.pool.task_ms",
      "ms",
      num (Json.member "sum_ns" task) /. Float.max 1. (num (Json.member "count" task)) /. 1e6 );
    ( "runtime.pool.busy_fraction",
      "ratio",
      if busy = [] then 0. else List.fold_left ( +. ) 0. busy /. float_of_int (List.length busy) );
    ("service.cache.hits", "count", counter "service.cache.hits");
    ("service.cache.misses", "count", counter "service.cache.misses");
  ]

let per_s n ns = float_of_int n /. (float_of_int ns /. 1e9)

(* Warm-submit latency is reported per layer only: a cached resubmit
   still rewrites the result artifact, so its latency follows the disk's
   write latency, and over ten-run sets its median's quartile spread was
   0.23-0.53 of the median (see README). *)
let service_e2e out = [ ("cold_runs_per_s", "1/s", per_s out.sess.cold_runs out.sess.cold_ns) ]

let seconds_of_ns l = List.map (fun ns -> float_of_int ns /. 1e9) l

(* --- workloads -------------------------------------------------------------- *)

type result = {
  attempted : int;
  metrics : (string * string * float) list;
}

let traced_result ~attempted acc reg ~fence out =
  check_agreement acc reg;
  { attempted; metrics = engine_layer_metrics acc reg ~fence @ service_layer_metrics out }

(* paper_sweep: full broadcasts on the paper's model (bounded grid, lazy
   1/5 walk, one source, flooding); after each point of a round, one
   service round of a run of the same model. *)
let paper_points =
  List.concat_map
    (fun k ->
      let rc = int_of_float (Theory.percolation_radius ~n:(128 * 128) ~k) in
      [ (128, k, 0); (128, k, rc / 4) ])
    [ 16; 64; 256; 1024 ]
  @ [ (64, 64, 0); (256, 64, 0) ]

let paper_trials = 6
let step_point = (128, 1024, 0)

let paper_cfg seed p (side, k, r) trial =
  Config.make ~side ~agents:k ~radius:r ~seed:(sub_seed seed p) ~trial ()

(* The cold submit after point [p] of round [round]: one run, k cycling
   through 64, 256 and 1024, with a fresh seed. *)
let paper_file seed ~round p =
  {
    label = "paper";
    broadcast = true;
    text =
      Printf.sprintf
        {|{"name": "paper", "side": 128, "agents": %d, "radius": 0, "trials": 1, "seed": %d}|}
        (List.nth [ 64; 256; 1024 ] (p mod 3))
        (sub_seed seed (1000 + (round * List.length paper_points) + p));
  }

let paper_checks seed (tb : (int * int * int, int list) Hashtbl.t) =
  let med p = median (List.map float_of_int (Hashtbl.find tb p)) in
  let k_slope =
    Oracle.loglog_slope (List.map (fun k -> (float_of_int k, med (128, k, 0))) [ 16; 64; 256; 1024 ])
  in
  let n_slope =
    Oracle.loglog_slope
      (List.map (fun s -> (float_of_int (s * s), med (s, 64, 0))) [ 64; 128; 256 ])
  in
  check (Oracle.in_band ~label:"slope of log T_B against log k" ~lo:(-0.95) ~hi:(-0.35) k_slope);
  check (Oracle.in_band ~label:"slope of log T_B against log n" ~lo:0.75 ~hi:1.5 n_slope);
  List.iter
    (fun (side, k, r) ->
      if r > 0 then
        check
          (Oracle.in_band
             ~label:(Printf.sprintf "T_B(r=%d)/T_B(r=0) at k=%d" r k)
             ~lo:0.15 ~hi:1.25
             (med (side, k, r) /. med (side, k, 0))))
    paper_points;
  (* sampled-step oracles and the wrapper's report equality *)
  let cfg p pt trial = paper_cfg seed p pt trial in
  check (Oracle.check_engine_run ~label:"k=1024 r=1" ~every:40 ~steps:400 (cfg 7 (128, 1024, 1) 0));
  check (Oracle.check_engine_run ~label:"k=256 r=0" ~every:40 ~steps:400 (cfg 4 (128, 256, 0) 0));
  check (Oracle.check_engine_run ~label:"k=16 r=8" ~every:100 ~steps:2000 (cfg 1 (128, 16, 8) 0));
  check (Oracle.check_same_report ~label:"k=64 r=4" (cfg 3 (128, 64, 4) 0));
  check (Oracle.check_same_report ~label:"side=64 k=64" (cfg 8 (64, 64, 0) 0))

let paper_sweep args =
  let window_ns = int_of_float (args.seconds *. 1e9) in
  let tb = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace tb p []) paper_points;
  let broadcasts = ref 0 and agent_steps = ref 0 and sweep_ns = ref 0 in
  let fence_steps = ref 0 and fence_runs = ref 0 in
  (* sized for every sample a run takes, so the buffer's growth does not
     depend on how many rounds fit in the window *)
  let step_samples = Intbuf.create ~initial_capacity:(1 lsl 17) () and setup = ref [] in
  let acc = new_acc () in
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.of_registry reg in
  let sess = open_session args ~tag:"paper" in
  let t_start = now () in
  let round = ref 0 in
  while !round = 0 || now () - t_start < window_ns do
    (* set-up: the creation time of every engine of the round, so each
       sample spreads over the whole round rather than one moment *)
    let create_ns = ref 0 in
    List.iteri
      (fun p ((_, k, _) as pt) ->
        let r0 = now () in
        for j = 0 to paper_trials - 1 do
          let cfg = paper_cfg args.seed p pt ((!round * paper_trials) + j) in
          let steps, informed, falls, timed_out =
            if args.trace then begin
              let e, falls = traced_run acc ~sink ~cap:max_int cfg in
              (TE.time e, TE.informed_count e, falls, false)
            end
            else begin
              let samples = if pt = step_point then Some step_samples else None in
              let r, falls = untraced_run ?samples ~create_ns cfg in
              ( r.Simulation.steps,
                r.Simulation.informed,
                falls,
                r.Simulation.outcome <> Simulation.Completed )
            end
          in
          check_op
            (List.filter_map
               (fun (bad, msg) -> if bad then Some ("paper_sweep: " ^ msg) else None)
               [
                 (timed_out, "a broadcast timed out");
                 (informed <> k, "a broadcast ended with informed < k");
                 (falls > 0, "informed count fell in a broadcast");
               ]);
          Hashtbl.replace tb pt (steps :: Hashtbl.find tb pt);
          incr broadcasts;
          agent_steps := !agent_steps + (k * steps);
          if !round = 0 then begin
            fence_steps := !fence_steps + steps;
            incr fence_runs
          end
        done;
        sweep_ns := !sweep_ns + (now () - r0);
        (* a service round after every point spreads the cold submits
           over the whole run *)
        ignore (service_round sess [ paper_file args.seed ~round:!round p ] ~warm_reps:3))
      paper_points;
    setup := !create_ns :: !setup;
    incr round
  done;
  (* the workload's own peak, before the checks allocate *)
  let rss_kb = Svc.vmhwm_kb 0 in
  let out = close_session sess in
  verify_service out ~max_rounds:20;
  paper_checks args.seed tb;
  let attempted = !broadcasts + sess.submits in
  if args.trace then
    traced_result ~attempted acc reg ~fence:(mean_of !fence_steps !fence_runs) out
  else
    let steps_ms = ns_array step_samples in
    {
      attempted;
      metrics =
        [
          ("agent_steps_per_s", "1/s", per_s !agent_steps !sweep_ns);
          ("broadcasts_per_s", "1/s", per_s !broadcasts !sweep_ns);
          ("step_ms_p90", "ms", quantile steps_ms 0.9 /. 1e6);
          ("setup_s", "s", median (seconds_of_ns !setup));
          ("peak_rss_mb", "MB", float_of_int rss_kb /. 1024.);
        ]
        @ service_e2e out;
    }

(* bigk_steady: step-capped runs at population scale, r = 0, with a few
   thousand agents informed at the start; after each run, one service
   round of a capped run of the same size. *)
let bigk_side = 2048
let bigk_agents = 65536
let bigk_sources = 4096
let bigk_warmup = 20
let bigk_steps = 120

let bigk_cfg seed i =
  Config.make ~side:bigk_side ~agents:bigk_agents ~radius:0 ~sources:bigk_sources
    ~seed:(sub_seed seed 0) ~trial:i ~max_steps:1_000_000 ()

let bigk_file seed round =
  {
    label = "bigk";
    broadcast = true;
    text =
      Printf.sprintf
        {|{"name": "bigk", "side": %d, "agents": %d, "radius": 0, "max_steps": 6, "trials": 2, "seed": %d}|}
        bigk_side bigk_agents (sub_seed seed (1000 + round));
  }

let bigk_steady args =
  let window_ns = int_of_float (args.seconds *. 1e9) in
  let step_samples = Intbuf.create () in
  let setup = ref [] in
  let instances = ref 0 and instance_ns = ref 0 and steps = ref 0 in
  let acc = new_acc () in
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.of_registry reg in
  let sess = open_session args ~tag:"bigk" in
  let t_start = now () in
  while !instances = 0 || now () - t_start < window_ns do
    Gc.full_major ();
    let cfg = bigk_cfg args.seed !instances in
    let t0 = now () in
    if args.trace then begin
      let before = acc.steps in
      let e, falls = traced_run acc ~sink ~cap:bigk_steps cfg in
      for _ = 1 to falls do
        check_op [ "bigk_steady: informed count fell" ]
      done;
      if TE.is_done e then fail "bigk_steady: the broadcast completed inside the window";
      steps := !steps + (acc.steps - before)
    end
    else begin
      let s = Simulation.create cfg in
      setup := (now () - t0) :: !setup;
      let prev = ref (Simulation.informed_count s) in
      for i = 1 to bigk_steps do
        let s0 = now () in
        Simulation.step s;
        let dt = now () - s0 in
        if i > bigk_warmup then Intbuf.push step_samples dt;
        let inf = Simulation.informed_count s in
        if inf < !prev then check_op [ "bigk_steady: informed count fell" ];
        prev := inf
      done;
      if Simulation.is_done s then fail "bigk_steady: the broadcast completed inside the window";
      steps := !steps + bigk_steps
    end;
    instance_ns := !instance_ns + (now () - t0);
    incr instances;
    ignore (service_round sess [ bigk_file args.seed !instances ] ~warm_reps:30)
  done;
  let rss_kb = Svc.vmhwm_kb 0 in
  let out = close_session sess in
  (* at least five creations for the set-up median *)
  if not args.trace then
    while List.length !setup < 5 do
      Gc.full_major ();
      let t0 = now () in
      ignore (Simulation.create (bigk_cfg args.seed (List.length !setup)));
      setup := (now () - t0) :: !setup
    done;
  Gc.full_major ();
  check (Oracle.check_engine_run ~label:"bigk" ~every:10 ~steps:30 (bigk_cfg args.seed 0));
  Gc.full_major ();
  check
    (Oracle.check_same_report ~label:"bigk"
       { (bigk_cfg args.seed 1) with Config.max_steps = Some 20 });
  Gc.full_major ();
  verify_service out ~max_rounds:1;
  let attempted = !steps + sess.submits in
  if args.trace then traced_result ~attempted acc reg ~fence:(float_of_int bigk_steps) out
  else
    let samples = ns_array step_samples in
    let window_s = Array.fold_left ( +. ) 0. samples /. 1e9 in
    {
      attempted;
      metrics =
        [
          ( "agent_steps_per_s", "1/s",
            float_of_int (bigk_agents * Array.length samples) /. window_s );
          ("broadcasts_per_s", "1/s", per_s !instances !instance_ns);
          ("step_ms_p90", "ms", quantile samples 0.9 /. 1e6);
          ("setup_s", "s", median (seconds_of_ns !setup));
          ("peak_rss_mb", "MB", float_of_int rss_kb /. 1024.);
        ]
        @ service_e2e out;
    }

(* service_mixed: one client, one daemon; per round five fresh-seed cold
   sweeps, then fully cached resubmits. The cells are sized so a round
   computes for about half a second: smaller rounds ran the daemon's
   per-submit file writes back to back, and the disk's write-back and
   discard backlog then slowed the warm submits of the runs after. *)
let mixed_files seed round =
  let s = sub_seed seed (2000 + round) in
  [
    {
      label = "gossip-loss";
      broadcast = false;
      text =
        Printf.sprintf
          {|{"name": "gossip-loss", "side": 48, "agents": [16, 24], "radius": [1, 2], "protocol": "gossip", "trials": 2, "seed": %d, "faults": {"loss_p": 0.2}}|}
          s;
    };
    {
      label = "single-hop-churn";
      broadcast = false;
      text =
        Printf.sprintf
          {|{"name": "single-hop-churn", "side": 48, "agents": [16, 24], "radius": [1, 2], "protocol": "gossip", "exchange": "single-hop", "trials": 2, "seed": %d, "faults": {"churn": {"leave_p": 0.05, "return_p": 0.5}}}|}
          s;
    };
    {
      label = "continuum";
      broadcast = true;
      text =
        Printf.sprintf
          {|{"name": "continuum", "space": "continuum", "side": [20, 24], "agents": [32, 48], "radius": 2, "trials": 2, "seed": %d}|}
          s;
    };
    {
      label = "domain";
      broadcast = true;
      text =
        Printf.sprintf
          {|{"name": "domain", "space": "domain", "side": [32, 40], "agents": [12, 16], "radius": 1, "trials": 2, "seed": %d}|}
          s;
    };
    {
      label = "broadcast";
      broadcast = true;
      text =
        Printf.sprintf
          {|{"name": "broadcast", "side": [96, 128], "agents": [128, 256], "radius": 0, "trials": 2, "seed": %d}|}
          s;
    };
  ]

(* The plain-broadcast file's first cell (side 96, k 128, r 0): its
   runs are recomputed here with every step timed. *)
let mixed_step_cell = 0

let service_mixed args =
  let window_ns = int_of_float (args.seconds *. 1e9) in
  let step_samples = Intbuf.create () in
  let fence_steps = ref 0 and fence_runs = ref 0 in
  let acc = new_acc () in
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.of_registry reg in
  (* After each round, while the daemon idles: every run of the step
     cell recomputed here with its steps timed, and checked against the
     daemon's line; and one more daemon started and stopped, for the
     start-up median. Spreading these over the window keeps the figures
     from resting on one moment of the machine. *)
  let rerun_step_cell ~first subs =
    List.iter
      (fun s ->
        if s.file.label = "broadcast" then
          List.iter
            (fun (l : Svc.line) ->
              if l.Svc.cell = mixed_step_cell then begin
                let cell = List.nth s.compiled.Compile.cells l.Svc.cell in
                let cfg = Ast.cell_config cell ~seed:l.Svc.seed ~trial:l.Svc.trial in
                let steps, informed, falls =
                  if args.trace then
                    let e, falls = traced_run acc ~sink ~cap:(Config.effective_max_steps cfg) cfg in
                    (TE.time e, TE.informed_count e, falls)
                  else
                    let r, falls = untraced_run ~samples:step_samples cfg in
                    (r.Simulation.steps, r.Simulation.informed, falls)
                in
                if first then begin
                  fence_steps := !fence_steps + steps;
                  incr fence_runs
                end;
                if steps <> l.Svc.steps || informed <> l.Svc.informed then
                  fail_submit s "service_mixed: step-cell run differs from the daemon's line";
                if falls > 0 then fail_submit s "service_mixed: informed count fell in a step-cell run"
              end)
            s.lines)
      subs
  in
  let sess = open_session args ~tag:"mixed" in
  let t_start = now () in
  let round = ref 0 in
  while !round = 0 || now () - t_start < window_ns do
    let subs = service_round sess (mixed_files args.seed !round) ~warm_reps:4 in
    rerun_step_cell ~first:(!round = 0) subs;
    if not args.trace then probe_start sess;
    incr round
  done;
  let out = close_session sess in
  verify_service out ~max_rounds:max_int;
  if args.trace then
    traced_result ~attempted:sess.submits acc reg ~fence:(mean_of !fence_steps !fence_runs) out
  else
    let samples = ns_array step_samples in
    {
      attempted = sess.submits;
      metrics =
        [
          ("agent_steps_per_s", "1/s", per_s sess.cold_agent_steps sess.cold_ns);
          ("broadcasts_per_s", "1/s", per_s sess.bcast_runs sess.bcast_ns);
          ("step_ms_p90", "ms", quantile samples 0.9 /. 1e6);
          ("setup_s", "s", median (seconds_of_ns sess.start_ns));
          ("peak_rss_mb", "MB", float_of_int out.rss_kb /. 1024.);
        ]
        @ service_e2e out;
    }

(* --- main ----------------------------------------------------------------- *)

let () =
  let args =
    try parse_args Sys.argv
    with Arg.Bad msg | Failure msg ->
      prerr_endline msg;
      prerr_endline usage;
      exit 2
  in
  if not (Sys.file_exists args.mobisim) then begin
    Printf.eprintf "bench: daemon binary %s not found (build it first)\n" args.mobisim;
    exit 2
  end;
  if not (Sys.file_exists args.state) then Sys.mkdir args.state 0o755;
  at_exit Svc.kill_all;
  let run =
    match args.workload with
    | "paper_sweep" -> paper_sweep
    | "bigk_steady" -> bigk_steady
    | "service_mixed" -> service_mixed
    | w ->
        Printf.eprintf "bench: unknown workload %s\n%s\n" w usage;
        exit 2
  in
  match run args with
  | exception e ->
      Printf.eprintf "bench: %s failed: %s\n" args.workload (Printexc.to_string e);
      exit 1
  | r ->
      List.iter (fun e -> Printf.eprintf "bench: check failed: %s\n" e) !errors;
      let finite (name, _, v) =
        Float.is_finite v
        || begin
             Printf.eprintf "bench: metric %s is not a finite number\n" name;
             false
           end
      in
      let all_finite = List.for_all finite r.metrics in
      let metrics =
        List.map
          (fun (name, unit, v) ->
            ( name,
              Json.Assoc
                [
                  ("value", Json.Float (if Float.is_finite v then v else 0.));
                  ("unit", Json.String unit);
                ] ))
          r.metrics
      in
      print_endline
        (Json.to_string
           (Json.Assoc
              [
                ("correct", Json.Bool (!errors = [] && all_finite));
                ("attempted", Json.Int r.attempted);
                ("failed", Json.Int !failed);
                ("metrics", Json.Assoc metrics);
              ]))

(* The three workloads that run in the benchmark's own process:
   pbo-pipeline, advise-roster and tune-search. serve-mixed, which
   drives a daemon process, is in [Serve]. *)

module D = Slo_core.Driver
module H = Slo_core.Heuristics
module W = Slo_profile.Weights
module Codec = Slo_core.Codec
module Suite = Slo_suite.Suite
module Tune = Slo_tune.Tune
open Summary

type outcome = {
  setup_s : float;                    (* median over the set-ups *)
  lat_ms : float list;                (* one per timed operation *)
  tail_q : float;                     (* the percentile [tail_ms] reports *)
  throughput : float option;          (* per second, if not operations per second *)
  attempted : int;
  failed : int;
  rss_mb : float option;              (* peak RSS if not this process's *)
  rounds_traced : int;                (* passes over the inputs while traced *)
  traced_ms : float;                  (* wall-clock of the traced window *)
  overhead_pct : float;               (* traced vs untraced operation time *)
  extra : (string * float) list;      (* workload-specific per-layer values *)
}

(* Set-up times. A workload sets up [first] times before the measured
   phase and keeps the last result; [again] sets up once more, times it
   and throws the result away. The measured phase calls [again] at
   intervals through the run, so that the median spans the run and a
   burst of interference from other guests on the host while the
   process starts does not decide it. *)
type setup_timer = { mutable times : float list; mutable again : unit -> unit }

let start_setup ~first ?(dispose = ignore) setup =
  let timer = { times = []; again = ignore } in
  let once () =
    Gc.compact ();
    let t0 = now () in
    let r = setup () in
    timer.times <- since_ms t0 /. 1000.0 :: timer.times;
    r
  in
  for _ = 2 to first do
    dispose (once ())
  done;
  let r = once () in
  timer.again <- (fun () -> dispose (once ()));
  (timer, r)

(* the set-ups [again] adds to an untraced run of [seconds], one after
   each round that ends at least [seconds / resetups] after the last *)
let resetups = 10

(* Rounds of [round] while [seconds] last; the round under way when they
   run out finishes, so there is always at least one. [round] adds its
   operations' latencies to [op_lat]. *)
let rounds ?timer ~seconds ~op_lat round =
  let t0 = now () and n = ref 0 and last = ref 0.0 in
  op_lat := [];
  while !n = 0 || since_ms t0 < seconds *. 1000.0 do
    round ();
    incr n;
    Option.iter
      (fun tm ->
        if since_ms t0 -. !last >= seconds *. 1000.0 /. float_of_int resetups then begin
          tm.again ();
          last := since_ms t0
        end)
      timer
  done;
  (!op_lat, !n, since_ms t0)

(* The measured phase. Untraced: [seconds] of rounds, with set-ups
   between them. Traced: half the time untraced, then half traced; the
   ratio of mean operation times is the tracing overhead. *)
let measure_phase ~trace ~seconds ~op_lat ~timer round =
  if not trace then begin
    let lat, _, _ = rounds ~timer ~seconds ~op_lat round in
    (lat, 0, 0.0, 0.0)
  end
  else begin
    let untraced, _, _ = rounds ~seconds:(seconds /. 2.0) ~op_lat round in
    Layers.reset ();
    Trace.reset ();
    Trace.enabled := true;
    let lat, n, ms = rounds ~seconds:(seconds /. 2.0) ~op_lat round in
    Trace.enabled := false;
    let overhead = (mean lat /. mean untraced -. 1.0) *. 100.0 in
    (lat, n, ms, overhead)
  end

(* one timed operation: its latency, and whether it passed every check *)
let timed_op ~op_lat ~attempted ~failed ~what f =
  Trace.set_op (!attempted + 1);
  incr attempted;
  let before = !Refs.failures in
  let t0 = now () in
  let ok =
    match Trace.span "op" f with
    | ok -> ok
    | exception e ->
      Refs.fail "%s: %s" what (Printexc.to_string e);
      false
  in
  op_lat := since_ms t0 :: !op_lat;
  if (not ok) || !Refs.failures > before then incr failed

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let plans_key decisions =
  String.concat ";" (List.map Codec.plan_to_string (H.plans decisions))

let counts (m : D.measurement) =
  Printf.sprintf "steps=%d cycles=%d l1=%d l2=%d accesses=%d" m.m_result.steps m.m_cycles
    m.m_l1_misses m.m_l2_misses m.m_accesses

(* ------------------------------------------------------------------ *)
(* pbo-pipeline: the paper's Table-3 unit, one caller, closed loop     *)
(* ------------------------------------------------------------------ *)

type unit_spec = { u_name : string; u_scheme : W.scheme; u_train : int list; u_ref : int list }

(* mcf is the miss-heavy program (L1 ~11%, L2 ~6% at these arguments),
   cactusADM stays cache-resident (<0.5%) and milc is in between; mcf and
   moldyn also get the paper's no-profile ISPBO row. Arguments are
   reduced from the roster's, mcf's and moldyn's to their smallest,
   where the programs' fixed-size set-up already dominates; one pass
   over the five units takes 6 to 8 s on a 2-core host. One operation is
   one pass, so every unit is in every latency. *)
let pbo_units =
  [
    { u_name = "181.mcf"; u_scheme = W.PBO; u_train = [ 1; 1 ]; u_ref = [ 1; 3 ] };
    { u_name = "181.mcf"; u_scheme = W.ISPBO; u_train = []; u_ref = [ 1; 3 ] };
    { u_name = "moldyn"; u_scheme = W.ISPBO; u_train = []; u_ref = [ 1 ] };
    { u_name = "cactusADM"; u_scheme = W.PBO; u_train = [ 3 ]; u_ref = [ 5 ] };
    { u_name = "milc"; u_scheme = W.PBO; u_train = [ 1 ]; u_ref = [ 2 ] };
  ]

(* the 3 to 4 passes of a run leave no percentile ten samples beyond
   it: the tail is the slowest pass *)
let pbo_tail_q = 0.9

let unit_key u = Printf.sprintf "pbo/%s/%s@%s" u.u_name (Codec.scheme_name u.u_scheme) (Refs.args_key u.u_ref)

(* compile -> collect (train) -> analyze/decide -> transform -> measure
   before and after; returns the speedup and the programs it measured *)
let run_unit ~reference u =
  let src = (Suite.find u.u_name).source in
  let prog = Layers.compile src in
  let feedback =
    if W.needs_profile u.u_scheme then Some (fst (Layers.collect ~args:u.u_train prog)) else None
  in
  let _, _, decisions = Layers.analyze_decide prog ~scheme:u.u_scheme ~feedback in
  let transformed = Layers.transform prog decisions in
  let before = Layers.measure ~args:u.u_ref prog in
  let after = Layers.measure ~args:u.u_ref transformed in
  let key = unit_key u in
  let ok =
    List.for_all Fun.id
      [
        Refs.check_output ~what:(key ^ " before") ~reference before.m_result;
        Refs.check_output ~what:(key ^ " after") ~reference after.m_result;
        Refs.expect (key ^ "/plans") (plans_key decisions);
        Refs.expect (key ^ "/before") (counts before);
        Refs.expect (key ^ "/after") (counts after);
      ]
  in
  (ok, D.speedup_pct ~before ~after, (prog, feedback, transformed))

let pbo ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let setup () =
    List.map
      (fun u ->
        let e = Suite.find u.u_name in
        let prog = D.compile ~verify:true e.source in
        (u, Refs.reference_stdout ~name:u.u_name ~args:u.u_ref prog))
      pbo_units
  in
  let timer, units = start_setup ~first:21 setup in
  let op_lat = ref [] and attempted = ref 0 and failed = ref 0 and gains = ref [] in
  (* one pass: its latency is the sum of its units', each a checked
     operation of its own *)
  let round () =
    let unit_lat = ref [] in
    List.iter
      (fun (u, reference) ->
        let probe = ref None in
        (* a unit allocates hundreds of MB: compact first, outside the
           unit's time, so no unit pays for the garbage of the one before
           it and the seeded order does not change what each unit costs *)
        Gc.compact ();
        timed_op ~op_lat:unit_lat ~attempted ~failed ~what:(unit_key u) (fun () ->
            let ok, gain, progs = run_unit ~reference u in
            gains := gain :: !gains;
            probe := Some progs;
            ok);
        (* per-layer probes, outside the operation's time: the profile
           matcher alone, and the VM with no cache simulator behind it *)
        if !Trace.enabled then
          Option.iter
            (fun (prog, feedback, transformed) ->
              Option.iter (Layers.matching prog) feedback;
              ignore (Layers.vm_run ~args:u.u_ref prog);
              ignore (Layers.vm_run ~args:u.u_ref transformed))
            !probe)
      (shuffle rng units);
    op_lat := List.fold_left ( +. ) 0.0 !unit_lat :: !op_lat
  in
  let lat, n, traced_ms, overhead = measure_phase ~trace ~seconds ~op_lat ~timer round in
  let gain = geomean_pct (List.filteri (fun i _ -> i < List.length pbo_units) !gains) in
  ignore (Refs.expect "pbo/layout_gain_pct" (Printf.sprintf "%.4f" gain));
  {
    setup_s = median timer.times; lat_ms = lat; tail_q = pbo_tail_q; throughput = None;
    attempted = !attempted; failed = !failed; rss_mb = None; rounds_traced = n;
    traced_ms; overhead_pct = overhead; extra = [ ("layout.gain_pct", gain) ];
  }

(* ------------------------------------------------------------------ *)
(* advise-roster: source -> advice with no execution                   *)
(* ------------------------------------------------------------------ *)

let advise_sources () =
  List.map (fun (e : Suite.entry) -> (e.name, e.source)) Suite.roster
  @ List.map
      (fun f -> (f, Refs.read_file (Filename.concat "examples" f)))
      [ "check_demo.mc"; "pool_demo.mc" ]

let advise_one (name, src) =
  let prog = Layers.compile src in
  let pts = Layers.span "pointsto.analyze" (fun () -> Slo_pointsto.Pointsto.analyze prog) in
  let shape = Layers.span "shape.analyze" (fun () -> Shape.analyze prog) in
  let leg, aff, decisions =
    Layers.analyze_decide ~pool:true prog ~scheme:W.ISPBO ~feedback:None
  in
  ignore (Layers.transform prog decisions);
  let report =
    Layers.span "advisor.report" (fun () ->
        Slo_core.Advisor.report
          (Slo_core.Advisor.build prog leg aff ~decisions ~dcache:None))
  in
  let diags = Layers.span "advice.check" (fun () -> Slo_advice.Advice.check prog) in
  let collapsed =
    List.filter (Slo_pointsto.Pointsto.collapsed pts) (Slo_core.Legality.types leg)
  in
  let poolable =
    List.filter_map
      (fun (v : Shape.verdict) -> if v.v_poolable then Some v.v_typ else None)
      (Shape.verdicts shape)
  in
  let key = "advise/" ^ name in
  List.for_all Fun.id
    [
      Refs.expect (key ^ "/plans") (plans_key decisions);
      Refs.expect (key ^ "/report") (Digest.to_hex (Digest.string report));
      Refs.expect (key ^ "/check") (String.concat ";" (Slo_advice.Advice.summary diags));
      Refs.expect (key ^ "/pointsto") (String.concat "," collapsed);
      Refs.expect (key ^ "/shape") (String.concat "," poolable);
    ]

let advise ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let setup () =
    (* read every source, then one unchecked warm-up pass *)
    let srcs = advise_sources () in
    List.iter (fun s -> ignore (advise_one s)) srcs;
    srcs
  in
  let timer, srcs = start_setup ~first:11 setup in
  let op_lat = ref [] and attempted = ref 0 and failed = ref 0 in
  let round () =
    List.iter
      (fun ((name, _) as s) ->
        timed_op ~op_lat ~attempted ~failed ~what:("advise/" ^ name) (fun () -> advise_one s))
      (shuffle rng srcs)
  in
  let lat, n, traced_ms, overhead = measure_phase ~trace ~seconds ~op_lat ~timer round in
  {
    setup_s = median timer.times; lat_ms = lat; tail_q = 0.99; throughput = None;
    attempted = !attempted; failed = !failed; rss_mb = None; rounds_traced = n;
    traced_ms; overhead_pct = overhead; extra = [];
  }

(* ------------------------------------------------------------------ *)
(* tune-search: sphinx through the autotuner to completion             *)
(* ------------------------------------------------------------------ *)

(* sphinx is the roster entry on which the tuner beats the heuristic
   (at its train input). Argument 1 keeps one complete search of its 31
   candidates within 1.5 to 3 s on a 2-core host, so a run holds several
   searches and their median is not one sample *)
let tune_name = "sphinx"
let tune_args = [ 1 ]
let tune_jobs = 2

(* The search's candidate order comes from the workload seed. Equal-cost
   candidates may win under different orders, so the committed winner is
   kept per tuner seed, for [tune_seeds] of them. *)
let tune_seeds = 4
let tune_seed seed = seed mod tune_seeds

(* the 6 to 9 searches of a run leave no percentile ten samples beyond
   it: the tail is the slowest search *)
let tune_tail_q = 0.9

let tune ~seed ~seconds ~trace =
  (* the profile run is on the search's own input, so its output is
     checked against the reference too *)
  let setup () =
    let prog = Layers.compile (Suite.find tune_name).source in
    let reference = Refs.reference_stdout ~name:tune_name ~args:tune_args prog in
    let fb, r = Layers.collect ~args:tune_args prog in
    ignore (Refs.check_output ~what:"tune profile run" ~reference r);
    (prog, fb, reference)
  in
  let timer, (prog, fb, reference) = start_setup ~first:5 setup in
  let cfg =
    { (Tune.default_config ~scheme:W.PBO ~feedback:(Some fb)) with
      Tune.args = tune_args; jobs = tune_jobs; seed = tune_seed seed; max_candidates = 96 }
  in
  let op_lat = ref [] and attempted = ref 0 and failed = ref 0 in
  let results = ref [] in
  let round () =
    Gc.compact ();
    timed_op ~op_lat ~attempted ~failed ~what:"tune/sphinx" (fun () ->
        let r = Layers.span "tune.search" (fun () -> Tune.search prog cfg) in
        results := r :: !results;
        let key = Printf.sprintf "tune/%s@%s" tune_name (Refs.args_key tune_args) in
        List.for_all Fun.id
          [
            Refs.expect (Printf.sprintf "%s/seed%d/found" key (tune_seed seed))
              (String.concat ";" (List.map Codec.plan_to_string r.Tune.t_found));
            Refs.expect (key ^ "/cycles")
              (Printf.sprintf "baseline=%d heuristic=%d found=%d" r.t_baseline_cycles
                 r.t_heuristic_cycles r.t_found_cycles);
            Refs.expect (key ^ "/space")
              (Printf.sprintf "total=%d explored=%d rejected=%d complete=%b" r.t_total
                 r.t_explored r.t_rejected r.t_complete);
          ]);
    if !Trace.enabled then begin
      (* per-layer probes outside the search: enumeration alone, and one
         run of the program at each fidelity and with no simulator *)
      ignore (Layers.span "tune.enumerate" (fun () -> Tune.enumerate prog cfg));
      ignore (Layers.collect ~args:tune_args prog);
      let m = Layers.measure ~args:tune_args prog in
      ignore (Refs.check_output ~what:"tune probe" ~reference m.m_result);
      ignore (Layers.measure ~fidelity:Slo_cachesim.Sampled.sampled_default ~args:tune_args prog);
      ignore (Layers.vm_run ~args:tune_args prog)
    end
  in
  let lat, n, traced_ms, overhead = measure_phase ~trace ~seconds ~op_lat ~timer round in
  (* the searches of the last phase are the newest [List.length lat] *)
  let phase = List.filteri (fun i _ -> i < List.length lat) !results in
  let r = List.hd phase in
  let searched_s = List.fold_left ( +. ) 0.0 lat /. 1000.0 in
  let explored = List.fold_left (fun a (r : Tune.result) -> a + r.t_explored) 0 phase in
  let rejected = List.fold_left (fun a (r : Tune.result) -> a + r.t_rejected) 0 phase in
  {
    setup_s = median timer.times; lat_ms = lat; tail_q = tune_tail_q; throughput = None;
    attempted = !attempted; failed = !failed; rss_mb = None; rounds_traced = n;
    traced_ms; overhead_pct = overhead;
    extra =
      [
        ("tune.candidates", float_of_int r.t_total);
        ("tune.cands_per_s", float_of_int explored /. searched_s);
        ("tune.rejected_frac", float_of_int rejected /. float_of_int (max 1 explored));
        ( "tune.gain_pct",
          (float_of_int r.t_heuristic_cycles /. float_of_int r.t_found_cycles -. 1.0) *. 100.0 );
      ];
  }

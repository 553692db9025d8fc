(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --regen

   Workloads: pbo-pipeline, advise-roster, serve-mixed, tune-search
   (see perfbench/README.md for what each measures and why). With
   --trace 0 the last line of stdout is a JSON object holding the
   end-to-end metrics; with --trace 1 it holds the per-layer metrics of
   a separate traced run, and the spans go to
   perfbench/out/trace-WORKLOAD-SEED.json as Chrome trace events.
   Program outputs, counts and decisions are checked against the
   committed references in perfbench/data; any mismatch is a failed
   operation, makes "correct" false and the exit code 1. --regen
   rewrites those references from the current program. *)

open Summary

let workloads =
  [
    ("pbo-pipeline", Workloads.pbo);
    ("advise-roster", Workloads.advise);
    ("serve-mixed", Serve.run);
    ("tune-search", Workloads.tune);
  ]

(* ---------------- per-layer metrics (traced run) ---------------- *)

let layer_spans =
  [ "minic.parse"; "minic.typecheck"; "ir.lower"; "ir.verify"; "shape.analyze";
    "pointsto.analyze"; "legality.analyze"; "weights.block_weights"; "affinity.analyze";
    "heuristics.decide"; "transform.apply"; "advisor.report"; "advice.check";
    "matching.apply"; "collect"; "tune.enumerate" ]

let span_metric s = if s = "collect" then "collect.ms" else s ^ "_ms"

(* the time covered by at least one layer span (operation spans are not
   layers), over the traced window *)
let coverage_pct traced_ms =
  let iv =
    List.sort compare
      (List.filter_map
         (fun (s : Trace.span) -> if s.name = "op" then None else Some (s.t0, s.t1))
         (Trace.all ()))
  in
  let covered, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = if Int64.compare a hi < 0 then hi else a in
        if Int64.compare b a > 0 then (acc +. Int64.to_float (Int64.sub b a), b) else (acc, hi))
      (0.0, 0L) iv
  in
  covered /. 1e6 /. traced_ms *. 100.0

let per_layer (o : Workloads.outcome) =
  let tbl = Trace.table () in
  let c = Layers.get in
  let per_call s =
    match Hashtbl.find_opt tbl s with
    | Some r when r.calls > 0 -> r.self_ns /. float_of_int r.calls /. 1e6
    | _ -> 0.0
  in
  let div a b = if b > 0.0 then a /. b else 0.0 in
  let rounds = float_of_int o.rounds_traced in
  let extra k = Option.value ~default:0.0 (List.assoc_opt k o.extra) in
  List.map (fun s -> (span_metric s, "ms", per_call s)) layer_spans
  @ [
      ("ir.instrs", "count", div (c "ir.instrs") (c "ir.programs"));
      ("heuristics.plans.split", "count", div (c "heuristics.plans.split") rounds);
      ("heuristics.plans.peel", "count", div (c "heuristics.plans.peel") rounds);
      ("heuristics.plans.rebuild", "count", div (c "heuristics.plans.rebuild") rounds);
      ("heuristics.plans.pool", "count", div (c "heuristics.plans.pool") rounds);
      ("heuristics.plans.pad", "count", div (c "heuristics.plans.pad") rounds);
      ("collect.msteps_per_s", "Msteps/s", div (c "collect.steps") (c "collect.ns") *. 1e3);
      ("collect.pmu_events", "count", div (c "collect.pmu_events") (c "collect.calls"));
      ("vm.msteps_per_s", "Msteps/s", div (c "vm.steps") (c "vm.ns") *. 1e3);
      ("vm.steps", "count", div (c "vm.steps") rounds);
      ("measure.msteps_per_s", "Msteps/s", div (c "measure.steps") (c "measure.ns") *. 1e3);
      ( "measure.sampled_msteps_per_s", "Msteps/s",
        div (c "measure.sampled.steps") (c "measure.sampled.ns") *. 1e3 );
      ( "cachesim.ns_per_access", "ns",
        if c "vm.ns" > 0.0 then div (c "measure.ns" -. c "vm.ns") (c "cachesim.accesses") else 0.0 );
      ("cachesim.accesses", "count", div (c "cachesim.accesses") rounds);
      ("cachesim.l1_miss_rate", "%", 100.0 *. div (c "cachesim.l1_misses") (c "cachesim.accesses"));
      ("cachesim.l2_miss_rate", "%", 100.0 *. div (c "cachesim.l2_misses") (c "cachesim.accesses"));
      ("layout.gain_pct", "%", extra "layout.gain_pct");
      ("tune.candidates", "count", extra "tune.candidates");
      ("tune.cands_per_s", "1/s", extra "tune.cands_per_s");
      ("tune.rejected_frac", "frac", extra "tune.rejected_frac");
      ("tune.gain_pct", "%", extra "tune.gain_pct");
      ("server.result_hit_frac", "frac", extra "server.result_hit_frac");
      ("server.ir_hit_frac", "frac", extra "server.ir_hit_frac");
      ("server.service_p50_ms", "ms", extra "server.service_p50_ms");
      ("server.service_p99_ms", "ms", extra "server.service_p99_ms");
      ("server.queued_max", "count", extra "server.queued_max");
      ("server.shed", "count", extra "server.shed");
      ("trace.overhead_pct", "%", o.overhead_pct);
      ("trace.coverage_pct", "%", coverage_pct o.traced_ms);
    ]

let print_self_time_table traced_ms =
  let tbl = Trace.table () in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.Trace.self_ns a.Trace.self_ns)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  Printf.printf "%-24s %8s %12s %12s %7s\n" "span" "calls" "total_ms" "self_ms" "self%";
  List.iter
    (fun (name, (r : Trace.row)) ->
      Printf.printf "%-24s %8d %12.3f %12.3f %6.2f%%\n" name r.calls (r.total_ns /. 1e6)
        (r.self_ns /. 1e6) (r.self_ns /. 1e6 /. traced_ms *. 100.0))
    rows

(* ---------------- end-to-end metrics (untraced run) ---------------- *)

(* each workload fixes the percentile its tail_ms reports: the highest
   that leaves ten samples beyond it in a run, or the median when none
   does. A run that leaves fewer says so. *)
let end_to_end (o : Workloads.outcome) =
  let n_beyond = beyond o.tail_q o.lat_ms in
  Printf.printf "  %d operations; tail_ms is their p%g, %d samples beyond it%s\n"
    (List.length o.lat_ms) (o.tail_q *. 100.0) n_beyond
    (if n_beyond < 10 && o.tail_q > 0.5 then " (fewer than ten: a short run)" else "");
  [
    ("setup_s", "s", o.setup_s);
    ("peak_rss_mb", "MB", match o.rss_mb with Some m -> m | None -> peak_rss_mb None);
    ("p50_ms", "ms", median o.lat_ms);
    ("tail_ms", "ms", percentile o.tail_q o.lat_ms);
    ( "ops_per_s", "1/s",
      (* operation time only, not the benchmark's own work between
         operations *)
      match o.throughput with
      | Some c -> c
      | None ->
        float_of_int (List.length o.lat_ms) /. (List.fold_left ( +. ) 0.0 o.lat_ms /. 1000.0) );
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (k, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) u)
          metrics))

(* ---------------- main ---------------- *)

let run ~workload ~seed ~seconds ~trace =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload " ^ workload);
      exit 2
  in
  Refs.load ();
  let steal0 = steal_s () and t0 = now () in
  let o = f ~seed ~seconds ~trace in
  (* how much of the machine other guests took while this run went on:
     a disturbed run shows here, not only in its timings *)
  let steal_pct =
    100.0 *. (steal_s () -. steal0)
    /. (since_ms t0 /. 1000.0 *. float_of_int (Domain.recommended_domain_count ()))
  in
  let metrics =
    if trace then per_layer o @ [ ("host.steal_pct", "%", steal_pct) ] else end_to_end o
  in
  if not trace then Printf.printf "  host steal %.2f%% of CPU time during the run\n" steal_pct;
  Printf.printf "%s seed %d, %s run:\n" workload seed (if trace then "traced" else "untraced");
  List.iter (fun (k, u, v) -> Printf.printf "  %-30s %14.4f %s\n" k v u) metrics;
  if trace then begin
    print_self_time_table o.traced_ms;
    let path = Printf.sprintf "perfbench/out/trace-%s-%d.json" workload seed in
    Trace.write_chrome path;
    Printf.printf "  spans written to %s\n" path
  end;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = o.failed = 0 && !Refs.failures = 0 && finite in
  Printf.printf "  error_frac %.6f (%d failed of %d attempted)\n"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted)) o.failed o.attempted;
  print_endline (result_line ~correct ~attempted:(max 1 o.attempted) ~failed:o.failed metrics);
  exit (if correct then 0 else 1)

let regen () =
  Refs.regen := true;
  List.iter
    (fun (name, f) ->
      let seeds = if name = "tune-search" then List.init Workloads.tune_seeds Fun.id else [ 1 ] in
      List.iter
        (fun seed ->
          Printf.printf "regenerating %s, seed %d\n%!" name seed;
          ignore (f ~seed ~seconds:0.0 ~trace:false))
        seeds)
    workloads;
  Refs.save ();
  Printf.printf "wrote %s\n" Refs.expected_path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let do_regen = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--regen", Arg.Set do_regen, " rewrite perfbench/data from the current program");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* a terminated run still stops the daemon it started (at_exit) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  if !do_regen then regen () else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)

(* Profile infrastructure: feedback files, collection, CFG matching,
   static estimation (SPBO), inter-procedural scaling (ISPBO). *)

module Feedback = Slo_profile.Feedback
module Collect = Slo_profile.Collect
module Matching = Slo_profile.Matching
module Staticfreq = Slo_profile.Staticfreq
module Ipscale = Slo_profile.Ipscale
module Weights = Slo_profile.Weights

let lower = Lower.lower_source
let feq = Alcotest.float 1e-6

(* ------------------------- feedback ------------------------- *)

let feedback_roundtrip () =
  let fb = Feedback.create () in
  Feedback.add_entry fb "main" 1;
  Feedback.add_edge fb "main" { line = 1; col = 2; ord = 0 }
    { line = 3; col = 4; ord = 1 } 42;
  Feedback.add_dcache fb "main" { line = 5; col = 6; ord = 0 }
    { misses = 7; latency = 700 };
  let fb2 = Feedback.of_string (Feedback.to_string fb) in
  Alcotest.(check int) "entry" 1 (Feedback.entry_count fb2 "main");
  Alcotest.(check int) "edge" 42
    (Feedback.edge_count fb2 "main" { line = 1; col = 2; ord = 0 }
       { line = 3; col = 4; ord = 1 });
  (match Feedback.dcache_stats fb2 "main" { line = 5; col = 6; ord = 0 } with
  | Some { misses = 7; latency = 700 } -> ()
  | _ -> Alcotest.fail "dcache lost");
  Alcotest.(check bool) "bad input rejected" true
    (match Feedback.of_string "garbage line" with
    | exception Failure _ -> true
    | _ -> false)

let feedback_accumulates () =
  let fb = Feedback.create () in
  let s = { Feedback.line = 1; col = 1; ord = 0 } in
  Feedback.add_edge fb "f" s s 5;
  Feedback.add_edge fb "f" s s 6;
  Alcotest.(check int) "summed" 11 (Feedback.edge_count fb "f" s s)

let signatures_disambiguate () =
  (* two blocks on the same source position get distinct ordinals *)
  let prog = lower "int main(int a) { if (a) { a = 1; } else { a = 2; } return a; }" in
  let f = Option.get (Ir.find_func prog "main") in
  let sigs = Feedback.block_sigs f in
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) sigs [] in
  let uniq = List.sort_uniq compare all in
  Alcotest.(check int) "signatures unique" (List.length all)
    (List.length uniq)

(* ------------------------- collect + match ------------------------- *)

let loop10 =
  "int work(int k) { int j; int s = 0;\n\
   for (j = 0; j < k; j++) { s = s + j; } return s; }\n\
   int main() { int i; int t = 0;\n\
   for (i = 0; i < 10; i++) { t = t + work(5); }\n\
   return t % 256; }"

let collect_and_match () =
  let prog = lower loop10 in
  let fb, stats = Collect.collect prog in
  Alcotest.(check int) "main entered once" 1 (Feedback.entry_count fb "main");
  Alcotest.(check int) "work entered 10x" 10 (Feedback.entry_count fb "work");
  Alcotest.(check bool) "program ran" true (stats.result.steps > 0);
  let m = Matching.apply prog fb in
  Alcotest.(check int) "all edges matched" 0 m.unmatched_edges;
  let wc = Option.get (Matching.func_counts m "work") in
  (* work's loop header: (1 entry + 5 back edges) x 10 calls *)
  let max_block = Array.fold_left max 0.0 wc.block in
  Alcotest.check feq "hottest block = 60" 60.0 max_block;
  let mc = Option.get (Matching.func_counts m "main") in
  Alcotest.check feq "main entry weight" 1.0 mc.entry

let match_robust_to_perturbation () =
  (* matching against a different program only matches what exists *)
  let prog1 = lower loop10 in
  let fb, _ = Collect.collect prog1 in
  let prog2 =
    lower
      "int main() { int i; int t = 0;\n\
       for (i = 0; i < 3; i++) { t = t + i; }\n\
       return t; }"
  in
  let m = Matching.apply prog2 fb in
  (* nothing crashes; unmatched edges are only dropped, counts stay sane *)
  let mc = Option.get (Matching.func_counts m "main") in
  Alcotest.(check bool) "counts non-negative" true
    (Array.for_all (fun c -> c >= 0.0) mc.block)

let pbo_matches_truth () =
  (* PBO block weights equal real execution counts *)
  let prog = lower loop10 in
  let fb, _ = Collect.collect prog in
  let bw = Weights.block_weights prog Weights.PBO ~feedback:(Some fb) in
  let counts = Hashtbl.create 16 in
  let edges = Slo_vm.Edges.create prog in
  ignore (Slo_vm.Interp.run (Slo_vm.Interp.create ~edges prog));
  let names = Array.of_list (List.map (fun (f : Ir.func) -> f.fname) prog.funcs) in
  (* a block runs once per edge (or entry) into it *)
  Slo_vm.Edges.iter edges (fun i ~src:_ ~dst n ->
      let k = (names.(i), dst) in
      Hashtbl.replace counts k
        (n + Option.value ~default:0 (Hashtbl.find_opt counts k)));
  let work = Hashtbl.find bw "work" in
  Hashtbl.iter
    (fun (f, bid) n ->
      if String.equal f "work" then
        Alcotest.check feq
          (Printf.sprintf "block %d" bid)
          (float_of_int n) work.(bid))
    counts

(* The profile phase on every engine and sink, over the roster at the
   tiny arguments of test_suite: Collect.collect's feedback, PMU event
   count and steps are byte-equal across walk, closure and superblock,
   serial and pipelined, and equal to a per-access reference — the
   closure engine (no fusion) with a mem hook feeding Hierarchy.access
   + Pmu.record, and edge counters. *)
module Suite = Slo_suite.Suite
module Hierarchy = Slo_cachesim.Hierarchy
module Pmu = Slo_cachesim.Pmu
module Edges = Slo_vm.Edges
module Backend = Slo_vm.Backend

let tiny_args (e : Suite.entry) = List.map (fun a -> max 1 (a / 8)) e.train_args

let reference_profile ~args (prog : Ir.program) =
  let hier = Hierarchy.create Hierarchy.itanium in
  (* Collect's defaults: period 251, phase 17 under instrumentation *)
  let pmu = Pmu.create ~period:251 ~phase:17 () in
  let edges = Edges.create prog in
  let mem_hook addr size write is_float iid =
    let latency, level = Hierarchy.access hier ~addr ~size ~write ~is_float in
    Pmu.record pmu ~iid ~level ~latency ~is_float
  in
  let r = Backend.run ~args (Backend.create ~mem_hook ~edges Backend.Closure prog) in
  let fb = Feedback.create () in
  List.iteri
    (fun i (f : Ir.func) ->
      let bsigs = Feedback.block_sigs f and isigs = Feedback.instr_sigs f in
      for src = -1 to f.next_block - 1 do
        for dst = 0 to f.next_block - 1 do
          let n = Edges.count edges i ~src ~dst in
          if n > 0 then
            if src = -1 then Feedback.add_entry fb f.fname n
            else
              Feedback.add_edge fb f.fname (Hashtbl.find bsigs src)
                (Hashtbl.find bsigs dst) n
        done
      done;
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (ins : Ir.instr) ->
              let st = Pmu.stats_of pmu ins.iid in
              if st.miss_events > 0 then
                Feedback.add_dcache fb f.fname (Hashtbl.find isigs ins.iid)
                  { misses = st.miss_events; latency = st.total_latency })
            b.instrs)
        f.fblocks)
    prog.funcs;
  (Feedback.to_string fb, Pmu.events_seen pmu, r.steps)

let feedback_agrees (e : Suite.entry) () =
  let prog = Slo_core.Driver.compile e.source in
  let args = tiny_args e in
  let fb_ref, events_ref, steps_ref = reference_profile ~args prog in
  List.iter
    (fun backend ->
      List.iter
        (fun pipeline ->
          let fb, st = Collect.collect ~args ~backend ~pipeline prog in
          let what =
            Printf.sprintf "%s %s" (Backend.to_string backend)
              (if pipeline then "pipelined" else "serial")
          in
          Alcotest.(check string) (what ^ " feedback") fb_ref
            (Feedback.to_string fb);
          Alcotest.(check int) (what ^ " pmu events") events_ref st.pmu_events;
          Alcotest.(check int) (what ^ " steps") steps_ref st.result.steps)
        [ false; true ])
    Backend.all

(* ------------------------- SPBO ------------------------- *)

let spbo_loop_freq () =
  let prog = lower "int main(int n) { int i; int s = 0;\n\
                    for (i = 0; i < n; i++) { s = s + i; } return s; }" in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let forest = Loop.compute cfg in
  let est = Staticfreq.estimate cfg forest in
  (* entry block has frequency 1 *)
  Alcotest.check feq "entry" 1.0 est.bfreq.(Cfg.entry cfg);
  (* the loop body should be visited about 1/(1-0.88) ~ 8.3 times *)
  let body_freq = Array.fold_left max 0.0 est.bfreq in
  Alcotest.(check bool) "loop amplification ~8x" true
    (body_freq > 6.0 && body_freq < 10.0)

let spbo_nested_multiplies () =
  let prog =
    lower
      "int main(int n) { int i; int j; int s = 0;\n\
       for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { s = s + 1; } }\n\
       return s; }"
  in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let est = Staticfreq.estimate cfg (Loop.compute cfg) in
  let inner = Array.fold_left max 0.0 est.bfreq in
  Alcotest.(check bool) "nested ~8*8" true (inner > 40.0 && inner < 90.0)

let spbo_if_split () =
  let prog =
    lower
      "int main(int a) { int x = 0;\n\
       if (a > 0) { x = 1; } else { x = 2; } return x; }"
  in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let est = Staticfreq.estimate cfg (Loop.compute cfg) in
  let entry = Cfg.entry cfg in
  List.iter
    (fun succ -> Alcotest.check feq "50/50" 0.5 (est.eprob (entry, succ)))
    cfg.succs.(entry)

let spbo_fp_probability () =
  let prog =
    lower
      "int main(int n) { int i; double s = 0.0;\n\
       for (i = 0; i < n; i++) { s = s + i * 0.5; } return (int)s; }"
  in
  let f = Option.get (Ir.find_func prog "main") in
  let cfg = Cfg.build f in
  let forest = Loop.compute cfg in
  let est = Staticfreq.estimate cfg forest in
  (* FP loops get 0.93: amplification 1/(1-0.93) ~ 14.3 *)
  let body = Array.fold_left max 0.0 est.bfreq in
  Alcotest.(check bool) "fp loop hotter" true (body > 11.0 && body < 16.0)

let spbo_flow_conservation () =
  (* for every non-entry block, freq = sum of incoming edge freqs *)
  let prog = lower loop10 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      let est = Staticfreq.estimate cfg (Loop.compute cfg) in
      Array.iter
        (fun b ->
          if b <> Cfg.entry cfg then begin
            let inflow =
              List.fold_left
                (fun acc p -> acc +. est.efreq (p, b))
                0.0 cfg.preds.(b)
            in
            Alcotest.check (Alcotest.float 1e-6)
              (Printf.sprintf "%s b%d" f.fname b)
              inflow est.bfreq.(b)
          end)
        cfg.rpo)
    prog.funcs

(* ------------------------- ISPBO ------------------------- *)

let ispbo_prog =
  "int leaf() { return 1; }\n\
   int hot() { int i; int s = 0;\n\
   for (i = 0; i < 100; i++) { s = s + leaf(); } return s; }\n\
   int cold_fn() { return leaf(); }\n\
   int main(int n) { int i; int s = 0;\n\
   for (i = 0; i < n; i++) { s = s + hot(); }\n\
   s = s + cold_fn(); return s; }"

let ispbo_scales_callees () =
  let prog = lower ispbo_prog in
  let cg = Callgraph.build prog in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      Hashtbl.replace locals f.fname
        (Staticfreq.estimate cfg (Loop.compute cfg)))
    prog.funcs;
  let ips = Ipscale.compute prog ~local:(Hashtbl.find locals) cg in
  Alcotest.check feq "main once" 1.0 (Ipscale.global_count ips "main");
  let hot = Ipscale.global_count ips "hot" in
  let cold = Ipscale.global_count ips "cold_fn" in
  let leaf = Ipscale.global_count ips "leaf" in
  Alcotest.(check bool) "hot called ~8x" true (hot > 6.0 && hot < 10.0);
  Alcotest.check feq "cold called once" 1.0 cold;
  Alcotest.(check bool) "leaf amplified through hot" true (leaf > hot);
  (* the exponent separates hot from cold further *)
  let sc15 = Ipscale.scaled_block_counts ~exponent:1.5 ips "hot" in
  let sc10 = Ipscale.scaled_block_counts ~exponent:1.0 ips "hot" in
  Alcotest.(check bool) "exponent amplifies" true
    (Array.fold_left max 0.0 sc15 > Array.fold_left max 0.0 sc10)

let ispbo_recursion_terminates () =
  let prog =
    lower
      "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }\n\
       int main() { return fact(5); }"
  in
  let cg = Callgraph.build prog in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      Hashtbl.replace locals f.fname
        (Staticfreq.estimate cfg (Loop.compute cfg)))
    prog.funcs;
  let ips = Ipscale.compute prog ~local:(Hashtbl.find locals) cg in
  Alcotest.(check bool) "finite" true
    (Float.is_finite (Ipscale.global_count ips "fact"));
  Alcotest.(check bool) "positive" true (Ipscale.global_count ips "fact" > 0.0)

let ispbo_addr_taken_fallback () =
  let prog =
    lower
      "typedef int (*cb)(int);\n\
       int handler(int x) { return x + 1; }\n\
       int main() { cb f; f = (&handler); return f(1); }"
  in
  let cg = Callgraph.build prog in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.build f in
      Hashtbl.replace locals f.fname
        (Staticfreq.estimate cfg (Loop.compute cfg)))
    prog.funcs;
  let ips = Ipscale.compute prog ~local:(Hashtbl.find locals) cg in
  Alcotest.check feq "address-taken fallback" 1.0
    (Ipscale.global_count ips "handler")

(* ------------------------- weights registry ------------------------- *)

let weights_registry () =
  let prog = lower loop10 in
  Alcotest.(check bool) "dcache schemes rejected" true
    (match Weights.block_weights prog Weights.DMISS ~feedback:None with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "PBO needs profile" true
    (match Weights.block_weights prog Weights.PBO ~feedback:None with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let bw = Weights.block_weights prog Weights.ISPBO ~feedback:None in
  Alcotest.(check bool) "covers all functions" true
    (Hashtbl.mem bw "main" && Hashtbl.mem bw "work");
  Alcotest.(check (list string)) "names" [ "PBO"; "PPBO"; "SPBO"; "ISPBO";
                                           "ISPBO.NO"; "ISPBO.W"; "DMISS";
                                           "DLAT"; "DMISS.NO" ]
    (List.map Weights.name Weights.all)

let () =
  Alcotest.run "profile"
    [
      ( "feedback",
        [
          Alcotest.test_case "roundtrip" `Quick feedback_roundtrip;
          Alcotest.test_case "accumulates" `Quick feedback_accumulates;
          Alcotest.test_case "signatures" `Quick signatures_disambiguate;
        ] );
      ( "collect+match",
        [
          Alcotest.test_case "collect and match" `Quick collect_and_match;
          Alcotest.test_case "perturbation" `Quick match_robust_to_perturbation;
          Alcotest.test_case "PBO = truth" `Quick pbo_matches_truth;
        ] );
      ( "feedback agrees",
        List.map
          (fun (e : Suite.entry) ->
            Alcotest.test_case e.name `Quick (feedback_agrees e))
          (Suite.roster @ Suite.case_studies) );
      ( "spbo",
        [
          Alcotest.test_case "loop freq" `Quick spbo_loop_freq;
          Alcotest.test_case "nested" `Quick spbo_nested_multiplies;
          Alcotest.test_case "if split" `Quick spbo_if_split;
          Alcotest.test_case "fp probability" `Quick spbo_fp_probability;
          Alcotest.test_case "flow conservation" `Quick spbo_flow_conservation;
        ] );
      ( "ispbo",
        [
          Alcotest.test_case "scales callees" `Quick ispbo_scales_callees;
          Alcotest.test_case "recursion" `Quick ispbo_recursion_terminates;
          Alcotest.test_case "addr-taken fallback" `Quick
            ispbo_addr_taken_fallback;
        ] );
      ( "weights",
        [ Alcotest.test_case "registry" `Quick weights_registry ] );
    ]

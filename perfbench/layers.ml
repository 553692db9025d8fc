(* Every call the benchmark makes into the system goes through here, so
   each one sits inside a span named after its layer ([Trace]) and adds
   to that layer's counters. The calls are the public API of each layer,
   in the order [Slo_core.Driver] makes them. *)

module D = Slo_core.Driver
module H = Slo_core.Heuristics
module W = Slo_profile.Weights
module Backend = Slo_vm.Backend
module Sampled = Slo_cachesim.Sampled

let span = Trace.span

(* counters: name -> sum; [mean] names divide by [count_<name>] *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace counters name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let get name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)
let reset () = Hashtbl.reset counters

let instr_count (p : Ir.program) =
  List.fold_left
    (fun acc (f : Ir.func) ->
      List.fold_left (fun acc (b : Ir.block) -> acc + List.length b.instrs) acc f.fblocks)
    0 p.funcs

(* Driver.compile ~verify:true, one layer call at a time *)
let compile src =
  let ast = span "minic.parse" (fun () -> Slo_minic.Parser.parse src) in
  let env = span "minic.typecheck" (fun () -> Slo_minic.Typecheck.check ast) in
  let prog = span "ir.lower" (fun () -> Lower.lower ast env) in
  span "ir.verify" (fun () -> Verify.check prog);
  add "ir.instrs" (float_of_int (instr_count prog));
  add "ir.programs" 1.0;
  prog

let collect ~args prog =
  let t0 = Slo_util.Clock.now_ns () in
  let fb, st = span "collect" (fun () -> Slo_profile.Collect.collect ~args prog) in
  add "collect.ns" (Int64.to_float (Int64.sub (Slo_util.Clock.now_ns ()) t0));
  add "collect.steps" (float_of_int st.Slo_profile.Collect.result.steps);
  add "collect.pmu_events" (float_of_int st.pmu_events);
  add "collect.calls" 1.0;
  (fb, st.result)

let matching prog fb = ignore (span "matching.apply" (fun () -> Slo_profile.Matching.apply prog fb))

(* Driver.analyze followed by Heuristics.decide *)
let analyze_decide ?(pool = false) prog ~scheme ~feedback =
  let leg = span "legality.analyze" (fun () -> Slo_core.Legality.analyze prog) in
  let bw = span "weights.block_weights" (fun () -> W.block_weights prog scheme ~feedback) in
  let aff = span "affinity.analyze" (fun () -> Slo_core.Affinity.analyze prog bw) in
  let decisions = span "heuristics.decide" (fun () -> H.decide ~pool prog leg aff ~scheme) in
  List.iter
    (fun (d : H.decision) ->
      match d.d_plan with
      | None -> ()
      | Some p ->
        add
          (match p with
           | H.Split _ -> "heuristics.plans.split"
           | H.Peel _ -> "heuristics.plans.peel"
           | H.Rebuild _ -> "heuristics.plans.rebuild"
           | H.Pool _ -> "heuristics.plans.pool"
           | H.Pad _ -> "heuristics.plans.pad")
          1.0)
    decisions;
  (leg, aff, decisions)

let transform prog decisions =
  span "transform.apply" (fun () ->
      D.transform_with_plans ~verify:true prog (H.plans decisions))

let measure ?(fidelity = Sampled.Exact) ~args prog =
  let t0 = Slo_util.Clock.now_ns () in
  let name = match fidelity with Sampled.Exact -> "measure" | _ -> "measure.sampled" in
  let m = span name (fun () -> D.measure ~args ~fidelity prog) in
  add (name ^ ".ns") (Int64.to_float (Int64.sub (Slo_util.Clock.now_ns ()) t0));
  add (name ^ ".steps") (float_of_int m.m_result.steps);
  if fidelity = Sampled.Exact then begin
    add "cachesim.accesses" (float_of_int m.m_accesses);
    add "cachesim.l1_misses" (float_of_int m.m_l1_misses);
    add "cachesim.l2_misses" (float_of_int m.m_l2_misses)
  end;
  m

(* the VM alone, with no event sink: the difference to an exact measure
   of the same run is the cache simulator's cost *)
let vm_run ~args prog =
  let t0 = Slo_util.Clock.now_ns () in
  let r = span "vm.run" (fun () -> Backend.run_program ~args Backend.default prog) in
  add "vm.ns" (Int64.to_float (Int64.sub (Slo_util.Clock.now_ns ()) t0));
  add "vm.steps" (float_of_int r.steps);
  r

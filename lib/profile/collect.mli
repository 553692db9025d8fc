(** The PBO collection phase: run an instrumented program and produce a
    feedback file.

    Mirrors §3.1: "the application is instrumented and run with training
    input sets to produce feedback files ... the instrumented binaries
    additionally invoke the performance analysis tool to gather sampling
    data from the PMU, resulting in a feedback file that contains both edge
    counts and sampling results for data cache events."

    The VM's {!Slo_vm.Edges} counters are the instrumentation; the
    cache hierarchy plus {!Slo_cachesim.Pmu} is the PMU. When
    [instrument] is false, only PMU samples are collected (that is the
    DMISS.NO configuration) and a different sampling phase models the
    skid difference.

    The run takes the exact measure path of {!Slo_core.Driver.measure}:
    the VM pushes memory events into a ring, and
    {!Slo_cachesim.Hierarchy.drain_quiet} drains each batch with the
    PMU's countdown on its miss arms. *)

type run_stats = {
  result : Slo_vm.Interp.result;
  hierarchy : Slo_cachesim.Hierarchy.t;
  pmu_events : int;
}

val collect :
  ?args:int list ->
  ?instrument:bool ->
  ?config:Slo_cachesim.Hierarchy.config ->
  ?sample_period:int ->
  ?backend:Slo_vm.Backend.t ->
  ?pipeline:bool ->
  Ir.program ->
  Feedback.t * run_stats
(** Defaults: [instrument = true], Itanium-like hierarchy, period 251,
    the {!Slo_vm.Backend.default} engine (superblock). [pipeline]
    (default: on when the host has more than one core) drains on a
    worker domain through {!Slo_cachesim.Drainer.with_ring}, as
    [Driver.measure] does. Every backend drives identical edge and
    memory event streams and the drain keeps their order, so the
    feedback, PMU event count and steps are the same for every backend
    and either sink (pinned by tests, against a per-access
    reference). *)

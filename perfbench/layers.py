"""The traced public names of aelab and the per-layer metrics derived from them.

Each target is wrapped at the module attribute its caller reads: ``cli.main``
calls ``aelab.cli.run_experiment``, ``run_experiment`` calls
``aelab.estimator.sample_record`` and ``crb_curves``, ``sample_record`` calls
``aelab.estimator.sample_round`` and ``derive_seed``, and
``run_equivalence_suite`` imports ``classical_fisher``/``quantum_fisher`` from
``aelab.fisher`` at call time.  Span names carry the layer (module) that owns
the function.
"""

from __future__ import annotations

from spans import LayerStats, Target, Tracer, summarize


def _record_prefixes(args, kwargs, result):
    return {"estimator.prefix_fits": len(result.outcomes)}


def _fit_prefixes(args, kwargs, result):
    record = args[0] if args else kwargs["record"]
    return {"estimator.prefix_fits": len(record.outcomes)}


def _cases(args, kwargs, result):
    return {"refsim.cases": result.n_cases}


TARGETS = (
    Target("aelab.cli", "main", "cli.main"),
    Target("aelab.cli", "run_experiment", "estimator.run_experiment"),
    Target("aelab.cli", "run_equivalence_suite", "refsim.run_equivalence_suite", count=_cases),
    Target("aelab.estimator", "sample_record", "estimator.sample_record", count=_record_prefixes),
    Target("aelab.estimator", "sample_round", "model.sample_round"),
    Target("aelab.estimator", "derive_seed", "model.derive_seed"),
    Target("aelab.estimator", "crb_curves", "estimator.crb_curves"),
    Target("aelab.estimator", "mle_estimate", "estimator.mle_estimate", count=_fit_prefixes),
    Target("aelab.fisher", "classical_fisher", "fisher.classical_fisher"),
    Target("aelab.fisher", "quantum_fisher", "fisher.quantum_fisher"),
    Target("aelab.refsim", "evolve_with_derivative", "refsim.evolve_with_derivative"),
    Target("aelab.refsim", "evolve", "refsim.evolve"),
    Target("aelab.refsim", "numeric_classical_fisher", "refsim.numeric_classical_fisher"),
)

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "model.sample_round.calls": ("count", "lower"),
    "model.sample_round.busy_s": ("s", "lower"),
    "model.derive_seed.busy_s": ("s", "lower"),
    "estimator.sample_record.busy_s": ("s", "lower"),
    "estimator.run_experiment.self_s": ("s", "lower"),
    "estimator.prefix_fits": ("count", "lower"),
    "estimator.ms_per_prefix_fit": ("ms", "lower"),
    "estimator.mle_estimate.busy_s": ("s", "lower"),
    "estimator.crb_curves.busy_s": ("s", "lower"),
    "refsim.evolve_with_derivative.calls": ("count", "lower"),
    "refsim.evolve_with_derivative.busy_s": ("s", "lower"),
    "refsim.evolve.calls": ("count", "lower"),
    "refsim.numeric_classical_fisher.busy_s": ("s", "lower"),
    "refsim.run_equivalence_suite.self_s": ("s", "lower"),
    "refsim.evolutions_per_case": ("count/case", "lower"),
    "fisher.calls": ("count", "lower"),
    "fisher.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float,
                      output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass; layers a workload skips read 0.

    ``self_s`` of a name is its span time not covered by wrapped children; in
    particular ``estimator.run_experiment.self_s`` excludes the sampling and
    ``crb_curves`` spans, and ``cli.self_s`` excludes the compute call.
    """
    stats = summarize(tracer.spans)
    counters = tracer.counters

    def get(name) -> LayerStats:
        return stats.get(name, LayerStats())

    prefix_fits = counters.get("estimator.prefix_fits", 0)
    fit_self = get("estimator.run_experiment").self_s + get("estimator.mle_estimate").self_s
    cases = counters.get("refsim.cases", 0)
    ewd = get("refsim.evolve_with_derivative")
    fisher = [get("fisher.classical_fisher"), get("fisher.quantum_fisher")]
    self_sum = sum(st.self_s for st in stats.values())
    return {
        "model.sample_round.calls": get("model.sample_round").calls,
        "model.sample_round.busy_s": get("model.sample_round").busy_s,
        "model.derive_seed.busy_s": get("model.derive_seed").busy_s,
        "estimator.sample_record.busy_s": get("estimator.sample_record").busy_s,
        "estimator.run_experiment.self_s": get("estimator.run_experiment").self_s,
        "estimator.prefix_fits": prefix_fits,
        "estimator.ms_per_prefix_fit": 1000.0 * fit_self / prefix_fits if prefix_fits else 0.0,
        "estimator.mle_estimate.busy_s": get("estimator.mle_estimate").busy_s,
        "estimator.crb_curves.busy_s": get("estimator.crb_curves").busy_s,
        "refsim.evolve_with_derivative.calls": ewd.calls,
        "refsim.evolve_with_derivative.busy_s": ewd.busy_s,
        "refsim.evolve.calls": get("refsim.evolve").calls,
        "refsim.numeric_classical_fisher.busy_s": get("refsim.numeric_classical_fisher").busy_s,
        "refsim.run_equivalence_suite.self_s": get("refsim.run_equivalence_suite").self_s,
        "refsim.evolutions_per_case": ewd.calls / cases if cases else 0.0,
        "fisher.calls": sum(st.calls for st in fisher),
        "fisher.busy_s": sum(st.busy_s for st in fisher),
        "cli.self_s": get("cli.main").self_s,
        "cli.output_bytes": output_bytes,
        "trace.overhead_frac": 1.0 - untraced_wall_s / traced_wall_s,
        "trace.unattributed_frac": 1.0 - self_sum / traced_wall_s,
    }

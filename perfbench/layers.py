"""Layer hooks and the metric catalogue.

``HOOKS`` names every program function the traced run wraps, under the
layer name its spans are recorded as (the module path inside ``repro``).
``END_TO_END`` and ``PER_LAYER`` are the metric names, units and
directions ``BENCHMARK.json`` declares; a test keeps the two in step.

Per-layer conventions: a ``*_s`` metric is the mean *self* time per op
of the traced phase (unit ``s/op``), a count is the mean per op
(``count/op``), and a layer that a workload never reaches reads 0.
"""

from __future__ import annotations

from perfbench.tracer import Hook

CALLBACK = "local_model.protocols.callback"
OPTIMUM = "solvers.opt_cache.optimum"

_PROTOCOL_METHODS = (
    ("repro.local_model.protocols", "TakeAllProtocol.on_init"),
    ("repro.local_model.protocols", "TakeAllProtocol.on_round"),
    ("repro.local_model.protocols", "DegreeTwoProtocol.on_init"),
    ("repro.local_model.protocols", "DegreeTwoProtocol.on_round"),
    ("repro.local_model.protocols", "D2Protocol.on_init"),
    ("repro.local_model.protocols", "D2Protocol.on_round"),
    ("repro.core.distributed_greedy", "DistributedGreedyProtocol.on_init"),
    ("repro.core.distributed_greedy", "DistributedGreedyProtocol.on_round"),
    ("repro.core.distributed_greedy", "DistributedGreedyProtocolFull.on_round"),
)

HOOKS = (
    Hook("graphs.local_cuts.local_two_cuts", "repro.graphs.local_cuts", "local_two_cuts",
         count=len),
    Hook("graphs.local_cuts.local_one_cuts", "repro.graphs.local_cuts", "local_one_cuts"),
    Hook("graphs.local_cuts.interesting", "repro.graphs.local_cuts",
         "interesting_vertices_of_cuts"),
    Hook("graphs.twins.remove_true_twins", "repro.graphs.twins", "remove_true_twins"),
    Hook("solvers.exact.brute_force", "repro.solvers.exact", "minimum_b_dominating_set",
         exclude_under=OPTIMUM),
    Hook("core.algorithm1", "repro.core.algorithm1", "algorithm1"),
    Hook("graphs.kernel.kernel_for", "repro.graphs.kernel", "kernel_for", hot=True),
    Hook(OPTIMUM, "repro.solvers.opt_cache", "optimum_size"),
    Hook("analysis.domination.validate", "repro.analysis.domination", "is_dominating_set"),
    Hook("analysis.domination.validate", "repro.solvers.vc", "is_vertex_cover"),
    Hook("local_model.network.init", "repro.local_model.network", "Network.__init__"),
    Hook("local_model.engine.run", "repro.local_model.engine", "SimulationEngine.run"),
    Hook("local_model.adversary.churn", "repro.local_model.network", "Network.apply_churn"),
    Hook("local_model.adversary.churn", "repro.local_model.adversary", "materialize_churn"),
) + tuple(
    # Nested callbacks (a subclass calling super()) run unwrapped, so
    # each engine callback counts once.
    Hook(CALLBACK, module, attr, hot=True, exclude_under=CALLBACK)
    for module, attr in _PROTOCOL_METHODS
)

TABLE1_ALGORITHMS = (
    "algorithm1", "d2", "degree_two", "take_all", "greedy", "greedy_central",
    "local_cuts_vc", "d2_vc", "matching_vc",
)

WORKLOADS = ("alg1_sparse", "table1_ratio", "engine_sim", "serve_mixed")

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.24),
    ("op_p50_s", "s", "lower", 0.24),
    ("op_p90_s", "s", "lower", 0.24),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("ratio_mean", "ratio", "lower", 0.1),
)

_S, _C, _R = "s/op", "count/op", "ratio"
# (name, unit, better)
PER_LAYER = (
    ("failed_fraction", _R, "lower"),
    ("trace.throughput_ops_s", "ops/s", "higher"),
    ("trace.overhead", _R, "lower"),
    ("graphs.local_cuts.local_two_cuts_s", _S, "lower"),
    ("graphs.local_cuts.local_one_cuts_s", _S, "lower"),
    ("graphs.local_cuts.interesting_s", _S, "lower"),
    ("graphs.local_cuts.two_cuts_found", _C, "higher"),
    ("graphs.local_cuts.per_vertex_growth", _R, "lower"),
    ("graphs.twins.remove_true_twins_s", _S, "lower"),
    ("solvers.exact.brute_force_s", _S, "lower"),
    ("solvers.exact.brute_force_calls", _C, "lower"),
    ("core.algorithm1.self_s", _S, "lower"),
    ("graphs.kernel.kernel_for_s", _S, "lower"),
    ("graphs.kernel.kernel_for_calls", _C, "lower"),
    ("api.runner.wire_bytes", "B/op", "lower"),
    ("api.runner.parallel_efficiency", _R, "higher"),
    ("solvers.opt_cache.optimum_s", _S, "lower"),
    ("solvers.opt_cache.hits", _C, "higher"),
    ("solvers.opt_cache.misses", _C, "lower"),
    ("solvers.opt_cache.hit_ratio", _R, "higher"),
) + tuple(
    (f"api.algorithms.{name}_s", _S, "lower") for name in TABLE1_ALGORITHMS
) + (
    ("analysis.domination.validate_s", _S, "lower"),
    ("local_model.network.init_s", _S, "lower"),
    ("local_model.engine.self_s", _S, "lower"),
    ("local_model.engine.accounting_s", _S, "lower"),
    ("local_model.engine.rounds", _C, "lower"),
    ("local_model.engine.messages", _C, "lower"),
    ("local_model.engine.payload_units", _C, "lower"),
    ("local_model.engine.dropped", _C, "lower"),
    ("local_model.engine.messages_per_s", "1/s", "higher"),
    ("local_model.protocols.callback_s", _S, "lower"),
    ("local_model.protocols.callbacks", _C, "lower"),
    ("local_model.adversary.churn_s", _S, "lower"),
    ("local_model.adversary.churn_events", _C, "lower"),
    ("serve.service.queue_wait_s_p50", "s", "lower"),
    ("serve.service.queue_wait_s_p90", "s", "lower"),
    ("serve.service.exec_s_small", "s", "lower"),
    ("serve.service.exec_s_sim", "s", "lower"),
    ("serve.service.exec_s_large", "s", "lower"),
    ("serve.http.submit_s_p50", "s", "lower"),
    ("serve.http.result_s_p50", "s", "lower"),
    ("serve.http.result_bytes_mean", "B", "lower"),
    ("serve.http.polls_per_job", _C, "lower"),
    ("serve.http.rejected", _C, "lower"),
    ("serve.instances.hit_ratio", _R, "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Metric stem -> tracer layer name, for the plain self-time layers.
SELF_TIME_LAYERS = {
    "graphs.local_cuts.local_two_cuts_s": "graphs.local_cuts.local_two_cuts",
    "graphs.local_cuts.local_one_cuts_s": "graphs.local_cuts.local_one_cuts",
    "graphs.local_cuts.interesting_s": "graphs.local_cuts.interesting",
    "graphs.twins.remove_true_twins_s": "graphs.twins.remove_true_twins",
    "solvers.exact.brute_force_s": "solvers.exact.brute_force",
    "core.algorithm1.self_s": "core.algorithm1",
    "graphs.kernel.kernel_for_s": "graphs.kernel.kernel_for",
    "solvers.opt_cache.optimum_s": OPTIMUM,
    "analysis.domination.validate_s": "analysis.domination.validate",
    "local_model.network.init_s": "local_model.network.init",
    "local_model.engine.self_s": "local_model.engine.run",
    "local_model.protocols.callback_s": CALLBACK,
    "local_model.adversary.churn_s": "local_model.adversary.churn",
}

CALL_COUNT_LAYERS = {
    "solvers.exact.brute_force_calls": "solvers.exact.brute_force",
    "graphs.kernel.kernel_for_calls": "graphs.kernel.kernel_for",
    "local_model.protocols.callbacks": CALLBACK,
}


def tracer_metrics(tracer, ops: int) -> dict:
    """The self-time and call-count layer metrics, per op."""
    ops = max(ops, 1)
    out = {}
    for metric, layer in SELF_TIME_LAYERS.items():
        out[metric] = tracer.total(layer).self / ops
    for metric, layer in CALL_COUNT_LAYERS.items():
        out[metric] = tracer.total(layer).calls / ops
    out["graphs.local_cuts.two_cuts_found"] = (
        tracer.total("graphs.local_cuts.local_two_cuts").items / ops
    )
    return out


def empty_layer_metrics() -> dict:
    return {name: 0.0 for name, *_ in PER_LAYER}

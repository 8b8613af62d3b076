"""Simulator microbenchmarks: view-gathering cost scaling.

Not a paper table, but the substrate measurement that justifies the
experiment scales: gathering cost per node grows with ball size, not
with n — the simulator itself is "local".
"""

import pytest

from repro.graphs import generators
from repro.local_model.gather import gather_views


@pytest.mark.parametrize("n", [20, 40, 80])
def test_bench_gather_radius2_on_cycles(benchmark, n):
    graph = generators.cycle(n)
    views, result = benchmark(gather_views, graph, 2)
    benchmark.extra_info["messages"] = result.total_messages
    benchmark.extra_info["payload"] = result.total_payload


@pytest.mark.parametrize("radius", [1, 2, 4])
def test_bench_gather_radius_scaling(benchmark, radius):
    graph = generators.ladder(20)
    views, result = benchmark(gather_views, graph, radius)
    benchmark.extra_info["payload"] = result.total_payload


def test_gather_messages_linear_in_n():
    _, t20 = gather_views(generators.cycle(20), 2)
    _, t80 = gather_views(generators.cycle(80), 2)
    # 4x nodes => 4x messages (each node broadcasts per round)
    assert t80.total_messages == 4 * t20.total_messages

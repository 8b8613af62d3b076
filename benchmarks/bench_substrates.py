"""Substrate microbenchmarks: the costs behind the experiment scales.

Not paper tables; these measure the building blocks so the scales
chosen in DESIGN.md are justified by numbers: local-cut enumeration vs
radius, twin reduction, treewidth heuristic, and the LOCAL-vs-CONGEST
gathering gap on a fixed instance.
"""

import pytest

from repro.graphs import generators
from repro.graphs.local_cuts import local_one_cuts, local_two_cuts
from repro.graphs.treewidth import min_fill_decomposition, width
from repro.graphs.twins import remove_true_twins
from repro.local_model.congest_gather import congest_gather_views
from repro.local_model.gather import gather_views


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_bench_local_one_cuts(benchmark, radius):
    graph = generators.ladder(12)
    result = benchmark(local_one_cuts, graph, radius)
    benchmark.extra_info["count"] = len(result)


@pytest.mark.parametrize("radius", [2, 3])
def test_bench_local_two_cuts(benchmark, radius):
    graph = generators.ladder(10)
    result = benchmark(local_two_cuts, graph, radius)
    benchmark.extra_info["count"] = len(result)


def test_bench_twin_reduction(benchmark):
    graph = generators.clique_with_pendants(12)
    reduced, _ = benchmark(remove_true_twins, graph)
    benchmark.extra_info["reduced_size"] = reduced.number_of_nodes()


def test_bench_treewidth_heuristic(benchmark):
    graph = generators.grid(4, 6)
    tree = benchmark(min_fill_decomposition, graph)
    benchmark.extra_info["width"] = width(tree)


def test_bench_local_gather(benchmark):
    graph = generators.ladder(12)
    views, result = benchmark(gather_views, graph, 2)
    benchmark.extra_info["rounds"] = result.rounds


def test_bench_congest_gather(benchmark):
    graph = generators.ladder(12)
    views, result = benchmark(congest_gather_views, graph, 2, 2)
    benchmark.extra_info["rounds"] = result.rounds


def test_congest_round_gap():
    graph = generators.ladder(12)
    _, local = gather_views(graph, 2)
    _, congest = congest_gather_views(graph, 2, 2)
    assert congest.rounds >= 3 * local.rounds

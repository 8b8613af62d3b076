"""Wireless-sensor scenario from the paper's introduction.

A corridor deployment (sensors along hallways with cross-links) forms a
sparse, K_{2,t}-minor-free communication graph.  To save energy, we want
few *coordinator* nodes such that every sensor has a coordinator in
range — a dominating set — computed by the sensors themselves in a few
synchronous radio rounds (the LOCAL model).

This example builds such a deployment, runs the paper's two distributed
algorithms plus the folklore baselines, and compares how many sensors
must stay awake under each, including the message volumes the simulator
accounted.

Usage: python examples/sensor_network.py
"""

import networkx as nx

from repro import (
    algorithm1,
    d2_dominating_set,
    degree_two_dominating_set,
    full_gather_exact,
    RadiusPolicy,
)
from repro.analysis import format_table, is_dominating_set, measure_ratio
from repro.graphs.ding import Attachment, augment, make_fan, make_strip
from repro.local_model.gather import gather_views
from repro.solvers.exact import minimum_dominating_set


def corridor_deployment() -> nx.Graph:
    """Sensors along three corridors meeting at a junction room.

    Corridors are ladder strips (two parallel rows of sensors with
    cross-links); the junction room is a small clique with a fan of
    desks.  The result is K_{2,6}-minor-free by Ding's structure.
    """
    junction = nx.cycle_graph(6)
    junction.add_edge(0, 3)  # a cross-wall link
    attachments = []
    offset = 100
    # Strip corners must land on distinct junction vertices (Ding's
    # sharing rule): use pairwise-disjoint junction edges.
    for corridor, anchor in [(0, (0, 1)), (1, (2, 3)), (2, (4, 5))]:
        strip = make_strip(5, label_offset=offset + corridor * 50)
        a, b, _, _ = strip.corners
        attachments.append(
            Attachment(piece=strip, glue={a: anchor[0], b: anchor[1]})
        )
    desk_fan = make_fan(4, label_offset=500)
    attachments.append(Attachment(piece=desk_fan, glue={desk_fan.center: 0}))
    return augment(junction, attachments)


def main() -> None:
    graph = corridor_deployment()
    n = graph.number_of_nodes()
    print(f"deployment: {n} sensors, {graph.number_of_edges()} radio links")

    optimum = minimum_dominating_set(graph)
    print(f"offline optimum: {len(optimum)} coordinators\n")

    algorithms = [
        ("Algorithm 1 (Thm 4.1)", lambda: algorithm1(graph, RadiusPolicy.practical())),
        ("D2 (Thm 4.4)", lambda: d2_dominating_set(graph)),
        ("degree>=2 folklore", lambda: degree_two_dominating_set(graph)),
        ("full gather + exact", lambda: full_gather_exact(graph)),
    ]

    rows = []
    for name, runner in algorithms:
        result = runner()
        assert is_dominating_set(graph, result.solution)
        report = measure_ratio(graph, result.solution, optimum)
        awake_pct = 100.0 * result.size / n
        rows.append([name, result.size, f"{awake_pct:.0f}%", report.ratio, result.rounds])

    print(
        format_table(
            ["algorithm", "coordinators", "awake", "ratio", "radio rounds"], rows
        )
    )

    # Message accounting: what does a radius-3 view gathering cost?
    _, gathered = gather_views(graph, 3)
    print(
        f"\nview gathering (radius 3): {gathered.rounds} rounds, "
        f"{gathered.total_messages} messages, {gathered.total_payload} payload units"
    )


if __name__ == "__main__":
    main()

"""CONGEST-model accounting: would a protocol fit in O(log n) bits?

The paper works in LOCAL, where messages are unbounded; the CONGEST
model caps each message at ``B = O(log n)`` bits.  The engine's
per-round stats record payload volume, so we can report *which* of the
reproduced algorithms would survive the cap:

* the 3-round D2 protocol sends closed neighborhoods — Θ(Δ log n) bits,
  CONGEST-feasible only for bounded degree;
* the degree rule sends O(log n) — CONGEST-feasible outright;
* view gathering for radius r sends whole subgraphs — firmly LOCAL.

:func:`congest_report` quantifies this per protocol run.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.local_model.engine import EngineResult


@dataclass(frozen=True)
class CongestReport:
    """Worst-round message volume against the CONGEST budget."""

    n: int
    rounds: int
    max_message_units: float
    """Max per-message payload units in any round (units ≈ ids)."""
    budget_units: float
    """CONGEST allows O(log n) bits ≈ c identifiers per message."""

    @property
    def congest_feasible(self) -> bool:
        return self.max_message_units <= self.budget_units

    @property
    def overshoot(self) -> float:
        if self.budget_units == 0:
            return float("inf")
        return self.max_message_units / self.budget_units


def congest_budget_units(n: int, ids_per_message: int = 1) -> float:
    """The CONGEST cap, measured in identifiers per message.

    A message of ``B = c·log₂ n`` bits carries ``c`` identifiers of
    ``log₂ n`` bits; we use ``c = ids_per_message`` (default 1, the
    strictest classical reading).
    """
    if n < 2:
        return float(ids_per_message)
    return float(ids_per_message)


def trace_congest_report(
    graph: nx.Graph, result: EngineResult, ids_per_message: int = 1
) -> CongestReport:
    """Build a report from a full-trace engine run's per-round stats.

    Per-message volume is approximated as the round's payload divided by
    its message count (the gathering protocol broadcasts uniformly, so
    the average is the maximum up to boundary effects).
    """
    n = graph.number_of_nodes()
    worst = 0.0
    for stats in result.round_stats:
        if stats.messages:
            worst = max(worst, stats.payload_units / stats.messages)
    return CongestReport(
        n=n,
        rounds=result.rounds,
        max_message_units=worst,
        budget_units=congest_budget_units(n, ids_per_message),
    )


def gather_volume_model(n: int, radius: int, max_degree: int) -> float:
    """Analytic upper bound on per-message units for view gathering.

    After k rounds a node's knowledge holds at most ``Δ^k`` vertices and
    ``Δ^{k+1}`` edge entries; the final broadcast dominates.
    """
    if max_degree <= 1:
        return float(radius + 2)
    return float(min(n, max_degree ** radius) * (max_degree + 1))

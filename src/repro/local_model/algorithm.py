"""Per-node algorithm interface for the LOCAL simulator.

:class:`LocalAlgorithm` is the raw interface: per-node ``on_init`` and
``on_round`` callbacks that see only a :class:`~repro.local_model.node.
NodeContext` (identifier, degree, mailboxes).
"""

from __future__ import annotations

import abc

from repro.local_model.node import NodeContext


class LocalAlgorithm(abc.ABC):
    """Raw synchronous message-passing algorithm, instantiated per node."""

    @abc.abstractmethod
    def on_init(self, ctx: NodeContext) -> None:
        """Round 0 setup: may queue the first messages via ``ctx``."""

    @abc.abstractmethod
    def on_round(self, ctx: NodeContext) -> None:
        """One synchronous round: read ``ctx.inbox``, update state, send.

        Call ``ctx.halt(output)`` to finish; a round where every node has
        halted ends the simulation.
        """

"""Round and message accounting for simulator runs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RoundStats:
    """Per-round accounting: message count and total payload size.

    Payload size is measured in abstract units (entries of the encoded
    message); the LOCAL model has no bandwidth limit, but reporting the
    volume makes the contrast with CONGEST visible in experiments.
    """

    round_index: int
    messages: int
    payload_units: int


def payload_size(payload: object) -> int:
    """Rough size of a message payload in units.

    Counts leaves of nested containers; opaque objects count as 1.
    """
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_size(item) for item in payload) or 1
    if isinstance(payload, dict):
        return sum(payload_size(k) + payload_size(v) for k, v in payload.items()) or 1
    return 1

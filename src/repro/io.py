"""Instance and result persistence (JSON, no external deps).

Experiments should be replayable from artifacts: this module serialises
graphs, spec/report records and sweep tables to a stable JSON layout.

* graphs — ``{"nodes": [...], "edges": [[u, v], ...], "meta": {...}}``
  with sorted nodes/edges so files are diff-able;
* records — every spec and report dataclass (``AlgorithmResult``,
  ``RadiusPolicy``, ``RunConfig``, ``RunReport``, the fault, churn and
  Byzantine plans, ``SimulationSpec``, ``RoundStats``, ``SimReport``)
  goes through one codec: :func:`to_dict` emits the dataclass fields in
  declaration order and :func:`from_dict` reads them back.  The layout
  table ``_LAYOUT`` lists the fields that do not travel as their plain
  value: vertex collections are ``repr``-sorted, vertex-keyed dicts
  become sorted ``[vertex, value]`` lists, non-JSON values are dropped,
  trivial adversarial plans encode to ``None``, the adversarial fields
  are left out while they hold their default (so records that do not
  use them keep their older bytes), and JSON lists in vertex positions
  come back as tuples.  The per-type names (``run_report_to_dict``,
  ``sim_spec_from_dict``, ...) are bindings of the one codec, and
  :func:`save_run_reports` / :func:`save_sim_reports` (with their
  loaders) write report batches to files.  No wall-clock data enters
  the layout except ``RunReport.wall_time``, so parallel sweeps dump
  byte-identically to serial ones;
* corpora — a directory of instances addressed by family/size/seed,
  written by :func:`write_corpus` and reloaded by :func:`read_corpus`.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from dataclasses import MISSING, fields
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import networkx as nx

from repro.api.config import RunConfig, RunReport
from repro.api.simulation import SimReport, SimulationSpec
from repro.core.radii import RadiusPolicy
from repro.core.results import AlgorithmResult
from repro.local_model.adversary import ByzantinePlan, ChurnEvent, ChurnPlan
from repro.local_model.engine import FaultPlan
from repro.local_model.instrumentation import RoundStats


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so a crash can never leave a torn file.

    The text lands in a temporary file in the *same directory* (rename
    across filesystems is not atomic), is fsync'd, and is then renamed
    over the destination; the directory is fsync'd afterwards so the
    rename itself survives a power loss.  Readers therefore see either
    the complete old content or the complete new content — never a
    prefix.  This is the sanctioned write path for every checkpoint-like
    artifact (sweep manifests/checkpoints, serve result spills and job
    journals); ``repro lint`` RPR006 flags raw writes in those modules.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_json_atomic(path: str | Path, payload: object, *, indent: int = 1) -> None:
    """:func:`write_text_atomic` for a JSON payload (the common case)."""
    write_text_atomic(path, json.dumps(payload, indent=indent))


def graph_to_dict(graph: nx.Graph, meta: dict | None = None) -> dict:
    """JSON-ready dict for a graph (integer-labelled)."""
    return {
        "nodes": sorted(graph.nodes),
        "edges": sorted([sorted(e) for e in graph.edges]),
        "meta": dict(meta or {}),
    }


def graph_from_dict(data: dict) -> nx.Graph:
    """Inverse of :func:`graph_to_dict`."""
    graph = nx.Graph()
    graph.add_nodes_from(data["nodes"])
    graph.add_edges_from((u, v) for u, v in data["edges"])
    return graph


def save_graph(graph: nx.Graph, path: str | Path, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph, meta), indent=1))


def load_graph(path: str | Path) -> nx.Graph:
    return graph_from_dict(json.loads(Path(path).read_text()))


#: Bytes of CSR blob encoded per base64 block.  A multiple of 3 so the
#: per-block encodings concatenate into one valid base64 string; sized
#: so encoding a million-node wire never materialises more than one
#: small transient buffer beyond the output.
_B64_CHUNK = 3 * (1 << 20)


def _b64_chunked(blob: bytes) -> str:
    """``base64.b64encode`` in bounded chunks (large-wire friendly)."""
    view = memoryview(blob)
    return "".join(
        base64.b64encode(view[start : start + _B64_CHUNK]).decode("ascii")
        for start in range(0, len(view), _B64_CHUNK)
    )


def kernel_wire_to_dict(wire: "KernelWire") -> dict:
    """JSON-ready dict for a :class:`repro.graphs.kernel.KernelWire`.

    The CSR byte arrays travel base64-encoded (chunk-encoded, so the
    transient working set stays bounded even for million-node wires);
    labels travel as plain JSON (tuple labels become lists and are
    re-tupled on the way back, like every other vertex round-trip in
    this module).
    """
    return {
        "labels": list(wire.labels),
        "indptr": _b64_chunked(wire.indptr),
        "indices": _b64_chunked(wire.indices),
    }


def kernel_wire_from_dict(data: dict) -> "KernelWire":
    """Inverse of :func:`kernel_wire_to_dict`."""
    from repro.graphs.kernel import KernelWire

    return KernelWire(
        labels=tuple(_vertex_from_json(label) for label in data["labels"]),
        indptr=base64.b64decode(data["indptr"]),
        indices=base64.b64decode(data["indices"]),
    )


# -- The record codec --------------------------------------------------------


class _Field(NamedTuple):
    """How one record field travels.

    ``encode``/``decode`` map the value to and from its JSON shape.  An
    ``optional`` field is left out while its encoded value equals the
    encoded default, so records that do not use it keep the bytes they
    had before the field existed.
    """

    encode: Callable[[Any], Any] = lambda value: value
    decode: Callable[[Any], Any] = lambda value: value
    optional: bool = False


def _vertex_from_json(value: object) -> object:
    """Re-hash a JSON-decoded vertex label: lists (JSON has no tuples)
    come back as tuples, recursively, so tuple-labelled graphs (e.g.
    ``nx.grid_2d_graph``) survive the round-trip."""
    if isinstance(value, list):
        return tuple(_vertex_from_json(item) for item in value)
    return value


def _jsonable(value: object) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


@cache
def _walk(cls: type) -> tuple:
    """``(name, field codec, encoded default)`` per field of ``cls``."""
    walk = []
    for f in fields(cls):
        codec = _LAYOUT[cls].get(f.name, _Field())
        default = None
        if codec.optional:
            default = codec.encode(
                f.default if f.default is not MISSING else f.default_factory()
            )
        walk.append((f.name, codec, default))
    return tuple(walk)


def to_dict(record: object) -> dict | None:
    """JSON-ready dict for any record type in the layout (``None`` passes
    through).  Deterministic: equal records encode to equal bytes."""
    if record is None:
        return None
    data = {}
    for name, codec, default in _walk(type(record)):
        value = codec.encode(getattr(record, name))
        if not (codec.optional and value == default):
            data[name] = value
    return data


def from_dict(cls: type, data: dict | None) -> object:
    """Inverse of :func:`to_dict` for a record of type ``cls``.

    Missing fields take the dataclass default; unknown keys are ignored.
    """
    if data is None:
        return None
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {data!r}")
    kwargs = {name: codec.decode(data[name]) for name, codec, _ in _walk(cls) if name in data}
    return cls(**kwargs)


def _nested(cls: type) -> _Field:
    """A field holding another record (or ``None``)."""
    return _Field(to_dict, partial(from_dict, cls))


def _vertices(container: type, optional: bool = False) -> _Field:
    """A vertex collection, ``repr``-sorted on the wire."""
    return _Field(
        lambda vertices: sorted(vertices, key=repr),
        lambda vertices: container(map(_vertex_from_json, vertices)),
        optional,
    )


def _vertex_pairs(
    container: type,
    key: Callable[[tuple], object] = lambda pair: repr(pair[0]),
    keep: Callable[[object], bool] = lambda value: True,
    optional: bool = False,
) -> _Field:
    """``(vertex, value)`` pairs, or a vertex-keyed dict (JSON object keys
    must be strings), as a ``key``-sorted ``[vertex, value]`` list;
    values failing ``keep`` are dropped."""

    def encode(pairs):
        items = pairs.items() if isinstance(pairs, dict) else pairs
        return [[v, value] for v, value in sorted(items, key=key) if keep(value)]

    return _Field(
        encode,
        lambda pairs: container((_vertex_from_json(v), value) for v, value in pairs),
        optional,
    )


#: Non-JSON values (live objects in metadata, say) are dropped.
_JSON_VALUES = _Field(lambda d: {k: v for k, v in d.items() if _jsonable(v)}, dict)
_OPTIONAL = _Field(optional=True)


def _plan(cls: type) -> _Field:
    """An adversarial plan: trivial plans encode to ``None`` and are left
    out, so they come back as ``None``."""
    return _Field(
        lambda plan: None if plan is None or plan.is_trivial else to_dict(plan),
        partial(from_dict, cls),
        optional=True,
    )


#: The wire layout, the one place it is decided: per record type, the
#: fields that do not travel as their plain value.  Every record type
#: the codec accepts is a key, and fields keep declaration order.
_LAYOUT: dict[type, dict[str, _Field]] = {
    AlgorithmResult: {
        "solution": _vertices(set),
        "phases": _Field(
            lambda phases: {k: sorted(v, key=repr) for k, v in phases.items()},
            lambda phases: {k: set(map(_vertex_from_json, v)) for k, v in phases.items()},
        ),
        "round_breakdown": _Field(dict, dict),
        "metadata": _JSON_VALUES,
    },
    RadiusPolicy: {},
    RunConfig: {"policy": _nested(RadiusPolicy)},
    RunReport: {
        "instance": _JSON_VALUES,
        "result": _nested(AlgorithmResult),
        "config": _nested(RunConfig),
    },
    FaultPlan: {
        "crashed": _vertices(tuple),
        "crash_schedule": _vertex_pairs(
            tuple, key=lambda pair: (pair[1], repr(pair[0])), optional=True
        ),
    },
    ChurnPlan: {
        # Events travel as positional [round, kind, u, v] rows, in plan
        # order (application order matters within a round).
        "events": _Field(
            lambda events: [[e.round, e.kind, e.u, e.v] for e in events],
            lambda rows: tuple(ChurnEvent(*map(_vertex_from_json, row)) for row in rows),
        ),
    },
    ByzantinePlan: {"behaviors": _vertex_pairs(tuple)},
    SimulationSpec: {
        "faults": _nested(FaultPlan),
        "churn": _plan(ChurnPlan),
        "byzantine": _plan(ByzantinePlan),
        "delay": _OPTIONAL,
    },
    RoundStats: {},
    SimReport: {
        "instance": _JSON_VALUES,
        "spec": _nested(SimulationSpec),
        "outputs": _vertex_pairs(dict, keep=_jsonable),
        "crashed": _vertices(tuple),
        "round_stats": _Field(
            lambda stats: None if stats is None else [to_dict(s) for s in stats],
            lambda rows: None if rows is None else [from_dict(RoundStats, r) for r in rows],
        ),
        "delayed_messages": _OPTIONAL,
        "churn_events": _OPTIONAL,
        "churn_lost_messages": _OPTIONAL,
        "suspicion": _vertex_pairs(dict, optional=True),
        "failed": _vertices(tuple, optional=True),
        "timed_out": _OPTIONAL,
    },
}

# The per-type names callers import are bindings of the one codec.
result_to_dict = run_config_to_dict = run_report_to_dict = to_dict
fault_plan_to_dict = churn_plan_to_dict = byzantine_plan_to_dict = to_dict
sim_spec_to_dict = sim_report_to_dict = to_dict
result_from_dict = partial(from_dict, AlgorithmResult)
run_config_from_dict = partial(from_dict, RunConfig)
run_report_from_dict = partial(from_dict, RunReport)
fault_plan_from_dict = partial(from_dict, FaultPlan)
churn_plan_from_dict = partial(from_dict, ChurnPlan)
byzantine_plan_from_dict = partial(from_dict, ByzantinePlan)
sim_spec_from_dict = partial(from_dict, SimulationSpec)
sim_report_from_dict = partial(from_dict, SimReport)


def _save_reports(reports: Iterable[object], path: str | Path) -> None:
    """Persist a batch of reports (a `solve_many`/`simulate_many` sweep)."""
    Path(path).write_text(json.dumps([to_dict(r) for r in reports], indent=1))


def _load_reports(cls: type, path: str | Path) -> list:
    return [from_dict(cls, d) for d in json.loads(Path(path).read_text())]


save_run_reports = save_sim_reports = _save_reports
load_run_reports = partial(_load_reports, RunReport)
load_sim_reports = partial(_load_reports, SimReport)


def counted_payload(key: str, items: list, **extra: object) -> dict:
    """The shared counted-list JSON envelope: ``{key: items, "count": n}``.

    One shape for every "list of things plus how many" payload, so
    consumers parse them uniformly: ``repro lint --json`` reports its
    findings with it, and the serve ``GET /stats`` endpoint reports the
    observable job queue with it (plus ``capacity`` as an extra).
    """
    return {key: list(items), "count": len(items), **extra}


def save_rows(rows: list[dict], path: str | Path) -> None:
    """Persist a sweep table (list of uniform dicts)."""
    Path(path).write_text(json.dumps(rows, indent=1, default=str))


def load_rows(path: str | Path) -> list[dict]:
    return json.loads(Path(path).read_text())


def write_corpus(
    directory: str | Path,
    family_names: Iterable[str],
    sizes: Iterable[int],
    seeds: Iterable[int] = (0,),
) -> list[Path]:
    """Materialise a corpus of instances on disk; returns written paths."""
    from repro.graphs.families import get_family

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name in family_names:
        family = get_family(name)
        for size in sizes:
            for seed in seeds:
                graph = family.make(size, seed)
                meta = {"family": name, "size": size, "seed": seed}
                path = root / f"{name}_n{size}_s{seed}.json"
                save_graph(graph, path, meta)
                written.append(path)
    return written


def read_corpus(directory: str | Path) -> list[tuple[dict, nx.Graph]]:
    """Load every instance of a corpus as (meta, graph) pairs."""
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        out.append((data.get("meta", {}), graph_from_dict(data)))
    return out

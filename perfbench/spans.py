"""Span tracing of pairloss from outside the package.

The tracer replaces module attributes of pairloss with timing wrappers for
the duration of one traced operation and puts the originals back afterwards.
Nothing under src/ knows about it. Each wrapper records a span (site, parent
span, start, end); a layer's self time is its spans' durations minus the
durations of their direct child spans.

Counters are taken only where a span enters its layer from another layer (or
from the benchmark), so a loss function that calls another loss function is
counted once.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("types", "distance", "ranking", "loss", "sim", "scorefile", "cli")


def _score_set_arg(args, kwargs):
    return kwargs["score_set"] if "score_set" in kwargs else args[0]


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _loss_counts(counts, args, kwargs, result):
    labels = _score_set_arg(args, kwargs).labels
    _add(counts, "loss.active_pairs", result.active_pairs)
    _add(counts, "loss.pair_slots", int(np.count_nonzero(labels == 1)) * int(np.count_nonzero(labels == 0)))


def _distance_counts(counts, args, kwargs, result):
    _add(counts, "distance.elements", np.size(args[0]))


def _scan_counts(counts, args, kwargs, result):
    _add(counts, "ranking.scanned_elements", len(_score_set_arg(args, kwargs)))


def _read_counts(counts, args, kwargs, result):
    _add(counts, "scorefile.rows", len(result))


def _render_counts(counts, args, kwargs, result):
    _add(counts, "scorefile.report_bytes", len(result.encode("utf-8")))


def _simulate_counts(counts, args, kwargs, result):
    reached = [r.step for r in result.records if r.ranking_ap >= 0.99]
    _add(counts, "sim.steps", len(result.records))
    _add(counts, "sim.steps_to_ap99", reached[0] if reached else -1)


@dataclass(frozen=True)
class Site:
    """One wrapped call site: attribute `attr` of `module` (dotted for a class member)."""

    module: str
    attr: str
    layer: str
    count: object = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


# Entry points the benchmark itself calls; each workload's op enters through one of these.
ENTRY_SITES = (
    Site("pairloss.loss", "gradient_error_driven", "loss", _loss_counts),
    Site("pairloss.loss", "gradient_autodiff_ce", "loss", _loss_counts),
    Site("pairloss.loss", "evaluate_with_gradient", "loss", _loss_counts),
    Site("pairloss.sim", "simulate_training", "sim", _simulate_counts),
    Site("pairloss.cli", "main", "cli"),
)

# Call sites through which the program reaches each layer.
CALL_SITES = (
    Site("pairloss.loss", "compute_ranks", "ranking", _scan_counts),
    Site("pairloss.loss", "valid_negative_count", "ranking", _scan_counts),
    Site("pairloss.loss", "select_top_q_negatives", "ranking"),
    Site("pairloss.loss", "ce_distance", "distance", _distance_counts),
    Site("pairloss.loss", "sigmoid_distance", "distance", _distance_counts),
    Site("pairloss.loss", "ce_distance_grad_wrt_u", "distance", _distance_counts),
    Site("pairloss.loss", "distance_value", "distance", _distance_counts),
    Site("pairloss.sim", "evaluate_with_gradient", "loss", _loss_counts),
    Site("pairloss.sim", "ranking_ap", "sim"),
    Site("pairloss.types", "ScoreSet.with_scores", "types"),
    Site("pairloss.types", "ScoreSet.__post_init__", "types"),
    Site("pairloss.cli", "read_score_file", "scorefile", _read_counts),
    Site("pairloss.cli", "render_report", "scorefile", _render_counts),
    Site("pairloss.cli", "evaluate_with_gradient", "loss", _loss_counts),
    Site("pairloss.cli", "evaluate_loss", "loss", _loss_counts),
)

SITES = ENTRY_SITES + CALL_SITES


def _lookup(site: Site):
    """(owner, attribute name, current function) of a site, or None when the program lacks it."""
    try:
        owner = importlib.import_module(site.module)
    except ImportError:
        return None
    *path, last = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a class member is read from the class dict, so a method is wrapped unbound
    found = vars(owner).get(last) if isinstance(owner, type) else getattr(owner, last, None)
    return None if found is None else (owner, last, found)


def absent_sites() -> list[str]:
    """Sites the program no longer has (removed or renamed); they trace as 0 calls."""
    return [site.name for site in SITES if _lookup(site) is None]


@dataclass
class OpTrace:
    """Aggregated spans of one traced operation."""

    wall_s: float
    layer_self_s: dict[str, float]
    layer_entries: dict[str, int]
    site_calls: dict[str, int]
    site_self_s: dict[str, float]
    counts: dict[str, int] = field(default_factory=dict)
    # child-process workloads only: process wall time outside the traced entry span
    startup_s: float = 0.0

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, data: dict) -> "OpTrace":
        return cls(**data)


class Tracer:
    """Installs span wrappers on every site in SITES and aggregates per operation.

    Spans live in preallocated integer arrays (site, layer, parent position,
    start, end), and the wrappers are built once. Recording a span then
    allocates nothing on the C heap, whose layout decides how often numpy's
    temporaries go back to the kernel and fault in again (README: known
    noise on topq_50k).
    """

    CAPACITY = 1 << 16

    def __init__(self) -> None:
        self._columns = [array("q", bytes(8 * self.CAPACITY)) for _ in range(5)]
        self._cursor = [0]
        self._stack: list[int] = []
        self._counts: dict[str, int] = {}
        self._installed: list[tuple[object, str, object, object]] = []

    def __enter__(self) -> "Tracer":
        self._reset()
        if not self._installed:
            # wrappers are built once and reused, so entering allocates nothing per op
            for index, site in enumerate(SITES):
                found = _lookup(site)
                if found is not None:
                    owner, last, original = found
                    self._installed.append((owner, last, original, self._wrap(index, original)))
        for owner, last, _, wrapper in self._installed:
            setattr(owner, last, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, last, original, _ in reversed(self._installed):
            setattr(owner, last, original)

    def _reset(self) -> None:
        self._cursor[0] = 0
        self._stack.clear()
        self._counts.clear()

    def _wrap(self, index: int, fn):
        # kept lean: every traced call pays for this body, and the caller's self time absorbs it
        columns, cursor, stack, counts, clock = self._columns, self._cursor, self._stack, self._counts, time.perf_counter_ns
        sites, layers, parents, starts, ends = columns
        layer = LAYERS.index(SITES[index].layer)
        count = SITES[index].count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            position = cursor[0]
            if position == len(starts):
                for column in columns:
                    column.extend(array("q", bytes(8 * len(column))))
            cursor[0] = position + 1
            parent = stack[-1] if stack else -1
            sites[position] = index
            layers[position] = layer
            parents[position] = parent
            stack.append(position)
            starts[position] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[position] = clock()
                stack.pop()
            if count is not None and (parent < 0 or layers[parent] != layer):
                count(counts, args, kwargs, result)
            return result

        return traced

    def collect(self, wall_s: float) -> OpTrace:
        """Aggregate the spans recorded since the last collect and reset them."""
        n = self._cursor[0]
        sites, layers, parents, starts, ends = (column[:n] for column in self._columns)
        durations = [end - start for start, end in zip(starts, ends)]
        child_ns = [0] * n
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durations[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        site_calls = {site.name: 0 for site in SITES}
        site_self = {site.name: 0.0 for site in SITES}
        for i in range(n):
            name, layer, parent = SITES[sites[i]].name, LAYERS[layers[i]], parents[i]
            own = (durations[i] - child_ns[i]) * 1e-9
            layer_self[layer] += own
            site_self[name] += own
            site_calls[name] += 1
            if parent < 0 or layers[parent] != layers[i]:
                entries[layer] += 1
        trace = OpTrace(wall_s, layer_self, entries, site_calls, site_self, dict(self._counts))
        self._reset()
        return trace

"""Spans around calls into the program's layers, recorded from outside ``src/``.

The traced run wraps public functions and methods of each layer
(``dse``, ``store``, ``scenarios``, ``experiments``, ``core``, ``network``,
``sim``) for the duration of a ``with`` block and restores them afterwards.
Spans are kept in memory and written out once, when the benchmark ends.
Nothing here is imported by an untraced run, so end-to-end figures are
measured without any of these wrappers in place.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from workloads import ObservedStore


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: Scenario specs of the ``run_scenario`` calls currently open, so a
        #: pool map can attribute its trials to the point that issued them.
        self.specs: List[Any] = []
        #: ``(spec, trial callable, seed, result)`` for every trial a pool map ran.
        self.executions: List[Tuple[Any, Any, Any, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                    for s in self.spans
                ],
                handle,
            )
            handle.write("\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one span are sequential calls on one thread, so their
    intervals do not overlap; overlapping intervals are merged anyway so the
    result never goes negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: List[float] = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out


# ----------------------------------------------------------------- patching


def _timed(tracer: Tracer, owner: Any, attr: str, name: str) -> Tuple[Any, str, Callable[..., Any]]:
    """A replacement for ``owner.attr`` that records each call as span ``name``."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)

    return owner, attr, wrapper


@contextmanager
def _patched(replacements: Sequence[Tuple[Any, str, Callable[..., Any]]]) -> Iterator[None]:
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, wrapper in replacements:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def service_layers(tracer: Tracer) -> Iterator[None]:
    """Spans on the parent-side path: search, service, scenario, pool, keys.

    The trial callables themselves run in pool workers, which are forked
    inside this block but call none of the wrapped functions.
    """
    from repro.dse.optimizer import Optimizer
    from repro.experiments import resilience
    from repro.experiments.parallel import SweepPool
    from repro.scenarios import runtime
    from repro.scenarios.algorithms import ElectionScenarioTrial
    from repro.store import fingerprint
    from repro.store.service import StudyService

    run_scenario = runtime.run_scenario
    pool_map = SweepPool.map

    @functools.wraps(run_scenario)
    def traced_run_scenario(spec: Any, **kwargs: Any) -> Any:
        tracer.specs.append(spec)
        try:
            with tracer.span("scenarios.run_scenario"):
                return run_scenario(spec, **kwargs)
        finally:
            tracer.specs.pop()

    @functools.wraps(pool_map)
    def traced_map(self: Any, fn: Any, items: Sequence[Any]) -> List[Any]:
        items = list(items)
        with tracer.span("experiments.map"):
            results = pool_map(self, fn, items)
        spec = tracer.specs[-1] if tracer.specs else None
        tracer.executions.extend((spec, fn, item, result) for item, result in zip(items, results))
        return results

    with _patched(
        [
            _timed(tracer, Optimizer, "run", "dse.run"),
            _timed(tracer, StudyService, "submit", "store.submit"),
            _timed(tracer, StudyService, "run_pending", "store.run_pending"),
            (runtime, "run_scenario", traced_run_scenario),
            _timed(tracer, ElectionScenarioTrial, "__init__", "scenarios.compile_trial"),
            (SweepPool, "map", traced_map),
            _timed(tracer, fingerprint, "spec_fingerprint", "store.fingerprint"),
            _timed(tracer, fingerprint, "study_fingerprint", "store.fingerprint"),
            _timed(tracer, resilience, "spec_fingerprint", "store.fingerprint"),
            _timed(tracer, fingerprint, "code_version", "store.code_version"),
        ]
    ):
        yield


@contextmanager
def trial_layers(tracer: Tracer) -> Iterator[None]:
    """Spans inside one in-process trial: network build, run, engines."""
    from repro.core import churn_election, runner, vector_core

    with _patched(
        [
            _timed(tracer, runner, "build_election_network", "network.build"),
            _timed(tracer, runner, "run_election_on_network", "sim.run"),
            _timed(tracer, vector_core, "run_vector_election", "core.vector"),
            _timed(tracer, churn_election, "build_churn_election_network", "network.build_churn"),
            _timed(tracer, churn_election, "run_churn_election", "core.churn"),
        ]
    ):
        yield


# -------------------------------------------------------------------- stores


class TimingStore(ObservedStore):
    """An :class:`ObservedStore` with spans on lookups and records."""

    def __init__(self, path: Any, tracer: Tracer, fresh: bool = False) -> None:
        super().__init__(path, fresh=fresh)
        self.tracer = tracer
        self.lookup_calls = 0

    def lookup(self, key: str, seeds: Sequence[int]) -> Dict[int, Any]:
        self.lookup_calls += 1
        with self.tracer.span("store.lookup"):
            return super().lookup(key, seeds)

    def record_many(self, key: str, pairs: Sequence[Tuple[int, Any]]) -> int:
        with self.tracer.span("store.record"):
            return super().record_many(key, pairs)

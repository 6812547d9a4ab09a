"""Output checks and the statistics the benchmark reports.

A failed *trial* is counted against the workload (``failed`` in the result
line).  A failed *check* -- warm output that differs from cold, a serial
re-run that differs from the pool, a workload too small for its reported
percentile -- means the benchmark itself cannot be trusted, and raises
:class:`BenchmarkError`, which ends the run with a non-zero exit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from typing import Any, Optional, Sequence

#: Percentiles considered for a timing's tail, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


class BenchmarkError(Exception):
    """A correctness gate failed; the run's figures must not be used."""


def failure_reason(result: Any) -> Optional[str]:
    """Why one executed trial counts as failed, or ``None`` if it did not.

    ``"trial-failure"``: the execution layer returned a ``TrialFailure``.
    ``"invariant"``: the election broke its invariant (static runs must end
    with exactly one leader and no hop overflow; churn runs must also end
    stabilized).  ``"uncacheable"``: the result carries a ``leader_uid``
    that is not a plain ``int``, which the store's codec refuses, so the
    trial is executed but not kept.
    """
    from repro.experiments.resilience import TrialFailure

    if isinstance(result, TrialFailure):
        return "trial-failure"
    if hasattr(result, "stabilized"):
        if not (result.stabilized and result.elected):
            return "invariant"
    elif not (result.elected and result.leaders_elected == 1 and result.hop_overflows == 0):
        return "invariant"
    if type(result.leader_uid) is not int:
        return "uncacheable"
    return None


@dataclasses.dataclass
class ColdOutcome:
    """Counts and checks of one cold serve, from its observed store."""

    attempted: int
    failed: int
    trial_failures: int
    invariant: int
    uncacheable: int
    uncached: int
    rows_written: int
    events: int
    ticks: int
    messages: int


def cold_outcome(store: Any) -> ColdOutcome:
    """Classify one cold serve from its observed store (see ``workloads.ObservedStore``).

    Executed trials are the store's lookup misses.  A trial fails if it
    produced a ``TrialFailure`` (never offered to the store), broke the
    election invariant, or was offered but not kept.
    """
    results = [result for _, _, result in store.offered]
    reasons = Counter(filter(None, map(failure_reason, results)))
    executed = store.misses
    trial_failures = executed - len(results)
    uncached = executed - store.rows_written - trial_failures
    return ColdOutcome(
        attempted=executed,
        failed=trial_failures + reasons.get("invariant", 0) + uncached,
        trial_failures=trial_failures,
        invariant=reasons.get("invariant", 0),
        uncacheable=reasons.get("uncacheable", 0),
        uncached=uncached,
        rows_written=store.rows_written,
        events=sum(r.events_processed for r in results),
        ticks=sum(r.ticks for r in results),
        messages=sum(r.messages_total for r in results),
    )


def tail_percentile(samples: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with ``SAMPLES_BEYOND`` samples above it."""
    best = None
    for p in PERCENTILES:
        if samples * (1.0 - p / 100.0) >= SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def canonical(result: Any) -> str:
    """A byte-comparable text form of one trial result (a dataclass).

    NumPy scalars compare equal to the Python values they hold, so they are
    written through ``.item()``; the check is on values, not types (the type
    difference is what :func:`failure_reason` reports).
    """
    return json.dumps(
        dataclasses.asdict(result), sort_keys=True, default=lambda value: value.item()
    )


def gate_identical(what: str, expected: str, actual: str) -> None:
    """Raise unless two deterministic output blocks are byte-identical."""
    if expected != actual:
        raise BenchmarkError(f"{what}: output differs from the cold run")

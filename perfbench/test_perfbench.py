"""Tests for the benchmark's own code (not for the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q``.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (  # noqa: E402
    BenchmarkError,
    cold_outcome,
    failure_reason,
    gate_identical,
    tail_percentile,
)
from tracing import Span, Tracer, self_times  # noqa: E402

from repro.core.runner import ElectionResult  # noqa: E402
from repro.experiments.resilience import TrialFailure  # noqa: E402


def _result(**changes):
    fields = dict(
        n=8, elected=True, leader_uid=3, election_time=5.0, messages_total=12,
        knockout_messages=2, activations=3, ticks=40, hop_overflows=0,
        events_processed=50, seed=1, a0=0.1, leaders_elected=1,
    )
    fields.update(changes)
    return ElectionResult(**fields)


# ------------------------------------------------------------ self times


def test_self_time_is_span_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_records_parent_links_and_accounts_for_the_wall():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)
    ]
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


# --------------------------------------------------- failure classification


def test_failure_reason_classifies_each_kind():
    assert failure_reason(_result()) is None
    assert failure_reason(_result(leader_uid=numpy.int64(3))) == "uncacheable"
    assert failure_reason(_result(elected=False, leader_uid=None, leaders_elected=0)) == "invariant"
    assert failure_reason(_result(leaders_elected=2)) == "invariant"
    assert failure_reason(_result(hop_overflows=1)) == "invariant"
    failure = TrialFailure(seed=1, item="1", attempts=1, kind="error",
                           error_type="RuntimeError", message="boom")
    assert failure_reason(failure) == "trial-failure"


def test_failure_reason_uses_the_churn_invariant_for_churn_results():
    churned = SimpleNamespace(stabilized=False, elected=True, leader_uid=1)
    assert failure_reason(churned) == "invariant"
    churned.stabilized = True
    assert failure_reason(churned) is None


def test_cold_outcome_counts_unstored_invariant_and_trial_failures():
    offered = [
        ("k", 1, _result()),
        ("k", 2, _result(leader_uid=numpy.int64(5))),
        ("k", 3, _result(elected=False, leader_uid=None, leaders_elected=0)),
    ]
    # Four trials executed: one returned a TrialFailure (never offered), one
    # result was refused by the store, so two rows were written.
    store = SimpleNamespace(offered=offered, misses=4, rows_written=2)
    outcome = cold_outcome(store)
    assert outcome.attempted == 4
    assert (outcome.trial_failures, outcome.invariant, outcome.uncached) == (1, 1, 1)
    assert outcome.uncacheable == outcome.uncached == 1
    assert outcome.failed == 3
    assert outcome.events == 150


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "samples, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


# ------------------------------------------------------------------ gates


def test_gate_fires_on_a_tampered_warm_block(tmp_path):
    import workloads
    from repro.scenarios.spec import ScenarioSpec, StudySpec
    from repro.store import ResultStore

    study = StudySpec(name="tiny", points=(ScenarioSpec(trials=3, seed=5),))
    workload = workloads.Workload(study=study)
    path = tmp_path / "store.sqlite"
    with workloads.ObservedStore(path, fresh=True) as store:
        cold = workloads.serve(workload, store)
    assert cold_outcome(store).failed == 0

    with ResultStore(path) as store:
        gate_identical("warm", cold.block, workloads.serve(workload, store).block)

    class TamperingStore(ResultStore):
        def lookup(self, key, seeds):
            found = super().lookup(key, seeds)
            for seed in found:
                found[seed].messages_total += 1
            return found

    with TamperingStore(path) as store:
        tampered = workloads.serve(workload, store)
    with pytest.raises(BenchmarkError):
        gate_identical("warm", cold.block, tampered.block)


def test_serial_and_pooled_results_compare_by_value():
    from checks import canonical

    assert canonical(_result(leader_uid=numpy.int64(3))) == canonical(_result())
    assert canonical(_result(messages_total=13)) != canonical(_result())

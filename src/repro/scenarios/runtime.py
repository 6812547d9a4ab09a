"""The single entry point from declarative specs to running simulations.

:func:`run_scenario` compiles one :class:`~repro.scenarios.spec.ScenarioSpec`
into the existing fast-path machinery
(:func:`repro.core.runner.run_election`, :func:`~repro.experiments.runner.monte_carlo`,
:class:`~repro.experiments.parallel.SweepPool`) and returns the trial
results.  The compiled trial, the derived seed list and the adaptive batch
boundaries are exactly the ones the hand-threaded experiment code produced,
so a spec that mirrors an experiment's parameters reproduces its results bit
for bit -- locked by the pre-refactor goldens in ``tests/harness``.

:func:`run_study` executes a :class:`~repro.scenarios.spec.StudySpec` -- an
ordered battery of points -- sharing one worker pool across the whole
battery.  One-shot batteries (each point a single deterministic evaluation,
e.g. E4/E5) fan the *points* across the pool; Monte-Carlo batteries fan each
point's *trials*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.scenarios.algorithms import ALGORITHMS, AlgorithmEntry
from repro.scenarios.spec import ScenarioSpec, StudySpec

# NOTE: ``repro.experiments`` imports this module, so the experiment-harness
# pieces (monte_carlo, SweepPool, the execution policy) are imported lazily
# inside the entry points to keep the import graph acyclic.

__all__ = ["compile_trial", "run_scenario", "run_study"]


def compile_trial(spec: ScenarioSpec) -> Any:
    """Compile a spec into its picklable ``seed -> result`` trial callable.

    Resolution against the registries happens here, so unknown algorithm,
    topology, delay, drift or schedule kinds fail fast with the list of known
    keys, before any simulation starts.
    """
    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    return entry.build_trial(spec)


def run_scenario(
    spec: ScenarioSpec,
    *,
    pool: Optional[Any] = None,
    workers: Optional[int] = None,
    adaptive: Optional[Any] = None,
    stats_out: Optional[Dict[str, Any]] = None,
    checkpoint: Optional[Any] = None,
) -> List[Any]:
    """Run one scenario and return its (ordered) trial results.

    Parameters
    ----------
    pool:
        Optional shared :class:`~repro.experiments.parallel.SweepPool`; one
        pool can serve every point of a study.  Results are bit-identical for
        any pool/worker combination.
    workers:
        Worker processes when no pool is given (``None`` = the spec's
        ``workers`` field; ``0`` = one per CPU).
    adaptive:
        Overrides the spec's ``stopping`` rule; an unpinned metric resolves
        to the algorithm's default target.
    stats_out:
        Receives ``trials_executed``/``stopped_early``.
    checkpoint:
        Optional :class:`~repro.store.ResultStore` (defaults to the ambient
        policy's).  Trials are keyed by ``(spec fingerprint, seed)`` -- the
        fingerprint is content-derived from the spec minus its
        execution-only fields, so a resumed study with a different worker
        count still hits the store and produces bit-identical results.
        A spec that refuses a canonical fingerprint (an override whose repr
        carries a memory address -- a per-process key that could never hit)
        runs uncached.
    """
    from repro.experiments.parallel import SweepPool
    from repro.experiments.resilience import current_store, spec_fingerprint
    from repro.experiments.runner import monte_carlo  # late: avoids cycle

    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    if entry.one_shot:
        if spec.trials != 1:
            raise ValueError(
                f"algorithm {spec.algorithm!r} is a one-shot evaluation; "
                f"use one point per parameter value instead of trials={spec.trials}"
            )
        with SweepPool.ensure(pool, 1) as shared:
            return _point_map([spec], shared, current_store(checkpoint))[0]
    rule = adaptive if adaptive is not None else spec.stopping
    if rule is not None:
        rule = rule.resolved(entry.metric)
    worker_count: Optional[int] = spec.workers if workers is None else workers
    return monte_carlo(
        entry.build_trial(spec),
        trials=spec.trials,
        base_seed=spec.seed,
        label=spec.label,
        workers=worker_count or None,  # 0 = monte_carlo's "one per CPU"
        pool=pool,
        adaptive=rule,
        stats_out=stats_out,
        checkpoint=checkpoint,
        checkpoint_key=spec_fingerprint(spec),
    )


def _run_one_shot(spec: ScenarioSpec) -> Any:
    """Top-level point runner (must be picklable for pool fan-out)."""
    entry: AlgorithmEntry = ALGORITHMS.get(spec.algorithm)
    return entry.build_trial(spec)(spec.seed)


def run_study(
    study: StudySpec,
    *,
    pool: Optional[Any] = None,
    workers: Optional[int] = 1,
    adaptive: Optional[Any] = None,
    checkpoint: Optional[Any] = None,
) -> List[List[Any]]:
    """Run every point of a study; per-point result lists in point order.

    One :class:`~repro.experiments.parallel.SweepPool` (the caller's, or a
    fresh one sized by ``workers``) serves the whole battery, so pool startup
    is paid once per study rather than once per point.  ``adaptive``
    resolves its metric against the study's declared target.  ``checkpoint``
    (explicit or the ambient policy's store) keys every trial by its
    point's spec fingerprint, so a killed study resumes exactly where it
    stopped -- across points as well as within one.
    """
    from repro.experiments.parallel import SweepPool  # late: avoids cycle
    from repro.experiments.resilience import current_store

    store = current_store(checkpoint)
    rule = adaptive.resolved(study.metric) if adaptive is not None else None
    points = list(study.points)
    with SweepPool.ensure(pool, workers) as shared:
        if all(ALGORITHMS.get(point.algorithm).one_shot for point in points):
            # One deterministic evaluation per point: fan the points
            # themselves across the pool (the E4/E5 shape).
            return _point_map(points, shared, store)
        return [
            run_scenario(point, pool=shared, adaptive=rule, checkpoint=store)
            for point in points
        ]


def _point_map(points: List[ScenarioSpec], shared: Any, store: Optional[Any]) -> List[List[Any]]:
    """One-shot points: look each up, fan the missing ones out, record them.

    Each point is keyed by ``(its own fingerprint, its raw seed)``; the
    missing points go to the pool in one ``map``.  Failed placeholders are
    never recorded, so a resume re-attempts them; points whose spec refuses
    a canonical fingerprint always run and are never recorded.
    """
    from repro.experiments.resilience import TrialFailure, spec_fingerprint

    keys = [spec_fingerprint(point) if store is not None else None for point in points]
    results: List[Any] = [None] * len(points)
    missing: List[int] = []
    for index, (point, key) in enumerate(zip(points, keys)):
        cached = store.lookup(key, [point.seed]) if key is not None else {}
        if point.seed in cached:
            results[index] = cached[point.seed]
        else:
            missing.append(index)
    fresh = shared.map(_run_one_shot, [points[index] for index in missing])
    for index, result in zip(missing, fresh):
        results[index] = result
        if keys[index] is not None and not isinstance(result, TrialFailure):
            store.record(keys[index], points[index].seed, result)
    return [[result] for result in results]

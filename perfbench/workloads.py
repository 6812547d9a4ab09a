"""The benchmark's workloads and the one way each is served.

Every workload is generated from the benchmark seed alone and handed to the
program through its public entry points: a :class:`StudySpec` submitted to
:class:`~repro.store.service.StudyService`, or a :class:`SearchSpec` run by
:class:`~repro.dse.optimizer.Optimizer`.  Sizes are chosen so that one cold
serve takes a few seconds on two cores and executes at least 100 trials
(enough for a p90 with ten samples beyond it).  Why each workload exists,
which layers it loads, and why ``vector-scaling`` is built but not declared
in ``BENCHMARK.json`` is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.dse.optimizer import Optimizer
from repro.dse.spec import SearchSpec
from repro.experiments import e1_message_complexity as e1
from repro.experiments import e3_activation_parameter as e3
from repro.scenarios.spec import ScenarioSpec, StudySpec
from repro.sim.rng import derive_seed
from repro.store import ResultStore
from repro.store.service import StudyService

#: Pool size for every serve: closed loop, one client, two workers.
WORKERS = 2

NAMES = ("paper-battery", "vector-scaling", "search")

# Trial budgets (see NOTES.md for how they were sized).
PAPER_TRIALS = 48
VECTOR_POINTS = ((1000, 64), (4000, 24), (5000, 12))
#: One search group per ring size and election core.  Object and vector twins
#: elect in the same time distribution, so as one dimension the core would be
#: promoted by coin flip, and the search's cost (object trials cost more and
#: never drop) would swing with the benchmark seed.
SEARCH_GROUPS = tuple((n, core) for n in (8, 16, 24, 32) for core in ("object", "vector"))
#: A categorical a0 grid makes the space exhaustive, so rung 0 enumerates all
#: 12 configurations on every seed instead of a seed-dependent random sample.
SEARCH_A0 = (0.002, 0.005, 0.01, 0.02)
SEARCH_DELAYS = (
    {"kind": "exponential", "params": {"mean": 1.0}},
    {"kind": "uniform", "params": {"low": 0.0, "high": 2.0}},
    {"kind": "constant", "params": {"value": 1.0}},
)
SEARCH_STRATEGY = {"candidates": 12, "eta": 2, "base_trials": 6, "rungs": 2}


@dataclass(frozen=True)
class Workload:
    """One generated input: exactly one of ``study`` and ``search`` is set."""

    study: Optional[StudySpec] = None
    search: Optional[SearchSpec] = None


@dataclass(frozen=True)
class Served:
    """What one serve produced: the deterministic report block and its shape."""

    block: str
    rounds: int


class ObservedStore(ResultStore):
    """A :class:`ResultStore` that remembers every result offered to it.

    It changes nothing the store does: the parent's ``record_many`` decides
    what is kept.  The benchmark reads back what was offered (every trial
    executed without a ``TrialFailure``) and how many rows were written, so
    it can check each cold trial and count results the store did not keep.
    """

    def __init__(self, path: Any, fresh: bool = False) -> None:
        super().__init__(path, fresh=fresh)
        self.offered: List[Tuple[str, int, Any]] = []
        self.rows_written = 0

    def record_many(self, key: str, pairs: Sequence[Tuple[int, Any]]) -> int:
        pairs = list(pairs)
        written = super().record_many(key, pairs)
        self.offered.extend((key, seed, result) for seed, result in pairs)
        self.rows_written += written
        return written


def _paper_battery(seed: int) -> StudySpec:
    """Reduced E1 and E3 batteries plus one periodic-churn point (object core)."""
    churn = ScenarioSpec.from_dict(
        {
            "algorithm": "abe-election",
            "topology": {"kind": "uniring", "params": {"n": 8}},
            "seed": derive_seed(seed, "paper-battery/churn"),
            "trials": PAPER_TRIALS,
            "label": "periodic-churn",
            "churn": {
                "kind": "script",
                "params": {
                    "events": [
                        {"kind": "periodic", "params": {"interval": 60.0, "count": 2,
                                                        "downtime": 25.0, "start": 15.0,
                                                        "target": "leader"}},
                        {"kind": "link-down", "params": {"channel": 2, "time": 30.0,
                                                         "duration": 20.0}},
                    ]
                },
            },
        }
    )
    battery_e1 = e1.build_study(
        sizes=(32, 64, 128), trials=PAPER_TRIALS, base_seed=derive_seed(seed, "paper-battery/e1")
    )
    battery_e3 = e3.build_study(
        n=32, trials=PAPER_TRIALS, base_seed=derive_seed(seed, "paper-battery/e3")
    )
    return StudySpec(
        name="paper-battery",
        points=battery_e1.points + battery_e3.points + (churn,),
        metric="messages_total",
    )


def _vector_scaling(seed: int) -> StudySpec:
    """Uniring elections on the vector core at recommended ``a0``."""
    return StudySpec(
        name="vector-scaling",
        points=tuple(
            ScenarioSpec.from_dict(
                {
                    "algorithm": "abe-election",
                    "topology": {"kind": "uniring", "params": {"n": n}},
                    "core": "vector",
                    "seed": derive_seed(seed, f"vector-scaling/n{n}"),
                    "trials": trials,
                    "label": f"vector-n{n}",
                }
            )
            for n, trials in VECTOR_POINTS
        ),
        metric="messages_total",
    )


def _search(seed: int) -> SearchSpec:
    """Successive halving over a0 x delay, per ring size and core."""
    return SearchSpec.from_dict(
        {
            "name": "search",
            "metric": "election_time",
            "goal": "min",
            "seed": derive_seed(seed, "search"),
            "trials": 4,
            "space": {
                "base": {
                    "algorithm": "abe-election",
                    "topology": {"kind": "uniring", "params": {"n": 8}},
                    "delay": {"kind": "exponential", "params": {"mean": 1.0}},
                    "seed": derive_seed(seed, "search/base"),
                    "trials": 4,
                },
                "dimensions": [
                    {"name": "a0", "kind": "categorical", "field": "a0",
                     "choices": list(SEARCH_A0)},
                    {"name": "delay", "kind": "categorical", "field": "delay",
                     "choices": list(SEARCH_DELAYS)},
                ],
            },
            "strategy": {"kind": "successive-halving", "params": dict(SEARCH_STRATEGY)},
            # The rule is pinned to the search metric: left unset it resolves
            # to the algorithm's default, messages_total, which on small rings
            # is often exactly n in both first trials and stops the point there.
            "stopping": {"ci_tolerance": 0.2, "min_trials": 2, "batch_size": 2,
                         "metric": "election_time"},
            # Each group draws its own trial seeds; with the one base seed the
            # example shares, every group's trials move together and the
            # search's cost swings with the benchmark seed.
            "groups": [
                {"label": f"uniring-{n}-{core}",
                 "overrides": {"topology": {"kind": "uniring", "params": {"n": n}},
                               "core": core,
                               "seed": derive_seed(seed, f"search/uniring-{n}-{core}")}}
                for n, core in SEARCH_GROUPS
            ],
        }
    )


def build(name: str, seed: int) -> Workload:
    """The named workload's input for one benchmark seed."""
    if name == "paper-battery":
        return Workload(study=_paper_battery(seed))
    if name == "vector-scaling":
        return Workload(study=_vector_scaling(seed))
    if name == "search":
        return Workload(search=_search(seed))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def serve(workload: Workload, store: ResultStore) -> Served:
    """Run the workload to its final report through the public entry point.

    The returned block is the part of the report that must not depend on
    the cache: the service export's ``points`` or the search report's
    ``groups``.
    """
    if workload.search is not None:
        report = Optimizer(workload.search, store, workers=WORKERS).run()
        return Served(
            block=json.dumps(report.to_dict()["groups"], sort_keys=True),
            rounds=sum(len(group.rounds) for group in report.groups),
        )
    with StudyService(store, workers=WORKERS) as service:
        service.submit(workload.study, source="perfbench")
        (report,) = service.run_pending()
        return Served(block=json.dumps(report.to_dict()["points"], sort_keys=True), rounds=0)

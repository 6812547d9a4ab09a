"""The trial executor: one :class:`SweepPool`, serial or a supervised fork pool.

Every experiment is a set of *independent* trials: ``run_one(seed)`` is a pure
function of its derived seed (all simulation randomness flows from it through
:class:`~repro.sim.rng.RandomSource`), so trials can be fanned out across
``multiprocessing`` workers without any change to the results.
:meth:`SweepPool.map` preserves input order, so serial and parallel execution
are bit-identical per seed -- asserted by the determinism regression tests.

Implementation notes
--------------------
The pool's workers outlive any single ``map`` call, so the trial callable
crosses the process boundary by pickling: use a module-level function, a
``functools.partial`` over one, or a picklable callable object -- compiled
scenario trials and :class:`repro.experiments.workloads.ElectionTrial` are
both.  Where ``fork`` is unavailable (e.g. Windows), the pool degrades to
in-process execution.

Every fan-out funnels through
:func:`repro.experiments.resilience.supervised_map` over a rebuildable
:class:`~repro.experiments.resilience.ForkPoolManager`: without an active
:class:`~repro.experiments.resilience.ExecutionPolicy` that is a chunked
ordered gather (bit-identical results) plus interrupt-safe teardown --
``KeyboardInterrupt`` terminates and joins the workers instead of leaking
orphaned forks -- and with a policy it adds per-trial timeouts, retries and
pool rebuilding.  The Monte-Carlo loop that drives the pool (seeds, adaptive
batches, result-store lookups) is :func:`repro.experiments.runner.monte_carlo`.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, TypeVar

from repro.experiments.resilience import ForkPoolManager, run_trial, supervised_map

__all__ = [
    "SweepPool",
    "default_worker_count",
    "fork_available",
    "resolve_worker_count",
    "worker_count_argument",
]

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """Worker count used for ``workers=None``: one per available CPU."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the ``fork`` start method (required for the pool) exists."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_worker_count(value: int) -> int:
    """Map the CLI convention for ``--workers`` to a concrete worker count.

    ``0`` means one worker per CPU; positive values pass through; negatives
    are rejected.
    """
    if value < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {value}")
    return value if value > 0 else default_worker_count()


def worker_count_argument(text: str) -> int:
    """``argparse`` ``type=`` for ``--workers`` flags (non-negative int)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 = one per CPU), got {value}"
        )
    return value


class SweepPool:
    """The trial executor: one process pool shared across a whole sweep.

    A single ``fork`` pool stays alive for every parameter point of a sweep
    (or every job of a study service) and each :meth:`map` ships its tasks
    to the already-running workers, so pool startup is paid once.  Because
    the workers outlive any single ``map`` call, the mapped callable must be
    picklable (see the module notes).

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) never creates a
        pool and runs everything serially in process; ``None`` means one
        worker per CPU.
    chunk_size:
        Items handed to a worker per dispatch on the unsupervised path;
        defaults to an even split into about four chunks per worker, which
        balances scheduling overhead against tail latency from uneven trial
        durations.

    Notes
    -----
    Results are returned in input order, so ``pool.map(f, seeds)`` equals
    ``[f(s) for s in seeds]`` element for element whenever ``f`` is a pure
    function of its argument -- the property the seed-derivation discipline
    guarantees for experiment trials.  The pool is created lazily on the
    first parallel ``map`` and torn down by :meth:`close` (or the context
    manager).
    """

    def __init__(self, workers: Optional[int] = 1, chunk_size: Optional[int] = None) -> None:
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = int(workers)
        self.chunk_size = chunk_size
        context = multiprocessing.get_context("fork") if fork_available() else None
        self._pools = ForkPoolManager(
            lambda: context.Pool(processes=self.workers)  # type: ignore[union-attr]
        )
        self._closed = False

    @property
    def _pool(self):
        """The underlying ``multiprocessing`` pool (``None`` until first use)."""
        return self._pools.pool

    # -------------------------------------------------------------- lifecycle

    @staticmethod
    @contextmanager
    def ensure(
        pool: Optional["SweepPool"], workers: Optional[int]
    ) -> Iterator["SweepPool"]:
        """Yield ``pool`` if given, else a freshly owned ``SweepPool(workers)``.

        The one pool-lifecycle idiom of the experiment sweeps: an externally
        supplied pool is left open for its owner (so one pool can serve many
        experiments), while a pool created here is closed on exit.
        """
        if pool is not None:
            yield pool
            return
        owned = SweepPool(workers)
        try:
            yield owned
        finally:
            owned.close()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Tear down the worker pool (idempotent); the object stays usable
        serially afterwards only for ``workers=1``."""
        self._closed = True
        self._pools.shutdown()

    # ---------------------------------------------------------------- mapping

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, in input order, on the shared pool.

        Serial execution (one worker, a single item, or no ``fork``) honours
        the same retry/failure contract as the pool: without a supervising
        policy it is ``[fn(item) for item in items]`` verbatim.
        """
        items = list(items)
        if self.workers == 1 or len(items) <= 1 or not fork_available():
            return [run_trial(fn, item) for item in items]
        if self._closed:
            raise RuntimeError("SweepPool is closed")
        return supervised_map(
            fn,
            items,
            pools=self._pools,
            workers=self.workers,
            chunk_size=self.chunk_size,
        )

"""End-to-end benchmark: ABE-election studies served the way users run them.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-battery --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented:
set-up in fresh processes, then repeated cold serves (fresh sqlite store)
each followed by warm re-serves against the filled store, for at least
``--seconds`` seconds.  ``--trace 1`` makes one untraced cold serve, one
traced cold and warm serve, and a serial traced re-run of every cold trial,
and reports the per-layer metrics.  Either way the outputs are checked and
the last stdout line is one JSON object; a failed check exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

from checks import (
    BenchmarkError,
    SAMPLES_BEYOND,
    ColdOutcome,
    canonical,
    cold_outcome,
    gate_identical,
    percentile,
    tail_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Span files, and one scratch directory of stores per run, inside the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench")

TRACE_SETUP_RUNS = 3
MIN_ROUNDS = 5
WARM_PER_ROUND = 6

# ------------------------------------------------------------------ helpers


def _environment(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def _result_line(kind: str, cold: ColdOutcome, metrics: Dict[str, float]) -> Dict[str, Any]:
    """Print every metric declared under ``kind`` in BENCHMARK.json; build the result.

    The declaration is the one list of metric names and units, so a metric
    computed here but not declared (or declared but not computed) is an error.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}
    if set(declared) != set(metrics):
        raise BenchmarkError(
            f"{kind} metrics computed {sorted(set(metrics) ^ set(declared))} "
            "differ from those declared in BENCHMARK.json"
        )
    for name, unit in declared.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": True,
        "attempted": cold.attempted,
        "failed": cold.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _setup_probe(scratch: str, index: int) -> Tuple[float, Dict[str, float]]:
    """Launch-to-ready wall time and step times of one fresh process."""
    store = os.path.join(scratch, f"setup-{index}.sqlite")
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, store],
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        line = probe.stdout.readline()
        wall = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if code != 0 or not line.strip():
        raise BenchmarkError(f"set-up probe exited with code {code}")
    return wall, json.loads(line)


def _print_counts(cold: ColdOutcome) -> None:
    print(
        f"counts: trials_executed={cold.attempted} rows_written={cold.rows_written} "
        f"core.events={cold.events} core.ticks={cold.ticks} core.messages={cold.messages}"
    )
    print(
        f"failures: failed={cold.failed} of {cold.attempted} "
        f"(failed_ratio={cold.failed / cold.attempted:.6f} fraction): "
        f"trial_failures={cold.trial_failures} invariant={cold.invariant} "
        f"not_kept_by_store={cold.uncached}"
    )
    verdict = "ok" if cold.uncacheable == cold.uncached else "MISMATCH"
    print(
        f"cross-check: results with a non-int leader_uid={cold.uncacheable}, "
        f"trials executed but not stored={cold.uncached} ({verdict})"
    )


# ---------------------------------------------------------------- untraced


def _untraced(args: argparse.Namespace, scratch: str) -> Dict[str, Any]:
    import workloads
    from repro.store import ResultStore

    workload = workloads.build(args.workload, args.seed)
    setup_times: List[float] = []
    cold_times: List[float] = []
    warm_times: List[float] = []
    first = None
    started = time.perf_counter()
    # Rounds interleave the three measurements so that each one samples the
    # machine across the whole run rather than in one burst: the machine's
    # speed drifts over seconds, and the warm serves are short.
    while len(cold_times) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        path = os.path.join(scratch, f"cold-{len(cold_times)}.sqlite")
        with workloads.ObservedStore(path, fresh=True) as store:
            begin = time.perf_counter()
            served = workloads.serve(workload, store)
            cold_times.append(time.perf_counter() - begin)
            outcome = cold_outcome(store)
        if first is None:
            first = (served, outcome)
        else:
            gate_identical(f"{args.workload} repeated cold", first[0].block, served.block)
            if outcome != first[1]:
                raise BenchmarkError(f"{args.workload}: repeated cold run counted differently")
        for warm in range(WARM_PER_ROUND):
            if warm == WARM_PER_ROUND // 2:
                setup_times.append(_setup_probe(scratch, len(setup_times))[0])
            begin = time.perf_counter()
            with ResultStore(path) as store:
                again = workloads.serve(workload, store)
            warm_times.append(time.perf_counter() - begin)
            gate_identical(f"{args.workload} warm", served.block, again.block)
        os.remove(path)

    _, cold = first
    cold_s = statistics.median(cold_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cold_s": cold_s,
        "warm_s": statistics.median(warm_times),
        "events_per_s": cold.events / cold_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    _print_counts(cold)
    print(
        f"samples: setup={len(setup_times)} cold={len(cold_times)} warm={len(warm_times)} "
        f"(medians reported); cold_s by round: {' '.join(f'{t:.3f}' for t in cold_times)}"
    )
    print(f"metric failed_ratio = {cold.failed / cold.attempted:.6g} fraction (failed/attempted)")
    return _result_line("end_to_end", cold, metrics)


# ------------------------------------------------------------------ traced

#: Modules whose self time splits the pooled (parent-side) wall.
SERVICE_MODULES = ("bench", "dse", "store", "scenarios", "experiments")
#: Modules whose self time splits the serial in-process trial time.
TRIAL_MODULES = ("core", "network", "sim")


def _check_accounting(what: str, spans: List[Any], own: List[float]) -> None:
    """Self times must add up to the root spans' wall."""
    wall = sum(span.duration for span in spans if span.parent is None)
    accounted = sum(own)
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        raise BenchmarkError(f"{what}: self times sum to {accounted:.6f}s of {wall:.6f}s")


def _subtree(spans: List[Any], root: int) -> List[int]:
    """Indices of ``root`` and every span nested under it (spans are in start order)."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return sorted(inside)


def _traced(args: argparse.Namespace, scratch: str) -> Dict[str, Any]:
    import workloads
    from tracing import Tracer, TimingStore, self_times, service_layers, trial_layers

    from repro.experiments.resilience import TrialFailure
    from repro.store import spec_fingerprint

    workload = workloads.build(args.workload, args.seed)

    # 1. The pooled untraced reference.
    with workloads.ObservedStore(os.path.join(scratch, "reference.sqlite"), fresh=True) as store:
        begin = time.perf_counter()
        reference_served = workloads.serve(workload, store)
        untraced_wall = time.perf_counter() - begin
        reference = {(key, seed): canonical(result) for key, seed, result in store.offered}

    # 2. Traced cold and warm serves through the same entry points.
    tracer = Tracer()
    path = os.path.join(scratch, "traced.sqlite")
    with service_layers(tracer):
        with TimingStore(path, tracer, fresh=True) as store:
            cold_root = len(tracer.spans)
            with tracer.span("bench.cold"):
                served = workloads.serve(workload, store)
            cold = cold_outcome(store)
            lookup_calls, hits, misses = store.lookup_calls, store.hits, store.misses
            bytes_written = store.bytes_written
        executions = list(tracer.executions)
        with TimingStore(path, tracer) as store:
            warm_root = len(tracer.spans)
            with tracer.span("bench.warm"):
                again = workloads.serve(workload, store)
    gate_identical(f"{args.workload} traced cold", reference_served.block, served.block)
    gate_identical(f"{args.workload} traced warm", reference_served.block, again.block)

    # 3. Every cold trial again, serially, in this process.
    serial_root = len(tracer.spans)
    serial: List[Tuple[Any, int, Any]] = []
    compared = 0
    with trial_layers(tracer):
        for spec, fn, seed, pooled in executions:
            index = len(tracer.spans)
            with tracer.span("core.trial"):
                result = fn(seed)
            text = canonical(result)
            expected = reference.get((spec_fingerprint(spec), seed))
            if text != canonical(pooled) or expected not in (None, text):
                raise BenchmarkError(f"{args.workload}: serial trial {seed} differs from the pool")
            compared += expected is not None
            serial.append((spec, index, result))

    spans = tracer.spans
    own = self_times(spans)
    pooled_idx = list(range(serial_root))
    _check_accounting("pooled traced run", [spans[i] for i in pooled_idx], [own[i] for i in pooled_idx])
    _check_accounting("serial traced pass", spans[serial_root:], own[serial_root:])
    tracer.write(os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json"))

    def sums(indices: List[int], name: str, field: str = "total") -> float:
        picked = [i for i in indices if spans[i].name == name]
        return sum(spans[i].duration if field == "total" else own[i] for i in picked)

    def module_split(indices: List[int], modules: Tuple[str, ...]) -> Dict[str, float]:
        split = {module: 0.0 for module in modules}
        for i in indices:
            split[spans[i].name.split(".")[0]] += own[i]
        return split

    cold_idx = _subtree(spans, cold_root)
    warm_idx = _subtree(spans, warm_root)
    serial_idx = list(range(serial_root, len(spans)))

    trial_ms = [spans[index].duration * 1e3 for _, index, _ in serial]
    tail = tail_percentile(len(trial_ms))
    if tail is None:
        raise BenchmarkError(f"{args.workload}: {len(trial_ms)} cold trials are too few for a median")

    def per_work(kind: str, attribute: str) -> float:
        busy = work = 0
        for spec, index, result in serial:
            spec_kind = "churn" if spec.churn is not None else spec.core
            if spec_kind == kind:
                busy += spans[index].duration
                work += getattr(result, attribute)
        return busy / work * 1e6 if work else 0.0

    builds = [spans[i].duration * 1e3 for i in serial_idx if spans[i].name == "network.build"]
    trial_busy = sum(trial_ms) / 1e3
    map_s = sums(cold_idx, "experiments.map")
    setup_steps = [_setup_probe(scratch, index)[1] for index in range(TRACE_SETUP_RUNS)]
    lookups = hits + misses
    is_search = workload.search is not None
    metrics: Dict[str, float] = {
        "core.trial_busy_s": trial_busy,
        "core.trials": len(trial_ms),
        "core.trial_ms.p50": percentile(trial_ms, 50.0),
        "core.trial_ms.tail": percentile(trial_ms, tail),
        "core.events": cold.events,
        "core.ticks": cold.ticks,
        "core.messages": cold.messages,
        "core.object.us_per_event": per_work("object", "events_processed"),
        "core.object.us_per_message": per_work("object", "messages_total"),
        "core.churn.us_per_event": per_work("churn", "events_processed"),
        "core.vector.us_per_event": per_work("vector", "events_processed"),
        "core.vector.us_per_message": per_work("vector", "messages_total"),
        "network.build_ms": statistics.median(builds) if builds else 0.0,
        "scenarios.compile_s": sums(cold_idx, "scenarios.compile_trial"),
        "scenarios.run_scenario_self_s": sums(cold_idx, "scenarios.run_scenario", "self"),
        "experiments.map_s": map_s,
        "experiments.parallel_efficiency": trial_busy / (workloads.WORKERS * map_s),
        "experiments.trial_failures": sum(
            1 for *_, result in executions if isinstance(result, TrialFailure)
        ),
        "store.lookup_s": sums(cold_idx, "store.lookup"),
        "store.lookup_calls": lookup_calls,
        "store.record_s": sums(cold_idx, "store.record"),
        "store.rows_written": cold.rows_written,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.bytes_per_row": bytes_written / cold.rows_written if cold.rows_written else 0.0,
        "store.uncached_trials": misses - cold.rows_written,
        "store.fingerprint_s": sums(cold_idx, "store.fingerprint", "self"),
        "store.code_version_s": statistics.median([steps["code_version"] for steps in setup_steps]),
        "store.service_self_s": sums(cold_idx, "store.run_pending", "self"),
        "dse.self_s": sums(cold_idx, "dse.run", "self"),
        "dse.rounds": served.rounds,
        "dse.reuse_ratio": hits / lookups if is_search and lookups else 0.0,
        "trace.overhead": spans[cold_root].duration / untraced_wall - 1.0,
    }
    for phase, indices, modules in (
        ("cold", cold_idx, SERVICE_MODULES),
        ("warm", warm_idx, SERVICE_MODULES),
        ("trial", serial_idx, TRIAL_MODULES),
    ):
        for module, value in module_split(indices, modules).items():
            metrics[f"split.{phase}.{module}_s"] = value

    _print_counts(cold)
    print(
        f"trace: {len(spans)} spans; cold wall {spans[cold_root].duration:.4f}s traced vs "
        f"{untraced_wall:.4f}s untraced; warm wall {spans[warm_root].duration:.4f}s; "
        f"serial pass {len(serial)} trials, {compared} compared with the untraced run"
    )
    print(
        f"trace: core.trial_ms.tail is p{tail:g} of {len(trial_ms)} trials, the highest "
        f"percentile with at least {SAMPLES_BEYOND} samples beyond it"
    )
    return _result_line("per_layer", cold, metrics)


# -------------------------------------------------------------------- main


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source ({SRC}/repro) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    for key, value in _environment(args).items():
        print(f"env {key} = {value}")
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        result = _traced(args, scratch) if args.trace else _untraced(args, scratch)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

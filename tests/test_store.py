"""The persistent result store: fingerprints, version gating, O(N) appends.

Four properties under test, each of which PR 6's journal got wrong or
lacked:

* **Canonical fingerprints** -- ``spec_fingerprint`` must hash dataclass
  overrides field by field (a ``repr=False`` field must still distinguish
  two specs) and must *refuse* a key (return ``None``) for values whose only
  repr carries a memory address: such a key differs per process, so resume
  could never hit and the cache silently degrades to dead weight.
* **Code-version gating** -- entries recorded under a different
  ``code_version`` are ignored (with a stderr note) so a behaviour-changing
  upgrade forces re-runs instead of mixing stale results into aggregates;
  ``allow_stale`` is the explicit escape hatch.
* **O(1) appends, loud refusals** -- ``record``/``record_many`` cost is
  proportional to the batch, never to the store size, and a result the codec
  refuses is counted in ``uncacheable`` instead of vanishing silently.
* **Migration robustness** -- torn tails, duplicate ``(key, seed)`` lines and
  foreign lines mid-file of an old JSONL journal are tolerated line by line,
  a migrated journal resumes byte-identically, and opening a journal as a
  store fails with the migrate command instead of a raw sqlite error.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import pytest

import repro.store.fingerprint as fingerprint_module
from repro.experiments.runner import monte_carlo, trial_seeds
from repro.experiments.workloads import ElectionTrial
from repro.network.delays import ExponentialDelay
from repro.core.vector_core import run_vector_election
from repro.scenarios import ALGORITHMS, ScenarioSpec, run_scenario
from repro.scenarios.runtime import compile_trial
from repro.store import (
    ResultStore,
    code_version,
    migrate_journal,
    spec_fingerprint,
    study_fingerprint,
)
from repro.scenarios.spec import SpecNode, StudySpec
from repro.store.codec import decode_result, encode_result


@dataclass(frozen=True)
class Knob:
    """An override whose distinguishing field is hidden from its repr."""

    visible: int
    hidden: float = field(repr=False, default=0.0)


class Opaque:
    """Default object repr: ``<Opaque object at 0x...>`` -- per-process."""


class AddressDelay(ExponentialDelay):
    """A perfectly runnable delay model with an address-bearing repr."""

    __repr__ = object.__repr__


# ================================================================ fingerprints


class TestSpecFingerprint:
    def test_repr_false_dataclass_fields_still_distinguish_specs(self):
        # Under the old ``default=repr`` canonicalization both specs hashed
        # the same string "Knob(visible=1)" -- one key for two workloads, a
        # wrong cache hit waiting to happen.
        one = ScenarioSpec(params={"knob": Knob(1, hidden=0.25)})
        two = ScenarioSpec(params={"knob": Knob(1, hidden=0.75)})
        assert spec_fingerprint(one) != spec_fingerprint(two)
        assert spec_fingerprint(one) == spec_fingerprint(
            ScenarioSpec(params={"knob": Knob(1, hidden=0.25)})
        )

    def test_address_bearing_repr_refuses_a_key(self):
        # Under the old canonicalization this produced a *different* key in
        # every process; refusing means "skip journaling", never wrong.
        spec = ScenarioSpec(params={"obj": Opaque()})
        assert spec_fingerprint(spec) is None

    def test_stable_reprs_still_fingerprint(self):
        spec = ScenarioSpec(
            params={"election_overrides": {"delay": ExponentialDelay(mean=2.0)}}
        )
        assert spec_fingerprint(spec) is not None
        assert spec_fingerprint(spec) == spec_fingerprint(spec)

    def test_run_scenario_skips_journaling_for_refused_fingerprint(self, tmp_path):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 4}},
            trials=2,
            params={"delay": AddressDelay(mean=1.0)},
        )
        assert spec_fingerprint(spec) is None
        with ResultStore(tmp_path / "store.sqlite") as store:
            results = run_scenario(spec, checkpoint=store)
            assert len(results) == 2  # the scenario still runs...
            assert len(store) == 0  # ...but nothing is cached under a bad key

    def test_study_fingerprint_keys_metric_and_points(self):
        points = (ScenarioSpec(trials=2, label="a"), ScenarioSpec(trials=3, label="b"))
        base = StudySpec(name="s", points=points)
        assert study_fingerprint(base) == study_fingerprint(
            StudySpec(name="renamed", title="presentation only", points=points)
        )
        assert study_fingerprint(base) != study_fingerprint(
            StudySpec(name="s", points=points, metric="election_time")
        )
        refused = StudySpec(
            name="s", points=(ScenarioSpec(params={"obj": Opaque()}),)
        )
        assert study_fingerprint(refused) is None


class TestCodeVersion:
    def test_stamp_carries_package_version_and_golden_hash(self):
        import repro

        stamp = code_version()
        assert stamp.startswith(repro.__version__)
        assert "+g" in stamp  # the goldens content hash
        assert stamp == code_version()

    def test_golden_re_record_bumps_the_stamp(self, monkeypatch):
        import repro

        monkeypatch.setattr(fingerprint_module, "_CODE_VERSION", None)
        monkeypatch.setattr(fingerprint_module, "_goldens_digest", lambda: "cafe12345678")
        assert fingerprint_module.code_version() == f"{repro.__version__}+gcafe12345678"


# ============================================================= version gating


def _seed_entry(path, source, key, seed, result):
    """Put one current-version row into the store at ``path``: recorded
    directly, or migrated from a versioned JSONL journal line."""
    with ResultStore(path) as store:
        if source == "recorded":
            store.record(key, seed, result)
            return
        journal = str(path) + ".jsonl"
        with open(journal, "w", encoding="utf-8") as handle:
            line = {"key": key, "seed": seed, "result": encode_result(result)}
            handle.write(json.dumps(dict(line, version=store.version)) + "\n")
        migrate_journal(journal, store)


@pytest.mark.parametrize("source", ["migrated", "recorded"])
class TestVersionGating:
    def test_version_bump_forces_reruns(self, tmp_path, monkeypatch, capsys, source):
        path = tmp_path / "store.sqlite"
        _seed_entry(path, source, "key", 1, {"metric": 1.5})
        with ResultStore(path) as store:
            assert store.lookup("key", [1]) == {1: {"metric": 1.5}}

        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        upgraded = ResultStore(path)
        capsys.readouterr()  # drop load-time output; the note is checked below
        assert upgraded.lookup("key", [1]) == {}  # stale entry ignored -> re-run
        assert ("key", 1) not in upgraded
        assert upgraded.stale_ignored == 1

    def test_stale_entries_are_noted_on_stderr(self, tmp_path, monkeypatch, capsys, source):
        path = tmp_path / "store.sqlite"
        _seed_entry(path, source, "key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        ResultStore(path).close()
        err = capsys.readouterr().err
        assert "different code version" in err
        assert "--allow-stale-cache" in err

    def test_allow_stale_escape_hatch_serves_old_entries(self, tmp_path, monkeypatch, source):
        path = tmp_path / "store.sqlite"
        _seed_entry(path, source, "key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        with ResultStore(path, allow_stale=True) as stale_ok:
            assert stale_ok.lookup("key", [1]) == {1: {"metric": 1.5}}

    def test_rerun_re_records_under_the_current_version(self, tmp_path, monkeypatch, source):
        path = tmp_path / "store.sqlite"
        _seed_entry(path, source, "key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        with ResultStore(path) as upgraded:
            assert upgraded.record("key", 1, {"metric": 2.5})  # the forced re-run
        with ResultStore(path) as fresh:
            assert fresh.lookup("key", [1]) == {1: {"metric": 2.5}}


class TestAllowStaleCLIWiring:
    def test_flag_threads_into_the_policy_store(self, tmp_path):
        from repro.cli import build_parser
        from repro.experiments.runner import execution_policy_from_args

        path = tmp_path / "run.sqlite"
        args = build_parser().parse_args(
            ["scenario", "spec.json", "--checkpoint", str(path), "--allow-stale-cache"]
        )
        policy = execution_policy_from_args(args)
        assert policy.checkpoint.allow_stale is True
        args = build_parser().parse_args(
            ["scenario", "spec.json", "--checkpoint", str(path)]
        )
        assert execution_policy_from_args(args).checkpoint.allow_stale is False


# ================================================================ O(1) appends


class TestAppendCost:
    def test_record_cost_is_independent_of_store_size(self, tmp_path):
        deltas = []
        with ResultStore(tmp_path / "store.sqlite") as store:
            for seed in range(48):
                before = store.bytes_written
                store.record("key", seed, {"metric": float(seed)})
                deltas.append(store.bytes_written - before)
        # Each record writes its own payload only -- the pre-store journal
        # rewrote the whole file, so its last write was ~48x its first.
        assert max(deltas) <= 2 * min(deltas)

    def test_record_many_writes_one_batch(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            pairs = [(seed, {"metric": float(seed)}) for seed in range(10)]
            assert store.record_many("key", pairs) == 10
            assert store.record_many("key", pairs) == 0  # idempotent
            assert store.counts_by_version() == {code_version(): 10}

    def test_unencodable_result_is_counted_not_stored(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            assert store.record_many("key", [(1, {"metric": object()})]) == 0
            assert store.uncacheable == 1
            assert store.record_many("key", [(2, {"metric": 2.0})]) == 1
            assert store.uncacheable == 1
            assert len(store) == 1

    def test_fresh_start_replaces_any_file(self, tmp_path):
        # --checkpoint without --resume: whatever sat at the path (here an
        # old JSONL journal) is replaced by an empty store.
        path = tmp_path / "run.jsonl"
        path.write_text('{"key": "key", "seed": 1, "result": 1}\n')
        with ResultStore(path, fresh=True) as fresh:
            assert len(fresh) == 0
            assert fresh.record("key", 1, 1)


class TestJournalMigrationEdgeCases:
    def _write(self, path, *lines):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

    def _line(self, seed, value, key="key"):
        record = {"key": key, "seed": seed, "result": {"m": value}, "version": code_version()}
        return json.dumps(record) + "\n"

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(
            path,
            self._line(1, 1.0),
            self._line(2, 2.0),
            '{"key": "key", "seed": 3, "result"',  # crash mid-append
        )
        with ResultStore(tmp_path / "store.sqlite") as store:
            report = migrate_journal(path, store)
            assert store.lookup("key", [1, 2, 3]) == {1: {"m": 1.0}, 2: {"m": 2.0}}
        assert (report.migrated, report.skipped_lines) == (2, 1)

    def test_foreign_line_mid_file_loses_only_itself(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(
            path,
            self._line(1, 1.0),
            "-- operator scribble, not JSON --\n",
            json.dumps({"unrelated": "document"}) + "\n",
            self._line(2, 2.0),
        )
        with ResultStore(tmp_path / "store.sqlite") as store:
            report = migrate_journal(path, store)
            # Entries on *both* sides of the damage survive.
            assert store.lookup("key", [1, 2]) == {1: {"m": 1.0}, 2: {"m": 2.0}}
        assert report.skipped_lines == 2

    def test_duplicate_key_seed_lines_first_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(path, *(self._line(7, value) for value in (1.0, 2.0, 3.0)))
        with ResultStore(tmp_path / "store.sqlite") as store:
            report = migrate_journal(path, store)
            assert len(store) == 1
            assert store.lookup("key", [7]) == {7: {"m": 1.0}}
        assert (report.migrated, report.duplicates) == (1, 2)


# ================================================================ sqlite store


class TestResultStore:
    def test_round_trip_and_persistence(self, tmp_path):
        path = tmp_path / "results.sqlite"
        trial = ElectionTrial(6, 0.3, ExponentialDelay(mean=1.0), {})
        result = trial(123)
        with ResultStore(path) as store:
            assert store.record("key", 123, result)
            assert not store.record("key", 123, result)  # idempotent
            assert ("key", 123) in store
        with ResultStore(path) as reopened:  # not fresh: the cache persists
            assert len(reopened) == 1
            assert reopened.lookup("key", [123]) == {123: result}
            assert reopened.lookup("key", [124]) == {}
            assert reopened.hits == 1 and reopened.misses == 1

    def test_fresh_discards_existing_content(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with ResultStore(path) as store:
            store.record("key", 1, {"m": 1.0})
        with ResultStore(path, fresh=True) as fresh:
            assert len(fresh) == 0

    def test_any_new_path_is_a_sqlite_store_and_a_journal_is_refused(self, tmp_path):
        for name in ("a.jsonl", "b.sqlite", "c.db", "d.sqlite3"):
            with ResultStore(tmp_path / name) as store:
                store.record("key", 1, 1)
            with ResultStore(tmp_path / name) as reopened:
                assert reopened.lookup("key", [1]) == {1: 1}
        journal = tmp_path / "old.sqlite"
        journal.write_text('{"key": "key", "seed": 1, "result": 1}\n')
        with pytest.raises(ValueError, match="abe-repro migrate .*old.migrated.sqlite"):
            ResultStore(journal)

    def test_monte_carlo_resumes_from_sqlite_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        trial = ElectionTrial(6, 0.3, ExponentialDelay(mean=1.0), {})
        with ResultStore(path, fresh=True) as store:
            first = monte_carlo(
                trial, trials=4, base_seed=9, checkpoint=store, checkpoint_key="point"
            )

        def bomb(seed):
            raise AssertionError("resume must not re-run completed trials")

        with ResultStore(path) as store:
            resumed = monte_carlo(
                bomb, trials=4, base_seed=9, checkpoint=store, checkpoint_key="point"
            )
        assert resumed == first


# ====================================================== engine result types

#: A small runnable spec per registered algorithm (one-shot workloads take
#: exactly one trial).
_ALGORITHM_SPECS = {
    "abe-election": dict(topology={"kind": "uniring", "params": {"n": 8}}),
    "chang-roberts": dict(topology={"kind": "uniring", "params": {"n": 8}}),
    "dolev-klawe-rodeh": dict(topology={"kind": "uniring", "params": {"n": 8}}),
    "franklin": dict(topology={"kind": "biring", "params": {"n": 8}}),
    "itai-rodeh": dict(topology={"kind": "uniring", "params": {"n": 8}}),
    "echo-wave": dict(topology={"kind": "grid", "params": {"rows": 2, "cols": 3}}),
    "flooding-wave": dict(topology={"kind": "grid", "params": {"rows": 2, "cols": 3}}),
    "lossy-channel": dict(trials=1, params={"p": 0.5, "messages": 20}),
    "synchronizer-battery": dict(
        trials=1, topology={"kind": "biring", "params": {"n": 6}}, params={"rounds": 3}
    ),
}

_CHURN_NODE = SpecNode(
    "script",
    {"events": [{"kind": "crash", "params": {"node": "leader", "time": 40.0, "downtime": 40.0}}]},
)

#: n=16 vector-core seeds (default ``a0``) whose leader used to come back as
#: ``numpy.int64`` (read from the destination column), which
#: ``encode_result`` refuses.
_VECTOR_NUMPY_LEADER_SEEDS = (15, 24)


def _assert_plain(value):
    """Every leaf is a built-in JSON scalar: no numpy scalar subclasses."""
    if dataclasses.is_dataclass(value):
        for spec_field in dataclasses.fields(value):
            _assert_plain(getattr(value, spec_field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            _assert_plain(item)
    elif isinstance(value, dict):
        for item in value.values():
            _assert_plain(item)
    else:
        assert value is None or type(value) in (bool, int, float, str), (
            f"{type(value).__name__} leaked into a result: {value!r}"
        )


class TestEngineResultsRoundTrip:
    """Every engine result must survive the store; a refused one is re-run
    on every warm serve without any report of the drop."""

    def test_every_algorithm_is_covered(self):
        assert set(_ALGORITHM_SPECS) == set(ALGORITHMS.known())

    @pytest.mark.parametrize("churn", [None, _CHURN_NODE], ids=["static", "churn"])
    @pytest.mark.parametrize("core", ["object", "vector"])
    @pytest.mark.parametrize("algorithm", sorted(_ALGORITHM_SPECS))
    def test_results_round_trip_through_store(self, tmp_path, algorithm, core, churn):
        fields = dict(trials=3, seed=4, label="roundtrip")
        fields.update(_ALGORITHM_SPECS[algorithm])
        spec = ScenarioSpec(algorithm=algorithm, core=core, churn=churn, **fields)
        try:
            compile_trial(spec)
        except ValueError as exc:
            # An unsupported knob combination must be refused at compile
            # time, so it never produces a result that could be dropped.
            assert "does not support" in str(exc) or "object core" in str(exc)
            return
        with ResultStore(tmp_path / "results.sqlite") as store:
            cold = run_scenario(spec, checkpoint=store)
            for result in cold:
                _assert_plain(result)
                assert decode_result(json.loads(json.dumps(encode_result(result)))) == result
            assert len(store) == len(cold)  # nothing silently skipped
            misses = store.misses
            assert run_scenario(spec, checkpoint=store) == cold
            assert store.misses == misses  # the warm run was pure cache

    @pytest.mark.parametrize("seed", _VECTOR_NUMPY_LEADER_SEEDS)
    def test_vector_leader_uid_is_plain_int(self, tmp_path, seed):
        result = run_vector_election(16, seed=seed)
        assert result.elected
        assert type(result.leader_uid) is int
        _assert_plain(result)
        with ResultStore(tmp_path / "results.sqlite") as store:
            assert store.record("vector-n16", seed, result)
            assert store.lookup("vector-n16", [seed]) == {seed: result}

    def test_vector_n16_spec_is_fully_cached(self, tmp_path):
        # Trial 1 of this spec used to elect a numpy.int64 leader: the cold
        # run stored 3 of 4 rows and the "warm" run executed a trial again.
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 16}},
            core="vector", trials=4, seed=0, label="roundtrip",
        )
        with ResultStore(tmp_path / "results.sqlite") as store:
            cold = run_scenario(spec, checkpoint=store)
            assert len(store) == 4
            assert run_scenario(spec, checkpoint=store) == cold
            assert store.hits == 4 and store.misses == 4


# =================================================================== migration


class TestMigration:
    def test_jsonl_to_sqlite_resumes_byte_identically(self, tmp_path):
        journal_path = tmp_path / "old.jsonl"
        trial = ElectionTrial(6, 0.3, ExponentialDelay(mean=1.0), {})
        first = monte_carlo(trial, trials=4, base_seed=9)
        with open(journal_path, "w", encoding="utf-8") as handle:
            for seed, result in zip(trial_seeds(9, 4), first):
                record = {"key": "point", "seed": seed, "result": encode_result(result)}
                handle.write(json.dumps(dict(record, version=code_version())) + "\n")
        with ResultStore(tmp_path / "new.sqlite") as store:
            report = migrate_journal(journal_path, store)
            assert report.migrated == 4 and report.duplicates == 0

            def bomb(seed):
                raise AssertionError("migrated store must satisfy every lookup")

            resumed = monte_carlo(
                bomb, trials=4, base_seed=9, checkpoint=store, checkpoint_key="point"
            )
        assert resumed == first  # bit-identical aggregates through sqlite

    def test_versionless_pr6_lines_migrate_as_unversioned(self, tmp_path, capsys):
        journal_path = tmp_path / "old.jsonl"
        seeds = trial_seeds(9, 2)
        with open(journal_path, "w", encoding="utf-8") as handle:
            for seed in seeds:  # the PR 6 line shape: no "version" field
                handle.write(
                    json.dumps({"key": "point", "seed": seed, "result": {"m": 1.0}}) + "\n"
                )
        store_path = tmp_path / "new.sqlite"
        with ResultStore(store_path) as store:
            report = migrate_journal(journal_path, store)
            assert report.migrated == 2
            assert store.counts_by_version() == {"unversioned": 2}
            # Unversioned entries are visible but never silently served...
            assert store.lookup("point", seeds) == {}
        capsys.readouterr()
        with ResultStore(store_path, allow_stale=True) as store:
            # ...unless the operator opts in.
            assert len(store.lookup("point", seeds)) == 2

    def test_assume_version_promotes_versionless_lines(self, tmp_path):
        journal_path = tmp_path / "old.jsonl"
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "k", "seed": 1, "result": {"m": 1.0}}) + "\n")
            handle.write("torn line that does not parse\n")
        with ResultStore(tmp_path / "new.sqlite") as store:
            report = migrate_journal(journal_path, store, assume_version=code_version())
            assert report.migrated == 1 and report.skipped_lines == 1
            assert store.lookup("k", [1]) == {1: {"m": 1.0}}  # served as current

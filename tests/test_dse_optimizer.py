"""The DSE driver: caching, determinism, early killing, CLI surface."""

from __future__ import annotations

import json
import os

import pytest

from repro.dse import SearchSpec, load_search, run_search
from repro.dse.report import comparison_svg
from repro.scenarios.spec import ScenarioSpec, StudySpec
from repro.store.result_store import ResultStore
from repro.store.service import StudyService

#: 2 x 2 exhaustive space over a tiny ring: four configurations total.
SEARCH = {
    "name": "probe",
    "metric": "messages_total",
    "goal": "min",
    "seed": 13,
    "trials": 4,
    "space": {
        "base": {
            "algorithm": "abe-election",
            "topology": {"kind": "uniring", "params": {"n": 4}},
            "seed": 5,
            "trials": 4,
        },
        "dimensions": [
            {"name": "n", "kind": "int-range", "field": "topology.params.n", "low": 4, "high": 6, "step": 2},
            {"name": "a0", "kind": "categorical", "field": "a0", "choices": [0.2, 0.4]},
        ],
    },
    "strategy": {"kind": "grid"},
}


def _search(**overrides):
    data = dict(SEARCH)
    data.update(overrides)
    return SearchSpec.from_dict(data)


def _store(tmp_path, name="store.sqlite"):
    return ResultStore(os.path.join(str(tmp_path), name))


class TestOptimizer:
    def test_grid_search_finds_the_best_point(self, tmp_path):
        report = run_search(_search(), _store(tmp_path))
        (group,) = report.groups
        values = [point.value for point in group.rounds[0].points]
        assert group.winner.value == min(values)
        assert group.evaluations() == 4
        assert report.trials_executed == 4 * 4 + 4  # grid + baseline

    def test_successive_halving_matches_grid_winner_with_fewer_trials(self, tmp_path):
        grid_report = run_search(_search(), _store(tmp_path, "grid.sqlite"))
        sh_report = run_search(
            _search(
                strategy={
                    "kind": "successive-halving",
                    "params": {"candidates": 4, "eta": 2, "base_trials": 1, "rungs": 3},
                }
            ),
            _store(tmp_path, "sh.sqlite"),
        )
        # Same winner as exhaustive search at full budget...
        assert sh_report.groups[0].winner.label == grid_report.groups[0].winner.label
        # ...while executing measurably fewer trials (4+2+1 rung seeds = 7
        # unique vs 16 for the grid; the shared baseline costs 4 each).
        assert sh_report.trials_executed < grid_report.trials_executed
        budgets = [r.budget for r in sh_report.groups[0].rounds]
        assert budgets == [1, 2, 4]

    def test_warm_store_rerun_executes_zero_trials_and_is_byte_identical(self, tmp_path):
        cold = run_search(_search(), _store(tmp_path))
        warm = run_search(_search(), _store(tmp_path))
        assert cold.trials_executed > 0
        assert warm.trials_executed == 0
        assert warm.hits == warm.lookups > 0
        cold_groups = json.dumps([g.to_dict() for g in cold.groups], sort_keys=True)
        warm_groups = json.dumps([g.to_dict() for g in warm.groups], sort_keys=True)
        assert cold_groups == warm_groups
        assert comparison_svg(cold) == comparison_svg(warm)

    def test_serial_and_pooled_runs_are_byte_identical(self, tmp_path):
        serial = run_search(_search(), _store(tmp_path, "serial.sqlite"), workers=1)
        pooled = run_search(_search(), _store(tmp_path, "pooled.sqlite"), workers=2)
        assert json.dumps([g.to_dict() for g in serial.groups], sort_keys=True) == json.dumps(
            [g.to_dict() for g in pooled.groups], sort_keys=True
        )

    def test_successive_halving_is_deterministic_for_a_seed(self, tmp_path):
        search = _search(
            strategy={
                "kind": "successive-halving",
                "params": {"candidates": 4, "eta": 2, "base_trials": 1, "rungs": 2},
            }
        )
        first = run_search(search, _store(tmp_path, "a.sqlite"))
        second = run_search(search, _store(tmp_path, "b.sqlite"))
        assert first.groups[0].winner.label == second.groups[0].winner.label
        assert json.dumps([g.to_dict() for g in first.groups], sort_keys=True) == json.dumps(
            [g.to_dict() for g in second.groups], sort_keys=True
        )

    def test_rung_promotion_reuses_lower_rung_seeds(self, tmp_path):
        # 4 candidates at budgets 1,2,4: rung r+1 re-evaluates survivors, but
        # only the newly added seeds execute (trials-independent store keys).
        search = _search(
            strategy={
                "kind": "successive-halving",
                "params": {"candidates": 4, "eta": 2, "base_trials": 1, "rungs": 3},
            }
        )
        report = run_search(search, _store(tmp_path))
        # unique work: 4 configs x 1 + 2 configs x (2-1) + 1 config x (4-2)
        # + baseline at 4 trials
        assert report.trials_executed == 4 + 2 + 2 + 4
        assert report.hits == 2 * 1 + 1 * 2  # promoted rungs re-serve old seeds

    def test_groups_search_independently(self, tmp_path):
        search = _search(
            groups=[
                {"label": "n4", "overrides": {"topology": {"kind": "uniring", "params": {"n": 4}}}},
                {"label": "n6", "overrides": {"topology": {"kind": "uniring", "params": {"n": 6}}}},
            ]
        )
        report = run_search(search, _store(tmp_path))
        assert [group.label for group in report.groups] == ["n4", "n6"]
        assert all(group.baseline.value is not None for group in report.groups)

    def test_maximization_flips_the_ranking(self, tmp_path):
        report = run_search(_search(goal="max"), _store(tmp_path))
        (group,) = report.groups
        values = [point.value for point in group.rounds[0].points]
        assert group.winner.value == max(values)


class TestServiceRoundDedupe:
    def test_overlapping_rounds_report_zero_executed_for_repeats(self, tmp_path):
        """Regression: a later search round re-submitting configurations the
        store has already evaluated reports ``trials_executed == 0`` for the
        repeated points -- the cross-round dedupe the optimizer relies on."""
        base = {
            "algorithm": "abe-election",
            "topology": {"kind": "uniring", "params": {"n": 4}},
            "seed": 5,
            "trials": 3,
        }
        point_a = ScenarioSpec.from_dict(dict(base, a0=0.2, label="a"))
        point_b = ScenarioSpec.from_dict(dict(base, a0=0.3, label="b"))
        point_c = ScenarioSpec.from_dict(dict(base, a0=0.4, label="c"))
        with _store(tmp_path) as store, StudyService(store) as service:
            service.submit(StudySpec(name="round0", points=(point_a, point_b)))
            (first,) = service.run_pending()
            assert first.trials_executed == 6
            service.submit(StudySpec(name="round1", points=(point_b, point_c)))
            (second,) = service.run_pending()
            repeated, fresh = second.points
            assert repeated.label == "b"
            assert repeated.executed == 0  # served entirely from the store
            assert repeated.hits == 3
            assert fresh.executed == 3

    def test_budget_growth_executes_only_new_seeds(self, tmp_path):
        base = {
            "algorithm": "abe-election",
            "topology": {"kind": "uniring", "params": {"n": 4}},
            "seed": 5,
            "a0": 0.2,
            "label": "grow",
        }
        small = ScenarioSpec.from_dict(dict(base, trials=2))
        large = ScenarioSpec.from_dict(dict(base, trials=5))
        with _store(tmp_path) as store, StudyService(store) as service:
            service.submit(StudySpec(name="small", points=(small,)))
            service.submit(StudySpec(name="large", points=(large,)))
            small_report, large_report = service.run_pending()
            assert small_report.trials_executed == 2
            assert large_report.trials_executed == 3  # only the 3 new seeds
            assert large_report.hits == 2


class TestCli:
    def test_optimize_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        search_path = os.path.join(str(tmp_path), "search.json")
        with open(search_path, "w", encoding="utf-8") as handle:
            json.dump(SEARCH, handle)
        out_dir = os.path.join(str(tmp_path), "out")
        assert main(["optimize", search_path, "--out", out_dir]) == 0
        captured = capsys.readouterr()
        assert "winner" in captured.out
        assert "probe" in captured.out
        report = json.load(open(os.path.join(out_dir, "report.json")))
        assert report["groups"][0]["winner"]["value"] is not None
        svg = open(os.path.join(out_dir, "comparison.svg")).read()
        assert svg.startswith("<svg")
        # Warm CLI re-run: zero trials executed, byte-identical groups block.
        assert main(["optimize", search_path, "--out", out_dir]) == 0
        warm = json.load(open(os.path.join(out_dir, "report.json")))
        assert warm["cache"]["trials_executed"] == 0
        assert report["cache"]["uncacheable"] == warm["cache"]["uncacheable"] == 0
        assert "0 uncacheable" in capsys.readouterr().out
        assert warm["groups"] == report["groups"]

    def test_optimize_rejects_bad_search_files(self, tmp_path):
        from repro.cli import main

        bad = os.path.join(str(tmp_path), "bad.json")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("{\"name\": \"x\"}")
        with pytest.raises(SystemExit, match="space"):
            main(["optimize", bad, "--out", os.path.join(str(tmp_path), "out")])

    def test_export_store_csv(self, tmp_path, capsys):
        from repro.cli import main

        store_path = os.path.join(str(tmp_path), "store.sqlite")
        run_search(_search(), ResultStore(store_path))
        assert main(["export-store", store_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["key", "seed", "version", "created_at"]
        assert "messages_total" in header
        assert len(lines) > 1
        csv_path = os.path.join(str(tmp_path), "rows.csv")
        assert main(["export-store", store_path, "--csv", csv_path]) == 0
        assert open(csv_path).read().splitlines()[0] == lines[0]

    def test_export_store_missing_file_fails(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no such store"):
            main(["export-store", os.path.join(str(tmp_path), "nope.sqlite")])

    def test_list_names_strategies_and_dimension_kinds(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "successive-halving" in out
        assert "log-uniform" in out
        assert "search strategies" in out

"""Tests for the scaling-experiment bench suite (repro.obs.bench)."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    DEFAULT_TRAJECTORY_PATH,
    TRAJECTORY_SCHEMA_VERSION,
    CheckReport,
    Experiment,
    Suite,
    Threshold,
    append_rows,
    check_rows,
    current_commit,
    latest_baselines,
    make_row,
    profile_attribution,
    read_rows,
    render_check,
    render_rows,
    render_trajectory,
    run_suite,
    suite_named,
)
from repro.obs.bench.suite import SUITES


class TestThreshold:
    def test_exact_trips_on_any_change(self):
        t = Threshold("rows_sha256", "exact")
        assert t.judge("abc", "abc") is None
        assert "exact metric" in t.judge("abc", "abd")

    def test_higher_is_worse_allows_ratio_headroom(self):
        t = Threshold("wall_s", "higher-is-worse", ratio=2.0)
        assert t.judge(1.0, 2.9) is None  # within +200%
        assert t.judge(1.0, 3.1) is not None
        assert t.judge(1.0, 0.2) is None  # improvement always passes

    def test_lower_is_worse_allows_delta_headroom(self):
        t = Threshold("hit_rate", "lower-is-worse", delta=0.02)
        assert t.judge(0.65, 0.64) is None
        assert t.judge(0.65, 0.60) is not None
        assert t.judge(0.65, 0.99) is None

    def test_allowed_worsening_is_max_of_ratio_and_delta(self):
        t = Threshold("wall_s", "higher-is-worse", ratio=1.0, delta=0.5)
        # tiny baseline: the absolute delta floor keeps noise from tripping
        assert t.judge(0.001, 0.4) is None
        assert t.judge(0.001, 0.6) is not None

    def test_informational_threshold_never_fails(self):
        t = Threshold("speedup", "lower-is-worse")
        assert t.informational
        assert t.judge(2.0, 0.1) is None

    def test_non_numeric_values_compare_by_equality(self):
        t = Threshold("wall_s", "higher-is-worse", ratio=2.0)
        assert t.judge(None, None) is None
        assert "not comparable" in t.judge("fast", "slow")

    def test_unknown_direction_is_rejected(self):
        with pytest.raises(ValueError):
            Threshold("x", "sideways-is-worse")


class TestTrajectory:
    def test_make_row_is_schema_versioned(self):
        row = make_row(
            suite="smoke", experiment="e", commit="abc", metrics={"wall_s": 1.0}
        )
        assert row["schema"] == TRAJECTORY_SCHEMA_VERSION
        assert row["metrics"] == {"wall_s": 1.0}
        assert row["profile"] == []
        assert "python" in row["env"]

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        rows = [
            make_row(suite="smoke", experiment="a", commit="c1", metrics={"m": 1}),
            make_row(suite="smoke", experiment="b", commit="c1", metrics={"m": 2}),
        ]
        append_rows(path, rows)
        append_rows(path, rows)  # append-only: a second run adds, never rewrites
        loaded = read_rows(path)
        assert len(loaded) == 4
        assert loaded[0]["experiment"] == "a" and loaded[0]["metrics"] == {"m": 1}

    def test_reader_is_tolerant_of_damage(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        good = json.dumps(
            make_row(suite="s", experiment="a", commit="c", metrics={}), sort_keys=True
        )
        path.write_text('not json\n[1, 2]\n{"no": "experiment"}\n' + good + "\n")
        rows = read_rows(path)
        assert len(rows) == 1 and rows[0]["experiment"] == "a"

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_rows(tmp_path / "nope.jsonl") == []

    def test_latest_baselines_last_row_wins_and_filters_by_suite(self):
        rows = [
            make_row(suite="smoke", experiment="a", commit="old", metrics={"m": 1}),
            make_row(suite="full", experiment="a", commit="full", metrics={"m": 9}),
            make_row(suite="smoke", experiment="a", commit="new", metrics={"m": 2}),
        ]
        baselines = latest_baselines(rows, suite="smoke")
        assert baselines["a"]["commit"] == "new"
        assert latest_baselines(rows)["a"]["commit"] == "new"  # unfiltered: file order

    def test_current_commit_honours_the_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_COMMIT", "deadbeef")
        assert current_commit() == "deadbeef"


def gated_suite() -> Suite:
    return Suite(
        name="unit",
        experiments=(
            Experiment(
                name="exp",
                kind="delta-scaling",
                title="t",
                thresholds=(
                    Threshold("wall_s", "higher-is-worse", ratio=2.0),
                    Threshold("rows_sha256", "exact"),
                    Threshold("speedup", "lower-is-worse"),  # informational
                ),
            ),
        ),
    )


def row_for(metrics, commit="c", experiment="exp", suite="unit", profile=None):
    return make_row(
        suite=suite, experiment=experiment, commit=commit,
        metrics=metrics, profile=profile,
    )


class TestCheck:
    def test_matching_rows_pass(self):
        baseline = row_for({"wall_s": 1.0, "rows_sha256": "abc"})
        current = row_for({"wall_s": 1.1, "rows_sha256": "abc"}, commit="new")
        report = check_rows([current], [baseline], gated_suite())
        assert report.ok and not report.missing
        assert all(c["ok"] for c in report.compared if c["ok"] is not None)

    def test_synthetic_regression_trips_the_gate(self):
        baseline = row_for({"wall_s": 1.0, "rows_sha256": "abc"})
        current = row_for({"wall_s": 5.0, "rows_sha256": "xyz"}, commit="new")
        report = check_rows([current], [baseline], gated_suite())
        assert not report.ok
        assert {v.metric for v in report.violations} == {"wall_s", "rows_sha256"}
        assert all(v.experiment == "exp" for v in report.violations)

    def test_missing_baseline_passes_vacuously(self):
        current = row_for({"wall_s": 1.0})
        report = check_rows([current], [], gated_suite())
        assert report.ok and report.missing == ["exp"]

    def test_missing_metric_is_recorded_but_never_fatal(self):
        baseline = row_for({"wall_s": 1.0})  # no rows_sha256 recorded yet
        current = row_for({"wall_s": 1.0, "rows_sha256": "abc"}, commit="new")
        report = check_rows([current], [baseline], gated_suite())
        assert report.ok
        sha = next(c for c in report.compared if c["metric"] == "rows_sha256")
        assert sha["ok"] is None

    def test_baseline_from_another_suite_is_ignored(self):
        foreign = row_for({"wall_s": 1.0, "rows_sha256": "abc"}, suite="other")
        current = row_for({"wall_s": 99.0, "rows_sha256": "zzz"})
        report = check_rows([current], [foreign], gated_suite())
        assert report.ok and report.missing == ["exp"]

    def test_report_as_dict_is_json_ready(self):
        baseline = row_for({"wall_s": 1.0, "rows_sha256": "abc"})
        current = row_for({"wall_s": 9.0, "rows_sha256": "abc"}, commit="new")
        report = check_rows([current], [baseline], gated_suite())
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["ok"] is False and doc["suite"] == "unit"
        assert doc["violations"][0]["metric"] == "wall_s"

    def test_profile_attribution_ranks_grown_spans_first(self):
        baseline = row_for(
            {},
            profile=[
                {"name": "engine.cell", "calls": 4, "self": 1.0, "total": 1.0},
                {"name": "engine.merge", "calls": 1, "self": 0.5, "total": 0.5},
            ],
        )
        current = row_for(
            {},
            commit="new",
            profile=[
                {"name": "engine.cell", "calls": 4, "self": 1.1, "total": 1.1},
                {"name": "engine.merge", "calls": 1, "self": 3.5, "total": 3.5},
            ],
        )
        rows = profile_attribution(baseline, current)
        assert rows[0]["name"] == "engine.merge"
        assert rows[0]["self_delta"] == pytest.approx(3.0)

    def test_profile_attribution_without_baseline_row(self):
        current = row_for(
            {}, profile=[{"name": "x", "calls": 1, "self": 2.0, "total": 2.0}]
        )
        (row,) = profile_attribution(None, current)
        assert row["self_delta"] == pytest.approx(2.0)


class TestSoAProfilePair:
    """The committed before/after REPRO_BENCH_TRACE pair for the SoA kernel
    core (BENCH_PROFILE_*_SOA.json): the ``adversary.iso_check`` span — the
    one wrapping ball canonicalisation — must show both an absolute
    self-time drop and a smaller share of the session's total self time."""

    @pytest.fixture()
    def profile_pair(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        before = json.loads((root / "BENCH_PROFILE_BEFORE_SOA.json").read_text())
        after = json.loads((root / "BENCH_PROFILE_AFTER_SOA.json").read_text())
        return before, after

    def test_canonicalisation_self_time_dropped(self, profile_pair):
        before, after = profile_pair
        rows = profile_attribution(before, after, top=len(after["profile"]))
        iso = next(row for row in rows if row["name"] == "adversary.iso_check")
        assert iso["calls"] == iso["baseline_calls"]  # same work, faster
        assert iso["self_delta"] < 0
        assert iso["self"] < 0.8 * iso["baseline_self"]

    def test_canonicalisation_share_of_self_time_dropped(self, profile_pair):
        before, after = profile_pair
        rows = profile_attribution(before, after, top=len(after["profile"]))
        total_after = sum(row["self"] for row in rows)
        total_before = sum(r["self"] for r in before["profile"])
        iso = next(row for row in rows if row["name"] == "adversary.iso_check")
        assert iso["self"] / total_after < iso["baseline_self"] / total_before


def tiny_suite() -> Suite:
    """One fast delta-scaling experiment — real sweeps, sub-second."""
    return Suite(
        name="tiny",
        experiments=(
            Experiment(
                name="tiny.delta",
                kind="delta-scaling",
                title="tiny Δ sweep",
                params={"algorithms": ("greedy",), "deltas": (3,)},
                thresholds=(
                    Threshold("rows_sha256", "exact"),
                    Threshold("cells", "exact"),
                    Threshold("wall_s", "higher-is-worse", ratio=2.0),
                ),
            ),
        ),
    )


class TestSuites:
    def test_declared_suites_resolve_by_name(self):
        smoke = suite_named("smoke")
        assert {e.kind for e in smoke.experiments} == {
            "delta-scaling", "worker-scaling", "canonical-microbench",
        }
        assert suite_named("full").name == "full"

    def test_unknown_suite_raises_with_the_options(self):
        with pytest.raises(ValueError, match="smoke"):
            suite_named("nope")

    def test_every_declared_threshold_metric_has_a_direction(self):
        for suite in SUITES.values():
            for experiment in suite.experiments:
                for threshold in experiment.thresholds:
                    assert threshold.direction in (
                        "higher-is-worse", "lower-is-worse", "exact",
                    )

    def test_default_trajectory_path_is_the_committed_file(self):
        assert DEFAULT_TRAJECTORY_PATH == "BENCH_TRAJECTORY.jsonl"


class TestRunSuite:
    def test_tiny_suite_produces_schema_versioned_rows(self):
        rows = run_suite(tiny_suite(), repeats=1, warmup=0, commit="test-commit")
        (row,) = rows
        assert row["schema"] == TRAJECTORY_SCHEMA_VERSION
        assert row["suite"] == "tiny" and row["experiment"] == "tiny.delta"
        assert row["commit"] == "test-commit"
        metrics = row["metrics"]
        assert metrics["cells"] == 1
        assert 0 <= metrics["refuted"] <= metrics["cells"]
        assert len(metrics["rows_sha256"]) == 64
        assert metrics["wall_s"] >= 0
        assert row["profile"] and {"name", "calls", "self", "total"} <= set(
            row["profile"][0]
        )

    def test_deterministic_fingerprints_across_runs(self):
        first = run_suite(tiny_suite(), repeats=1, warmup=0, commit="a")
        second = run_suite(tiny_suite(), repeats=1, warmup=0, commit="b")
        assert (
            first[0]["metrics"]["rows_sha256"] == second[0]["metrics"]["rows_sha256"]
        )

    def test_injected_clock_drives_the_timings(self):
        clock = iter(range(1000))
        rows = run_suite(
            tiny_suite(),
            repeats=1,
            warmup=0,
            clock=lambda: float(next(clock)),
            commit="c",
        )
        assert rows[0]["metrics"]["wall_s"] == pytest.approx(1.0)

    def test_unknown_experiment_kind_is_rejected(self):
        broken = Suite(
            name="broken",
            experiments=(Experiment(name="x", kind="time-travel", title="t"),),
        )
        with pytest.raises(ValueError, match="time-travel"):
            run_suite(broken, repeats=1, warmup=0, commit="c")


class TestRenderers:
    def test_render_rows_lists_every_experiment(self):
        rows = [
            row_for({"wall_s": 0.5, "cells": 4}),
            row_for({"wall_s": 0.1}, experiment="other"),
        ]
        text = render_rows(rows)
        assert "exp" in text and "other" in text and "wall_s" in text

    def test_render_trajectory_shows_trends_per_experiment(self):
        rows = [
            row_for({"wall_s": 1.0}, commit="aaaaaaaaaaaa"),
            row_for({"wall_s": 2.0}, commit="bbbbbbbbbbbb"),
        ]
        text = render_trajectory(rows)
        assert "exp" in text and "aaaaaaaaa" in text
        assert "+100" in text  # wall_s delta vs the previous row

    def test_render_check_marks_failures_and_attribution(self):
        baseline = row_for(
            {"wall_s": 1.0, "rows_sha256": "abc"},
            profile=[{"name": "engine.cell", "calls": 1, "self": 1.0, "total": 1.0}],
        )
        current = row_for(
            {"wall_s": 9.0, "rows_sha256": "abc"},
            commit="new",
            profile=[{"name": "engine.cell", "calls": 1, "self": 9.0, "total": 9.0}],
        )
        report = check_rows([current], [baseline], gated_suite())
        text = render_check(report, [current], [baseline])
        assert "FAIL" in text and "wall_s" in text
        assert "engine.cell" in text  # self-time attribution names the span

    def test_render_check_on_an_empty_report(self):
        text = render_check(CheckReport(suite="unit"))
        assert "unit" in text


class TestBenchCLI:
    @pytest.fixture()
    def tiny_registered(self, monkeypatch):
        monkeypatch.setitem(SUITES, "tiny", tiny_suite())

    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def bench_args(self, tmp_path, *extra):
        return (
            "bench",
            "--suite", "tiny",
            "--trajectory", str(tmp_path / "trajectory.jsonl"),
            "--repeats", "1",
            "--warmup", "0",
            "--commit", "cli-test",
            *extra,
        )

    def test_run_appends_one_row(self, tiny_registered, tmp_path, capsys):
        assert self.run_cli(*self.bench_args(tmp_path)) == 0
        rows = read_rows(tmp_path / "trajectory.jsonl")
        assert len(rows) == 1 and rows[0]["commit"] == "cli-test"
        assert "appended 1 row(s)" in capsys.readouterr().out

    def test_dry_run_does_not_append(self, tiny_registered, tmp_path, capsys):
        assert self.run_cli(*self.bench_args(tmp_path, "--dry-run")) == 0
        assert not (tmp_path / "trajectory.jsonl").exists()
        assert "dry run" in capsys.readouterr().out

    def test_check_without_baseline_exits_2(self, tiny_registered, tmp_path, capsys):
        assert self.run_cli(*self.bench_args(tmp_path, "--check")) == 2
        assert "record a baseline first" in capsys.readouterr().err

    def test_check_against_a_fresh_baseline_passes(
        self, tiny_registered, tmp_path, capsys
    ):
        assert self.run_cli(*self.bench_args(tmp_path)) == 0
        assert self.run_cli(*self.bench_args(tmp_path, "--check")) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_exits_1_on_a_synthetic_regression(
        self, tiny_registered, tmp_path, capsys
    ):
        assert self.run_cli(*self.bench_args(tmp_path)) == 0
        path = tmp_path / "trajectory.jsonl"
        row = json.loads(path.read_text())
        row["metrics"]["rows_sha256"] = "0" * 64  # corrupt the exact baseline
        path.write_text(json.dumps(row, sort_keys=True) + "\n")
        assert self.run_cli(*self.bench_args(tmp_path, "--check")) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_json_reports_rows_and_verdict(
        self, tiny_registered, tmp_path, capsys
    ):
        assert self.run_cli(*self.bench_args(tmp_path)) == 0
        assert self.run_cli(*self.bench_args(tmp_path, "--check", "--json")) == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["check"]["ok"] is True and len(doc["rows"]) == 1

    def test_report_renders_without_running(self, tiny_registered, tmp_path, capsys):
        assert self.run_cli(*self.bench_args(tmp_path)) == 0
        capsys.readouterr()
        assert self.run_cli(*self.bench_args(tmp_path, "--report")) == 0
        assert "tiny.delta" in capsys.readouterr().out

    def test_unknown_suite_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown bench suite"):
            self.run_cli(
                "bench", "--suite", "nope",
                "--trajectory", str(tmp_path / "t.jsonl"),
            )

    def test_api_facade_returns_typed_report_without_persisting(
        self, tiny_registered, tmp_path, monkeypatch
    ):
        import dataclasses

        import repro.api as api

        monkeypatch.chdir(tmp_path)
        report = api.bench("tiny", repeats=1, warmup=0, commit="api-test")
        assert isinstance(report, api.BenchReport)
        assert dataclasses.is_dataclass(report) and isinstance(report.rows, tuple)
        assert report.suite == "tiny"
        assert report.commit == "api-test"
        assert report.rows[0]["commit"] == "api-test"
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.suite = "other"
        assert not (tmp_path / "BENCH_TRAJECTORY.jsonl").exists()

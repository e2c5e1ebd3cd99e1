"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Instrumented, Tracer, layer_metrics  # noqa: E402
from workloads import Checks, ExactGames, McSweep, TreeCheck, load_stronglin  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mc-sweep": functools.partial(McSweep, sweep=((64, 12),)),
    "exact-games": functools.partial(
        ExactGames, reports=("srsw-register", "strong-lin-suite"), srsw_classes=("weak",)
    ),
    "tree-check": functools.partial(
        TreeCheck, flips=2, clients=3, enqueues=2, codec=((4, 1), (16, 1))
    ),
}

STAGES = {
    "mc-sweep": ("ms_per_trial.n64",),
    "exact-games": (),
    "tree-check": ("witness_tree_s", "refute_tree_s", "check_lin_s"),
}


@pytest.fixture
def m():
    return load_stronglin(ROOT / "src")


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_runs_clean_at_a_tiny_size(m, name):
    w = TINY[name](m, 3)
    checks = Checks()
    clock = Clock()
    stages = []
    for j in range(2):
        clock.reset()
        w.run_pass(j, checks, clock)
        stages.append(dict(clock.scaled))
    w.finish(checks)
    assert checks.attempted > 0
    assert checks.failed == 0
    assert set(w.stage_metrics(stages)) == set(STAGES[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, name, trace):
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.chdir(ROOT)
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [g["name"] for g in group]
    for g in group:
        got = result["metrics"][g["name"]]
        assert got["unit"] == g["unit"]
        assert isinstance(got["value"], float)
    human = "\n".join(lines[:-1])
    wanted = ["failed_frac"] + list(STAGES[name])
    wanted += ["wall_s", "setup_s", "peak_rss_mb"] if trace == 0 else ["trace.overhead_frac"]
    for metric in wanted:
        assert f" {metric} " in human


def test_end_to_end_metrics_are_never_zero():
    # A process of its own: peak_rss_mb is measured above the process's
    # own floor, which the test process has long passed.
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "exact-games", "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_corrupted_expected_value_counts_as_a_failure(m, monkeypatch, capsys):
    key = ("srsw-register", "implemented-oblivious", "expected-read")
    monkeypatch.setitem(m.experiments.EXPECTED, key, ("3/4", "corrupted"))
    w = TINY["exact-games"](m, 0)
    checks = Checks()
    w.run_pass(0, checks, Clock())
    assert checks.failed == 1
    assert checks.attempted == 7
    assert "expected 3/4" in capsys.readouterr().err


def test_seed_0_matches_the_pinned_digest(m):
    checks = Checks()
    McSweep(m, 0).run_pass(0, checks, Clock())
    assert (checks.attempted, checks.failed) == (10, 0)


def test_a_corrupted_digest_counts_as_a_failure(m, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP", ((16, 2),))
    monkeypatch.setattr(workloads, "SWEEP_DIGEST", "0" * 16)
    w = McSweep(m, 0, sweep=((16, 2),))
    checks = Checks()
    w.run_pass(0, checks, Clock())
    assert checks.failed == 1


def test_a_crashing_check_is_counted_not_raised(m, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    w = TINY["tree-check"](m, 0)
    monkeypatch.setattr(m.checkers, "check_strong_lin", broken)
    checks = Checks()
    w.run_pass(0, checks, Clock())
    assert checks.failed == 2


def test_tracing_leaves_reports_unchanged_and_restores_modules(m):
    cfg = m.experiments.ExperimentConfig(name="strong-lin-suite")
    before = m.experiments.run_named_experiment(cfg).to_json()
    originals = {mod.__name__: dict(vars(mod)) for mod in m.all}
    tracer = Tracer()
    with Instrumented(m, tracer):
        assert m.experiments.run is not originals["stronglin.experiments"]["run"]
        traced = m.experiments.run_named_experiment(cfg).to_json()
    assert traced == before
    for mod in m.all:
        assert dict(vars(mod)) == originals[mod.__name__]
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"experiments.report.strong-lin-suite", "checkers.check", "search.game",
            "search.replay", "engine.construct", "engine.run"} <= names


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    a, b = tr.name_id("x.outer"), tr.name_id("y.inner")
    tr.spans = [(a, 0.0, 10.0, -1, 0), (b, 1.0, 4.0, 0, 0), (b, 5.0, 6.0, 0, 0)]
    t = tr.totals()
    assert t["x.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert t["y.inner"]["self_s"] == 4.0


def test_layer_metrics_cover_the_per_layer_list(m):
    tracer = Tracer()
    w = TINY["mc-sweep"](m, 0)
    with Instrumented(m, tracer):
        w.run_pass(0, Checks(), Clock())
    got = layer_metrics(tracer, 1)
    stage = {"ms_per_trial.n64", "ms_per_trial.n256", "ms_per_trial.n1024",
             "witness_tree_s", "refute_tree_s", "check_lin_s",
             "failed_frac", "trace.overhead_frac", "trace.spans"}
    reports = {g["name"] for g in SPEC["per_layer"] if g["name"].startswith("experiments.report_s.")}
    assert set(got) == {g["name"] for g in SPEC["per_layer"]} - stage - reports
    assert got["loadbalance.trials"] == 12 * 3
    assert got["loadbalance.decides"] > 0 and got["engine.grants"] > 0
    assert 0 < got["loadbalance.certify_share"] < 1


def _runs(values, workload="w", trace=0, metric="wall_s", failed=0):
    return {
        (workload, trace, seed): {
            "correct": not failed, "failed": failed, "metrics": {metric: {"value": v}}
        }
        for seed, v in enumerate(values)
    }


@pytest.mark.parametrize(
    "base,new,word",
    [
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8], "improved"),
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12], "worse"),
        ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], [10, 9.9, 10.1, 10, 9.8, 10.2, 10, 9.9, 10.1, 10], "unchanged"),
        ([6, 14, 8, 12, 10, 7, 13, 9, 11, 10], [10, 9, 11, 10, 12, 8, 10, 9, 11, 10], "unresolved"),
        # Too few pairs to claim anything, however clear the gain.
        ([10, 10.1, 9.9], [8, 8.1, 7.9], "unresolved"),
    ],
)
def test_compare_verdicts(base, new, word):
    b = compare.series(_runs(base), "w", 0, "wall_s")
    n = compare.series(_runs(new), "w", 0, "wall_s")
    assert compare.verdict(b, n, "lower", 0.1)[1] == word


@pytest.mark.parametrize("new_failed,word,code", [(0, "improved", 0), (1, "unresolved", 1)])
def test_compare_claims_no_gain_for_a_set_that_failed_more_checks(capsys, new_failed, word, code):
    base = _runs([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10], workload="mc-sweep")
    new = _runs(
        [8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8], workload="mc-sweep", failed=new_failed
    )
    assert compare.compare(base, new, SPEC) == code
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("mc-sweep     wall_s "))
    assert row.endswith(word)
    assert f"failed checks: base 0, new {10 * new_failed}" in out


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "exact-games", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

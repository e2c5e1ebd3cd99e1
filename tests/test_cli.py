"""End-to-end CLI behavior through click's test runner."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import stronglin
from stronglin.cli import main
from stronglin.checkers import HistoryTree
from stronglin.experiments import EXPECTED, counter_race_tree, hw_atomic_dequeue_tree
from stronglin.histories import (
    BASE,
    INV,
    RSP,
    History,
    ObjectInfo,
    Step,
    from_jsonl,
    to_jsonl,
)


@pytest.fixture
def runner():
    return CliRunner()


def test_experiment_json_report(runner):
    result = runner.invoke(main, ["experiment", "snapshot", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ok"] is True
    assert [r["value"] for r in doc["rows"]] == ["-1", "0", "-2"]


def test_experiment_csv_to_file(runner, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(
        main, ["experiment", "srsw-register", "--out", str(out)]
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("experiment,variant,metric,value")
    assert len(lines) == 3


def test_experiment_unknown_name_is_usage_error(runner):
    result = runner.invoke(main, ["experiment", "nope"])
    assert result.exit_code == 2
    assert "strong-lin-suite" in result.output


@pytest.mark.parametrize("n", [10, 0, -4])
def test_experiment_bad_loadbalance_n_is_usage_error(runner, n):
    result = runner.invoke(main, ["experiment", "loadbalance", "--n", str(n)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Error: loadbalance needs" in result.output


def test_experiment_zero_loadbalance_trials_is_usage_error(runner):
    result = runner.invoke(main, ["experiment", "loadbalance", "--trials", "0"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Error: loadbalance needs at least one trial" in result.output


def test_budget_exhausted_loadbalance_rows_are_inconclusive(runner):
    result = runner.invoke(
        main,
        ["experiment", "loadbalance", "--budget", "5", "--trials", "3",
         "--format", "json"],
    )
    assert result.exit_code == 1
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 6
    assert {r["verdict"] for r in rows} == {"inconclusive"}


def test_loadbalance_report_bytes_are_pinned(runner):
    # Any change to the engine, the adversaries, the certifier or the
    # estimator that alters a single trial changes these bytes.
    result = runner.invoke(
        main,
        ["experiment", "loadbalance", "--n", "64", "--trials", "40",
         "--seed", "0"],
    )
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == (
        "339e91cedd0c713666b265a162d5cc784e26f2dc552ff8148c34e62ccade8a8d"
    )


def test_one_trial_loadbalance_rows_are_inconclusive(runner):
    # A single trial has no spread, so no row may pass or fail on it.
    result = runner.invoke(
        main, ["experiment", "loadbalance", "--trials", "1", "--format", "json"]
    )
    assert result.exit_code == 1
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 6
    assert {r["verdict"] for r in rows} == {"inconclusive"}


def test_failed_claim_exits_one(runner, monkeypatch):
    key = ("hw-queue", "implemented-weak", "success-probability")
    monkeypatch.setitem(EXPECTED, key, ("0", EXPECTED[key][1]))
    result = runner.invoke(main, ["experiment", "hw-queue"])
    assert result.exit_code == 1
    assert "fail" in result.output


def test_simulate_emits_replayable_history(runner):
    result = runner.invoke(
        main, ["simulate", "--alg", "mrsw-register", "--coins", "-1"]
    )
    assert result.exit_code == 0
    h = from_jsonl(result.output)
    assert len(h.steps) > 0
    assert set(h.processes) == {0, 1, 2}


def test_simulate_rejects_bad_inputs(runner):
    cases = [
        ["simulate", "--alg", "nope", "--coins", "1"],
        ["simulate", "--alg", "hw-queue", "--coins", "zero"],
        ["simulate", "--alg", "hw-queue", "--coins", "7"],
        ["simulate", "--alg", "hw-queue", "--coins", "1",
         "--variant", "atomic", "--policy", "pinned"],
    ]
    for argv in cases:
        assert runner.invoke(main, argv).exit_code == 2, argv


def test_simulate_drain_works_on_atomic_variant(runner):
    result = runner.invoke(
        main,
        ["simulate", "--alg", "snapshot", "--coins", "1",
         "--variant", "atomic", "--policy", "drain"],
    )
    assert result.exit_code == 0


def test_check_lin_round_trip(runner, tmp_path):
    sim = runner.invoke(
        main, ["simulate", "--alg", "hw-queue", "--coins", "0"]
    )
    src = tmp_path / "run.jsonl"
    src.write_text(sim.output)
    result = runner.invoke(main, ["check-lin", str(src)])
    assert result.exit_code == 0
    assert json.loads(result.output)["linearizable"] is True


def test_check_lin_rejects_unlinearizable_history(runner, tmp_path):
    objs = {0: ObjectInfo("register", BASE, (("key", "R"),))}
    h = History(
        (Step(INV, 0, 0, "read", (), BASE), Step(RSP, 0, 0, "read", 7, BASE)),
        (0,),
        objs,
    )
    src = tmp_path / "bad.jsonl"
    src.write_text(to_jsonl(h))
    result = runner.invoke(main, ["check-lin", str(src)])
    assert result.exit_code == 1
    assert json.loads(result.output) == {"linearizable": False}


def test_check_strong_lin_witness_and_none(runner, tmp_path):
    good = tmp_path / "race.json"
    good.write_text(counter_race_tree().to_json())
    result = runner.invoke(main, ["check-strong-lin", str(good)])
    assert result.exit_code == 0
    assert "witness" in json.loads(result.output)

    bad = tmp_path / "hw.json"
    bad.write_text(hw_atomic_dequeue_tree().to_json())
    result = runner.invoke(main, ["check-strong-lin", str(bad)])
    assert result.exit_code == 1
    assert json.loads(result.output) == {"witness": None}


def test_check_strong_lin_empty_tree_is_trivially_ok(runner, tmp_path):
    empty = HistoryTree.from_runs({(): History((), (0,), {})})
    src = tmp_path / "empty.json"
    src.write_text(empty.to_json())
    result = runner.invoke(main, ["check-strong-lin", str(src)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"witness": {"0": []}}


def test_check_strong_lin_bad_file_is_usage_error(runner, tmp_path):
    src = tmp_path / "garbage.json"
    src.write_text("{not json")
    assert runner.invoke(main, ["check-strong-lin", str(src)]).exit_code == 2
    assert runner.invoke(
        main, ["check-strong-lin", str(tmp_path / "missing.json")]
    ).exit_code == 2


def _race_jsonl_lines():
    tree = counter_race_tree()
    return to_jsonl(tree.history_of(tree.leaves()[0])).splitlines()


def _step_without_op():
    header, first, *rest = _race_jsonl_lines()
    step = json.loads(first)
    del step["op"]
    return "\n".join([header, json.dumps(step), *rest]) + "\n"


def _non_object_step():
    return _race_jsonl_lines()[0] + "\n[1, 2]\n"


def _non_object_header():
    return "[]\n"


def _response_without_invocation():
    step = {"index": 0, "kind": RSP, "process": 0, "object": 0,
            "op": "fetch_inc", "payload": 0, "level": BASE}
    return _race_jsonl_lines()[0] + "\n" + json.dumps(step) + "\n"


def _node_without_step():
    doc = json.loads(counter_race_tree().to_json())
    del doc["nodes"][1]["step"]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "command, make_text",
    [
        ("check-lin", _step_without_op),
        ("check-lin", _non_object_step),
        ("check-lin", _non_object_header),
        ("check-lin", _response_without_invocation),
        ("check-strong-lin", _node_without_step),
    ],
    ids=lambda v: v.__name__.strip("_") if callable(v) else v,
)
def test_malformed_input_is_usage_error(runner, tmp_path, command, make_text):
    src = tmp_path / "input"
    src.write_text(make_text())
    result = runner.invoke(main, [command, str(src)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [ln for ln in result.output.splitlines() if "Error" in ln]
    assert len(errors) == 1 and errors[0].startswith("Error: ")


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    tree = tmp_path / "race.json"
    tree.write_text(counter_race_tree().to_json())
    env = dict(os.environ, PYTHONPATH=str(Path(stronglin.__file__).parent.parent))
    commands = [
        ["experiment", "strong-lin-suite", "--format", "json"],
        ["check-strong-lin", str(tree)],
    ]
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-m", "stronglin.cli", *argv],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True,
                check=True,
            )
            outs.append(done.stdout)
        assert outs[0] == outs[1], argv

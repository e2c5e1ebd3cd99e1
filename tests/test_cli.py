"""End-to-end CLI behavior through click's test runner."""

import functools
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
from stronglin.experiments import (
    EXAMPLES,
    EXPECTED,
    counter_race_tree,
    hw_atomic_dequeue_tree,
)
from stronglin.histories import (
    BASE,
    INV,
    RSP,
    History,
    ObjectInfo,
    Step,
    from_jsonl,
    step_doc,
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
    errors = [ln for ln in result.output.splitlines() if "Error" in ln]
    assert errors == [f"Error: loadbalance needs a positive square process count, got {n}"]


@pytest.mark.parametrize("delta", ["nan", "inf", "-1"])
def test_experiment_bad_loadbalance_delta_is_usage_error(runner, delta):
    result = runner.invoke(main, ["experiment", "loadbalance", "--delta", delta])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines() if "Error" in ln]
    assert len(errors) == 1 and errors[0].startswith("Error: loadbalance needs")


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["srsw-register", "strong-lin-suite"])
def test_experiment_non_finite_delta_is_usage_error(runner, name, delta):
    # These experiments do not read delta, but their config echoes it,
    # and JSON has no NaN or Infinity.
    result = runner.invoke(
        main, ["experiment", name, "--delta", delta, "--format", "json"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines() if "Error" in ln]
    assert errors == [f"Error: {name} needs a finite delta, got {float(delta)}"]


@pytest.mark.parametrize("name", ["snapshot", "srsw-register", "hw-queue"])
def test_budget_exhausted_exact_rows_are_inconclusive(runner, name):
    result = runner.invoke(
        main, ["experiment", name, "--budget", "5", "--format", "json"]
    )
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["config"]["budget"] == 5
    implemented = [r for r in doc["rows"] if r["variant"].startswith("implemented-")]
    assert implemented and all(
        r["verdict"] == "inconclusive" and r["value"] == "" for r in implemented
    )
    assert all(r["verdict"] == "ok" for r in doc["rows"] if r not in implemented)


def test_experiment_zero_loadbalance_trials_is_usage_error(runner):
    result = runner.invoke(main, ["experiment", "loadbalance", "--trials", "0"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Error: loadbalance needs at least one trial" in result.output


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("name", ["srsw-register", "loadbalance"])
def test_budget_below_one_is_usage_error(runner, name, budget):
    # No run can take a single grant, so the report would be meaningless.
    result = runner.invoke(
        main, ["experiment", name, "--budget", budget, "--trials", "2"]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines() if "Error" in ln]
    assert len(errors) == 1 and errors[0].startswith("Error: ")
    assert "--budget" in errors[0]


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


# sha256 of each exact report at its defaults: the worked examples'
# game values and the checker suite's verdicts, in CSV.
EXACT_REPORT_DIGESTS = {
    "snapshot": "84ab339388a20dc6afbad51836a34c10bac917be80812e8ce2085dd5bd254b35",
    "srsw-register": "bad584df0b387889612226ac81b7a51ad3db0020e3ee6694154cdf1e95a09b53",
    "mrsw-register": "bcb3de83059425ee8995a7b0bf79d65dacd151b29d186713e910fc3be4ea32b0",
    "hw-queue": "eb5ff49b04393a11bb9c12029ef00ce8bd72e5ca9ab4d06c43297febb313e53a",
    "strong-lin-suite":
        "d82446ac4377b6be7bb01b6ac424fa137dddff3500ee0ea8c7feda99cc50769d",
}


@pytest.mark.parametrize("name", EXACT_REPORT_DIGESTS)
def test_exact_report_bytes_are_pinned(runner, name):
    result = runner.invoke(main, ["experiment", name])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == EXACT_REPORT_DIGESTS[name]


# sha256 of `simulate` output per (example, coin, variant, policy).  The
# weak pinned schedules bundle a flip with the next invocation, so these
# also fix where a method's boundary step lands after a weak flip.
SIMULATE_DIGESTS = {
    ("hw-queue", 0, "atomic", "drain"):
        "54187698315dba03ccfa2eb143a9985e4dd1b89d963e804cada3e2304a46bb95",
    ("hw-queue", 0, "implemented", "drain"):
        "a4ac5390dd899236670650d43477703e2834d572e3d795a8bdf9af001c7b1643",
    ("hw-queue", 0, "implemented", "pinned"):
        "08d41e496ac590dde47afbae0eea69be7dc9198f62d2185097ca748ad9621870",
    ("hw-queue", 1, "atomic", "drain"):
        "81d89d05ce2d986622007a2a678b9ff3db653b2c77a3fa34e8a4047ded92861a",
    ("hw-queue", 1, "implemented", "drain"):
        "4abb484d7421ac969997d0fbd9ea0a7e6a028cd2f6d84ff92e4b8b7007fa846f",
    ("hw-queue", 1, "implemented", "pinned"):
        "d255794976447235a7dc93e674c6d06efcc807e10e3f2e6519d2751fd26ab246",
    ("mrsw-register", -1, "atomic", "drain"):
        "61af29800519fd5be51e4121fd9980546d544986b92ff654e306b9cae2957cf1",
    ("mrsw-register", -1, "implemented", "drain"):
        "d6482cbbd76ffcd75b88b777f9b4db74986c60565ecf090149b626808c48a625",
    ("mrsw-register", -1, "implemented", "pinned"):
        "2acada227a505b0e71a389a736777ae6ce3a4d338e0ffbb3421cc55d91639613",
    ("mrsw-register", 1, "atomic", "drain"):
        "083a4f3c091615e4987a4876ba41a453ab5331aafcbca867b260f0e10ce28b4c",
    ("mrsw-register", 1, "implemented", "drain"):
        "86bc5b9a76979ebef412f5b0801105c5ca187a4bbe607bf2d396f83a568c2233",
    ("mrsw-register", 1, "implemented", "pinned"):
        "6778d09673e8ef2d95b2bd7476ee676618d72f34b6a77bc927643232416bd180",
    ("snapshot", -1, "atomic", "drain"):
        "0569537c124576a1b3f3aa7580ba484a7477bb787e50bef11b9cbd4e692dedb6",
    ("snapshot", -1, "implemented", "drain"):
        "9d96814366848b1046f8b15d90f4d2288e8d510f45ec883b08a7b860607e2ecb",
    ("snapshot", -1, "implemented", "pinned"):
        "63c0d0ab0ca15fe258945c9a5b5769a4dfe4ead88efa8d5f667a7ccd1fe88001",
    ("snapshot", 1, "atomic", "drain"):
        "32f5e93aea369e5b9a595d4cd1d1b8265dc79c4cb8fe029fea9332576069a2c6",
    ("snapshot", 1, "implemented", "drain"):
        "801117577783a3b6ce51ed012983c383c25439c25e914e4dd2d32695a0f0a195",
    ("snapshot", 1, "implemented", "pinned"):
        "887a321cfd56010ed6bd4b68f6ff0c82255b97643886278c12b313980a98fcc8",
    ("srsw-register", 0, "atomic", "drain"):
        "d2b4932368913d2f339e860fb8f32aeb54427c476382c4672f94038de717d005",
    ("srsw-register", 0, "implemented", "drain"):
        "df436b0166f8f0e87eed8c3395da80b95dfe3cc60893994c77613e04c685ddec",
    ("srsw-register", 0, "implemented", "pinned"):
        "b9b8395bac0c3b64368df7d201ad4b58d705d500f0bc2a8239d8d2305f63c861",
    ("srsw-register", 2, "atomic", "drain"):
        "691c28c5164a8091136de30674a6cee8f8f20a8ab0b3af92ec1b1b4954f7f38f",
    ("srsw-register", 2, "implemented", "drain"):
        "d2d79f7a5e2b7b785c40ae9a50c37c7fb24b901baba407d40f7c69507147d207",
    ("srsw-register", 2, "implemented", "pinned"):
        "b435d4ed12861917750ed6a0eb65edb2174f9dc40b5cd3f65571cd4b66391632",
}


@pytest.mark.parametrize(
    "alg, coin, variant, policy",
    [
        (name, w, variant, policy)
        for name, make in sorted(EXAMPLES.items())
        for w in make().omega
        for variant, policy in (
            ("atomic", "drain"), ("implemented", "drain"), ("implemented", "pinned")
        )
    ],
    ids=str,
)
def test_simulate_history_bytes_are_pinned(runner, alg, coin, variant, policy):
    digest = hashlib.sha256(_simulate(runner, alg, coin, variant, policy).encode())
    assert digest.hexdigest() == SIMULATE_DIGESTS[alg, coin, variant, policy]


def _simulate(runner, alg, coin, variant, policy):
    result = runner.invoke(
        main,
        ["simulate", "--alg", alg, "--coins", str(coin), "--variant", variant,
         "--policy", policy],
    )
    assert result.exit_code == 0
    return result.output


@pytest.mark.parametrize("alg, coin, variant, policy", sorted(SIMULATE_DIGESTS), ids=str)
def test_simulated_runs_linearize(runner, tmp_path, alg, coin, variant, policy):
    # Each registry entry names the exact spec of its object, initial
    # value and domain included, so every pinned run checks against it.
    src = tmp_path / "run.jsonl"
    src.write_text(_simulate(runner, alg, coin, variant, policy))
    result = runner.invoke(main, ["check-lin", str(src)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["linearizable"] is True


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


def test_simulate_rejects_coins_the_run_never_drew(runner):
    result = runner.invoke(main, ["simulate", "--alg", "snapshot", "--coins", "1,1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines() if "Error" in ln]
    assert errors == ["Error: coin vector has 2 outcomes; the run drew 1"]


def test_simulate_drain_works_on_atomic_variant(runner):
    result = runner.invoke(
        main,
        ["simulate", "--alg", "snapshot", "--coins", "1",
         "--variant", "atomic", "--policy", "drain"],
    )
    assert result.exit_code == 0


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


def test_check_lin_leaves_a_pending_flip_out_of_the_image(runner, tmp_path):
    # No spec derives a coin's outcome, so the pending flip stays out.
    objs = {
        0: ObjectInfo("register", BASE, (("key", "R"),)),
        1: ObjectInfo("coin", BASE, (("process", 1),)),
    }
    write = (Step(INV, 0, 0, "write", (1,), BASE), Step(RSP, 0, 0, "write", None, BASE))
    h = History(write + (Step(INV, 1, 1, "flip", (), BASE),), (0, 1), objs)
    src = tmp_path / "flip.jsonl"
    src.write_text(to_jsonl(h))
    result = runner.invoke(main, ["check-lin", str(src)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "linearizable": True, "image": [step_doc(s) for s in write]
    }


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


def _truncated_line(n):
    # The race history cut off mid-record on its n-th line.
    lines = _race_jsonl_lines()
    lines[n - 1] = lines[n - 1][:27]
    return "\n".join(lines) + "\n"


def _truncated_fourth_line():
    return _truncated_line(4)


def _processes_not_a_list():
    return json.dumps({"objects": {}, "processes": 5}) + "\n"


def _repeated_process_history():
    # A snapshot's width is its process count, so a repeated id would
    # make the unedited run fail to linearize rather than be refused.
    result = CliRunner().invoke(main, ["simulate", "--alg", "snapshot", "--coins", "1"])
    header, *steps = result.output.splitlines()
    doc = json.loads(header)
    assert doc["processes"] == [0, 1, 2]
    doc["processes"] = [0, 1, 2, 0]
    return "\n".join([json.dumps(doc), *steps]) + "\n"


def _repeated_process_tree():
    doc = json.loads(counter_race_tree().to_json())
    assert doc["processes"] == [0, 1, 2]
    doc["processes"] = [0, 1, 2, 0]
    return json.dumps(doc)


def _race_step(**fields):
    header, first, *_rest = _race_jsonl_lines()
    step = {**json.loads(first), **fields}
    return header + "\n" + json.dumps(step) + "\n"


def _pending_step_on_unknown_object():
    return _race_step(object=len(json.loads(_race_jsonl_lines()[0])["objects"]))


def _string_step_process():
    return _race_step(process="0")


def _step_with_bad_kind():
    return _race_step(kind="call")


def _step_with_bad_level():
    return _race_step(level="meta")


def _string_node_id():
    doc = json.loads(counter_race_tree().to_json())
    doc["nodes"][1]["id"] = str(doc["nodes"][1]["id"])
    return json.dumps(doc)


def _register_write(ret=None, **inv):
    # Process 0 writes 1 to a register.  ``inv`` overrides fields of the
    # invocation; a process or op override reaches the response too, so
    # the pair still matches.  ``ret`` is the response payload.
    w = {"kind": INV, "process": 0, "object": 0, "op": "write",
         "payload": [1], "level": BASE, **inv}
    return w, {**w, "kind": RSP, "payload": ret}


_REGISTER = {"type": "register", "level": BASE, "params": {"key": "R"}, "impl": None}


def _registry(entry):
    # The register's registry, ``entry`` overriding fields of its entry.
    return {"0": {**_REGISTER, **(entry or {})}}


def _write_history(entry=None, ret=None, **inv):
    header = {"objects": _registry(entry), "processes": [0]}
    steps = [{"index": i, **s} for i, s in enumerate(_register_write(ret, **inv))]
    return "\n".join(json.dumps(d) for d in [header, *steps]) + "\n"


def _write_tree(entry=None, ret=None, **inv):
    w, r = _register_write(ret, **inv)
    nodes = [{"id": 0, "parent": None, "step": None},
             {"id": 1, "parent": 0, "step": w},
             {"id": 2, "parent": 1, "step": r}]
    return json.dumps({"processes": [0], "objects": _registry(entry), "nodes": nodes})


def _write_history_with_index(index):
    # The register write with ``index`` in place of its response's 1.
    header, inv, rsp = _write_history().splitlines()
    return "\n".join([header, inv, json.dumps({**json.loads(rsp), "index": index})]) + "\n"


def _with_leading_zero_coin(encode):
    # Process 0's coin registered at "00" ahead of the register at "0":
    # read as 0, it would be overwritten by the register without a word.
    text = encode()
    first, nl, rest = text.partition("\n")
    doc = json.loads(first)
    coin = {"type": "coin", "level": BASE, "params": {"process": 0}, "impl": None}
    doc["objects"] = {"00": coin, **doc["objects"]}
    return json.dumps(doc) + nl + rest


STEP_HOLES = {
    "unlisted-process": {"process": 7},
    "object-payload": {"payload": [{"v": 1}]},
    "scalar-invocation-payload": {"payload": 5},
    "op-the-spec-rejects": {"op": "frob"},
    "level-off-its-object": {"level": "interpreted"},
}


REGISTRY_HOLES = {
    "list-type": {"type": []},
    "integer-impl": {"impl": 5},
    "param-the-spec-lacks": {"params": {"key": "R", "colour": 1}},
    "string-domain-bound": {"params": {"key": "R", "domain_bound": "x"}},
    "unknown-level": {"level": "weird"},
    "list-params": {"params": [1]},
}


# Writes outside the integers 0..3 to a register with ``domain_bound`` 3;
# a float and a boolean compare like in-range integers.
DOMAIN_HOLES = {
    "fractional-write": [2.5],
    "boolean-write": [True],
}
_BOUNDED = {"params": {"key": "R", "domain_bound": 3}}


# Calls with the wrong number of arguments, as (registry entry fields,
# invocation fields, response, expected count, given count).
ARITY_HOLES = {
    "read-with-an-argument": ({}, {"op": "read", "payload": [5]}, 0, 0, 1),
    "write-with-two-arguments": ({}, {"payload": [5, 6]}, None, 1, 2),
    "fetch-inc-with-three-arguments": (
        {"type": "strong-counter"}, {"op": "fetch_inc", "payload": [1, 2, 3]},
        0, 0, 3,
    ),
    "flip-with-an-argument": (
        {"type": "coin", "params": {"process": 0}}, {"op": "flip", "payload": [1]},
        0, 0, 1,
    ),
}


def _arity_hole(encode, hole):
    entry, inv, ret, _want, _got = ARITY_HOLES[hole]
    return encode(entry, ret, **inv)


def _race_coin_outcome(value):
    # The counter race with its first flip-response node claiming ``value``.
    doc = json.loads(counter_race_tree().to_json())
    node = next(n for n in doc["nodes"] if "coin_outcome" in n)
    node["coin_outcome"] = value(node["coin_outcome"]) if callable(value) else value
    return json.dumps(doc)


COIN_OUTCOME_HOLES = {
    "seven": 7,
    "object": {"a": 1},
    "boolean-lookalike": lambda outcome: bool(outcome),
    "sibling-outcome": lambda outcome: 1 - outcome,
}


def _nodes_not_a_list():
    doc = json.loads(counter_race_tree().to_json())
    doc["nodes"] = 5
    return json.dumps(doc)


def _node_without_step():
    doc = json.loads(counter_race_tree().to_json())
    del doc["nodes"][1]["step"]
    return json.dumps(doc)


def _nested(depth):
    return "[" * depth + "]" * depth


def _deep_payload(depth):
    # The race history's first invocation with an argument nested
    # ``depth`` lists deep.
    header, first, *_rest = _race_jsonl_lines()
    step = first.replace('"payload":[]', f'"payload":[{_nested(depth)}]')
    assert step != first
    return header + "\n" + step + "\n"


def _deeply_nested_payload():
    # Deep enough to overflow the payload decoder, not json.loads.
    return _deep_payload(500)


def _too_deep_for_json():
    return _deep_payload(1000)


def _deeply_nested_nodes():
    doc = json.loads(counter_race_tree().to_json())
    doc["nodes"] = []
    return json.dumps(doc).replace('"nodes": []', f'"nodes": {_nested(100_000)}')


@pytest.mark.parametrize(
    "command, make_text",
    [
        ("check-lin", _step_without_op),
        ("check-lin", _deeply_nested_payload),
        ("check-lin", _too_deep_for_json),
        ("check-strong-lin", _deeply_nested_nodes),
        ("check-lin", _non_object_step),
        ("check-lin", _non_object_header),
        ("check-lin", _response_without_invocation),
        ("check-lin", _truncated_fourth_line),
        ("check-strong-lin", _node_without_step),
        ("check-lin", _processes_not_a_list),
        ("check-lin", _repeated_process_history),
        ("check-strong-lin", _repeated_process_tree),
        ("check-lin", _pending_step_on_unknown_object),
        ("check-lin", _string_step_process),
        ("check-lin", _step_with_bad_kind),
        ("check-lin", _step_with_bad_level),
        ("check-strong-lin", _string_node_id),
        ("check-strong-lin", _nodes_not_a_list),
        pytest.param("check-lin", functools.partial(_write_history_with_index, True),
                     id="check-lin-boolean-index"),
        pytest.param("check-lin", functools.partial(_write_history_with_index, 1.0),
                     id="check-lin-float-index"),
        *[
            pytest.param(command, functools.partial(_with_leading_zero_coin, encode),
                         id=f"{command}-leading-zero-object-id")
            for command, encode in (("check-lin", _write_history),
                                    ("check-strong-lin", _write_tree))
        ],
        *[
            pytest.param(command, functools.partial(encode, **fields),
                         id=f"{command}-{hole}")
            for hole, fields in STEP_HOLES.items()
            for command, encode in (("check-lin", _write_history),
                                    ("check-strong-lin", _write_tree))
        ],
        *[
            pytest.param(command, functools.partial(encode, entry=fields),
                         id=f"{command}-{hole}")
            for hole, fields in REGISTRY_HOLES.items()
            for command, encode in (("check-lin", _write_history),
                                    ("check-strong-lin", _write_tree))
        ],
        *[
            pytest.param(command,
                         functools.partial(encode, entry=_BOUNDED, payload=payload),
                         id=f"{command}-{hole}")
            for hole, payload in DOMAIN_HOLES.items()
            for command, encode in (("check-lin", _write_history),
                                    ("check-strong-lin", _write_tree))
        ],
        *[
            pytest.param(command, functools.partial(_arity_hole, encode, hole),
                         id=f"{command}-{hole}")
            for hole in ARITY_HOLES
            for command, encode in (("check-lin", _write_history),
                                    ("check-strong-lin", _write_tree))
        ],
        *[
            pytest.param("check-strong-lin", functools.partial(_race_coin_outcome, value),
                         id=f"check-strong-lin-coin-outcome-{hole}")
            for hole, value in COIN_OUTCOME_HOLES.items()
        ],
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


@pytest.mark.parametrize("line", [1, 4])
def test_a_record_that_is_not_json_names_its_file_line(runner, tmp_path, line):
    src = tmp_path / "input"
    src.write_text(_truncated_line(line))
    result = runner.invoke(main, ["check-lin", str(src)])
    assert result.exit_code == 2
    assert f"{src}: line {line}: " in result.output


@pytest.mark.parametrize("hole", ARITY_HOLES)
def test_wrong_argument_count_is_named(runner, tmp_path, hole):
    # The spec's one arity rule words the rejection, whatever the type.
    src = tmp_path / "input"
    src.write_text(_arity_hole(_write_history, hole))
    result = runner.invoke(main, ["check-lin", str(src)])
    *_, want, got = ARITY_HOLES[hole]
    assert result.exit_code == 2
    assert result.output.rstrip().endswith(f"takes {want} argument(s), got {got}")


@pytest.mark.parametrize(
    "command, encode",
    [("check-lin", _write_history), ("check-strong-lin", _write_tree)],
)
def test_register_write_control_is_accepted(runner, tmp_path, command, encode):
    # The unmodified input behind the STEP_HOLES and REGISTRY_HOLES cases
    # decodes and linearizes, so each of those cases fails for its own field.
    src = tmp_path / "input"
    src.write_text(encode())
    assert runner.invoke(main, [command, str(src)]).exit_code == 0


def test_coin_outcome_is_derived_from_the_step():
    # The field is optional: without it a tree decodes to the same bytes,
    # so COIN_OUTCOME_HOLES fail only for the value they claim.
    text = counter_race_tree().to_json()
    doc = json.loads(text)
    for node in doc["nodes"]:
        node.pop("coin_outcome", None)
    assert HistoryTree.from_json(json.dumps(doc)).to_json() == text


def test_outputs_do_not_depend_on_the_hash_seed(runner, tmp_path):
    race, dequeue = tmp_path / "race.json", tmp_path / "dequeue.json"
    race.write_text(counter_race_tree().to_json())
    # Refuting this tree prunes through the witness search's memo of dead
    # subtrees, a set keyed by frozensets.
    dequeue.write_text(hw_atomic_dequeue_tree().to_json())
    # A snapshot and a coin: check-lin merges two objects' orders.
    snap = tmp_path / "snapshot.jsonl"
    argv = ["simulate", "--alg", "snapshot", "--coins", "1", "--out", str(snap)]
    assert runner.invoke(main, argv).exit_code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(stronglin.__file__).parent.parent))
    commands = [
        (["experiment", "strong-lin-suite", "--format", "json"], 0),
        (["check-strong-lin", str(race)], 0),
        (["check-strong-lin", str(dequeue)], 1),
        (["check-lin", str(snap)], 0),
        # JSONL on stdout: the encoder keeps a dict keyed on steps.
        (["simulate", "--alg", "snapshot", "--coins", "1"], 0),
    ]
    for argv, code in commands:
        outs = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-m", "stronglin.cli", *argv],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True,
            )
            assert done.returncode == code, (argv, done.stderr)
            outs.append(done.stdout)
        assert outs[0] == outs[1], argv

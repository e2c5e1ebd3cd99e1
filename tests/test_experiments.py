"""Worked-example schedules, report plumbing, and the checker suite."""

import json
from fractions import Fraction

import pytest

from stronglin.engine import EngineError, VectorCoins, run, scripted_policy
from stronglin.experiments import (
    CSV_COLUMNS,
    EXAMPLES,
    EXPECTED,
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ExperimentError,
    RACE_EARLY_FLIP,
    RACE_LATE_FLIP,
    branching_script,
    coschedulable,
    drain_policy,
    hw_queue_example,
    implemented_value,
    mutex_counter_tree,
    run_named_experiment,
    snapshot_example,
)
from stronglin.checkers import check_strong_lin, common_linearization, default_specs
from stronglin.histories import interpret
from stronglin.objects import snapshot_spec
from stronglin.search import exists_adversary


PINNED = {
    "snapshot": Fraction(-2),
    "srsw-register": Fraction(1, 2),
    "mrsw-register": Fraction(-1, 2),
    "hw-queue": Fraction(1),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_examples_reproduce_pinned_expectations(name):
    assert implemented_value(EXAMPLES[name]()) == PINNED[name]


def test_queue_schedule_branches_pin_every_return():
    ex = hw_queue_example()
    rec0 = run(ex.implemented, ex.schedule, VectorCoins((0,)))
    rec1 = run(ex.implemented, ex.schedule, VectorCoins((1,)))
    assert rec0.returns[2] == (0, 0, 1, 2)
    assert rec1.returns[2] == (1, 1, 0, 2)


def test_snapshot_schedule_splits_the_scan():
    ex = snapshot_example()
    up = run(ex.implemented, ex.schedule, VectorCoins((1,)))
    down = run(ex.implemented, ex.schedule, VectorCoins((-1,)))
    assert sum(up.returns[0]) == 2
    assert sum(down.returns[0]) == -6


def test_snapshot_branch_pair_is_unreachable_atomically():
    """No single adversary over the atomic snapshot reproduces both
    branch behaviours of the implemented one.

    The implemented schedule makes the scan return a pre-update view on
    one coin and a post-update view on the other.  An atomic scan that
    misses the first update must finish before the flip, where grants
    are still branch-independent, so one adversary cannot have it both
    ways.  The search below is exhaustive at this size; the positive
    control replays an atomic reference against itself.
    """
    ex = snapshot_example()
    key_specs = {"S": snapshot_spec(3)}

    def matcher(reference):
        def leaf_ok(rec, coins):
            got = interpret(rec.history)
            return common_linearization(reference[coins], got, key_specs) is not None

        return leaf_ok

    impl = {
        (c,): interpret(run(ex.implemented, ex.schedule, VectorCoins((c,))).history)
        for c in (-1, 1)
    }
    # each branch is matchable on its own; the conjunction is not
    probe = run(ex.atomic, scripted_policy("strong", (2, 0, 1, 1, 1, 2)),
                VectorCoins((1,)))
    assert matcher(impl)(probe, (1,))
    assert exists_adversary(ex.atomic, ex.omega, matcher(impl)) is None

    atomic_ref = {
        (c,): interpret(run(ex.atomic, drain_policy((1, 2, 0)), VectorCoins((c,))).history)
        for c in (-1, 1)
    }
    assert exists_adversary(ex.atomic, ex.omega, matcher(atomic_ref)) is not None


def test_branching_script_needs_a_flip_before_branching():
    ex = snapshot_example()
    eager = branching_script(common=[0], branches={1: [], -1: []})
    with pytest.raises(EngineError):
        run(ex.implemented, eager, VectorCoins((1,)))


def test_drain_policy_runs_everyone_to_completion():
    ex = snapshot_example()
    rec = run(ex.implemented, drain_policy((1, 2, 0)), VectorCoins((1,)))
    assert set(rec.returns) == {0, 1, 2}
    # q and r drained first, so the scan sees both final values
    assert sum(rec.returns[0]) == 8


def test_mutex_counter_tree_overlaps_and_certifies():
    tree = mutex_counter_tree()
    assert len(tree.leaves()) == 2
    overlap = False
    for nid in tree.node_ids():
        pending = [o for o in tree.ops_of(nid) if not o.complete]
        overlap = overlap or len(pending) > 1
    assert overlap, "alternating schedule should overlap the increments"
    specs = default_specs(tree.objects, tree.processes)
    assert check_strong_lin(tree, specs) is not None


def test_race_schedulability_split():
    assert coschedulable(RACE_EARLY_FLIP)
    assert not coschedulable(RACE_LATE_FLIP)


def test_report_csv_schema_and_determinism():
    cfg = ExperimentConfig("mrsw-register")
    a, b = run_named_experiment(cfg), run_named_experiment(cfg)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    header, *lines = a.to_csv().strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert a.ok


def test_report_json_carries_config_echo():
    cfg = ExperimentConfig("srsw-register", seed=5, trials=77)
    doc = json.loads(run_named_experiment(cfg).to_json())
    assert doc["config"]["seed"] == 5
    assert doc["config"]["trials"] == 77
    assert doc["ok"] is True
    assert all(set(row) == set(CSV_COLUMNS) for row in doc["rows"])


def test_mismatched_expectation_flips_the_verdict(monkeypatch):
    key = ("srsw-register", "implemented-oblivious", "expected-read")
    monkeypatch.setitem(EXPECTED, key, ("2/3", EXPECTED[key][1]))
    rep = run_named_experiment(ExperimentConfig("srsw-register"))
    assert not rep.ok
    assert [r.verdict for r in rep.rows] == ["ok", "fail"]


def test_reports_emit_every_claim_once_in_table_order():
    # EXPECTED is the row list: no claim is orphaned, none is emitted
    # twice, and an implemented variant names its schedule's class.
    names = [*EXAMPLES, "strong-lin-suite"]
    emitted = [
        (r.experiment, r.variant, r.metric)
        for name in names
        for r in run_named_experiment(ExperimentConfig(name)).rows
    ]
    assert emitted == list(EXPECTED)
    for name, variant, _metric in EXPECTED:
        if variant.startswith("implemented-"):
            assert variant == f"implemented-{EXAMPLES[name]().schedule.klass}"


def test_loadbalance_report_passes_at_small_scale():
    rep = run_named_experiment(ExperimentConfig("loadbalance", n=16, trials=150, seed=3))
    assert rep.ok
    variants = [r.variant for r in rep.rows]
    assert "llsc-two-phase" in variants and "writefirst-two-phase" in variants
    assert sum(v.startswith("atomic-") for v in variants) == 4


def test_loadbalance_rejects_non_square_n():
    with pytest.raises(ExperimentError):
        run_named_experiment(ExperimentConfig("loadbalance", n=10))


def test_suite_report_all_green():
    rep = run_named_experiment(ExperimentConfig("strong-lin-suite"))
    assert rep.ok
    assert [r.value for r in rep.rows] == [
        "witness", "none", "match", "split", "witness", "none"
    ]


def test_unknown_experiment_lists_names():
    with pytest.raises(ExperimentError) as err:
        run_named_experiment(ExperimentConfig("tbd"))
    for name in EXPERIMENT_NAMES:
        assert name in str(err.value)

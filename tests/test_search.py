"""Exhaustive game search pinned against the worked examples.

The expected values here were derived by hand from the example programs
before the search existed, so agreement is evidence for both sides: the
search explores the full decision tree, and the examples' prose
strategies really are optimal at these sizes.
"""

from fractions import Fraction

import pytest

from stronglin.checkers import HistoryTree
from stronglin.engine import EngineError
from stronglin.experiments import (
    atomic_value,
    hw_queue_example,
    implemented_value,
    mrsw_register_example,
    snapshot_example,
    srsw_register_example,
    _queue_payoff_unordered,
)
from stronglin.histories import interpret
from stronglin.search import (
    exists_adversary,
    optimal_expectation,
    replay_grants,
)


def test_snapshot_atomic_games():
    ex = snapshot_example()
    assert atomic_value(ex, klass="strong") == Fraction(-1)
    assert atomic_value(ex, klass="weak") == Fraction(0)


def test_srsw_atomic_strong_min():
    assert atomic_value(srsw_register_example()) == Fraction(1)


def test_mrsw_atomic_strong_min():
    assert atomic_value(mrsw_register_example()) == Fraction(0)


def test_queue_atomic_strong_max_with_and_without_order_goal():
    ex = hw_queue_example()
    assert atomic_value(ex, klass="strong") == Fraction(1, 2)
    # Dropping the 1-before-2 requirement does not help: the racer's own
    # enqueue still pins the queue front before its flip.
    relaxed = optimal_expectation(
        ex.atomic, ex.omega, _queue_payoff_unordered, klass="strong", maximize=True
    )
    assert relaxed == Fraction(1, 2)


def test_strong_beats_weak_beats_schedule_on_each_example():
    # Minimizing games: strong <= weak <= the pinned implemented value
    # holds only across the same route; what the examples actually pin
    # is the gap between atomic-optimal and implemented-scheduled play.
    ex = snapshot_example()
    assert atomic_value(ex, "strong") < atomic_value(ex, "weak")
    assert implemented_value(ex) < atomic_value(ex, "strong")
    ex = srsw_register_example()
    assert implemented_value(ex) < atomic_value(ex, "strong")
    ex = mrsw_register_example()
    assert implemented_value(ex) < atomic_value(ex, "strong")
    ex = hw_queue_example()
    assert implemented_value(ex) > atomic_value(ex, "strong")


def _read_targets(want):
    def leaf_ok(rec, coins):
        return rec.returns.get(1, object()) == want[coins]

    return leaf_ok


def test_exists_adversary_finds_reachable_reader_targets():
    alg = mrsw_register_example().atomic
    found = exists_adversary(
        alg, (-1, 1), _read_targets({(-1,): -1, (1,): 1}), klass="strong"
    )
    assert found is not None
    assert set(found) == {(-1,), (1,)}


def test_exists_adversary_rejects_branch_inconsistent_targets():
    # r1 reading 0 on one branch and -1 on the other needs the read to
    # land both before the first write and after the second, which no
    # single strong decision tree provides.
    alg = mrsw_register_example().atomic
    found = exists_adversary(
        alg, (-1, 1), _read_targets({(-1,): -1, (1,): 0}), klass="strong"
    )
    assert found is None


def test_replay_and_tree_round_trip():
    alg = mrsw_register_example().atomic
    targets = {(-1,): -1, (1,): 1}
    found = exists_adversary(alg, (-1, 1), _read_targets(targets), klass="strong")
    runs = {}
    for coins, grants in found.items():
        status, sim = replay_grants(alg, grants, coins, "strong")
        assert status == "ok"
        assert sim.record().returns[1] == targets[coins]
        runs[coins] = interpret(sim.record().history)
    tree = HistoryTree.from_runs(runs, omega=(-1, 1))
    assert len(tree.leaves()) == 2


def test_search_caps_are_enforced():
    ex = snapshot_example()
    with pytest.raises(EngineError):
        optimal_expectation(ex.atomic, ex.omega, ex.payoff, node_cap=5)
    with pytest.raises(EngineError):
        optimal_expectation(ex.atomic, ex.omega, ex.payoff, grant_cap=2)

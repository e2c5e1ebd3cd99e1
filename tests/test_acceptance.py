"""Acceptance gate: one test per claim the package stands on.

Every criterion pins exact values or statistical margins plus a wall
clock ceiling, so `pytest -v tests/test_acceptance.py` reads as a
checklist.  Expected numbers are frozen from independent derivations of
the example games; see the test bodies for the margins.
"""

import importlib.util
import pathlib
import time
from fractions import Fraction

from stronglin.checkers import (
    HistoryTree,
    check_locality,
    check_strong_lin,
    default_specs,
    normalize_witness,
    witness_violations,
)
from stronglin.experiments import (
    RACE_EARLY_FLIP,
    RACE_LATE_FLIP,
    atomic_value,
    coschedulable,
    counter_race_tree,
    hw_atomic_dequeue_tree,
    hw_queue_example,
    implemented_value,
    mrsw_register_example,
    mutex_counter_runs,
    mutex_counter_tree,
    queue_counter_tree,
    snapshot_example,
    srsw_register_example,
)
from stronglin.loadbalance import (
    adversary_ap,
    estimate_phi,
    k_max_for,
    loadbalance_algorithm,
    scripted_weak_families,
)


def test_criterion_1_snapshot_expectations_exact():
    t0 = time.monotonic()
    ex = snapshot_example()
    assert atomic_value(ex, klass="strong") == Fraction(-1)
    assert atomic_value(ex, klass="weak") == Fraction(0)
    assert implemented_value(ex) == Fraction(-2)
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_srsw_register_exact():
    t0 = time.monotonic()
    ex = srsw_register_example()
    assert atomic_value(ex, klass="strong") == Fraction(1)
    assert implemented_value(ex) == Fraction(1, 2)
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_mrsw_register_exact():
    t0 = time.monotonic()
    ex = mrsw_register_example()
    assert implemented_value(ex) == Fraction(-1, 2)
    assert atomic_value(ex, klass="strong") == Fraction(0)
    assert time.monotonic() - t0 < 1.0


def test_criterion_4_queue_probabilities_exact():
    t0 = time.monotonic()
    ex = hw_queue_example()
    assert implemented_value(ex) == Fraction(1)
    assert atomic_value(ex, klass="strong") == Fraction(1, 2)
    assert time.monotonic() - t0 < 30.0


def test_criterion_5_atomic_counters_respect_the_upper_bound():
    t0 = time.monotonic()
    trials = 2000
    for n in (16, 64):
        k_max = k_max_for(n, 0.5)
        bound = (k_max - 1) / (n ** 0.5)
        alg = loadbalance_algorithm(n, "atomic")
        families = {"two-phase": lambda p: adversary_ap(p, n)}
        families.update(scripted_weak_families(n, k_max))
        assert len(families) == 4
        for name, fam in sorted(families.items()):
            est = estimate_phi(alg, fam, k_max, trials, seed=0)
            assert not est.flags, (n, name, est.flags)
            assert est.mean <= bound + 3 * est.ci95, (n, name, est.mean, bound)
    assert time.monotonic() - t0 < 60.0


def test_criterion_6_strong_counters_break_the_bound_and_scale():
    t0 = time.monotonic()
    for kind in ("llsc", "writefirst"):
        means = []
        for n, trials in ((16, 400), (64, 400), (256, 200)):
            k_max = k_max_for(n, 0.5)
            alg = loadbalance_algorithm(n, kind)
            est = estimate_phi(
                alg, lambda p: adversary_ap(p, n), k_max, trials, seed=1
            )
            assert not est.flags, (kind, n, est.flags)
            means.append(est.mean)
            if n == 64:
                assert est.mean - est.ci95 > 1.375, (kind, est.mean, est.ci95)
        assert means[0] < means[1] < means[2], (kind, means)
    assert time.monotonic() - t0 < 600.0


def test_criterion_7_checker_verdicts_and_schedulability():
    t0 = time.monotonic()

    mutex = mutex_counter_tree()
    specs = default_specs(mutex.objects, mutex.processes)
    witness = check_strong_lin(mutex, specs)
    assert witness is not None
    assert witness_violations(mutex, witness, specs) == []

    hw = hw_atomic_dequeue_tree()
    assert check_strong_lin(hw, default_specs(hw.objects, hw.processes)) is None

    race = counter_race_tree()
    race_specs = default_specs(race.objects, race.processes)
    race_witness = check_strong_lin(race, race_specs)
    assert race_witness is not None
    assert witness_violations(race, race_witness, race_specs) == []
    # The late-flip leaf images cannot come from one strong adversary;
    # normalization pulls each flip forward and the resulting early-flip
    # images can.  (Witnesses as a class cannot all be unschedulable:
    # the normalized one is a witness too.)
    assert not coschedulable(RACE_LATE_FLIP)
    assert coschedulable(RACE_EARLY_FLIP)
    norm = normalize_witness(race, race_witness, race_specs)
    leaf_images = {}
    for leaf in race.leaves():
        sig = tuple((e.process, e.op, e.ret) for e in norm[leaf])
        coin = [r for p, o, r in sig if o == "flip"][0]
        leaf_images[coin] = sig
    assert leaf_images == dict(RACE_EARLY_FLIP)

    # Locality: the two counters' witnesses compose into one for both;
    # a queue projection without a witness leaves the whole tree without.
    for tree, status in (
        (HistoryTree.from_runs(mutex_counter_runs(), omega=(0, 1)), "witness"),
        (queue_counter_tree(), "not-applicable"),
    ):
        tree_specs = default_specs(tree.objects, tree.processes)
        assert check_locality(tree, tree_specs).status == status
        assert (check_strong_lin(tree, tree_specs) is not None) == (status == "witness")

    assert time.monotonic() - t0 < 60.0


def _load_suite(name):
    here = pathlib.Path(__file__).parent
    spec = importlib.util.spec_from_file_location(f"_accept_{name}", here / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _examples_budget(fn):
    return fn._hypothesis_internal_use_settings.max_examples


def test_criterion_8_property_suites_meet_their_budgets():
    engine = _load_suite("test_engine")
    checkers = _load_suite("test_checkers")
    histories = _load_suite("test_histories")

    assert _examples_budget(engine.test_determinism_and_weak_adjacency) >= 500
    assert callable(engine.test_strong_class_prefix_equality_exhaustive)
    assert _examples_budget(checkers.test_linearize_one_matches_brute_force) >= 500
    assert (
        _examples_budget(checkers.test_per_object_search_matches_the_whole_history_search)
        >= 300
    )
    assert (
        _examples_budget(checkers.test_normalization_preserves_witness_properties)
        >= 500
    )
    assert _examples_budget(checkers.test_locality_on_sampled_composed_runs) >= 100
    assert (
        _examples_budget(checkers.test_witness_checks_match_their_per_node_definitions)
        >= 300
    )
    assert (
        _examples_budget(checkers.test_linearize_one_prunes_identical_pending_operations_soundly)
        >= 300
    )
    assert (
        _examples_budget(
            histories.test_decoder_matches_the_plain_decoder_on_edited_canonical_text
        )
        >= 300
    )
    # Two-phase runs are certified against the phase-1 postcondition and
    # the contention cap inside estimate_phi; one live run proves the
    # certification path is wired in.
    alg = loadbalance_algorithm(16, "llsc")
    est = estimate_phi(alg, lambda p: adversary_ap(p, 16), 6, 5, seed=0)
    assert est.trials == 5

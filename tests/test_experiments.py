"""Worked-example schedules, report plumbing, and the checker suite."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from stronglin.engine import (
    AdversaryPolicy,
    AlgorithmSpec,
    Binding,
    EngineError,
    PerProcessCoins,
    VectorCoins,
    run,
    strategy_policy,
)
from stronglin.experiments import (
    CSV_COLUMNS,
    EXAMPLES,
    EXPECTED,
    EXPERIMENT_NAMES,
    Example,
    ExperimentConfig,
    ExperimentError,
    RACE_EARLY_FLIP,
    RACE_LATE_FLIP,
    alternating_policy,
    coschedulable,
    drain_policy,
    hw_queue_example,
    implemented_value,
    mutex_counter_tree,
    run_named_experiment,
    snapshot_example,
)
from stronglin.checkers import check_strong_lin, default_specs
from stronglin.loadbalance import (
    COUNTER_KINDS,
    adversary_ap,
    k_max_for,
    loadbalance_algorithm,
    round_robin_policy,
    scripted_weak_families,
    stagger_policy,
)
from stronglin.objects import register_spec
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


def _flip_write_example(omega, flips=1):
    # One process flips ``flips`` times, writes its last outcome and
    # returns it; the payoff is that return.
    def prog(p):
        def gen():
            for _ in range(flips):
                c = yield ("flip",)
            yield ("invoke", "R", "write", (c,))
            return c

        return gen()

    alg = AlgorithmSpec((0,), (Binding("R", spec=register_spec(0)),), prog, omega=omega)
    adv = AdversaryPolicy("oblivious", schedule=(0,) * (flips + 2))
    return Example("flip-write", omega, alg, alg, adv, lambda returns: returns[0], "max")


def test_implemented_value_averages_over_omega():
    assert implemented_value(_flip_write_example((0, 1))) == Fraction(1, 2)
    assert implemented_value(_flip_write_example((1, 2, 3))) == Fraction(2)


def test_implemented_value_is_none_when_a_run_exhausts_its_budget():
    assert implemented_value(_flip_write_example((0, 1)), budget=1) is None


def test_implemented_value_rejects_a_second_flip():
    with pytest.raises(EngineError, match="example flip-write: a run flips more than once"):
        implemented_value(_flip_write_example((0, 1), flips=2))


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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_distribution_is_unreachable_atomically(name, assert_replays):
    """No strong adversary over the atomic variant reproduces the
    returns of the pinned schedule on every coin at once.

    Each example's flipper returns its coin, so equal returns per coin
    are an equal outcome distribution.  Each coin alone is reachable,
    and so are the atomic drain's returns (the positive control).
    """
    ex = EXAMPLES[name]()

    def returns_of(alg, policy):
        return {(c,): run(alg, policy, VectorCoins((c,))).returns for c in ex.omega}

    def matches(pinned, only=None):
        def leaf_ok(rec, coins):
            if only is not None and coins != only:
                return True
            return dict(rec.returns) == dict(pinned[coins])

        return leaf_ok

    pinned = returns_of(ex.implemented, ex.schedule)
    assert exists_adversary(ex.atomic, ex.omega, matches(pinned)) is None
    drained = returns_of(ex.atomic, drain_policy(ex.atomic.processes))
    for leaf_ok in [matches(pinned, coins) for coins in pinned] + [matches(drained)]:
        found = exists_adversary(ex.atomic, ex.omega, leaf_ok)
        assert_replays(ex.atomic, found, leaf_ok)


@pytest.mark.parametrize(
    "strategy",
    [{(1,): (0, 1), (-1,): (0, 2)}, {(1,): (0,), (-1,): (0, 1)}],
    ids=["next-grant", "stop"],
)
def test_strategy_that_branches_before_the_flip_raises(strategy):
    # Grant 1 precedes every flip of the snapshot run, so the two
    # entries still agree with the revealed coins, yet part there.
    ex = snapshot_example()
    eager = strategy_policy("weak", strategy, "eager")
    with pytest.raises(
        EngineError,
        match=r"^strategy 'eager' branches on a coin not yet revealed after revealed coins \(\)$",
    ):
        run(ex.implemented, eager, VectorCoins((1,)))


def test_strategy_without_an_entry_for_the_revealed_coins_raises():
    # The mrsw relay strategy with only its entry for coin 1, run on -1.
    ex = EXAMPLES["mrsw-register"]()
    common = (1,) * 1 + (0,) * 2 + (0,) * 1 + (0,) * 2
    relay = strategy_policy("weak", {(1,): common + (1,) * 4 + (2,) * 5}, "relay-steal")
    with pytest.raises(
        EngineError, match=r"^strategy 'relay-steal' has no entry for revealed coins \(-1,\)$"
    ):
        run(ex.implemented, relay, VectorCoins((-1,)))
    # Coin 1 has its entry and plays it to the end.
    assert run(ex.implemented, relay, VectorCoins((1,))).schedule == common + (1,) * 4 + (2,) * 5


def test_a_strategy_for_no_coins_replays_a_fixed_list_whatever_the_coins():
    ex = snapshot_example()
    fixed = strategy_policy("strong", {(): (1, 1)})
    for c in ex.omega:
        assert run(ex.atomic, fixed, VectorCoins((c,))).schedule == (1, 1)


# sha256 of the grant sequences of each case in _pinned_schedules.
SCHEDULE_DIGESTS = {
    "snapshot atomic drain":
        "78caacb01812de524232ad82de468af5e48f97cf6dbcda9e25391d13aa4cacb7",
    "snapshot atomic alternate":
        "e0727b1eabc1ecf7c5d176e3d313fd8ff5a5efc12d5290c00ca6f341ec6d967d",
    "snapshot implemented drain":
        "d3eedd9ecb23a383c730e95952d98bec18aec7b4c3de4a6e4b09db375b40758c",
    "snapshot implemented alternate":
        "3436ce0bdd2541ed70ec1ddd426c90bd3ad504f086d5c6571d0cede07efdebb4",
    "snapshot implemented pinned":
        "e7d3c9c13ceb7867761128bde5d9d1763288ad398c8b6aa27557b7236f2f6354",
    "srsw-register atomic drain":
        "d24470d3724120839b0427f0c9b753bfd636ab9e3c40cc5826e82c71f1b824ab",
    "srsw-register atomic alternate":
        "74348d26d9b2b95338eee5cfa0ce6e6346dfdc70e4609526aeccd0818c168174",
    "srsw-register implemented drain":
        "485481ec26b2e386eda938d01d1bebf0a062687080d3af93f22b79b3e6200e02",
    "srsw-register implemented alternate":
        "dc60704faae27f7afbea85403fb00fbf1c0fe6d2c9fde808a4fa671c7fd2b1c0",
    "srsw-register implemented pinned":
        "d418c0ba453822ad92961e49b53e59771f8f4395dbdeb883c135ed70b3ef21f0",
    "mrsw-register atomic drain":
        "7882fb3072f2fb672dc312e775ab8014f3b5849480bc081fe576a992587b1a50",
    "mrsw-register atomic alternate":
        "0ef385ff45ae085c8f442064f356bc7cdc9aa5e009d14190838a6e984a6c27f5",
    "mrsw-register implemented drain":
        "ee4a2a890275fcff21bf049d72b588734ee1062fd318c013afa78d081e5b7dc8",
    "mrsw-register implemented alternate":
        "5b1fbe352acd8c1ce624d527ae83c6df8caaea88ed22699ba5ccea2cbbf36f5a",
    "mrsw-register implemented pinned":
        "2bca79b72f8380490b59366b44df46fd4aa6e58a276fe5fcc8a90d7671f38347",
    "hw-queue atomic drain":
        "d33b4d165dee8a33cd87ffe4389d1f8c7dd1aee5198b39dda346268dd06baa40",
    "hw-queue atomic alternate":
        "d33b4d165dee8a33cd87ffe4389d1f8c7dd1aee5198b39dda346268dd06baa40",
    "hw-queue implemented drain":
        "780bb0307d1d6b958d7fba5646c71b80cada0518ea3fc1fa8b3764a79c914459",
    "hw-queue implemented alternate":
        "9aea75f830463b1fda2b4018cc35e03e3d81dd4a698adcd1cb191aef54c24036",
    "hw-queue implemented pinned":
        "01b298123b675dbee11ab12c2f26c988a43e0939ccdf71261a875be1a3b1d6d4",
    "two-phase atomic 16":
        "4423fba9336f5107232777a21744858377af79de1b5f308624460fb7999a71a0",
    "two-phase atomic 64":
        "48f91e7f8ef50c989762aeaa7930ca294da21d62dc4a9891f58507d1c1a51a08",
    "round-robin atomic 16":
        "4bb7f0385244bd20253d6fdb55d4e6bc0749dfde1d89925658c5e2b19e704cc3",
    "solo-sequential atomic 16":
        "e4396640e494fc69da065df4bae88359f1c6e4b2bcd554a1b923c5c37e6b5e07",
    "stagger atomic 16":
        "30e36fa3208d5576ee4736a02bd0e9ebd3a560bce9d70a01dea114fc02d9dc12",
    "two-phase llsc 16":
        "74c3dfd1456bcf7c24ec3d5f453fc5320365f5a0ae5c2bce151fbd74dfecd217",
    "two-phase llsc 64":
        "751643a6c0b98301042d40d6d29811ac0c0a8b8cb0a54abb64e0e0921a7d9bac",
    "round-robin llsc 16":
        "96a4eb653f1c9f26970e73ac09badca5818d72fbd5098d540087aa67dc3ff06f",
    "solo-sequential llsc 16":
        "d4cf73c5074d1520046978ce9037534852643134eaa20934b40f46c3299fb68b",
    "stagger llsc 16":
        "26605ddf7e9388ce32f2d60d51e058eb372b3954828fec270184a4daa73faca5",
    "two-phase writefirst 16":
        "c03d1d527b150e8068eb279062458cb8f3acb4e227d37ce244939cc39937dd3d",
    "two-phase writefirst 64":
        "98d8c293f9f44850f9f4c16df7bfad1fcc42cc9d012a60f08dbcb9f2bd2c41a8",
    "round-robin writefirst 16":
        "562105ef6c50ee071bc8d2a2463814c89b4d474d38a24e05ffd927f72f7f88e4",
    "solo-sequential writefirst 16":
        "7e2f914d3e380aa888104943801a2bdfa4e8bacb41b933ddad166f5fcf624bb0",
    "stagger writefirst 16":
        "f80b76a58c23e7bc1c4de27912b03b14f0c0681a5a460bfbbfd96bfbe16d9c73",
}


def _pinned_schedules(case: str) -> list[tuple[int, ...]]:
    """Grant sequences of one case, e.g. ``hw-queue implemented pinned``
    (one run per coin outcome) or ``two-phase llsc 64`` (seeds 0 to 2,
    with the coins and target estimate_phi draws for trial 0)."""
    family, variant, policy = case.split()
    if family in EXAMPLES:
        ex = EXAMPLES[family]()
        alg = ex.implemented if variant == "implemented" else ex.atomic
        adv = {
            "pinned": ex.schedule,
            "drain": drain_policy(alg.processes),
            "alternate": alternating_policy(alg.processes),
        }[policy]
        return [run(alg, adv, VectorCoins((w,))).schedule for w in ex.omega]
    n = int(policy)
    alg = loadbalance_algorithm(n, variant)
    families = {
        "two-phase": lambda p: adversary_ap(p, n),
        **scripted_weak_families(n, k_max_for(n)),
    }
    schedules = []
    for seed in range(3):
        rng = random.Random(f"{seed}:0")
        coins = PerProcessCoins({q: (rng.randrange(len(alg.omega)),) for q in alg.processes})
        adv = families[family](rng.randrange(n))
        schedules.append(run(alg, adv, coins).schedule)
    return schedules


SCHEDULE_CASES = [
    f"{name} {variant} {policy}"
    for name in EXAMPLES
    for variant, policy in (
        ("atomic", "drain"), ("atomic", "alternate"), ("implemented", "drain"),
        ("implemented", "alternate"), ("implemented", "pinned"),
    )
] + [
    f"{family} {kind} {n}"
    for kind in COUNTER_KINDS
    for family, n in (
        ("two-phase", 16), ("two-phase", 64), ("round-robin", 16),
        ("solo-sequential", 16), ("stagger", 16),
    )
]


@pytest.mark.parametrize("case", SCHEDULE_CASES)
def test_policy_schedules_are_pinned(case):
    got = hashlib.sha256(repr(_pinned_schedules(case)).encode()).hexdigest()
    assert got == SCHEDULE_DIGESTS[case]


def _src_policies():
    """Every adaptive policy factory in src/, each with one policy built
    by it, an algorithm it can run and a coin source maker."""
    ex = snapshot_example()
    lb = loadbalance_algorithm(16, "llsc")
    snap_coins = lambda: VectorCoins((1,))
    lb_coins = lambda: PerProcessCoins({q: (q % 4,) for q in lb.processes})
    cases = [
        (strategy_policy, ex.schedule, ex.implemented, snap_coins),
        (drain_policy, drain_policy((1, 2, 0)), ex.implemented, snap_coins),
        (alternating_policy, alternating_policy((0, 1, 2)), ex.implemented, snap_coins),
        (adversary_ap, adversary_ap(3, 16), lb, lb_coins),
        (round_robin_policy, round_robin_policy(16), lb, lb_coins),
        (stagger_policy, stagger_policy(16, 4), lb, lb_coins),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("factory, policy, alg, coins", _src_policies())
def test_src_policies_are_fresh_plans_named_after_their_module(factory, policy, alg, coins):
    # bench/tracing.py names each decide span after make_decide's module.
    assert policy.make_decide.__module__ == factory.__module__
    # Each run starts a fresh plan, so one policy object replays exactly.
    first = run(alg, policy, coins())
    assert first.schedule
    assert run(alg, policy, coins()) == first


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

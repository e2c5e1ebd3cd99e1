"""Exhaustive game search pinned against the worked examples.

The expected values here were derived by hand from the example programs
before the search existed, so agreement is evidence for both sides: the
search explores the full decision tree, and the examples' prose
strategies really are optimal at these sizes.
"""

import itertools
from fractions import Fraction

import pytest

from stronglin import engine, experiments, search
from stronglin.checkers import HistoryTree
from stronglin.engine import EngineError, Simulation
from stronglin.experiments import (
    RACE_EARLY_FLIP,
    RACE_LATE_FLIP,
    atomic_value,
    completion_signature,
    coschedulable,
    hw_queue_example,
    implemented_value,
    mrsw_register_example,
    race_program,
    snapshot_example,
    srsw_register_example,
    _queue_payoff_unordered,
)
from stronglin.histories import BASE, FLIP, INTERPRETED, INV, RSP, Step, interpret
from stronglin.search import (
    exists_adversary,
    optimal_expectation,
    replay_grants,
)


def test_snapshot_atomic_games():
    ex = snapshot_example()
    assert atomic_value(ex, klass="strong") == Fraction(-1)
    assert atomic_value(ex, klass="weak") == Fraction(0)


@pytest.mark.parametrize("search", ["optimal", "existence"])
def test_the_searches_refuse_the_oblivious_class(search):
    ex = snapshot_example()
    with pytest.raises(ValueError, match="not oblivious"):
        if search == "optimal":
            atomic_value(ex, klass="oblivious")
        else:
            exists_adversary(ex.atomic, ex.omega, lambda rec, coins: True, klass="oblivious")


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


def test_exists_adversary_finds_reachable_reader_targets(assert_replays):
    alg = mrsw_register_example().atomic
    leaf_ok = _read_targets({(-1,): -1, (1,): 1})
    found = exists_adversary(alg, (-1, 1), leaf_ok, klass="strong")
    assert found is not None
    assert set(found) == {(-1,), (1,)}
    assert_replays(alg, found, leaf_ok)


def test_exists_adversary_rejects_branch_inconsistent_targets():
    # r1 reading 0 on one branch and -1 on the other needs the read to
    # land both before the first write and after the second, which no
    # single strong decision tree provides.
    alg = mrsw_register_example().atomic
    found = exists_adversary(
        alg, (-1, 1), _read_targets({(-1,): -1, (1,): 0}), klass="strong"
    )
    assert found is None


def test_replay_and_tree_round_trip(assert_replays):
    alg = mrsw_register_example().atomic
    targets = {(-1,): -1, (1,): 1}
    found = exists_adversary(alg, (-1, 1), _read_targets(targets), klass="strong")
    assert_replays(alg, found, _read_targets(targets))
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
    with pytest.raises(
        EngineError,
        match=r"^optimal search exceeded 5 nodes \(\d+ forks, \d+ skipped, deepest run \d+ grants\)$",
    ):
        optimal_expectation(ex.atomic, ex.omega, ex.payoff, node_cap=5)
    with pytest.raises(
        EngineError,
        match=r"^optimal search exceeded 2 grants per run \(processes \[1, 2\] still live\)$",
    ):
        optimal_expectation(ex.atomic, ex.omega, ex.payoff, grant_cap=2)
    with pytest.raises(
        EngineError,
        match=r"^existence search exceeded 7 nodes \(\d+ forks, \d+ skipped, deepest run \d+ grants\)$",
    ):
        exists_adversary(ex.atomic, ex.omega, lambda rec, coins: False, node_cap=7)


def test_existence_grant_cap_raises_instead_of_answering_no(assert_replays):
    # A run cut at the cap says nothing about the target, so the search
    # must not report "no adversary" for it.
    ex = snapshot_example()
    with pytest.raises(
        EngineError,
        match=r"^existence search exceeded 2 grants per run \(processes \[1, 2\] still live\)$",
    ):
        exists_adversary(ex.atomic, ex.omega, lambda rec, coins: True, grant_cap=2)
    # With room for a whole run, the same search answers.
    found = exists_adversary(ex.atomic, ex.omega, lambda rec, coins: True, grant_cap=40)
    assert_replays(ex.atomic, found, lambda rec, coins: set(rec.returns) == {0, 1, 2})


# ---------------------------------------------------------------------------
# Reference deciders: every node replayed from the root
# ---------------------------------------------------------------------------
# `optimal_expectation` and `exists_adversary` carry one live Simulation
# down each path and replay only to fork a sibling successor, and
# `optimal_expectation` solves each game state once and builds no
# successor whose derived state it has solved.  These are the plain
# replay-from-root searches they replaced, kept as an independent oracle:
# they find each flip by running out of coins, keep no table, and explore
# in the same order, so values and returned maps must be identical.


def _reference_optimal(alg, omega, payoff, klass="strong", maximize=False):
    def value(grants, coins):
        res = replay_grants(alg, grants, coins, klass)
        if res[0] == "need_coin":
            total = sum(value(grants, coins + (w,)) for w in omega)
            return Fraction(total, len(omega))
        sim = res[1]
        if sim.all_finished():
            return Fraction(payoff(sim.record().returns))
        best = None
        for q in sim.live_pids():
            v = value(grants + (q,), coins)
            if best is None or (v > best if maximize else v < best):
                best = v
        return best

    return value((), ())


def _reference_exists(alg, omega, leaf_ok, klass="strong", grant_cap=200):
    def search(grants, coins):
        res = replay_grants(alg, grants, coins, klass)
        if res[0] == "need_coin":
            branches = {}
            for w in omega:
                sub = search(grants, coins + (w,))
                if sub is None:
                    return None
                branches.update(sub)
            return branches
        sim = res[1]
        if sim.all_finished():
            return {coins: grants} if leaf_ok(sim.record(), coins) else None
        if len(grants) >= grant_cap:
            raise EngineError("reference search hit the grant cap")
        for q in sim.live_pids():
            sub = search(grants + (q,), coins)
            if sub is not None:
                return sub
        return None

    return search((), ())


def _games():
    # (id, algorithm, omega, payoff, class, goal)
    for make in experiments.EXAMPLES.values():
        ex = make()
        for klass in ("weak", "strong"):
            yield (f"{ex.name}-atomic-{klass}", ex.atomic, ex.omega, ex.payoff,
                   klass, ex.goal)
    ex = hw_queue_example()
    yield ("hw-queue-atomic-unordered", ex.atomic, ex.omega,
           _queue_payoff_unordered, "strong", "max")
    ex = srsw_register_example()
    for klass in ("weak", "strong"):
        yield (f"srsw-register-implemented-{klass}", ex.implemented, ex.omega,
               ex.payoff, klass, ex.goal)


# Game nodes per search, and a bound on its forks: the successors it
# replays from the root.  Node counts are fixed by the game tree and, for
# the optimal search, by its transposition table: a successor whose game
# state was solved before counts as a node, its subtree does not.  The
# optimal search builds no successor whose derived state is solved, so
# its bounds are its replay counts; the existence search keeps no table.
# Forks may only fall.
SEARCH_NODES_AND_FORK_BOUND = {
    "snapshot-atomic-weak": (95, 32),
    "snapshot-atomic-strong": (143, 31),
    "srsw-register-atomic-weak": (16, 5),
    "srsw-register-atomic-strong": (24, 6),
    "mrsw-register-atomic-weak": (56, 21),
    "mrsw-register-atomic-strong": (86, 24),
    "hw-queue-atomic-weak": (149, 31),
    "hw-queue-atomic-strong": (183, 31),
    "hw-queue-atomic-unordered": (183, 31),
    "srsw-register-implemented-weak": (127, 30),
    "srsw-register-implemented-strong": (127, 27),
    "mrsw-register-implemented-weak": (3650, 690),
    "mrsw-register-implemented-strong": (3650, 680),
    "coschedulable-early": (49, 24),
    "coschedulable-late": (47, 23),
}


def _record_walks(monkeypatch):
    """Rebind the search's walk and replay to recording wrappers; return
    the list of walks made and the list of replay statuses."""
    walks, statuses = [], []

    class Recording(search._Walk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            walks.append(self)

    def recording_replay(*args, **kwargs):
        res = replay_grants(*args, **kwargs)
        statuses.append(res[0])
        return res

    monkeypatch.setattr(search, "_Walk", Recording)
    monkeypatch.setattr(search, "replay_grants", recording_replay)
    return walks, statuses


def _assert_walk_pinned(name, walks, statuses):
    nodes, fork_bound = SEARCH_NODES_AND_FORK_BOUND[name]
    [walk] = walks
    assert walk.nodes == nodes
    assert 0 < walk.forks <= fork_bound
    # Root plus forks, and no fork ever runs out of coins.
    assert len(statuses) == walk.forks + 1
    assert set(statuses) == {"ok"}


@pytest.mark.parametrize("game", list(_games()), ids=lambda g: g[0])
def test_game_values_match_replay_from_root(monkeypatch, game):
    name, alg, omega, payoff, klass, goal = game
    kw = dict(klass=klass, maximize=(goal == "max"))
    walks, statuses = _record_walks(monkeypatch)
    value = optimal_expectation(alg, omega, payoff, **kw)
    _assert_walk_pinned(name, walks, statuses)
    assert value == _reference_optimal(alg, omega, payoff, **kw)


@pytest.mark.parametrize(
    "want",
    [{(-1,): -1, (1,): 1}, {(-1,): -1, (1,): 0}],
    ids=["reachable", "inconsistent"],
)
def test_mrsw_decision_trees_match_replay_from_root(monkeypatch, assert_replays, want):
    alg = mrsw_register_example().atomic
    args = (alg, (-1, 1), _read_targets(want))
    _walks, statuses = _record_walks(monkeypatch)
    found = exists_adversary(*args, klass="strong")
    assert set(statuses) == {"ok"}
    expected = _reference_exists(*args, klass="strong")
    assert (found is None) == (expected is None)
    if found is not None:
        assert list(found.items()) == list(expected.items())
        assert_replays(alg, found, args[2])


# The early-flip plan: both slow increments wait for the racer's flip,
# and its outcome picks which of them goes first.
EARLY_FLIP_PLAN = {(0,): (2, 2, 0, 1), (1,): (2, 2, 1, 0)}


def _race_targets_ok(targets):
    # The leaf predicate of a search for one strong adversary that
    # realizes each target image on its branch of race_program.
    def leaf_ok(rec, coins):
        return completion_signature(interpret(rec.history)) == targets[coins[0]]

    return leaf_ok


@pytest.mark.parametrize(
    "name, targets, plan",
    [("early", RACE_EARLY_FLIP, EARLY_FLIP_PLAN), ("late", RACE_LATE_FLIP, None)],
    ids=["early", "late"],
)
def test_coschedulability_search_matches_replay_from_root(
    monkeypatch, assert_replays, name, targets, plan
):
    alg = race_program()
    args = (alg, alg.omega, _race_targets_ok(targets))
    walks, statuses = _record_walks(monkeypatch)
    found = exists_adversary(*args, klass="strong")
    _assert_walk_pinned(f"coschedulable-{name}", walks, statuses)
    assert found == plan
    assert coschedulable(targets) == (plan is not None)
    expected = _reference_exists(*args, klass="strong")
    assert (found is None) == (expected is None)
    if found is not None:
        assert list(found.items()) == list(expected.items())
        assert_replays(alg, found, args[2])


def _played(targets):
    # Each grant of race_program is one whole atomic operation, so a
    # target pair fixes one strong strategy: per coin, the processes of
    # its entries in order.  The pair is realizable exactly when playing
    # that strategy finishes every process and meets both targets.
    alg = race_program()
    strategy = {(c,): tuple(p for p, _op, _ret in targets[c]) for c in alg.omega}
    policy = engine.strategy_policy("strong", strategy)
    try:
        runs = {c: engine.run(alg, policy, engine.VectorCoins((c,))) for c in alg.omega}
    except engine.EngineError:
        return False
    return all(
        set(runs[c].returns) == set(alg.processes)
        and completion_signature(interpret(runs[c].history)) == targets[c]
        for c in alg.omega
    )


def test_coschedulable_equals_the_strategy_its_targets_fix():
    # On every pair of the race program's completion signatures, one
    # per coin outcome, the search decides as the one played strategy
    # does; so do targets that leave the last operation unfinished,
    # which a play that stopped when its grants ran out would accept.
    alg = race_program()
    signatures = {c: set() for c in alg.omega}
    for grants in set(itertools.permutations((0, 1, 2, 2))):
        for c in alg.omega:
            policy = engine.strategy_policy("strong", {(): grants})
            rec = engine.run(alg, policy, engine.VectorCoins((c,)))
            signatures[c].add(completion_signature(interpret(rec.history)))
    assert [len(signatures[c]) for c in alg.omega] == [12, 12]
    realizable = 0
    for pair in itertools.product(*(sorted(signatures[c]) for c in alg.omega)):
        targets = dict(zip(alg.omega, pair))
        found = coschedulable(targets)
        assert found == _played(targets)
        realizable += found
    assert 0 < realizable < 144
    early_cut = {c: sig[:-1] for c, sig in RACE_EARLY_FLIP.items()}
    assert not coschedulable(early_cut) and not _played(early_cut)


def test_implemented_srsw_weak_game_forks_instead_of_replaying_every_node(monkeypatch):
    # Replaying every node of the untabled tree from the root builds
    # 2,451 simulations here; the tabled search meets 127 nodes and
    # builds the root plus 30 forks: it derives the state of most
    # successors before building them, and builds none that is solved.
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return engine.Simulation(*args, **kwargs)

    monkeypatch.setattr(search, "Simulation", counting)
    ex = srsw_register_example()
    value = optimal_expectation(ex.implemented, ex.omega, ex.payoff, klass="weak")
    assert value == Fraction(1, 2)
    assert 0 < len(built) <= 31


def _response_counts(state_key):
    # Mutant: each process's response count in place of its responses.
    return lambda responses, base: state_key(tuple(map(len, responses)), base)


def _no_base_states(state_key):
    # Mutant: the processes' responses without the base-object states.
    return lambda responses, base: state_key(responses, ())


def _no_newest_response(state_key):
    # Mutant: each process's responses but its newest one.
    return lambda responses, base: state_key(tuple(r[:-1] for r in responses), base)


@pytest.mark.parametrize(
    "game, mutant, wrong",
    [
        ("srsw-register-implemented-weak", _response_counts, Fraction(0)),
        ("hw-queue-atomic-strong", _no_base_states, Fraction(1)),
        ("snapshot-atomic-strong", _no_newest_response, Fraction(0)),
    ],
    ids=["response-counts", "no-base-states", "no-newest-response"],
)
def test_a_weaker_state_key_changes_the_game_value(monkeypatch, game, mutant, wrong):
    # Each component of the key is needed: dropping one merges game
    # states whose sub-games differ, and the value leaves the reference.
    # The root key and every successor's key, derived or read off a built
    # simulation, go through the one wrapped function.
    [(_name, alg, omega, payoff, klass, goal)] = [g for g in _games() if g[0] == game]
    kw = dict(klass=klass, maximize=(goal == "max"))
    reference = _reference_optimal(alg, omega, payoff, **kw)
    assert optimal_expectation(alg, omega, payoff, **kw) == reference != wrong
    monkeypatch.setattr(search, "_state_key", mutant(search._state_key))
    assert optimal_expectation(alg, omega, payoff, **kw) == wrong


def _scanned_state(sim):
    # A simulation's state read off its steps: each process's base-level
    # responses in order, then the base-object states.
    responses = {p: () for p in sim.alg.processes}
    for s in sim.steps:
        if s.kind == RSP and s.level == BASE:
            responses[s.process] += (s.payload,)
    return tuple(responses.values()), tuple(sim.base_state.values())


@pytest.mark.parametrize("game", list(_games()), ids=lambda g: g[0])
def test_derived_state_is_the_state_of_the_built_successor(game):
    # Every successor of every distinct state, each built by a replay from
    # the root.  A derived state must be the built successor's state, read
    # off its steps; derivation gives None exactly when the grant is a weak
    # flip or starts an implemented operation, and then the state grown
    # from the built successor's new steps must be it.
    _name, alg, omega, _payoff, klass, _goal = game
    seen, stack, derived = set(), [((), ())], 0
    while stack:
        grants, coins = stack.pop()
        sim = replay_grants(alg, grants, coins, klass)[1]
        state = _scanned_state(sim)
        if state in seen:
            continue
        seen.add(state)
        for q in sim.live_pids():
            flips = sim.flips_next(q)
            for w in omega if flips else (None,):
                vector = coins + (w,) if flips else coins
                built = replay_grants(alg, grants + (q,), vector, klass)[1]
                got = search._derive(sim, state, q, w)
                new = built.steps[len(sim.steps):]
                starts_impl = any(s.kind == INV and s.level == INTERPRETED for s in new)
                assert (got is None) == ((flips and klass == "weak") or starts_impl)
                if got is None:
                    got = search._grown(state, q, built, len(sim.steps))
                else:
                    derived += 1
                assert search._state_key(*got) == search._state_key(*_scanned_state(built))
                stack.append((grants + (q,), vector))
    assert derived > 0


# Optimum claims on the implemented objects that the transposition table
# makes cheap: the srsw games meet 127 nodes, the mrsw games 3,650
# (under 0.1 s each), with the node counts and fork bounds pinned above.
# The pinned schedules are a second route to each value.  The snapshot
# weak game (-4, against the pinned -2) meets 355,205 nodes and takes
# 11 to 18 s, so it stays out of this suite.
@pytest.mark.parametrize("klass", ["weak", "strong"])
@pytest.mark.parametrize(
    "make, optimum",
    [(srsw_register_example, Fraction(1, 2)), (mrsw_register_example, Fraction(-1, 2))],
    ids=["srsw-register", "mrsw-register"],
)
def test_implemented_register_optimum_equals_the_pinned_schedule(
    monkeypatch, make, optimum, klass
):
    ex = make()
    walks, statuses = _record_walks(monkeypatch)
    value = optimal_expectation(ex.implemented, ex.omega, ex.payoff, klass=klass)
    _assert_walk_pinned(f"{ex.name}-implemented-{klass}", walks, statuses)
    assert value == implemented_value(ex) == optimum


@pytest.mark.parametrize(
    "make, nodes",
    [(srsw_register_example, 127), (mrsw_register_example, 3650)],
    ids=["srsw-register", "mrsw-register"],
)
def test_weak_and_strong_implemented_searches_meet_the_same_nodes(monkeypatch, make, nodes):
    # The weak boundary on the implemented objects: bundling a flip with
    # the next invocation does not change which game states the search
    # meets, so a change to the engine's weak rule that moved them would
    # show here before it moved an optimum.
    ex = make()
    walks, _statuses = _record_walks(monkeypatch)
    for klass in ("weak", "strong"):
        optimal_expectation(ex.implemented, ex.omega, ex.payoff, klass=klass)
    assert [walk.nodes for walk in walks] == [nodes, nodes]


def test_replay_grants_return_shapes():
    # bench/tracing.py wraps replay_grants and reads res[0].
    alg = srsw_register_example().atomic
    status, steps = replay_grants(alg, (0, 0), (), "strong")
    assert status == "need_coin"
    assert isinstance(steps, tuple) and all(isinstance(s, Step) for s in steps)
    assert [(s.kind, s.op) for s in steps] == [("inv", "write"), ("rsp", "write")]
    status, sim = replay_grants(alg, (0, 0), (2,), "strong")
    assert status == "ok"
    assert isinstance(sim, Simulation)
    steps = sim.record().history.steps
    assert sim.grants == [0, 0]
    assert [s.payload for s in steps if s.op == FLIP and s.kind == RSP] == [2]

"""Engine semantics: grants, adversary classes, marks, expectations."""

import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stronglin.engine import (
    AdversaryPolicy,
    AlgorithmSpec,
    Binding,
    EngineError,
    MarkState,
    NeedCoinError,
    PerProcessCoins,
    Simulation,
    VectorCoins,
    plan_policy,
    run,
    strategy_policy,
)
from stronglin.experiments import EXAMPLES
from stronglin.histories import BASE, FLIP, INTERPRETED, INV, RSP, Step, interpret
from stronglin.loadbalance import COUNTER_KINDS, loadbalance_algorithm
from stronglin.objects import (
    ImplProgram,
    cas_from_registers,
    coin_spec,
    counter_spec,
    llsc_spec,
    llsc_strong_counter,
    mutex_wrapped,
    register_spec,
    writefirst_strong_counter,
)
from test_objects import _catalog_algorithm, _catalog_instances


def one_read_alg(initial=1):
    def prog(p):
        def gen():
            v = yield ("invoke", "R", "read", ())
            return v

        return gen()

    return AlgorithmSpec((0,), (Binding("R", spec=register_spec(initial)),), prog)


def live(view, processes):
    """The unfinished processes, in order."""
    return [q for q in processes if not view.finished(q)]


def choice_policy(klass, processes, choices):
    """A seeded adversary: each choice picks among the unfinished
    processes by index modulo their number; the run stops when the
    choices run out."""

    def choose(view):
        for i in choices:
            alive = live(view, processes)
            if not alive:
                return
            yield alive[i % len(alive)]

    return plan_policy(klass, choose, "choices")


def flip_write_alg(nproc=2):
    """Each process flips, then writes a value derived from the outcome."""

    def prog(p):
        def gen():
            c = yield ("flip",)
            yield ("invoke", "R", "write", (10 * p + c,))
            return c

        return gen()

    return AlgorithmSpec(
        tuple(range(nproc)),
        (Binding("R", spec=register_spec(0)),),
        prog,
        omega=(0, 1),
    )


def counter_race_alg(impl=True, nproc=2):
    binding = (
        Binding("C", impl=llsc_strong_counter())
        if impl
        else Binding("C", spec=counter_spec(0))
    )

    def prog(p):
        def gen():
            v = yield ("invoke", "C", "fetch_inc", ())
            return v

        return gen()

    return AlgorithmSpec(tuple(range(nproc)), (binding,), prog)


def test_single_atomic_read():
    rec = run(one_read_alg(1), strategy_policy("strong", {(): [0]}), VectorCoins(()))
    assert rec.returns == {0: 1}
    assert [s.kind for s in rec.history.steps] == [INV, RSP]
    assert rec.schedule == (0,)
    assert rec.max_point_contention == 1


def test_scheduling_a_halted_process_errors():
    alg = counter_race_alg(impl=False, nproc=2)
    with pytest.raises(EngineError, match="halted"):
        run(alg, strategy_policy("strong", {(): [0, 0]}), VectorCoins(()))
    with pytest.raises(EngineError, match="unknown"):
        run(alg, strategy_policy("strong", {(): [3]}), VectorCoins(()))


def test_oblivious_schedule_skips_finished_processes():
    alg = counter_race_alg(impl=False, nproc=2)
    adv = AdversaryPolicy("oblivious", schedule=(0, 0, 0, 1))
    rec = run(alg, adv, VectorCoins(()))
    assert rec.schedule == (0, 1)
    assert rec.returns == {0: 0, 1: 1}


def test_oblivious_schedule_rejects_an_unknown_process():
    alg = counter_race_alg(impl=False, nproc=2)
    with pytest.raises(EngineError, match="unknown process 7"):
        run(alg, AdversaryPolicy("oblivious", schedule=(7,)), VectorCoins(()))


def test_an_unknown_adversary_class_is_refused():
    with pytest.raises(ValueError, match="^unknown adversary class 'bogus'$"):
        Simulation(one_read_alg(), VectorCoins(()), klass="bogus")
    with pytest.raises(ValueError, match="^unknown adversary class 'bogus'$"):
        plan_policy("bogus", lambda view: iter(()))


def test_a_returning_plan_ends_the_run_without_a_budget_flag():
    alg = counter_race_alg(impl=False, nproc=2)

    def once(view):
        yield 1

    rec = run(alg, plan_policy("strong", once), VectorCoins(()))
    assert rec.schedule == (1,)
    assert rec.returns == {1: 0}
    assert not rec.flags


def test_budget_flag_on_nonterminating_program():
    def prog(p):
        def gen():
            while True:
                yield ("invoke", "R", "read", ())

        return gen()

    alg = AlgorithmSpec((0,), (Binding("R", spec=register_spec(0)),), prog)

    def make_decide():
        return lambda view: 0

    rec = run(alg, AdversaryPolicy("strong", make_decide=make_decide), VectorCoins(()), budget=37)
    assert "budget-exhausted" in rec.flags
    assert len(rec.schedule) == 37


def test_method_boundaries_ride_with_first_and_last_base_step():
    alg = counter_race_alg(impl=True, nproc=1)
    rec = run(alg, strategy_policy("strong", {(): [0, 0]}), VectorCoins(()))
    kinds = [(s.kind, s.level) for s in rec.history.steps]
    # grant 1: method inv + ll; grant 2: sc + method rsp
    assert kinds == [
        (INV, INTERPRETED),
        (INV, BASE),
        (RSP, BASE),
        (INV, BASE),
        (RSP, BASE),
        (RSP, INTERPRETED),
    ]
    assert rec.returns == {0: 0}


def test_weak_flip_bundles_next_invocation():
    # atomic next op: response included in the bundle
    alg = flip_write_alg(1)
    rec = run(alg, strategy_policy("weak", {(): [0]}), VectorCoins((1,)))
    ops = [(s.kind, s.op) for s in rec.history.steps]
    assert ops == [(INV, FLIP), (RSP, FLIP), (INV, "write"), (RSP, "write")]

    # implemented next op: only the boundary invocation joins the bundle
    def prog(p):
        def gen():
            c = yield ("flip",)
            v = yield ("invoke", "C", "fetch_inc", ())
            return (c, v)

        return gen()

    alg2 = AlgorithmSpec(
        (0,), (Binding("C", impl=llsc_strong_counter()),), prog, omega=(0, 1)
    )
    rec2 = run(alg2, strategy_policy("weak", {(): [0, 0, 0]}), VectorCoins((0,)))
    ops2 = [(s.kind, s.op, s.level) for s in rec2.history.steps]
    assert ops2[:3] == [
        (INV, FLIP, BASE),
        (RSP, FLIP, BASE),
        (INV, "fetch_inc", INTERPRETED),
    ]
    assert ops2[3][1] == "ll"
    assert rec2.returns == {0: (0, 0)}


def test_weak_violation_flip_as_last_action():
    def prog(p):
        def gen():
            c = yield ("flip",)
            return c

        return gen()

    alg = AlgorithmSpec((0,), (Binding("R", spec=register_spec(0)),), prog)
    with pytest.raises(EngineError, match="weak-class violation"):
        run(alg, strategy_policy("weak", {(): [0]}), VectorCoins((1,)))
    # the same program is fine under a strong adversary
    rec = run(alg, strategy_policy("strong", {(): [0]}), VectorCoins((1,)))
    assert rec.returns == {0: 1}


@given(st.lists(st.integers(0, 5), min_size=0, max_size=40), st.integers(0, 3))
@settings(max_examples=500, deadline=None)
def test_determinism_and_weak_adjacency(choices, coin_bits):
    coins = tuple((coin_bits >> i) & 1 for i in range(4))
    alg = counter_flip_alg()

    rec1 = run(alg, choice_policy("weak", alg.processes, choices), VectorCoins(coins))
    rec2 = run(alg, choice_policy("weak", alg.processes, choices), VectorCoins(coins))
    assert rec1 == rec2
    for i, s in enumerate(rec1.history.steps):
        if s.op == FLIP and s.kind == RSP:
            nxt = rec1.history.steps[i + 1]
            assert nxt.kind == INV and nxt.process == s.process


def counter_flip_alg():
    """Two processes flip then hammer an implemented counter."""

    def prog(p):
        def gen():
            c = yield ("flip",)
            v = yield ("invoke", "C", "fetch_inc", ())
            yield ("invoke", "C", "fetch_dec", ())
            return (c, v)

        return gen()

    return AlgorithmSpec(
        (0, 1), (Binding("C", impl=llsc_strong_counter()),), prog, omega=(0, 1)
    )


def adaptive_strong_policy(processes):
    """Reacts to the latest flip outcome; used to stress H[k+1] equality."""

    def react(view):
        while alive := live(view, processes):
            flips = [s.payload for s in view.steps if s.op == FLIP and s.kind == RSP]
            yield alive[-1] if flips and flips[-1] == 1 else alive[0]

    return plan_policy("strong", react, "adaptive")


def test_strong_class_prefix_equality_exhaustive():
    """For coin vectors sharing a k-prefix the histories agree up to the
    (k+1)-th flip invocation.  Exhaustive over omega={0,1}, horizon 2."""
    alg = flip_write_alg(2)
    runs = {
        c: run(alg, adaptive_strong_policy(alg.processes), VectorCoins(c))
        for c in itertools.product((0, 1), repeat=2)
    }

    def through_flip(h, k):
        # the steps up to the k-th flip invocation, all of them if fewer
        flips = [i for i, s in enumerate(h.steps) if s.op == FLIP and s.is_inv()]
        return h.steps[: flips[k - 1] + 1] if k <= len(flips) else h.steps

    for c, d in itertools.product(runs, repeat=2):
        shared = 0
        while shared < 2 and c[shared] == d[shared]:
            shared += 1
        hc, hd = runs[c].history, runs[d].history
        assert through_flip(hc, shared + 1) == through_flip(hd, shared + 1)


def test_oblivious_schedule_is_coin_independent():
    alg = flip_write_alg(2)
    adv = AdversaryPolicy("oblivious", schedule=(0, 0, 1, 1))
    scheds = {
        c: run(alg, adv, VectorCoins(c)).schedule
        for c in itertools.product((0, 1), repeat=2)
    }
    assert len(set(scheds.values())) == 1


MARK_OPS = (
    ("L", "fetch_inc", ()),
    ("W", "fetch_inc", ()),
    ("M", "fetch_dec", ()),
    ("X", "read", ()),
    ("X", "write", None),
    ("X", "ll", ()),
    ("X", "sc", None),
)


def mark_rules_alg(plans):
    """Processes flip, then run their plan over an LL/SC counter, a
    write-first counter, a mutex-wrapped counter and an atomic LL/SC
    register, on which an SC need not follow an LL."""

    def prog(p):
        def gen():
            c = yield ("flip",)
            for i in plans[p]:
                key, op, args = MARK_OPS[i]
                yield ("invoke", key, op, (10 * p + c,) if args is None else args)
            return c

        return gen()

    bindings = (
        Binding("L", impl=llsc_strong_counter()),
        Binding("W", impl=writefirst_strong_counter(4)),
        Binding("M", impl=mutex_wrapped(counter_spec(0))),
        Binding("X", spec=llsc_spec(0)),
    )
    return AlgorithmSpec(tuple(range(len(plans))), bindings, prog, omega=(0, 1))


def pairwise_mark_state(h):
    """The mark rules stated pairwise, by scanning back from each step."""
    rsps = [s for s in h.steps if s.level == BASE and s.kind == RSP]

    def installs(s):
        return s.op == "write" or (s.op == "sc" and s.payload == 1)

    def last_writer(i, oid):
        for s in reversed(rsps[:i]):
            if s.obj == oid and installs(s):
                return s.process
        return None

    def linked(i, s):
        return any(
            t.op == "ll" and t.process == s.process and t.obj == s.obj
            for t in rsps[:i]
        )

    sees = set()
    for i, s in enumerate(rsps):
        if s.op in ("read", "ll") or (s.op == "sc" and linked(i, s)):
            m = last_writer(i, s.obj)
            if m is not None and m != s.process:
                sees.add((s.process, m))
    written = {s.obj for s in rsps if installs(s)}
    lled = {s.obj for s in rsps if s.op == "ll"}
    return MarkState(
        tuple((oid, last_writer(len(rsps), oid)) for oid in sorted(written)),
        frozenset(sees),
        tuple(
            (oid, tuple(sorted({s.process for s in rsps if s.op == "ll" and s.obj == oid})))
            for oid in sorted(lled)
        ),
    )


@given(
    st.lists(st.lists(st.integers(0, len(MARK_OPS) - 1), min_size=1, max_size=4),
             min_size=2, max_size=3),
    st.lists(st.integers(0, 5), min_size=4, max_size=120),
    st.integers(0, 7),
    st.integers(0, 200),
)
# An SC without a link, after another process wrote: not a sees edge.
@example(plans=[[4], [6]], choices=[0, 0, 0, 0], coin_bits=0, cut=200)
# Process 0 LLs, process 1 writes, the cut, then process 0's SC: the
# link made before the cut gives the SC its sees edge.
@example(plans=[[5, 6], [4]], choices=[0, 1, 0], coin_bits=0, cut=8)
@settings(max_examples=200, deadline=None)
def test_derive_mark_state_matches_pairwise_rules(plans, choices, coin_bits, cut):
    coins = tuple((coin_bits >> i) & 1 for i in range(len(plans)))
    alg = mark_rules_alg(plans)

    rec = run(alg, choice_policy("weak", alg.processes, choices), VectorCoins(coins))
    h = rec.history
    whole = MarkState().after(h.steps)
    assert whole == pairwise_mark_state(h)
    part = h.with_steps(h.steps[:cut])
    at_cut = MarkState().after(part.steps)
    assert at_cut == pairwise_mark_state(part)
    assert at_cut.after(h.steps[len(part.steps):]) == whole


def test_naturalness_violation_is_caught():
    def setup(alloc):
        return {"own": alloc(register_spec(0), "cell")}

    def body(state, p, op, args):
        yield ("invoke", 9999, "read", ())
        return None

    rogue = ImplProgram("rogue", register_spec(0), setup, body)

    def prog(p):
        def gen():
            yield ("invoke", "X", "read", ())

        return gen()

    alg = AlgorithmSpec((0,), (Binding("X", impl=rogue),), prog)
    with pytest.raises(EngineError, match="foreign base object"):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


def test_method_with_no_base_operation_is_caught():
    def setup(alloc):
        alloc(register_spec(0), "cell")
        return {}

    def body(state, p, op, args):
        return 5
        yield  # pragma: no cover

    lazy = ImplProgram("lazy", register_spec(0), setup, body)

    def prog(p):
        def gen():
            yield ("invoke", "X", "read", ())

        return gen()

    alg = AlgorithmSpec((0,), (Binding("X", impl=lazy),), prog)
    with pytest.raises(EngineError, match="no base operation"):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


def _program_of(*actions):
    """Every process yields ``actions`` in order, then returns."""

    def prog(p):
        def gen():
            for act in actions:
                yield act

        return gen()

    return prog


def test_a_program_yielding_an_unknown_action_is_caught():
    alg = AlgorithmSpec((0,), (), _program_of(("bogus",)))
    message = "process 0 yielded unknown action ('bogus',)"
    with pytest.raises(EngineError, match=re.escape(message)):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


def test_a_program_invoking_an_unknown_object_is_caught():
    alg = AlgorithmSpec((0,), (), _program_of(("invoke", "Z", "read", ())))
    message = "process 0 invoked unknown object 'Z'"
    with pytest.raises(EngineError, match=re.escape(message)):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Binding("X"), "binding needs exactly one of spec or impl"),
        (lambda: Binding("X", register_spec(0), llsc_strong_counter()),
         "binding needs exactly one of spec or impl"),
        (lambda: AdversaryPolicy("oblivious", lambda: None),
         "oblivious adversaries are a constant schedule"),
        (lambda: AdversaryPolicy("weak"), "weak adversary needs a decide function"),
    ],
    ids=["binding-with-neither", "binding-with-both", "oblivious-with-decide",
         "weak-without-decide"],
)
def test_a_malformed_binding_or_policy_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_a_method_body_yielding_a_malformed_action_is_caught():
    def setup(alloc):
        return {"own": alloc(register_spec(0), "cell")}

    def body(state, p, op, args):
        yield ("read", state["own"])

    sloppy = ImplProgram("sloppy", register_spec(0), setup, body)
    prog = _program_of(("invoke", "X", "read", ()))
    alg = AlgorithmSpec((0,), (Binding("X", impl=sloppy),), prog)
    message = "method body yielded unknown action ('read', 1)"
    with pytest.raises(EngineError, match=re.escape(message)):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


def test_a_weak_flip_chaining_into_another_flip_is_caught():
    alg = AlgorithmSpec((0,), (), _program_of(("flip",), ("flip",)))
    with pytest.raises(EngineError, match="weak-class violation: flip #1 chains into another flip"):
        run(alg, strategy_policy("weak", {(): [0, 0]}), VectorCoins((0, 1)))


def test_a_program_invoking_an_atomic_coin_is_caught():
    prog = _program_of(("invoke", "K", "flip", ()))
    alg = AlgorithmSpec((0,), (Binding("K", spec=coin_spec()),), prog)
    with pytest.raises(EngineError, match="coin objects are driven by the coin source"):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


def test_allocation_after_set_up_is_refused():
    # A set-up may keep its allocator, but a body that calls it meets a
    # sealed registry.
    def setup(alloc):
        return {"alloc": alloc, "own": alloc(register_spec(0), "cell")}

    def body(state, p, op, args):
        oid = state["alloc"](register_spec(0), "late-cell")
        yield ("invoke", oid, "read", ())

    hoarder = ImplProgram("hoarder", register_spec(0), setup, body)

    def prog(p):
        def gen():
            yield ("invoke", "X", "read", ())

        return gen()

    alg = AlgorithmSpec((0,), (Binding("X", impl=hoarder),), prog)
    with pytest.raises(EngineError, match="'late-cell' after set-up"):
        run(alg, strategy_policy("strong", {(): [0]}), VectorCoins(()))


def test_per_process_coins_and_exhaustion():
    alg = flip_write_alg(2)
    coins = PerProcessCoins({0: (1,), 1: (0,)})
    rec = run(alg, strategy_policy("strong", {(): [1, 1, 0, 0]}), coins)
    assert rec.returns == {0: 1, 1: 0}
    flips = tuple(s.payload for s in rec.history.steps if s.op == FLIP and s.kind == RSP)
    assert flips == (0, 1)  # consumption order: process 1 flipped first
    with pytest.raises(NeedCoinError):
        run(alg, strategy_policy("strong", {(): [1]}), PerProcessCoins({0: (1,), 1: ()}))


def test_simulations_are_freed_without_the_cycle_collector():
    # A run's steps and generators go as soon as its last reference does,
    # also mid-method and after a compare-and-swap install moved the
    # construction to its next block.
    def cas_prog(p):
        def gen():
            return (yield ("invoke", "C", "cas", (0, p + 1)))

        return gen()

    cas_alg = AlgorithmSpec((0, 1), (Binding("C", impl=cas_from_registers(0)),), cas_prog)
    cases = [
        (counter_race_alg(impl=True), (0, 1, 0)),
        (cas_alg, (0, 0, 0, 0, 1, 0, 1)),
    ]
    gc.disable()
    try:
        for alg, grants in cases:
            sim = Simulation(alg, VectorCoins(()))
            for pid in grants:
                sim.grant(pid)
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
    finally:
        gc.enable()


def test_the_engine_coins_are_the_only_coins_of_a_registry():
    examples = [make() for make in EXAMPLES.values()]
    algs = [alg for ex in examples for alg in (ex.implemented, ex.atomic)]
    algs += [loadbalance_algorithm(4, kind) for kind in COUNTER_KINDS]
    for alg in algs:
        sim = Simulation(alg, VectorCoins(()))
        assert sorted(sim.coin_oid) == sorted(alg.processes)
        coins = {oid for oid, info in sim.registry.items() if info.is_coin}
        assert coins == set(sim.coin_oid.values())


def test_point_contention_tracking():
    alg = counter_race_alg(impl=True, nproc=2)
    # p0 alone start to finish, then p1: never more than one inside
    rec = run(alg, strategy_policy("strong", {(): [0, 0, 1, 1]}), VectorCoins(()))
    assert rec.max_point_contention == 1
    # interleaved: both inside at once; p1 loses one SC race and retries
    rec = run(alg, strategy_policy("strong", {(): [0, 1, 0, 1, 1, 1]}), VectorCoins(()))
    assert rec.max_point_contention == 2
    assert rec.returns == {0: 0, 1: 1}


def test_interpret_of_engine_run_is_well_formed_and_atomicizes():
    alg = counter_race_alg(impl=True, nproc=2)
    rec = run(alg, strategy_policy("strong", {(): [0, 1, 0, 1, 1, 1]}), VectorCoins(()))
    g = interpret(rec.history)
    assert all(s.level == INTERPRETED for s in g.steps)
    ops = g.operations()
    assert sorted(o.ret for o in ops if o.complete) == [0, 1]


def mixed_alg():
    """Four processes: one returns before any action, one flips then
    increments an implemented counter, one reads a register twice, one
    increments then writes."""

    def prog(p):
        def idle():
            return "idle"
            yield  # pragma: no cover

        def flipper():
            c = yield ("flip",)
            v = yield ("invoke", "C", "fetch_inc", ())
            return (c, v)

        def reader():
            a = yield ("invoke", "R", "read", ())
            b = yield ("invoke", "R", "read", ())
            return (a, b)

        def bumper():
            v = yield ("invoke", "C", "fetch_inc", ())
            yield ("invoke", "R", "write", (v,))
            return v

        return (idle, flipper, reader, bumper)[p]()

    return AlgorithmSpec(
        (0, 1, 2, 3),
        (Binding("C", impl=llsc_strong_counter()), Binding("R", spec=register_spec(0))),
        prog,
        omega=(0, 1),
    )


def contention_from_history(rec):
    """Point contention recomputed from the recorded steps alone.

    Each process that took a step spans [its first step, its last step];
    a process that never finished stays inside its program until the end
    of the run.  The answer is the most spans covering one step index.
    """
    steps = rec.history.steps
    first: dict = {}
    last: dict = {}
    for i, s in enumerate(steps):
        first.setdefault(s.process, i)
        last[s.process] = i
    end = len(steps) - 1
    spans = [(first[q], last[q] if q in rec.returns else end) for q in first]
    return max(
        (sum(1 for a, b in spans if a <= i <= b) for i in range(len(steps))),
        default=0,
    )


@given(
    alg_name=st.sampled_from(["mixed", "counter-flip", "race"]),
    klass=st.sampled_from(["strong", "weak"]),
    choices=st.lists(st.integers(0, 5), max_size=40),
    coin_bits=st.integers(0, 15),
)
@settings(max_examples=300, deadline=None)
def test_point_contention_matches_history_oracle(alg_name, klass, choices, coin_bits):
    alg = {
        "mixed": mixed_alg,
        "counter-flip": counter_flip_alg,
        "race": lambda: counter_race_alg(impl=True, nproc=3),
    }[alg_name]()
    coins = tuple((coin_bits >> i) & 1 for i in range(4))

    rec = run(alg, choice_policy(klass, alg.processes, choices), VectorCoins(coins))
    assert rec.max_point_contention == contention_from_history(rec)
    if alg_name == "mixed":
        assert rec.returns[0] == "idle"


def _preview_algorithms():
    # Both variants of every example and one algorithm per construction.
    examples = [(name, make()) for name, make in EXAMPLES.items()]
    algs = [pytest.param(getattr(ex, variant), id=f"{name}-{variant}")
            for name, ex in examples for variant in ("atomic", "implemented")]
    algs += [pytest.param(_catalog_algorithm(impl), id=name)
             for name, impl in _catalog_instances().items()]
    return algs


@pytest.mark.parametrize("klass", ["weak", "strong"])
@pytest.mark.parametrize("alg", _preview_algorithms())
def test_a_grant_commits_the_previewed_base_step(alg, klass):
    # Seeded random schedules under a grant budget: wherever next_response
    # previews a base step, the grant appends exactly that step and leaves
    # exactly that base state, every other base object untouched.
    previewed = 0
    for seed in range(12):
        rng = random.Random(seed)
        coins = tuple(rng.choice(alg.omega) for _ in range(40))
        sim = Simulation(alg, VectorCoins(coins), klass=klass)
        while not sim.all_finished() and len(sim.grants) < 60:
            q = rng.choice(sim.live_pids())
            nxt = sim.next_response(q)
            before, base = len(sim.steps), dict(sim.base_state)
            sim.grant(q)
            if nxt is None:
                continue
            previewed += 1
            oid, op, args, state, resp = nxt
            new = [s for s in sim.steps[before:] if s.level == BASE]
            assert new == [Step(INV, q, oid, op, args, BASE), Step(RSP, q, oid, op, resp, BASE)]
            assert sim.base_state == {**base, oid: state}
    assert previewed > 0

"""Sequential specs and the implemented constructions."""

import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stronglin.engine import (
    AlgorithmSpec,
    Binding,
    EngineError,
    MarkState,
    Simulation,
    VectorCoins,
    plan_policy,
    rotation,
    run,
    strategy_policy,
)
from stronglin import objects
from stronglin.checkers import default_specs, linearize_one
from stronglin.experiments import EXAMPLES
from stronglin.histories import (
    BASE,
    BOTTOM,
    INTERPRETED,
    ObjectInfo,
    interpret,
    validate_sequential,
)
from stronglin.objects import (
    CAPACITY,
    CATALOG,
    SPECS,
    aadgms_snapshot,
    cas_from_registers,
    cas_spec,
    counter_spec,
    herlihy_wing_queue,
    llsc_spec,
    llsc_strong_counter,
    mutex_wrapped,
    queue_spec,
    register_spec,
    snapshot_spec,
    spec_of_entry,
    test_and_set_spec as tas_spec,
    vidyasankar_register,
    vitanyi_awerbuch_mrsw,
    writefirst_strong_counter,
)

# ---------------------------------------------------------------------------
# Spec factories
# ---------------------------------------------------------------------------


def replay(spec, calls):
    state = spec.initial_state
    out = []
    for op, args, p in calls:
        state, r = spec.transition(state, op, args, p)
        out.append(r)
    return out


def test_counter_spec_returns_prior_value():
    calls = [("fetch_inc", (), 0), ("fetch_inc", (), 1), ("fetch_dec", (), 0), ("fetch_inc", (), 1)]
    assert replay(counter_spec(), calls) == [0, 1, 2, 1]


def test_queue_spec_fifo_and_empty_marker():
    spec = queue_spec()
    assert replay(spec, [("enqueue", (1,), 0), ("dequeue", (), 1)]) == [None, 1]
    assert replay(spec, [("dequeue", (), 0)]) == [BOTTOM]
    assert replay(
        spec, [("enqueue", (1,), 0), ("enqueue", (2,), 0), ("dequeue", (), 1)]
    ) == [None, None, 1]


def test_llsc_spec_link_semantics():
    spec = llsc_spec(0)
    # p links, q writes in between: p's SC fails
    assert replay(
        spec, [("ll", (), 0), ("write", (9,), 1), ("sc", (5,), 0)]
    ) == [0, None, 0]
    # p links and succeeds; a second SC without a fresh link fails
    assert replay(spec, [("ll", (), 0), ("sc", (5,), 0), ("sc", (6,), 0)]) == [0, 1, 0]
    # a successful SC invalidates every other outstanding link
    assert replay(
        spec, [("ll", (), 0), ("ll", (), 1), ("sc", (5,), 0), ("sc", (6,), 1)]
    ) == [0, 0, 1, 0]


def test_cas_spec():
    spec = cas_spec(7)
    assert replay(spec, [("cas", (7, 9), 0), ("read", (), 1), ("cas", (7, 3), 2)]) == [
        7,
        9,
        9,
    ]


def test_register_domain_bound():
    spec = register_spec(0, domain_bound=3)
    # The domain is the integers 0..3: a float or a boolean in range is out.
    for v in (4, -1, 2.5, True):
        with pytest.raises(ValueError):
            replay(spec, [("write", (v,), 0)])


def test_snapshot_spec_component_ownership():
    spec = snapshot_spec(3)
    assert replay(spec, [("update", (5,), 1), ("scan", (), 0)]) == [None, (0, 5, 0)]
    with pytest.raises(ValueError):
        replay(spec, [("update", (5,), 9)])


def test_test_and_set_spec():
    assert replay(tas_spec(), [("test_set", (), 0), ("test_set", (), 1)]) == [0, 1]


# ---------------------------------------------------------------------------
# Driving implementations through the engine
# ---------------------------------------------------------------------------


def run_calls(impl, calls, nproc=4):
    """Run method calls one at a time (each to completion) and return
    (responses, record)."""

    def prog(p):
        def gen():
            out = []
            for who, op, args in calls:
                if who == p:
                    out.append((yield ("invoke", "O", op, args)))
            return out

        return gen()

    alg = AlgorithmSpec(tuple(range(nproc)), (Binding("O", impl=impl),), prog)
    sim = Simulation(alg, VectorCoins(()), klass="strong")
    responses = []
    for who, op, args in calls:
        before = len(sim.steps)
        while sim.procs[who].method is None and not sim.procs[who].finished:
            sim.grant(who)  # enter the method
        while sim.procs[who].method is not None:
            sim.grant(who)
        responses.append(sim.steps[-1].payload)
    for p in range(nproc):
        while not sim.procs[p].finished:
            sim.grant(p)
    return responses, sim.record()


@st.composite
def sequential_calls(draw, ops):
    n = draw(st.integers(1, 8))
    calls = []
    for _ in range(n):
        who = draw(st.integers(0, 2))
        op, argmaker = draw(st.sampled_from(ops))
        calls.append((who, op, argmaker(draw)))
    return calls


COUNTER_OPS = [("fetch_inc", lambda d: ()), ("fetch_dec", lambda d: ())]
REGISTER_OPS = [
    ("read", lambda d: ()),
    ("write", lambda d: (d(st.integers(0, 3)),)),
]
QUEUE_OPS = [
    ("enqueue", lambda d: (d(st.integers(0, 5)),)),
    ("dequeue", lambda d: ()),
]
SNAPSHOT_OPS = [
    ("scan", lambda d: ()),
    ("update", lambda d: (d(st.integers(-3, 3)),)),
]
CAS_OPS = [
    ("read", lambda d: ()),
    ("cas", lambda d: (d(st.integers(0, 2)), d(st.integers(0, 2)))),
]


def assert_sequential_use_valid(impl, calls, nproc=4):
    responses, rec = run_calls(impl, calls, nproc=nproc)
    g = interpret(rec.history)
    target_oid = next(
        oid for oid, info in rec.history.objects.items() if info.impl == impl.impl_name
    )
    assert validate_sequential(g, {target_oid: impl.target_spec})


@given(sequential_calls(COUNTER_OPS))
@settings(max_examples=60, deadline=None)
def test_llsc_counter_sequential_use(calls):
    assert_sequential_use_valid(llsc_strong_counter(), calls)


@given(sequential_calls(COUNTER_OPS))
@settings(max_examples=60, deadline=None)
def test_writefirst_counter_sequential_use(calls):
    assert_sequential_use_valid(writefirst_strong_counter(4), calls)


@given(sequential_calls(REGISTER_OPS))
@settings(max_examples=60, deadline=None)
def test_vidyasankar_sequential_use(calls):
    # single reader, single writer: route all calls through fixed roles
    calls = [(0 if op == "write" else 1, op, args) for _w, op, args in calls]
    assert_sequential_use_valid(vidyasankar_register(3, 1), calls, nproc=2)


@given(sequential_calls(SNAPSHOT_OPS))
@settings(max_examples=60, deadline=None)
def test_aadgms_sequential_use(calls):
    assert_sequential_use_valid(aadgms_snapshot(3), calls, nproc=3)


@given(sequential_calls(QUEUE_OPS))
@settings(max_examples=60, deadline=None)
def test_hw_queue_sequential_use(calls):
    # dequeue on an empty queue spins; keep the sequence enqueue-heavy
    pending = 0
    safe = []
    for who, op, args in calls:
        if op == "dequeue":
            if pending == 0:
                continue
            pending -= 1
        else:
            pending += 1
        safe.append((who, op, args))
    if not safe:
        safe = [(0, "enqueue", (1,))]
    assert_sequential_use_valid(herlihy_wing_queue(), safe)


@given(sequential_calls(CAS_OPS))
@settings(max_examples=60, deadline=None)
def test_cas_sequential_use(calls):
    assert_sequential_use_valid(cas_from_registers(0), calls)


@given(sequential_calls(COUNTER_OPS))
@settings(max_examples=60, deadline=None)
def test_mutex_wrapped_sequential_use(calls):
    assert_sequential_use_valid(mutex_wrapped(counter_spec(0)), calls)


@given(sequential_calls(REGISTER_OPS))
@settings(max_examples=60, deadline=None)
def test_va_mrsw_sequential_use(calls):
    # writer is process 0, readers are 1 and 2
    calls = [
        (0, op, args) if op == "write" else (1 + (i % 2), op, args)
        for i, (_w, op, args) in enumerate(calls)
    ]
    assert_sequential_use_valid(vitanyi_awerbuch_mrsw(), calls, nproc=3)


# ---------------------------------------------------------------------------
# Construction-specific behaviour
# ---------------------------------------------------------------------------


def test_vidyasankar_solo_read_and_write_validation():
    responses, _ = run_calls(vidyasankar_register(3, 1), [(1, "read", ())], nproc=2)
    assert responses == [1]
    for v in (4, 2.5, True):
        with pytest.raises(ValueError):
            run_calls(vidyasankar_register(3, 1), [(0, "write", (v,))], nproc=2)
    for initial in (9, 1.0):
        with pytest.raises(ValueError):
            vidyasankar_register(3, initial)


def test_vidyasankar_representation_invariant():
    """After quiescence, value v is encoded as bit v set with all lower
    bits clear."""
    impl = vidyasankar_register(4, 2)
    calls = [(0, "write", (3,)), (0, "write", (1,)), (1, "read", ())]
    _, rec = run_calls(impl, calls, nproc=2)
    values = {}
    for oid, info in rec.history.objects.items():
        if info.type_name != "bit-register":
            continue
        idx = dict(info.params)["index"]
        v = 1 if idx == 2 else 0  # initial layout for initial value 2
        for s in rec.history.steps:
            if s.obj == oid and s.op == "write" and s.kind == "inv":
                v = s.payload[0]
        values[idx] = v
    represented = 1  # the last write
    assert values[represented] == 1
    assert all(values[j] == 0 for j in range(represented))


def test_aadgms_solo_scan_is_all_zero():
    responses, _ = run_calls(aadgms_snapshot(3), [(0, "scan", ())], nproc=3)
    assert responses == [(0, 0, 0)]


def test_aadgms_update_then_scan():
    responses, _ = run_calls(
        aadgms_snapshot(3), [(1, "update", (7,)), (2, "scan", ())], nproc=3
    )
    assert responses == [None, (0, 7, 0)]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: aadgms_snapshot(0), "need at least one component"),
        (lambda: writefirst_strong_counter(0), "need at least one process"),
        (lambda: run_calls(aadgms_snapshot(2), [(5, "update", (1,))], nproc=6),
         "process 5 has no snapshot component"),
    ],
    ids=["snapshot-of-no-components", "counter-for-no-processes",
         "update-without-a-component"],
)
def test_a_construction_refuses_sizes_it_cannot_serve(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_va_solo_read_returns_initial():
    responses, _ = run_calls(vitanyi_awerbuch_mrsw(), [(1, "read", ())], nproc=3)
    assert responses == [0]
    with pytest.raises(ValueError, match="process 0"):
        run_calls(vitanyi_awerbuch_mrsw(), [(0, "read", ())], nproc=3)


def test_hw_queue_solo():
    responses, _ = run_calls(
        herlihy_wing_queue(), [(0, "enqueue", (5,)), (1, "dequeue", ())]
    )
    assert responses == [None, 5]


def test_hw_queue_dequeue_empty_spins_until_budget():
    impl = herlihy_wing_queue()

    def prog(p):
        def gen():
            v = yield ("invoke", "O", "dequeue", ())
            return v

        return gen()

    alg = AlgorithmSpec((0,), (Binding("O", impl=impl),), prog)
    rec = run(alg, strategy_policy("strong", {(): [0] * 100}), VectorCoins(()), budget=50)
    assert "budget-exhausted" in rec.flags
    assert rec.returns == {}


def test_llsc_counter_retry_after_lost_race():
    impl = llsc_strong_counter()

    def prog(p):
        def gen():
            v = yield ("invoke", "C", "fetch_inc", ())
            return v

        return gen()

    alg = AlgorithmSpec((0, 1), (Binding("C", impl=impl),), prog)
    # p0 links; p1 runs a full fetch&inc; p0's SC fails and it retries
    rec = run(alg, strategy_policy("strong", {(): [0, 1, 1, 0, 0, 0]}), VectorCoins(()))
    assert rec.returns == {1: 0, 0: 1}


def test_writefirst_first_shared_access_is_a_write():
    impl = writefirst_strong_counter(4)

    def prog(p):
        def gen():
            v = yield ("invoke", "C", "fetch_inc", ())
            return v

        return gen()

    alg = AlgorithmSpec((0,), (Binding("C", impl=impl),), prog)
    rec = run(alg, strategy_policy("strong", {(): [0] * 10}), VectorCoins(()))
    first_base = next(s for s in rec.history.steps if s.level == BASE)
    assert first_base.op == "write"
    assert rec.returns == {0: 0}


def test_writefirst_announce_collision_overwrites_mark():
    impl = writefirst_strong_counter(4)  # pool size 2: 0 and 2 collide

    def prog(p):
        def gen():
            v = yield ("invoke", "C", "fetch_inc", ())
            return v

        return gen()

    alg = AlgorithmSpec((0, 2), (Binding("C", impl=impl),), prog)
    rec = run(
        alg, strategy_policy("strong", {(): [0, 2, 2, 2, 0, 0, 0]}), VectorCoins(())
    )
    announce = next(
        oid
        for oid, info in rec.history.objects.items()
        if info.type_name == "announce-cell" and dict(info.params)["index"] == 0
    )
    assert dict(MarkState().after(rec.history.steps).marks)[announce] == 2  # process 2 overwrote p0's mark


def test_cas_solo_then_read():
    responses, _ = run_calls(
        cas_from_registers(3), [(0, "cas", (3, 7)), (1, "read", ())]
    )
    assert responses == [3, 7]


def test_cas_loser_returns_leaders_value():
    impl = cas_from_registers(0)

    def prog(p):
        def gen():
            v = yield ("invoke", "O", "cas", (0, 10 + p))
            return v

        return gen()

    alg = AlgorithmSpec((0, 1, 2), (Binding("O", impl=impl),), prog)
    # everyone reads cur and val; then p1 wins the election; p0 and p2 lose,
    # spin on the signal and return p1's installed value
    grants = [0, 0, 1, 1, 2, 2, 1, 0, 2, 1, 1, 1, 0, 2]
    rec = run(alg, strategy_policy("strong", {(): grants}), VectorCoins(()), budget=100)
    assert rec.returns[1] == 0  # the winner's CAS succeeded
    assert rec.returns[0] == 11 and rec.returns[2] == 11
    # a later read agrees with the installed value
    responses, _ = run_calls(cas_from_registers(0), [(0, "cas", (0, 5)), (1, "read", ())])
    assert responses == [0, 5]


def test_cas_mismatch_returns_current_value_without_install():
    responses, _ = run_calls(
        cas_from_registers(4), [(0, "cas", (9, 1)), (1, "read", ())]
    )
    assert responses == [4, 4]


def test_hw_queue_enqueue_past_its_capacity_is_refused():
    fill = [(0, "enqueue", (i,)) for i in range(CAPACITY)]
    responses, _ = run_calls(herlihy_wing_queue(), fill)
    assert responses == [None] * CAPACITY
    with pytest.raises(ValueError, match=f"capacity {CAPACITY}"):
        run_calls(herlihy_wing_queue(), fill + [(0, "enqueue", (CAPACITY,))])


def test_cas_install_past_the_last_block_is_refused():
    # Block 0 holds the initial value; each install takes the next block.
    installs = [(0, "cas", (i, i + 1)) for i in range(CAPACITY - 1)]
    responses, _ = run_calls(cas_from_registers(0), installs + [(1, "read", ())])
    assert responses == list(range(CAPACITY))
    with pytest.raises(ValueError, match=f"capacity {CAPACITY}"):
        run_calls(cas_from_registers(0), installs + [(0, "cas", (CAPACITY - 1, 0))])


def _random_strong_run(alg, seed):
    """A run that grants a uniformly drawn live process each time."""

    def plan(view):
        rng = random.Random(seed)
        while live := [q for q in alg.processes if not view.finished(q)]:
            yield rng.choice(live)

    rec = run(alg, plan_policy("strong", plan), VectorCoins(()))
    assert set(rec.returns) == set(alg.processes), seed
    return rec


def _base_writes(rec, type_name, **labels):
    """The values written to the one base object of that type and labels."""
    (oid,) = (
        oid for oid, info in rec.history.objects.items()
        if info.type_name == type_name
        and all(info.label(k) == v for k, v in labels.items())
    )
    return [
        s.payload[0] for s in rec.history.steps
        if s.obj == oid and s.op == "write" and s.kind == "inv"
    ]


def test_cas_random_schedules_linearize_and_fill_blocks_in_order():
    longest = 0
    for seed in range(100):
        rng = random.Random(f"cas:{seed}")
        calls = {
            p: [(rng.randrange(3), rng.randrange(3)) for _ in range(2)] for p in range(3)
        }

        def prog(p, calls=calls):
            def gen():
                out = []
                for x, y in calls[p]:
                    out.append((yield ("invoke", "K", "cas", (x, y))))
                return out

            return gen()

        alg = AlgorithmSpec((0, 1, 2), (Binding("K", impl=cas_from_registers(0)),), prog)
        rec = _random_strong_run(alg, seed)
        hi = interpret(rec.history)
        specs = default_specs(hi.objects, hi.processes)
        lin = linearize_one(hi, specs)
        assert lin is not None and validate_sequential(lin, specs), seed
        pointer = _base_writes(rec, "current-block")
        assert pointer == list(range(1, len(pointer) + 1)), seed
        longest = max(longest, len(pointer))
    assert longest >= 3


def test_aadgms_updates_publish_successive_sequence_numbers():
    def prog(p):
        def gen():
            for v in range(3):
                if p < 2:
                    yield ("invoke", "S", "update", (v,))
                else:
                    yield ("invoke", "S", "scan", ())

        return gen()

    alg = AlgorithmSpec((0, 1, 2), (Binding("S", impl=aadgms_snapshot(3)),), prog)
    for seed in range(30):
        rec = _random_strong_run(alg, seed)
        for p in (0, 1):
            published = _base_writes(rec, "snapshot-cell", component=p)
            assert [seq for _v, seq, _view in published] == [1, 2, 3], seed


def test_mutex_wrapped_matches_bare_spec_sequentially():
    impl = mutex_wrapped(queue_spec())
    calls = [(0, "enqueue", (4,)), (1, "enqueue", (5,)), (2, "dequeue", ()), (0, "dequeue", ())]
    responses, _ = run_calls(impl, calls)
    assert responses == [None, None, 4, 5]


def test_mutex_wrapped_all_schedules_return_0_and_1():
    """Two overlapping fetch&inc, exhaustively over grant sequences."""
    impl_spec = counter_spec(0)

    def prog(p):
        def gen():
            v = yield ("invoke", "C", "fetch_inc", ())
            return v

        return gen()

    completed = 0
    for choices in itertools.product((0, 1), repeat=12):
        alg = AlgorithmSpec((0, 1), (Binding("C", impl=mutex_wrapped(impl_spec)),), prog)
        sim = Simulation(alg, VectorCoins(()), klass="strong")
        for pid in choices:
            if sim.procs[pid].finished:
                break
            sim.grant(pid)
        if sim.all_finished():
            completed += 1
            rec = sim.record()
            assert sorted(rec.returns.values()) == [0, 1]
    assert completed > 0


def test_catalog_names():
    for name in (
        "vidyasankar-register",
        "aadgms-snapshot",
        "vitanyi-awerbuch-mrsw",
        "hw-queue",
        "llsc-counter",
        "writefirst-counter",
        "cas-from-registers",
        "mutex-wrapped-counter",
    ):
        assert name in CATALOG


# ---------------------------------------------------------------------------
# The type table
# ---------------------------------------------------------------------------


def test_every_spec_factory_is_in_the_table_under_its_type_name():
    # A type missing here could not be rebuilt from a registry entry, so
    # check-lin could not check an object of it.
    factories = {
        f for name, f in vars(objects).items()
        if name.endswith("_spec") and inspect.isfunction(f)
    }
    assert factories == set(SPECS.values())
    for name, make in SPECS.items():
        spec = spec_of_entry(ObjectInfo(name, BASE), (0, 1))
        assert spec.type_name == name and spec.params == ()


def _catalog_instances():
    # Each construction of the catalog, its required arguments all 2.
    out = {}
    for impl_name, make in CATALOG.items():
        params = inspect.signature(make).parameters.values()
        out[impl_name] = make(*[2 for p in params if p.default is p.empty])
    return out


def test_catalog_targets_rebuild_from_their_registry_entry():
    for impl_name, impl in _catalog_instances().items():
        target = impl.target_spec
        assert target.type_name in SPECS
        info = ObjectInfo(
            target.type_name, INTERPRETED, (("key", "X"),) + target.params, impl_name
        )
        rebuilt = spec_of_entry(info, (0, 1))
        assert (rebuilt.initial_state, rebuilt.params) == (
            target.initial_state, target.params
        ), impl_name


def test_spec_records_only_arguments_off_their_defaults():
    assert register_spec(1, domain_bound=3).params == (
        ("initial", 1), ("domain_bound", 3)
    )
    assert counter_spec(0).params == ()
    assert snapshot_spec(3, initial=2).params == (("initial", 2),)


def test_registry_entry_with_an_unknown_type_or_parameter_is_rejected():
    with pytest.raises(ValueError, match="widget"):
        spec_of_entry(ObjectInfo("widget", BASE), (0,))
    with pytest.raises(ValueError, match="colour"):
        spec_of_entry(ObjectInfo("register", BASE, (("colour", 1),)), (0,))


def test_every_operation_checks_its_argument_count():
    for name in SPECS:
        spec = spec_of_entry(ObjectInfo(name, BASE), (0, 1))
        for op, (arity, _step) in spec.ops.items():
            with pytest.raises(ValueError, match=f"takes {arity} argument"):
                spec.transition(spec.initial_state, op, (0,) * (arity + 1), 0)
        with pytest.raises(ValueError, match="does not support"):
            spec.transition(spec.initial_state, "frob", (), 0)


def test_ignores_process_is_declared_by_exactly_the_specs_whose_steps_ignore_it():
    # linearize_one tries one of several identical pending operations per
    # position only on a spec that declares this, so a wrong True would
    # lose linearizations.  Compare every operation by processes 0, 1, 2
    # in the states one or two operations reach.
    def differs(spec):
        calls = [(op, (1,) * arity) for op, (arity, _step) in spec.ops.items()]
        states = {spec.initial_state}
        for _ in range(2):
            states |= {spec.transition(s, op, args, p)[0]
                       for s in states for op, args in calls for p in (0, 1)}
        return any(
            len({spec.transition(s, op, args, p) for p in (0, 1, 2)}) > 1
            for s in states for op, args in calls
        )

    for name in SPECS:
        spec = spec_of_entry(ObjectInfo(name, BASE), (0, 1, 2))
        assert spec.ignores_process is not differs(spec), name


def test_an_operation_a_construction_lacks_is_rejected():
    # Bodies keep no unknown-op branch of their own: a call that issues
    # no base operation is the engine's to reject; the mutex wrapper
    # defers to its spec.
    def prog(p):
        def gen():
            yield ("invoke", "X", "frob", ())

        return gen()

    for impl in _catalog_instances().values():
        alg = AlgorithmSpec((0,), (Binding("X", impl=impl),), prog)
        with pytest.raises((EngineError, ValueError), match="no base|not support"):
            run(alg, strategy_policy("strong", {(): [0] * 8}), VectorCoins(()))


# One call per process for each target type of the catalog.
_CATALOG_CALLS = {
    "register": (("write", (1,)), ("read", ()), ("read", ())),
    "snapshot": (("update", (1,)), ("update", (2,)), ("scan", ())),
    "queue": (("enqueue", (1,)), ("enqueue", (2,)), ("dequeue", ())),
    "strong-counter": (("fetch_inc", ()), ("fetch_inc", ()), ("fetch_dec", ())),
    "cas": (("cas", (0, 1)), ("cas", (0, 2)), ("cas", (1, 3))),
}


def _catalog_algorithm(impl):
    calls = _CATALOG_CALLS[impl.target_spec.type_name]

    def prog(p):
        def gen():
            return (yield ("invoke", "X", *calls[p]))

        return gen()

    return AlgorithmSpec((0, 1, 2), (Binding("X", impl=impl),), prog)


def test_a_drained_run_leaves_the_registry_as_set_up():
    # Every base object is laid out in set-up: no run adds one.
    examples = [make() for make in EXAMPLES.values()]
    algs = [alg for ex in examples for alg in (ex.implemented, ex.atomic)]
    algs += [_catalog_algorithm(impl) for impl in _catalog_instances().values()]
    for alg in algs:
        set_up = Simulation(alg, VectorCoins(())).registry
        drain = plan_policy("strong", lambda view: rotation(view, alg.processes))
        for c in alg.omega:
            rec = run(alg, drain, VectorCoins((c,)))
            assert set(rec.returns) == set(alg.processes)
            assert rec.history.objects == set_up

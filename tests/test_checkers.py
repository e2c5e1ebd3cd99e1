"""History trees, witness search and validation, normalization, locality,
and linearizations of single runs."""

import functools
import hashlib
import itertools
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from stronglin import checkers, experiments
from stronglin.cli import main as cli_main
from stronglin.checkers import (
    CheckerError,
    _linearizations,
    _preds,
    HistoryTree,
    TreeError,
    check_locality,
    check_strong_lin,
    default_specs,
    image_history,
    linearize_one,
    normality_violations,
    normalize_witness,
    project_tree,
    witness_doc,
    witness_violations,
)
from stronglin.engine import (
    AlgorithmSpec,
    Binding,
    VectorCoins,
    plan_policy,
    run,
    strategy_policy,
)
from stronglin.experiments import (
    alternating_policy,
    counter_race_tree,
    drain_policy,
    hw_atomic_dequeue_tree,
    mutex_counter_runs,
    mutex_counter_tree,
    queue_counter_tree,
)
from stronglin.histories import (
    ANY_RESPONSE,
    BASE,
    BOTTOM,
    INTERPRETED,
    INV,
    RSP,
    History,
    MalformedHistoryError,
    ObjectInfo,
    OperationInstance,
    Step,
    happens_before,
    interpret,
    objects_doc,
    step_doc,
    validate_sequential,
)
from stronglin.objects import (
    cas_from_registers,
    counter_spec,
    llsc_strong_counter,
    mutex_wrapped,
    queue_spec,
    register_spec,
)


def inv(p, obj, op, args=()):
    return Step(INV, p, obj, op, args, BASE)


def rsp(p, obj, op, ret=None):
    return Step(RSP, p, obj, op, ret, BASE)


REG_OBJS = {
    0: ObjectInfo("register", BASE, (("key", "R"),)),
    1: ObjectInfo("coin", BASE, (("process", 0),)),
}
QUEUE_OBJS = {
    0: ObjectInfo("queue", BASE, (("key", "Q"),)),
    1: ObjectInfo("coin", BASE, (("process", 0),)),
}


# ---------------------------------------------------------------------------
# Engine fixtures
# ---------------------------------------------------------------------------


def write_flip_read_alg():
    def make_program(pid):
        def prog():
            if pid == 0:
                yield ("invoke", "R", "write", (5,))
                c = yield ("flip",)
                r = yield ("invoke", "R", "read", ())
                return (c, r)
            r = yield ("invoke", "R", "read", ())
            return r

        return prog()

    return AlgorithmSpec(
        (0, 1), (Binding("R", spec=register_spec()),), make_program, omega=(0, 1)
    )


def write_flip_read_tree():
    alg = write_flip_read_alg()
    runs = {
        (c,): run(alg, strategy_policy("strong", {(): [0, 0, 1, 0]}), VectorCoins([c]))
        for c in (0, 1)
    }
    return HistoryTree.from_runs(runs, omega=(0, 1))


# ---------------------------------------------------------------------------
# Tree construction
# ---------------------------------------------------------------------------


def test_from_runs_builds_flip_branching_tree():
    tree = write_flip_read_tree()
    assert len(tree) == 14
    assert tree.node_ids() == tuple(range(14))
    branch = [n for n in tree.node_ids() if len(tree.children(n)) == 2]
    assert len(branch) == 1
    outcomes = sorted(
        tree.step(c).payload for c in tree.children(branch[0])
    )
    assert outcomes == [0, 1]
    assert len(tree.leaves()) == 2


def test_history_of_is_prefix_monotone():
    tree = write_flip_read_tree()
    for nid in tree.node_ids():
        pid = tree.parent(nid)
        if pid is not None:
            parent = tree.history_of(pid).steps
            assert tree.history_of(nid).steps[: len(parent)] == parent


def test_history_of_walks_a_deep_chain_without_recursion():
    steps = []
    for k in range(1500):
        steps += [inv(0, 0, "write", (k,)), rsp(0, 0, "write", None)]
    nodes = [{"id": 0, "parent": None, "step": None}] + [
        {"id": i + 1, "parent": i, "step": step_doc(s)} for i, s in enumerate(steps)
    ]
    doc = {"processes": [0], "objects": objects_doc(REG_OBJS), "nodes": nodes}
    tree = HistoryTree.from_json(json.dumps(doc))
    assert len(tree) == 3001
    assert tree.history_of(3000).steps == tuple(steps)
    assert len(tree.ops_of(3000)) == 1500


def test_from_runs_rejects_divergence_at_non_flip():
    h1 = History((inv(0, 0, "write", (1,)),), (0,), REG_OBJS)
    h2 = History((inv(0, 0, "write", (2,)),), (0,), REG_OBJS)
    HistoryTree.from_runs({(0,): h1, (1,): h2})  # a plain prefix tree
    with pytest.raises(TreeError):
        HistoryTree.from_runs({(0,): h1, (1,): h2}, omega=(0, 1))


def test_from_runs_omega_coverage_enforced():
    tree_runs = {
        (c,): History(
            (inv(0, 1, "flip"), rsp(0, 1, "flip", c)), (0,), REG_OBJS
        )
        for c in (0, 1)
    }
    HistoryTree.from_runs(tree_runs, omega=(0, 1))
    with pytest.raises(TreeError):
        HistoryTree.from_runs(tree_runs, omega=(0, 1, 2))
    with pytest.raises(TreeError):
        HistoryTree.from_runs({(0,): tree_runs[(0,)]}, omega=(0, 1))


def test_json_round_trip_is_byte_identical():
    tree = write_flip_read_tree()
    text = tree.to_json()
    again = HistoryTree.from_json(text)
    assert again.to_json() == text
    assert len(again) == len(tree)
    for nid in tree.node_ids():
        assert again.step(nid) == tree.step(nid)


def test_from_json_rejects_malformed_trees():
    with pytest.raises(TreeError):
        HistoryTree.from_json("{nope")
    objs = {"0": {"type": "register", "level": BASE, "params": {"key": "R"}}}
    base = {"processes": [0], "objects": objs}

    def doc(nodes):
        return json.dumps({**base, "nodes": nodes})

    step = {
        "kind": INV,
        "process": 0,
        "object": 0,
        "op": "write",
        "payload": [1],
        "level": BASE,
    }
    with pytest.raises(TreeError):  # parent after child
        HistoryTree.from_json(doc([{"id": 0, "parent": None, "step": None},
                                   {"id": 2, "parent": 3, "step": step}]))
    with pytest.raises(TreeError):  # duplicate id
        HistoryTree.from_json(doc([{"id": 0, "parent": None, "step": None},
                                   {"id": 1, "parent": 0, "step": step},
                                   {"id": 1, "parent": 0, "step": step}]))
    # a branch on a non-flip step is a tree like any other
    tree = HistoryTree.from_json(doc([
        {"id": 0, "parent": None, "step": None},
        {"id": 1, "parent": 0, "step": step},
        {"id": 2, "parent": 0, "step": {**step, "payload": [2]}},
    ]))
    assert tree.children(0) == (1, 2)


def test_from_json_rejects_duplicate_branch_outcomes():
    objs = {"0": {"type": "coin", "level": BASE, "params": {"process": 0}}}
    flip = {
        "kind": RSP,
        "process": 0,
        "object": 0,
        "op": "flip",
        "payload": 1,
        "level": BASE,
    }
    text = json.dumps({
        "processes": [0],
        "objects": objs,
        "nodes": [
            {"id": 0, "parent": None, "step": None},
            {"id": 1, "parent": 0,
             "step": {**flip, "kind": INV, "payload": []}},
            {"id": 2, "parent": 1, "step": flip},
            {"id": 3, "parent": 1, "step": flip},
        ],
    })
    with pytest.raises(TreeError):
        HistoryTree.from_json(text)


def test_empty_tree_has_empty_witness():
    tree = HistoryTree.from_json('{"processes": [], "objects": {}, "nodes": []}')
    assert len(tree) == 1
    assert check_strong_lin(tree, {}) == {0: ()}


_ROOT = {"id": 0, "parent": None, "step": None}
_WRITE = {"kind": INV, "process": 0, "object": 0, "op": "write", "payload": [1],
          "level": BASE}
_FLIP_INV = {"kind": INV, "process": 0, "object": 1, "op": "flip", "payload": [],
             "level": BASE}
_FLIP = {**_FLIP_INV, "kind": RSP, "payload": 1}


def _tree_text(*nodes, nodes_field=None):
    return json.dumps({"processes": [0], "objects": objects_doc(REG_OBJS),
                       "nodes": list(nodes) if nodes_field is None else nodes_field})


def _node(nid, parent, step, **extra):
    return {"id": nid, "parent": parent, "step": step, **extra}


def _flip_branches(*outcomes):
    # Root, a flip invocation, then one flip response per outcome.
    return _tree_text(_ROOT, _node(1, 0, _FLIP_INV), *[
        _node(2 + i, 1, {**_FLIP, "payload": o}) for i, o in enumerate(outcomes)
    ])


def _flip_runs(*outcomes):
    return {
        (i,): History((inv(0, 1, "flip"), rsp(0, 1, "flip", o)), (0,), REG_OBJS)
        for i, o in enumerate(outcomes)
    }


def _mutex_counter_runs_tree():
    return HistoryTree.from_runs(mutex_counter_runs())


def _projection(make, oid):
    return lambda: project_tree(make(), oid)[0]


#: Each way of building a tree, and either the exact TreeError text it
#: raises (the CLI prints it) or sha256 digests of the tree's to_json()
#: and of what check-strong-lin prints for that JSON: the witness
#: document, or the reason the tree was refused.
TREE_PINS = {
    "no-runs": (lambda: HistoryTree.from_runs({}), "no runs given"),
    "runs-disagree": (
        lambda: HistoryTree.from_runs({
            (0,): History((), (0,), REG_OBJS), (1,): History((), (0, 1), REG_OBJS),
        }),
        "runs disagree on processes or objects",
    ),
    "runs-branch-on-a-write": (
        lambda: HistoryTree.from_runs({
            (0,): History((inv(0, 0, "write", (1,)),), (0,), REG_OBJS),
            (1,): History((inv(0, 0, "write", (2,)),), (0,), REG_OBJS),
        }, omega=(0, 1)),
        "node 0 branches on something other than a flip response",
    ),
    "omega-missing-outcome": (
        lambda: HistoryTree.from_runs(_flip_runs(0, 1), omega=(0, 1, 2)),
        "branch node 1 covers outcomes [0, 1], not [0, 1, 2]",
    ),
    "omega-single-outcome": (
        lambda: HistoryTree.from_runs(_flip_runs(1), omega=(0, 1)),
        "branch node 1 covers outcomes [1], not [0, 1]",
    ),
    # A flip response with a null payload is an outcome like any other.
    "omega-null-outcome": (
        lambda: HistoryTree.from_runs(_flip_runs(None), omega=(0, 1)),
        "branch node 1 covers outcomes [None], not [0, 1]",
    ),
    "omega-null-and-one": (
        lambda: HistoryTree.from_runs(_flip_runs(None, 1), omega=(0, 1)),
        "branch node 1 covers outcomes [None, 1], not [0, 1]",
    ),
    "nodes-not-a-list": (
        lambda: HistoryTree.from_json(_tree_text(nodes_field={})),
        "tree nodes must be a list",
    ),
    "string-id": (
        lambda: HistoryTree.from_json(_tree_text(_ROOT, _node("1", 0, _WRITE))),
        "node id '1' and parent 0 must be integers",
    ),
    "no-root": (
        lambda: HistoryTree.from_json(_tree_text(_node(1, None, None))),
        "tree has no root",
    ),
    # The root check comes last, after every node.
    "no-root-and-a-later-bad-node": (
        lambda: HistoryTree.from_json(
            _tree_text(_node(1, None, None), _node(2, 5, _WRITE))
        ),
        "node 2: tree is not prefix-closed",
    ),
    "no-root-and-a-bad-branch": (
        lambda: HistoryTree.from_json(_tree_text(
            _node(1, None, None), _node(2, 1, _WRITE),
            _node(3, 1, {**_WRITE, "payload": [2]}),
        )),
        "tree has no root",
    ),
    "root-not-first": (
        lambda: HistoryTree.from_json(
            _tree_text(_ROOT, _node(1, 0, _WRITE), _node(2, None, None))
        ),
        "root must come first and carry no step",
    ),
    "root-with-a-step": (
        lambda: HistoryTree.from_json(_tree_text(_node(0, None, _WRITE))),
        "root must come first and carry no step",
    ),
    "unknown-parent": (
        lambda: HistoryTree.from_json(_tree_text(_ROOT, _node(2, 1, _WRITE))),
        "node 2: tree is not prefix-closed",
    ),
    "parent-after-child": (
        lambda: HistoryTree.from_json(
            _tree_text(_ROOT, _node(3, 0, _WRITE), _node(2, 3, _WRITE))
        ),
        "node 2: tree is not prefix-closed",
    ),
    "duplicate-id": (
        lambda: HistoryTree.from_json(
            _tree_text(_ROOT, _node(1, 0, _WRITE), _node(1, 0, _WRITE))
        ),
        "duplicate node id 1",
    ),
    "branch-on-a-write": (
        lambda: HistoryTree.from_json(_tree_text(
            _ROOT, _node(1, 0, _WRITE), _node(2, 0, {**_WRITE, "payload": [2]}),
        )),
        ("80b1d7f689e289aa", "2e8da8b5ca8a387f"),
    ),
    "duplicate-outcomes": (
        lambda: HistoryTree.from_json(_flip_branches(1, 1)),
        "node 3 repeats a sibling's step",
    ),
    "coin-outcome-disagrees": (
        lambda: HistoryTree.from_json(_tree_text(
            _ROOT, _node(1, 0, _FLIP_INV), _node(2, 1, _FLIP, coin_outcome=0),
        )),
        "node 2: coin_outcome disagrees with its step",
    ),
    "coin-outcome-on-a-write": (
        lambda: HistoryTree.from_json(
            _tree_text(_ROOT, _node(1, 0, _WRITE, coin_outcome=1))
        ),
        "node 1: coin_outcome disagrees with its step",
    ),
    "project-unknown-object": (
        _projection(mutex_counter_tree, 99), "unknown object 99",
    ),
    "project-base-object": (
        _projection(hw_atomic_dequeue_tree, 0), "object 0 is a base object",
    ),
    # Flip outcomes null and 1 make a tree like any other; only omega refuses them.
    "null-flip-branches": (
        lambda: HistoryTree.from_json(_flip_branches(None, 1)),
        ("0bd6109108b95c40", "f695490f410d54f6"),
    ),
    "null-flip-runs": (
        lambda: HistoryTree.from_runs(_flip_runs(None, 1)),
        ("0bd6109108b95c40", "f695490f410d54f6"),
    ),
    "mutex-counter-tree": (
        mutex_counter_tree, ("378d6ce0e1c24da0", "f074759a220f24e4"),
    ),
    "hw-atomic-dequeue-tree": (
        hw_atomic_dequeue_tree, ("1432e3ec1c507d81", "21b9970bcdd6538d"),
    ),
    "queue-counter-tree": (
        queue_counter_tree, ("4251a766aecaceba", "21b9970bcdd6538d"),
    ),
    "counter-race-tree": (counter_race_tree, ("889087a48a27d5e1", "7af126f16cb3c394")),
    "mutex-counter-runs": (
        _mutex_counter_runs_tree, ("21e8fdb96a5b1ab2", "a819529944c69c8e"),
    ),
    "mutex-counter-runs-object-0": (
        _projection(_mutex_counter_runs_tree, 0), ("8bc0bd16f3bc0263", "39bc82095c40577b"),
    ),
    "mutex-counter-runs-object-3": (
        _projection(_mutex_counter_runs_tree, 3), ("5e2a0eed8cd8f8bb", "bf8aa437e2182177"),
    ),
    "queue-counter-tree-object-0": (
        _projection(queue_counter_tree, 0), ("46a0ff9980b94f25", "21b9970bcdd6538d"),
    ),
    "queue-counter-tree-object-2": (
        _projection(queue_counter_tree, 2), ("c1431ab349b4058c", "ff61a7243f42c896"),
    ),
}


@pytest.mark.parametrize("case", TREE_PINS)
def test_tree_construction_is_pinned(tmp_path, case):
    build, want = TREE_PINS[case]
    if isinstance(want, str):
        with pytest.raises(TreeError) as err:
            build()
        assert str(err.value) == want
        return
    text = build().to_json()
    # from_json takes every tree to_json writes, projections included
    assert HistoryTree.from_json(text).to_json() == text
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("tree.json", "w", encoding="utf-8") as fh:
            fh.write(text)
        printed = runner.invoke(cli_main, ["check-strong-lin", "tree.json"]).output
    digests = tuple(
        hashlib.sha256(b.encode()).hexdigest()[:16] for b in (text, printed)
    )
    assert digests == want


# ---------------------------------------------------------------------------
# linearize_one against a brute-force oracle
# ---------------------------------------------------------------------------


def brute_linearizable(h, specs):
    """Subset of pendings, then every permutation, then replay."""
    ops = h.operations()
    done = [o for o in ops if o.complete]
    pend = [
        o for o in ops
        if not o.complete and h.objects[o.obj].type_name != "coin"
    ]
    for r in range(len(pend) + 1):
        for extra in itertools.combinations(pend, r):
            for perm in itertools.permutations(done + list(extra)):
                ok = True
                for i, a in enumerate(perm):
                    for b in perm[i + 1:]:
                        if b.rsp_index is not None and b.rsp_index < a.inv_index:
                            ok = False
                if not ok:
                    continue
                states = {}
                for o in perm:
                    spec = specs[o.obj]
                    state = states.get(o.obj, spec.initial_state)
                    state2, resp = spec.transition(state, o.op, o.args, o.process)
                    states[o.obj] = state2
                    if o.complete:
                        if resp is not ANY_RESPONSE and resp != o.ret:
                            ok = False
                            break
                    elif resp is ANY_RESPONSE:
                        ok = False
                        break
                if ok:
                    return True
    return False


def _draw_op(draw, flavor):
    # One operation with a freely drawn response: (op, args, ret).
    if flavor == "register":
        if draw(st.booleans()):
            return ("write", (draw(st.integers(1, 2)),), None)
        return ("read", (), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        return ("enqueue", (draw(st.integers(1, 2)),), None)
    return ("dequeue", (), draw(st.sampled_from([BOTTOM, 1, 2])))


SPEC_OF_FLAVOR = {"register": register_spec, "queue": queue_spec}


@st.composite
def small_histories(draw, flavors=None):
    """Interleaved register and queue traffic with adversarial responses.

    One object, a register or a queue, unless ``flavors`` names one
    object per entry (ids 0, 1, ...), each operation drawing its object.
    Responses are drawn freely from small pools, so a sizable fraction
    of draws is not linearizable; that is the point.
    """
    if flavors is None:
        flavors = (draw(st.sampled_from(["register", "queue"])),)
    objs = {
        oid: ObjectInfo(flavor, BASE, (("key", "XY"[oid]),))
        for oid, flavor in enumerate(flavors)
    }
    nproc = draw(st.integers(min_value=1, max_value=3))
    scripts = []
    total = 0
    for p in range(nproc):
        n = draw(st.integers(min_value=0, max_value=3))
        n = min(n, 6 - total)
        total += n
        ops = []
        for _ in range(n):
            oid = draw(st.integers(0, len(flavors) - 1)) if len(flavors) > 1 else 0
            ops.append((oid, *_draw_op(draw, flavors[oid])))
        scripts.append(ops)
    steps = []
    open_op = {p: None for p in range(nproc)}
    cursor = {p: 0 for p in range(nproc)}
    while True:
        live = [
            p
            for p in range(nproc)
            if open_op[p] is not None or cursor[p] < len(scripts[p])
        ]
        if not live:
            break
        p = draw(st.sampled_from(live))
        if open_op[p] is None:
            oid, op, args, ret = scripts[p][cursor[p]]
            cursor[p] += 1
            steps.append(inv(p, oid, op, args))
            open_op[p] = (oid, op, ret)
        else:
            oid, op, ret = open_op[p]
            if draw(st.booleans()):
                steps.append(rsp(p, oid, op, ret))
            else:
                cursor[p] = len(scripts[p])  # abandon: stays pending forever
            open_op[p] = None
    specs = {oid: SPEC_OF_FLAVOR[flavor]() for oid, flavor in enumerate(flavors)}
    return History(tuple(steps), tuple(range(nproc)), objs), specs


def register_and_queue_histories():
    """``small_histories`` over a register (object 0) and a queue (1)."""
    return small_histories(("register", "queue"))


@settings(max_examples=500, deadline=None)
@given(small_histories())
def test_linearize_one_matches_brute_force(case):
    h, specs = case
    got = linearize_one(h, specs)
    assert (got is not None) == brute_linearizable(h, specs)
    if got is not None:
        # validate_sequential raises on a non-sequential history.
        assert validate_sequential(got, specs)
        # every completed source op must appear (match on process + order)
        per_proc_done = {
            p: sum(1 for o in h.operations() if o.process == p and o.complete)
            for p in h.processes
        }
        per_proc_img = {
            p: sum(1 for o in got.operations() if o.process == p)
            for p in h.processes
        }
        for p in h.processes:
            assert per_proc_img.get(p, 0) >= per_proc_done[p]


def whole_history_linearizable(h, specs):
    """The commit search over all of ``h``'s operations at once, in
    ``linearize_one``'s candidate order: the search it made before it
    searched each object alone, kept here as an oracle only."""
    ops = sorted(h.operations(), key=lambda o: (o.complete is False, o.process, o.inv_index))
    need = frozenset(o.inv_index for o in ops if o.complete)
    return next(_linearizations(ops, _preds(ops), need, specs, {}), None) is not None


def image_sources(h, image):
    """The operation of ``h`` behind each operation of ``image``, in image
    order: a process's k-th image operation is its k-th one in ``h``."""
    own = {p: iter([o for o in h.operations() if o.process == p]) for p in h.processes}
    out = []
    for e in image.operations():
        src = next(own[e.process])
        assert (src.obj, src.op, src.args) == (e.obj, e.op, e.args)
        out.append(src)
    return out


@settings(max_examples=300, deadline=None)
@given(register_and_queue_histories())
def test_per_object_search_matches_the_whole_history_search(case):
    h, specs = case
    got = linearize_one(h, specs)
    assert (got is not None) == brute_linearizable(h, specs)
    assert (got is not None) == whole_history_linearizable(h, specs)
    if got is not None:
        assert validate_sequential(got, specs)
        srcs = image_sources(h, got)
        done = {o.inv_index for o in h.operations() if o.complete}
        assert done <= {src.inv_index for src in srcs}
        for i, a in enumerate(srcs):
            assert not any(happens_before(b, a) for b in srcs[i + 1:])


@settings(max_examples=300, deadline=None)
@given(small_histories())
def test_commit_search_yields_every_order_once_in_candidate_order(case):
    # The memo must never drop an order: compare with every permutation,
    # which itertools lists in the same candidate order.
    h, specs = case
    ops = sorted(h.operations(), key=lambda o: (o.process, o.inv_index))
    need = frozenset(o.inv_index for o in ops)
    orders = _linearizations(ops, _preds(ops), need, specs, {})
    want = []
    for perm in itertools.permutations(ops):
        late = [b for i, a in enumerate(perm) for b in perm[i + 1:]
                if b.rsp_index is not None and b.rsp_index < a.inv_index]
        if late:
            continue
        states, image = {}, []
        for o in perm:
            spec = specs[o.obj]
            state = states.get(o.obj, spec.initial_state)
            states[o.obj], resp = spec.transition(state, o.op, o.args, o.process)
            if o.complete:
                if resp is not ANY_RESPONSE and resp != o.ret:
                    break
                resp = o.ret
            elif resp is ANY_RESPONSE:
                break
            image.append(o if o.complete else replace(o, ret=resp))
        else:
            want.append(tuple(image))
    assert [img for img, _states in orders] == want


def test_linearize_one_pinned_cases():
    # read of a value never written
    h = History(
        (inv(0, 0, "write", (1,)), rsp(0, 0, "write"),
         inv(0, 0, "read"), rsp(0, 0, "read", 7)),
        (0,), REG_OBJS,
    )
    assert linearize_one(h, {0: register_spec()}) is None
    # FIFO violation
    h = History(
        (inv(0, 0, "enqueue", (1,)), rsp(0, 0, "enqueue"),
         inv(0, 0, "enqueue", (2,)), rsp(0, 0, "enqueue"),
         inv(0, 0, "dequeue"), rsp(0, 0, "dequeue", 2)),
        (0,), QUEUE_OBJS,
    )
    assert linearize_one(h, {0: queue_spec()}) is None
    # pending write may be borrowed to explain a read
    h = History(
        (inv(1, 0, "write", (2,)),
         inv(0, 0, "read"), rsp(0, 0, "read", 2)),
        (0, 1), REG_OBJS,
    )
    got = linearize_one(h, {0: register_spec()})
    assert got is not None
    assert [s.payload for s in got.steps if s.is_rsp()] == [None, 2]
    with pytest.raises(CheckerError, match="^no specification for object 0$"):
        linearize_one(h, {})
    # identical pending updates that a scan tells apart by their process
    objs = {0: ObjectInfo("snapshot", BASE, (("key", "S"),))}
    h = History(
        (inv(1, 0, "update", (1,)), inv(2, 0, "update", (1,)), inv(3, 0, "update", (1,)),
         inv(0, 0, "scan"), rsp(0, 0, "scan", (0, 0, 1, 0))),
        (0, 1, 2, 3), objs,
    )
    got = linearize_one(h, default_specs(objs, h.processes))
    rsps = [(s.process, s.payload) for s in got.steps if s.is_rsp()]
    assert rsps == [(2, None), (0, (0, 0, 1, 0))]


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def test_register_flip_tree_has_witness():
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    w = check_strong_lin(tree, specs)
    assert w is not None
    assert set(w) == set(tree.node_ids())
    assert witness_violations(tree, w, specs) == []
    # root image is empty, leaf images carry everything completed
    assert w[0] == ()
    for leaf in tree.leaves():
        done = sum(1 for o in tree.ops_of(leaf) if o.complete)
        assert len(w[leaf]) >= done


def assert_single_path_tree_agrees(case):
    # check_strong_lin searches the whole one-run tree: a second route to
    # linearize_one's verdict.
    h, specs = case
    tree = HistoryTree.from_runs({(0,): h})
    w = check_strong_lin(tree, specs)
    lin = linearize_one(h, specs)
    assert (w is None) == (lin is None)
    if w is not None:
        assert witness_violations(tree, w, specs) == []


@settings(max_examples=200, deadline=None)
@given(small_histories())
def test_single_path_tree_agrees_with_linearize_one(case):
    assert_single_path_tree_agrees(case)


@settings(max_examples=200, deadline=None)
@given(register_and_queue_histories())
def test_single_path_tree_agrees_with_linearize_one_on_two_objects(case):
    assert_single_path_tree_agrees(case)


def committed_enqueue_tree(enqueues=2):
    """Completed concurrent enqueues of 1, 2, ..., then a flip whose
    branches demand opposite orders of 1 and 2.  Each leaf linearizes on
    its own, but no image for the shared prefix survives both branches,
    and the search learns that only after trying every enqueue order."""
    objs = {
        0: ObjectInfo("queue", BASE, (("key", "Q"),)),
        1: ObjectInfo("coin", BASE, (("process", 0),)),
    }
    racers = range(1, enqueues + 1)
    common = (
        tuple(inv(p, 0, "enqueue", (p,)) for p in racers)
        + tuple(rsp(p, 0, "enqueue") for p in racers)
        + (inv(0, 1, "flip"),)
    )
    h0 = common + (
        rsp(0, 1, "flip", 0),
        inv(0, 0, "dequeue"), rsp(0, 0, "dequeue", 1),
    )
    h1 = common + (
        rsp(0, 1, "flip", 1),
        inv(0, 0, "dequeue"), rsp(0, 0, "dequeue", 2),
        inv(0, 0, "dequeue"), rsp(0, 0, "dequeue", 1),
    )
    procs = tuple(range(enqueues + 1))
    runs = {(0,): History(h0, procs, objs), (1,): History(h1, procs, objs)}
    return HistoryTree.from_runs(runs, omega=(0, 1))


def test_committed_enqueues_defeat_every_witness():
    tree = committed_enqueue_tree()
    specs = default_specs(tree.objects, tree.processes)
    for leaf in tree.leaves():
        assert linearize_one(tree.history_of(leaf), specs) is not None
    assert check_strong_lin(tree, specs) is None


# ---------------------------------------------------------------------------
# check_strong_lin against a brute-force oracle
# ---------------------------------------------------------------------------


def brute_images(tree, nid, pimg, specs):
    """Every candidate image of a node extending its parent's image.

    The parent's image comes first, as (P) demands; after it, each order
    of the node's other completed ops plus any subset of its other
    pending non-coin ops, pending responses taken from a replay of that
    order.  Validity is left to witness_violations.
    """
    def replay(states, o):
        spec = specs[o.obj]
        state = states.get(o.obj, spec.initial_state)
        states[o.obj], resp = spec.transition(state, o.op, o.args, o.process)
        return resp

    pstates = {}
    for e in pimg:
        replay(pstates, e)
    taken = {e.inv_index for e in pimg}
    ops = [o for o in tree.ops_of(nid) if o.inv_index not in taken]
    done = [o for o in ops if o.complete]
    pend = [
        o for o in ops
        if not o.complete and tree.objects[o.obj].type_name != "coin"
    ]
    for r in range(len(pend) + 1):
        for extra in itertools.combinations(pend, r):
            for perm in itertools.permutations(done + list(extra)):
                states, img = dict(pstates), list(pimg)
                for o in perm:
                    resp = replay(states, o)
                    img.append(o if o.complete else replace(o, ret=resp))
                yield tuple(img)


def brute_strong_linearizable(tree, specs):
    """Try every candidate image at every node, subtree by subtree.

    A node keeps a candidate only where the per-node definition of the
    witness rules (plain_node_violation, below) finds nothing wrong with
    it given its parent's image, and only when every child subtree can
    be completed under it.  The assembled assignment is accepted iff
    plain_witness_violations is empty for the whole tree.
    """

    def solve(nid, pimg):
        pid = tree.parent(nid)
        for img in brute_images(tree, nid, pimg, specs):
            pair = {nid: img} if pid is None else {pid: pimg, nid: img}
            if plain_node_violation(tree, pair, specs, nid) is not None:
                continue
            out = {nid: img}
            for c in tree.children(nid):
                sub = solve(c, img)
                if sub is None:
                    break
                out.update(sub)
            else:
                return out
        return None

    witness = solve(tree.root, ())
    return witness is not None and plain_witness_violations(tree, witness, specs) == []


@st.composite
def tiny_trees(draw, max_flips=1):
    """Racing updates around flips of process 0.

    Processes 1 and 2 invoke one update each before the first flip, and
    a drawn subset of them respond before it, in a drawn order.  In each
    branch they then take a few more steps and process 0 observes the
    object once or twice, all with freely drawn responses; with
    ``max_flips`` 2, a branch may then flip again and repeat that.  So
    some draws have linearizable leaves but no prefix-preserving
    witness: the racing operations that completed before a flip must be
    ordered there, and the branches can demand opposite orders.
    Observers return the initial value or one some invocation passed in.
    """
    flavor = draw(st.sampled_from(["register", "queue"]))
    objs = REG_OBJS if flavor == "register" else QUEUE_OBJS
    nproc = 3
    racers = range(1, nproc)

    def invocation(p, update):
        # an update passes in its process id, so racing updates differ
        if flavor == "register":
            return inv(p, 0, "write", (p,)) if update else inv(p, 0, "read")
        return inv(p, 0, "enqueue", (p,)) if update else inv(p, 0, "dequeue")

    def response(p, op, before):
        if op in ("write", "enqueue"):
            return rsp(p, 0, op)
        seen = sorted({s.payload[0] for s in before if s.is_inv() and s.payload})
        empty = 0 if op == "read" else BOTTOM
        return rsp(p, 0, op, draw(st.sampled_from([empty] + seen)))

    prefix = [invocation(p, True) for p in racers]
    open_op = {s.process: s.op for s in prefix}
    order = draw(st.permutations(racers))
    for p in order[: draw(st.integers(0, len(order)))]:
        prefix.append(response(p, open_op.pop(p), prefix))
    prefix.append(inv(0, 1, "flip"))
    flips = draw(st.integers(1, max_flips)) if max_flips > 1 else 1
    runs = {}

    def branches(prefix, open_op, coins):
        for c in (0, 1):
            steps = prefix + [rsp(0, 1, "flip", c)]
            pending = dict(open_op)
            for _ in range(draw(st.integers(0, 2))):
                p = draw(st.sampled_from(racers))
                if p in pending:
                    steps.append(response(p, pending.pop(p), steps))
                else:
                    steps.append(invocation(p, draw(st.booleans())))
                    pending[p] = steps[-1].op
            for _ in range(draw(st.integers(1, 2))):
                steps.append(invocation(0, False))
                steps.append(response(0, steps[-1].op, steps))
            if len(coins) + 1 < flips:
                branches(steps + [inv(0, 1, "flip")], pending, coins + (c,))
            else:
                runs[coins + (c,)] = History(tuple(steps), tuple(range(nproc)), objs)

    branches(prefix, open_op, ())
    tree = HistoryTree.from_runs(runs, omega=(0, 1))
    return tree, default_specs(tree.objects, tree.processes)


@settings(max_examples=300, deadline=None)
@given(tiny_trees())
def test_check_strong_lin_matches_brute_force(case):
    tree, specs = case
    got = check_strong_lin(tree, specs)
    assert (got is not None) == brute_strong_linearizable(tree, specs)
    if got is not None:
        assert witness_violations(tree, got, specs) == []


# ---------------------------------------------------------------------------
# Per-node operations, extended from the parent's, against whole histories
# ---------------------------------------------------------------------------


def assert_ops_match_histories(tree):
    """ops_of equals history_of(nid).operations() on every node, leaves
    first (each call walks to an uncached ancestor) and again in id order
    (cached); a history that does not pair gives the same message.  Both
    sides pair by histories.pair_steps, so this checks the frame cache and
    the path walk; test_histories pins the rule itself.  The frame's open
    operations, which check_strong_lin's pending cap counts, are as many
    as the pending ones."""
    for nid in tree.node_ids()[::-1] + tree.node_ids():
        try:
            want = tree.history_of(nid).operations()
        except MalformedHistoryError as exc:
            with pytest.raises(TreeError) as err:
                tree.ops_of(nid)
            assert str(err.value) == f"node {nid}: {exc}"
        else:
            assert tree.ops_of(nid) == want
            assert len(tree._frame(nid)[1]) == sum(1 for o in want if not o.complete)


@pytest.mark.parametrize("make", [
    mutex_counter_tree,
    hw_atomic_dequeue_tree,
    counter_race_tree,
    lambda: HistoryTree.from_runs(mutex_counter_runs(), omega=(0, 1)),
    queue_counter_tree,
], ids=["mutex-counter", "hw-atomic-dequeues", "counter-race",
        "composed-mutex-counters", "composed-queue-counter"])
def test_ops_of_matches_history_operations_on_suite_trees(make):
    assert_ops_match_histories(make())


@settings(max_examples=100, deadline=None)
@given(tiny_trees(max_flips=2))
def test_ops_of_matches_history_operations_on_tiny_trees(case):
    assert_ops_match_histories(case[0])


def lvl(step, level):
    return step._replace(level=level)


@pytest.mark.parametrize("steps", [
    [rsp(0, 0, "read", 0)],
    [inv(0, 0, "read"), inv(0, 0, "write", (1,))],
    [inv(0, 0, "read"), rsp(0, 0, "write")],
    # one open operation per level: a base call inside an interpreted one
    [lvl(inv(0, 2, "read"), INTERPRETED), inv(1, 0, "read"), inv(0, 0, "write", (1,)),
     rsp(0, 0, "write"), rsp(1, 0, "read", 0), lvl(rsp(0, 2, "read", 1), INTERPRETED),
     lvl(rsp(1, 2, "read", 1), INTERPRETED)],
], ids=["response-first", "double-invoke", "mismatch", "two-levels"])
def test_ops_of_rejects_what_history_operations_rejects(steps):
    # Read as JSON, which keeps base steps inside method calls.
    nodes = [{"id": 0, "parent": None, "step": None}] + [
        {"id": i + 1, "parent": i, "step": step_doc(s)} for i, s in enumerate(steps)
    ]
    # object 2 is an implemented register, so its steps are interpreted
    objects = {**REG_OBJS, 2: ObjectInfo("register", INTERPRETED, (("key", "S"),))}
    doc = {"processes": [0, 1], "objects": objects_doc(objects), "nodes": nodes}
    assert_ops_match_histories(HistoryTree.from_json(json.dumps(doc)))


# ---------------------------------------------------------------------------
# The dead-subtree memo against the unmemoized search
# ---------------------------------------------------------------------------


def unmemoized_strong_lin(tree, specs):
    """check_strong_lin's frame loop without its dead-subtree memo.

    The reference the memo must agree with, witness for witness: the
    memo may skip only subtrees that this loop explores and abandons.
    """

    class Frame:
        def __init__(self, nid, exts):
            self.nid, self.exts = nid, exts
            self.img, self.kids, self.results = None, iter(()), {}

    def extensions(nid, img, states):
        return checkers._image_extensions(tree, nid, img, states, specs)

    frames = [Frame(tree.root, extensions(tree.root, (), {}))]
    while frames:
        f = frames[-1]
        if f.img is None:
            for img, states in f.exts:
                kids = []
                for c in tree.children(f.nid):
                    exts = extensions(c, img, states)
                    first = next(exts, None)
                    if first is None:
                        break
                    kids.append(Frame(c, itertools.chain((first,), exts)))
                else:
                    f.img, f.kids, f.results = img, iter(kids), {}
                    break
            else:
                frames.pop()
                if not frames:
                    return None
                frames[-1].img = None
                continue
        kid = next(f.kids, None)
        if kid is not None:
            frames.append(kid)
            continue
        solved = {f.nid: f.img, **f.results}
        frames.pop()
        if not frames:
            return solved
        frames[-1].results.update(solved)
    return None


@settings(max_examples=300, deadline=None)
@given(tiny_trees(max_flips=2))
def test_memoized_search_matches_unmemoized_search(case):
    tree, specs = case
    assert check_strong_lin(tree, specs) == unmemoized_strong_lin(tree, specs)


@pytest.mark.parametrize(
    "make",
    [
        hw_atomic_dequeue_tree,
        queue_counter_tree,
        functools.partial(committed_enqueue_tree, 3),
        functools.partial(committed_enqueue_tree, 4),
        functools.partial(committed_enqueue_tree, 5),
    ],
    ids=["hw-atomic-dequeue", "queue-counter", "enqueues-3", "enqueues-4", "enqueues-5"],
)
def test_memo_prunes_refutations_without_changing_them(make, monkeypatch):
    tree = make()
    specs = default_specs(tree.objects, tree.processes)
    calls = {"memo": 0, "reference": 0}
    side = "memo"
    real = checkers._image_extensions

    def counted(*args):
        calls[side] += 1
        return real(*args)

    monkeypatch.setattr(checkers, "_image_extensions", counted)
    got = check_strong_lin(tree, specs)
    side = "reference"
    assert got == unmemoized_strong_lin(tree, specs)
    assert calls["memo"] < calls["reference"]


def pending_increments_tree():
    """Two pending increments that a completed third one must follow.

    Process 3's increment returns 2 before the flip, so every image
    there commits the increments of processes 1 and 2 ahead of it.
    Either order leaves the counter at 3; only the responses tell the
    orders apart.  Both branches need process 2's increment first, which
    is the second order the search tries.
    """
    objs = {
        0: ObjectInfo("strong-counter", BASE, (("key", "X"),)),
        1: ObjectInfo("coin", BASE, (("process", 0),)),
    }
    common = (
        inv(1, 0, "fetch_inc"),
        inv(2, 0, "fetch_inc"),
        inv(3, 0, "fetch_inc"),
        rsp(3, 0, "fetch_inc", 2),
        inv(0, 1, "flip"),
    )
    h0 = common + (rsp(0, 1, "flip", 0), rsp(1, 0, "fetch_inc", 1))
    h1 = common + (rsp(0, 1, "flip", 1), rsp(2, 0, "fetch_inc", 0))
    runs = {(0,): History(h0, (0, 1, 2, 3), objs), (1,): History(h1, (0, 1, 2, 3), objs)}
    return HistoryTree.from_runs(runs, omega=(0, 1))


def test_memo_tells_parent_images_apart_by_their_responses():
    tree = pending_increments_tree()
    specs = default_specs(tree.objects, tree.processes)
    got = check_strong_lin(tree, specs)
    assert got is not None and got == unmemoized_strong_lin(tree, specs)
    branch = next(n for n in tree.node_ids() if len(tree.children(n)) > 1)
    assert [(e.process, e.ret) for e in got[branch]] == [(2, 0), (1, 1), (3, 2)]


@pytest.mark.parametrize("first", [1, 2])
def test_tree_search_commits_identical_pending_increments_in_either_order(first):
    # linearize_one tries one of two identical pending increments per
    # position; the tree search must try both.  Here no image may commit
    # an increment before the runs part (the read in run "read" returns
    # 0), and in run "inc" both increments precede process 3's, which
    # returns 2, with process ``first``'s returning 0: one node must
    # commit both, process ``first``'s first.
    objs = {0: ObjectInfo("strong-counter", BASE, (("key", "X"),))}
    common = (inv(1, 0, "fetch_inc"), inv(2, 0, "fetch_inc"), inv(3, 0, "fetch_inc"))
    runs = {
        ("inc",): common + (rsp(3, 0, "fetch_inc", 2), rsp(first, 0, "fetch_inc", 0)),
        ("read",): common + (inv(4, 0, "read"), rsp(4, 0, "read", 0)),
    }
    tree = HistoryTree.from_runs({k: History(h, tuple(range(5)), objs) for k, h in runs.items()})
    specs = default_specs(tree.objects, tree.processes)
    got = check_strong_lin(tree, specs)
    assert got is not None and not witness_violations(tree, got, specs)
    assert brute_strong_linearizable(tree, specs)
    leaf = next(n for n in tree.leaves() if tree.step(n).process == first)
    assert [(e.process, e.ret) for e in got[leaf]] == [(first, 0), (3 - first, 1), (3, 2)]


IDENTICAL_PENDING = {
    # flavor: registry type, pending (op, args) classes, completed
    # operations as (op, args, responses or a function of the width)
    "counter": ("strong-counter", [("fetch_inc", ()), ("fetch_dec", ())],
                [("fetch_inc", (), range(-2, 5)), ("fetch_dec", (), range(-2, 5)),
                 ("read", (), range(-3, 7))]),
    "register": ("register", [("write", (1,)), ("write", (2,))],
                 [("write", (1,), [None]), ("write", (2,), [None]), ("read", (), range(3))]),
    "queue": ("queue", [("enqueue", (1,))],
              [("enqueue", (2,), [None]), ("dequeue", (), [BOTTOM, 1, 2])]),
    # The steps of these two read the process, so no pruning: a pending
    # update sets its own process's component, which a scan tells apart.
    "llsc": ("llsc-register", [("sc", (1,)), ("ll", ())],
             [("ll", (), range(3)), ("sc", (2,), [0, 1]), ("read", (), range(3))]),
    "snapshot": ("snapshot", [("update", (1,))],
                 [("update", (2,), [None]),
                  ("scan", (), lambda width: [tuple(int(i == j) for i in range(width))
                                              for j in range(width + 1)])]),
}


@st.composite
def identical_pending_histories(draw):
    """One object on which processes 1..k, 3 <= k <= 6, each end by
    leaving the same operation pending.  Up to 7 - k completed
    operations, with freely drawn responses, go to processes 0..k, each
    before its process's pending one; steps interleave at random.  At
    most 7 operations in all, so that brute_linearizable stays quick."""
    type_name, classes, own = IDENTICAL_PENDING[draw(st.sampled_from(sorted(IDENTICAL_PENDING)))]
    op, args = draw(st.sampled_from(classes))
    k = draw(st.integers(3, 6))
    scripts = {p: [] for p in range(k + 1)}
    for _ in range(draw(st.integers(0, 7 - k))):
        o, a, pool = draw(st.sampled_from(own))
        ret = draw(st.sampled_from(list(pool(k + 1) if callable(pool) else pool)))
        scripts[draw(st.integers(0, k))] += [inv(0, 0, o, a), rsp(0, 0, o, ret)]
    for p in range(1, k + 1):
        scripts[p].append(inv(p, 0, op, args))
    steps = []
    while any(scripts.values()):
        p = draw(st.sampled_from([p for p in scripts if scripts[p]]))
        steps.append(scripts[p].pop(0)._replace(process=p))
    objs = {0: ObjectInfo(type_name, BASE, (("key", "X"),))}
    h = History(tuple(steps), tuple(range(k + 1)), objs)
    return h, default_specs(objs, h.processes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(identical_pending_histories())
def test_linearize_one_prunes_identical_pending_operations_soundly(case):
    h, specs = case
    got = linearize_one(h, specs)
    assert (got is not None) == brute_linearizable(h, specs)
    assert (got is not None) == whole_history_linearizable(h, specs)
    # The order found is the one the search without the rule finds first.
    ops = sorted(h.operations(), key=lambda o: (o.complete is False, o.process, o.inv_index))
    need = frozenset(o.inv_index for o in ops if o.complete)
    first = next(_linearizations(ops, _preds(ops), need, specs, {}), None)
    assert got == (None if first is None else image_history(h, first[0]))


@settings(max_examples=300, deadline=None)
@given(small_histories(), st.data())
def test_image_order_check_matches_pairwise_definition(case, data):
    # witness_violations checks the order in one pass; the definition
    # asks of every pair whether the later op happens before the earlier.
    h, specs = case
    tree = HistoryTree.from_runs({(0,): h})
    leaf = tree.leaves()[0]
    ops = data.draw(st.permutations(tree.ops_of(leaf)))
    image = tuple(ops)
    late = any(happens_before(b, a) for i, a in enumerate(ops) for b in ops[i + 1:])
    flagged = f"node {leaf}: image order violates happens-before"
    assert (flagged in witness_violations(tree, {leaf: image}, specs)) == late


def test_an_image_holds_the_nodes_own_operations():
    # A completed entry is the operation ops_of returned; a committed
    # pending one differs from it only in the response its replay
    # derived.  check_locality carries its projections' responses, so
    # its entries only equal the tree's operations.
    def entries(tree, witness):
        for nid, img in witness.items():
            ops = {o.inv_index: o for o in tree.ops_of(nid)}
            for e in img:
                op = ops[e.inv_index]
                if not e.complete:
                    assert e == replace(op, rsp_index=None, ret=e.ret)
                yield e, op

    # p1 reads the 1 that p0's pending write puts there
    h = History(
        (inv(0, 0, "write", (1,)), inv(1, 0, "read"), rsp(1, 0, "read", 1)), (0, 1), REG_OBJS
    )
    pending = HistoryTree.from_runs({(0,): h})
    mutex = mutex_counter_tree()
    for tree in (pending, counter_race_tree(), mutex):
        specs = default_specs(tree.objects, tree.processes)
        found = check_strong_lin(tree, specs)
        for witness in (found, normalize_witness(tree, found, specs)):
            assert all(e is op for e, op in entries(tree, witness) if e.complete)
        if tree is pending:
            assert not found[tree.leaves()[0]][0].complete
    located = check_locality(mutex, specs).witness  # specs are mutex's
    assert all(e == op for e, op in entries(mutex, located) if e.complete)


def test_tampered_witnesses_are_rejected():
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    w = dict(check_strong_lin(tree, specs))
    leaf = tree.leaves()[0]

    bad = dict(w)
    e = bad[leaf][-1]
    bad[leaf] = bad[leaf][:-1] + (replace(e, ret=99),)
    assert any("response" in v or "valid" in v
               for v in witness_violations(tree, bad, specs))

    bad = dict(w)
    bad[leaf] = bad[leaf][:-1]  # drop a completed operation
    assert witness_violations(tree, bad, specs) != []

    bad = dict(w)
    bad[leaf] = bad[leaf][::-1]  # breaks prefix property at least
    assert witness_violations(tree, bad, specs) != []

    bad = dict(w)
    del bad[leaf]
    assert any("no image" in v for v in witness_violations(tree, bad, specs))


def test_search_guards():
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    with pytest.raises(TreeError):
        check_strong_lin(tree, specs, node_cap=3)
    h = History(
        tuple(inv(p, 0, "read") for p in range(3)), (0, 1, 2), REG_OBJS
    )
    small = HistoryTree.from_runs({(0,): h})
    with pytest.raises(TreeError) as err:
        check_strong_lin(small, {0: register_spec()}, pending_cap=2)
    assert str(err.value) == "node 3 has 3 pending operations, cap is 2"


def test_witness_doc_shape():
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    w = check_strong_lin(tree, specs)
    doc = witness_doc(tree, w)
    assert set(doc) == {str(n) for n in tree.node_ids()}
    for nid in tree.node_ids():
        steps = doc[str(nid)]
        assert len(steps) == 2 * len(w[nid])
        assert all(s["kind"] in (INV, RSP) for s in steps)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


# The four operations of counter_race_tree, as image entries.  The
# checkers find an entry's operation by its inv_index and read the
# response index off the history, so these leave rsp_index unset.
RACE_R = OperationInstance(2, None, 2, 0, "fetch_inc", (), 0)
RACE_CF0 = OperationInstance(4, None, 2, 1, "flip", (), 0)
RACE_CF1 = OperationInstance(4, None, 2, 1, "flip", (), 1)


def race_p(ret):
    return OperationInstance(0, None, 0, 0, "fetch_inc", (), ret)


def race_q(ret):
    return OperationInstance(1, None, 1, 0, "fetch_inc", (), ret)


def late_flip_witness():
    """A valid witness for counter_race_tree that parks both coin
    flips late in their images; nodes 8 and 11 are the leaves."""
    op_r, cf0, cf1, p, q = RACE_R, RACE_CF0, RACE_CF1, race_p, race_q
    return {
        0: (), 1: (), 2: (), 3: (),
        4: (op_r,), 5: (op_r,),
        6: (op_r, p(1), q(2), cf0),
        7: (op_r, p(1), q(2), cf0),
        8: (op_r, p(1), q(2), cf0),
        9: (op_r, cf1, q(1), p(2)),
        10: (op_r, cf1, q(1), p(2)),
        11: (op_r, cf1, q(1), p(2)),
    }


STRANGER = OperationInstance(99, None, 2, 0, "fetch_inc", (), 3)

# One tampered image of leaf 8 per rule witness_violations checks, in
# the order it checks them; the first rule broken is the one reported.
LEAF_TAMPERS = {
    "no image": None,
    f"image op {STRANGER} is not in the history": (
        RACE_R, race_p(1), race_q(2), RACE_CF0, STRANGER,
    ),
    "image response differs from history": (RACE_R, race_p(5), race_q(2), RACE_CF0),
    "duplicate operation in image": (RACE_R, race_p(1), race_q(2), RACE_CF0, RACE_CF0),
    "completed operation missing from image": (RACE_R, race_p(1), RACE_CF0),
    # the flip is invoked after op_r responds
    "image order violates happens-before": (RACE_CF0, RACE_R, race_p(1), race_q(2)),
    # p and q are concurrent, but q's 2 is not the first increment
    "image is not sequentially valid": (RACE_R, race_q(2), race_p(1), RACE_CF0),
    # valid on its own, but node 7 committed the flip last
    "image does not extend its parent's": (RACE_R, RACE_CF0, race_p(1), race_q(2)),
}


@pytest.mark.parametrize("text", list(LEAF_TAMPERS))
def test_each_witness_violation_text_is_pinned(text):
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    bad = late_flip_witness()
    assert witness_violations(tree, bad, specs) == []
    if LEAF_TAMPERS[text] is None:
        del bad[8]
    else:
        bad[8] = LEAF_TAMPERS[text]
    assert witness_violations(tree, bad, specs) == [f"node 8: {text}"]


def test_witness_violations_reports_one_message_per_bad_node_in_node_order():
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    bad = late_flip_witness()
    # nodes 8 and 11 each break three rules; node 4's children extend
    # the empty image a missing parent image reads as
    bad[11] = (RACE_R, RACE_CF1, race_p(1), race_q(5))
    bad[8] = (RACE_CF0, RACE_R, race_p(1), race_q(2), RACE_CF0)
    del bad[4]
    assert witness_violations(tree, bad, specs) == [
        "node 4: no image",
        "node 8: duplicate operation in image",
        "node 11: image response differs from history",
    ]


def test_normalize_pulls_flip_next_to_its_predecessor():
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    op_r, cf0, cf1, p, q = RACE_R, RACE_CF0, RACE_CF1, race_p, race_q
    witness = late_flip_witness()
    assert witness_violations(tree, witness, specs) == []
    flagged = normality_violations(tree, witness)
    assert {int(v.split(":")[0].split()[1]) for v in flagged} == {6, 7, 8}

    norm = normalize_witness(tree, witness, specs)
    assert normality_violations(tree, norm) == []
    # the flip moves directly behind the only operation that precedes it
    for nid in (6, 7, 8):
        assert norm[nid] == (op_r, cf0, p(1), q(2))
    # on the other branch the image was already normal, but the entries
    # whose responses are still outstanding fall off the tail
    assert norm[9] == (op_r, cf1)
    assert norm[10] == (op_r, cf1, q(1))
    assert norm[11] == (op_r, cf1, q(1), p(2))
    for nid in range(6):
        assert norm[nid] == witness[nid]


def test_normalize_found_witness_and_rejects_garbage():
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    w = check_strong_lin(tree, specs)
    norm = normalize_witness(tree, w, specs)
    assert witness_violations(tree, norm, specs) == []
    assert normality_violations(tree, norm) == []
    with pytest.raises(CheckerError):
        normalize_witness(tree, {n: () for n in tree.node_ids()}, specs)


@pytest.mark.parametrize("tamper", ["unknown-op", "wrong-op", "no-image"])
def test_normalize_rejects_a_witness_it_cannot_repair(tamper):
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    bad = late_flip_witness()
    if tamper == "unknown-op":
        bad[8] += (STRANGER,)
    elif tamper == "wrong-op":
        # op_r's inv_index, but a flip of the coin
        bad[8] = (OperationInstance(2, None, 2, 1, "flip", (), 0),) + bad[8][1:]
    else:
        del bad[8]  # node 8 has completed operations
    with pytest.raises(CheckerError) as err:
        normalize_witness(tree, bad, specs)
    assert "node 8: " in str(err.value) and "\n" not in str(err.value)


def test_normalize_reports_an_image_that_breaks_happens_before():
    # Node 6 reads before the write that happens before the read, so no
    # slot puts the flip after the write and before the read.
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    w = check_strong_lin(tree, specs)
    write, flip, read = w[6]
    w[6] = (read, write, flip)
    with pytest.raises(CheckerError) as err:
        normalize_witness(tree, w, specs)
    assert str(err.value) == (
        "no valid normal witness: node 6: image order violates happens-before"
    )


def test_normalize_validates_once(monkeypatch):
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    calls = []

    def counting(*args):
        calls.append(args)
        return witness_violations(*args)

    monkeypatch.setattr(checkers, "witness_violations", counting)
    normalize_witness(tree, late_flip_witness(), specs)
    assert len(calls) == 1


@settings(max_examples=500, deadline=None)
@given(small_histories())
def test_normalization_preserves_witness_properties(case):
    h, specs = case
    tree = HistoryTree.from_runs({(0,): h})
    w = check_strong_lin(tree, specs)
    if w is None:
        return
    norm = normalize_witness(tree, w, specs)
    assert witness_violations(tree, norm, specs) == []
    assert normality_violations(tree, norm) == []


# ---------------------------------------------------------------------------
# Witness checks against their per-node definitions
# ---------------------------------------------------------------------------


def plain_witness_violations(tree, witness, specs):
    """The witness rules as their per-node definition.

    Each node's whole image is resolved against the node's history,
    replayed from the initial states and compared with its parent's
    image.  witness_violations checks a node from its parent's record
    instead, and must return exactly these messages; this stays as its
    oracle, and as the validity test of brute_strong_linearizable, so
    the brute-force decider does not lean on the code under test.
    """
    out = []
    for nid in tree.node_ids():
        bad = plain_node_violation(tree, witness, specs, nid)
        if bad is not None:
            out.append(f"node {nid}: {bad}")
    return out


def plain_node_violation(tree, witness, specs, nid):
    # The first rule node ``nid``'s image breaks, or None.
    img = witness.get(nid)
    if img is None:
        return "no image"
    by_key = {o.inv_index: o for o in tree.ops_of(nid)}
    resolved = []
    for e in img:
        op = by_key.get(e.inv_index)
        if op is None or (op.process, op.obj, op.op, op.args) != (
            e.process, e.obj, e.op, e.args
        ):
            return f"image op {e} is not in the history"
        if op.complete and op.ret != e.ret:
            return "image response differs from history"
        resolved.append(op)
    keys = {o.inv_index for o in resolved}
    if len(keys) != len(resolved):
        return "duplicate operation in image"
    if any(o.complete and o.inv_index not in keys for o in tree.ops_of(nid)):
        return "completed operation missing from image"
    for i, a in enumerate(resolved):
        if any(happens_before(b, a) for b in resolved[i + 1:]):
            return "image order violates happens-before"
    states = {}
    for e in img:
        spec = specs[e.obj]
        state = states.get(e.obj, spec.initial_state)
        states[e.obj], resp = spec.transition(state, e.op, e.args, e.process)
        if resp is not ANY_RESPONSE and resp != e.ret:
            return "image is not sequentially valid"
    pid = tree.parent(nid)
    if pid is not None:
        pimg = witness.get(pid, ())
        head = [(e.process, e.inv_index, e.ret) for e in img[: len(pimg)]]
        if head != [(e.process, e.inv_index, e.ret) for e in pimg]:
            return "image does not extend its parent's"
    return None


def plain_normality_violations(tree, witness):
    """normality_violations as its definition: every adjacent pair of
    every node's whole image, looked up in that node's history."""
    out = []
    for nid in tree.node_ids():
        by_key = {o.inv_index: o for o in tree.ops_of(nid)}
        img = witness[nid]
        for i in range(1, len(img)):
            e = img[i]
            if not tree.objects[e.obj].is_coin:
                continue
            if not happens_before(by_key[img[i - 1].inv_index], by_key[e.inv_index]):
                out.append(
                    f"node {nid}: flip at image position {i} follows a "
                    f"concurrent operation"
                )
    return out


def per_pair_placement(tree, witness):
    """normalize_witness's images before its validation, placing each
    flip after the last entry that happens_before it, asked of every
    entry in turn."""
    out = {}
    for nid in tree.node_ids():
        if nid not in witness:
            continue
        by_key = {o.inv_index: o for o in tree.ops_of(nid)}
        img = list(witness[nid])
        if any(e.inv_index not in by_key for e in img):
            out[nid] = tuple(img)
            continue
        while img and not by_key[img[-1].inv_index].complete:
            img.pop()
        coin = [tree.objects[by_key[e.inv_index].obj].is_coin for e in img]
        base = [e for e, c in zip(img, coin) if not c]
        for cf in sorted((e for e, c in zip(img, coin) if c), key=lambda e: e.inv_index):
            lo = 0
            for i, e in enumerate(base):
                if happens_before(by_key[e.inv_index], by_key[cf.inv_index]):
                    lo = i + 1
            base.insert(lo, cf)
        out[nid] = tuple(base)
    return out


def outcome(check, *args):
    # What a normality check returns, or the lookup it fails on: a node
    # without an image, or an entry its history lacks.
    try:
        return check(*args)
    except KeyError as exc:
        return "KeyError", exc.args


def assert_checks_match_definitions(tree, specs, witness):
    assert witness_violations(tree, witness, specs) == plain_witness_violations(
        tree, witness, specs
    )
    assert outcome(normality_violations, tree, witness) == outcome(
        plain_normality_violations, tree, witness
    )
    placed = per_pair_placement(tree, witness)
    bad = plain_witness_violations(tree, placed, specs) or plain_normality_violations(
        tree, placed
    )
    if bad:
        with pytest.raises(CheckerError) as err:
            normalize_witness(tree, witness, specs)
        assert str(err.value) == f"no valid normal witness: {bad[0]}"
    else:
        assert normalize_witness(tree, witness, specs) == placed


def descendants(tree, nid):
    out, todo = [], list(tree.children(nid))
    while todo:
        out.append(todo.pop())
        todo.extend(tree.children(out[-1]))
    return out


def rederived(tree, specs, nid, img):
    """``img`` with each entry pending at node ``nid`` answered by a
    replay, so a reordered image can stay valid there and be contradicted
    only where a later step completes the operation."""
    pending = {o.inv_index for o in tree.ops_of(nid) if not o.complete}
    states, out = {}, []
    for e in img:
        spec = specs[e.obj]
        state = states.get(e.obj, spec.initial_state)
        states[e.obj], resp = spec.transition(state, e.op, e.args, e.process)
        if e.inv_index in pending and resp is not ANY_RESPONSE:
            e = replace(e, ret=resp)
        out.append(e)
    return out


def tampered(data, tree, specs, witness):
    """``witness`` with one to three drawn edits of node images.

    An edit rewrites a node's image: drop, swap, repeat or re-answer
    entries, swap two or commit a pending operation and answer the
    pending ones by replay, insert an operation from elsewhere in the
    tree or one no history has, move the flips last, truncate, or
    delete the image.  With ``spread`` drawn (always for a commit),
    every descendant whose image starts with the node's old image gets
    the same edit of that head, and loses from the rest of its image the operations the edit
    brought into the head; so it still extends the edited image and is
    checked from the node's record.
    """
    bad = dict(witness)
    foreign = sorted({o for leaf in tree.leaves() for o in tree.ops_of(leaf)},
                     key=lambda o: o.inv_index)
    stranger = replace(foreign[0], inv_index=99, rsp_index=None)
    for _ in range(data.draw(st.integers(1, 3))):
        nid = data.draw(st.sampled_from(tree.node_ids()))
        kind = data.draw(st.sampled_from(
            ["drop", "swap", "ret", "repeat", "reorder", "commit", "insert", "flips-last",
             "truncate", "no-image"]
        ))
        if kind == "no-image":
            bad.pop(nid, None)
            continue
        img = bad.get(nid, ())
        head = list(img)
        at = data.draw(st.integers(0, max(len(img) - 1, 0)))
        if kind == "drop" and img:
            del head[at]
        elif kind in ("swap", "reorder") and img:
            other = data.draw(st.integers(0, len(img) - 1))
            head[at], head[other] = head[other], head[at]
            if kind == "reorder":
                head = rederived(tree, specs, nid, head)
        elif kind == "ret" and img:
            head[at] = replace(head[at], ret=data.draw(st.sampled_from([0, 1, 2, None, BOTTOM])))
        elif kind == "repeat" and img:
            head.insert(data.draw(st.integers(0, len(img))), head[at])
        elif kind == "commit":
            # a pending flip too: a replay accepts any outcome for it
            taken = {e.inv_index for e in img}
            pend = [o for o in tree.ops_of(nid) if not (o.complete or o.inv_index in taken)]
            if pend:
                head = rederived(tree, specs, nid, head + [data.draw(st.sampled_from(pend))])
        elif kind == "insert":
            extra = data.draw(st.sampled_from(foreign + [stranger]))
            head.insert(data.draw(st.integers(0, len(img))), extra)
        elif kind == "flips-last":
            head.sort(key=lambda e: tree.objects[e.obj].is_coin)
        elif kind == "truncate":
            del head[at:]
        moved = {e.inv_index for e in head} - {e.inv_index for e in img}
        spread = kind == "commit" or data.draw(st.booleans())
        for d in [nid] + (descendants(tree, nid) if spread else []):
            if d in bad and bad[d][: len(img)] == img:
                rest = bad[d][len(img):]
                bad[d] = tuple(head) + tuple(e for e in rest if e.inv_index not in moved)
    return bad


def some_witness(tree, specs):
    """The search's witness, or, where none exists, each node's completed
    operations in invocation order."""
    found = check_strong_lin(tree, specs)
    if found is not None:
        return found
    return {n: tuple(o for o in tree.ops_of(n) if o.complete) for n in tree.node_ids()}


def test_a_response_that_contradicts_a_committed_guess_is_reported():
    # Node 6 commits both slow increments while they are pending, q's
    # first; node 7's step then completes p with 1, not the guessed 2.
    # Node 7 is checked from node 6's record, node 8 whole.
    tree = counter_race_tree()
    specs = default_specs(tree.objects, tree.processes)
    bad = late_flip_witness()
    for nid in (6, 7, 8):
        bad[nid] = (RACE_R, race_q(1), race_p(2), RACE_CF0)
    want = [
        "node 7: image response differs from history",
        "node 8: image response differs from history",
    ]
    assert witness_violations(tree, bad, specs) == want
    assert plain_witness_violations(tree, bad, specs) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tiny_trees(max_flips=2), st.data())
def test_witness_checks_match_their_per_node_definitions(case, data):
    tree, specs = case
    witness = some_witness(tree, specs)
    assert_checks_match_definitions(tree, specs, witness)
    assert_checks_match_definitions(tree, specs, tampered(data, tree, specs, witness))


@functools.cache
def llsc_counter_case(flips=4, clients=3):
    """Real runs over one ll/sc counter: client 0 flips ``flips`` times
    and increments or decrements on each outcome, the others increment
    twice, under an alternating strong schedule; one run per coin
    vector.  The tree, its specs and the search's witness."""

    def make_program(pid):
        def flipper():
            for _ in range(flips):
                c = yield ("flip",)
                yield ("invoke", "C", "fetch_inc" if c else "fetch_dec", ())

        def bumper():
            for _ in range(2):
                yield ("invoke", "C", "fetch_inc", ())

        return flipper() if pid == 0 else bumper()

    procs = tuple(range(clients))
    alg = AlgorithmSpec(
        procs, (Binding("C", impl=llsc_strong_counter()),), make_program, (0, 1)
    )
    runs = {
        coins: interpret(run(alg, alternating_policy(procs), VectorCoins(coins)).history)
        for coins in itertools.product((0, 1), repeat=flips)
    }
    tree = HistoryTree.from_runs(runs, omega=(0, 1))
    specs = default_specs(tree.objects, tree.processes)
    return tree, specs, check_strong_lin(tree, specs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_witness_checks_match_their_per_node_definitions_on_real_runs(data):
    tree, specs, witness = llsc_counter_case()
    assert witness is not None and len(tree) > 100
    assert_checks_match_definitions(tree, specs, witness)
    assert_checks_match_definitions(tree, specs, tampered(data, tree, specs, witness))


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------


def test_locality_composes_mutex_counters():
    runs = mutex_counter_runs()
    tree = HistoryTree.from_runs(runs, omega=(0, 1))
    impl = sorted(o for o, i in tree.objects.items() if i.level == INTERPRETED)
    assert len(impl) == 2
    specs = default_specs(tree.objects, tree.processes)
    verdict = check_locality(tree, specs)
    assert verdict.status == "witness"
    assert witness_violations(tree, verdict.witness, specs) == []


def test_locality_single_object_reduction():
    runs = mutex_counter_runs()
    tree = HistoryTree.from_runs(runs, omega=(0, 1))
    impl = sorted(o for o, i in tree.objects.items() if i.level == INTERPRETED)
    specs = default_specs(tree.objects, tree.processes)
    for oid in impl:
        proj, _lands = project_tree(tree, oid)
        assert len(proj) <= len(tree)
        w = check_strong_lin(proj, specs)
        assert w is not None
        assert witness_violations(proj, w, specs) == []


def test_locality_not_applicable_without_per_object_witness():
    # an implemented queue whose projected tree repeats the committed
    # enqueue obstruction, plus an unrelated implemented counter
    tree = queue_counter_tree()
    specs = default_specs(tree.objects, tree.processes)
    verdict = check_locality(tree, specs)
    assert verdict.status == "not-applicable"
    assert "object 0" in verdict.detail


def test_locality_reports_a_composed_witness_that_fails_validation(monkeypatch):
    # Every projection still gets a witness, but one whose responses are
    # wrong, so the composed witness cannot re-validate.
    search = checkers.check_strong_lin

    def tampered(tree, specs):
        w = search(tree, specs)
        return {nid: tuple(replace(e, ret="bad") for e in img) for nid, img in w.items()}

    monkeypatch.setattr(checkers, "check_strong_lin", tampered)
    tree = mutex_counter_tree()
    specs = default_specs(tree.objects, tree.processes)
    verdict = check_locality(tree, specs)
    assert verdict.status == "counterexample"
    assert verdict.detail == witness_violations(tree, verdict.witness, specs)[0]
    assert experiments._locality_flag(tree) == "disagree"


def test_locality_rejects_an_atomic_response_without_its_invocation():
    nodes = [
        {"id": 0, "parent": None, "step": None},
        {"id": 1, "parent": 0, "step": step_doc(rsp(0, 0, "read", 0))},
    ]
    doc = {"processes": [0], "objects": objects_doc(REG_OBJS), "nodes": nodes}
    tree = HistoryTree.from_json(json.dumps(doc))
    with pytest.raises(TreeError, match="not adjacent"):
        check_locality(tree, default_specs(tree.objects, tree.processes))
    # The counter race: the slow increments respond after the flip.
    tree = counter_race_tree()
    with pytest.raises(TreeError, match="^atomic response is not adjacent to its invocation$"):
        check_locality(tree, default_specs(tree.objects, tree.processes))


def test_project_tree_demands_interpreted_object():
    tree = write_flip_read_tree()
    base_oid = next(
        o for o, i in tree.objects.items() if i.type_name == "register"
    )
    with pytest.raises(TreeError):
        project_tree(tree, base_oid)
    with pytest.raises(TreeError):
        project_tree(tree, 999)


def test_project_tree_merges_identical_branches():
    runs = mutex_counter_runs()
    tree = HistoryTree.from_runs(runs, omega=(0, 1))
    impl = sorted(o for o, i in tree.objects.items() if i.level == INTERPRETED)
    # C1 finishes before the flip, so its projection is branch-free
    c1 = next(
        o for o in impl
        if ("key", "C1") in tree.objects[o].params
    )
    proj, _lands = project_tree(tree, c1)
    assert all(len(proj.children(n)) <= 1 for n in proj.node_ids())


def test_project_tree_node_map_lands_on_the_filtered_history():
    # The map check_locality composes through: every node lands on the
    # projected node whose history is the node's own, filtered to the
    # object.  These are the suite trees that have implemented objects.
    trees = [
        mutex_counter_tree(),
        queue_counter_tree(),
        HistoryTree.from_runs(mutex_counter_runs(), omega=(0, 1)),
    ]
    for tree in trees:
        for oid, info in tree.objects.items():
            if info.level != INTERPRETED:
                continue
            proj, lands = project_tree(tree, oid)
            assert set(lands) == set(tree.node_ids())
            assert set(lands.values()) == set(proj.node_ids())
            for nid, pn in lands.items():
                mine = [s for s in tree.history_of(nid).steps if s.obj == oid]
                assert list(proj.history_of(pn).steps) == mine


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_locality_on_sampled_composed_runs(rng):
    """Random interleavings of two mutex-wrapped counters still compose."""

    def make_program(pid):
        def prog():
            a = yield ("invoke", "C1", "fetch_inc", ())
            b = yield ("invoke", "C2", "fetch_inc", ())
            return (a, b)

        return prog()

    alg = AlgorithmSpec(
        (0, 1),
        (
            Binding("C1", impl=mutex_wrapped(counter_spec())),
            Binding("C2", impl=mutex_wrapped(counter_spec())),
        ),
        make_program,
    )

    def random_turns(view):
        while alive := [q for q in alg.processes if not view.finished(q)]:
            yield rng.choice(alive)

    adv = plan_policy("strong", random_turns, "random")
    rec = run(alg, adv, VectorCoins([]))
    tree = HistoryTree.from_runs({(): rec})
    specs = default_specs(tree.objects, tree.processes)
    verdict = check_locality(tree, specs)
    assert verdict.status == "witness"
    assert witness_violations(tree, verdict.witness, specs) == []


# ---------------------------------------------------------------------------
# Linearizations of whole runs
# ---------------------------------------------------------------------------


def test_equivalence_of_identical_run_sets():
    for rec in mutex_counter_runs().values():
        h = interpret(rec.history)
        specs = default_specs(h.objects, h.processes)
        w = linearize_one(h, specs)
        assert w is not None
        assert validate_sequential(w, specs)


def test_mutex_counter_equivalent_to_atomic_counter():
    def make_program(pid):
        def prog():
            a = yield ("invoke", "C", "fetch_inc", ())
            if pid == 0:
                c = yield ("flip",)
                return (a, c)
            return a

        return prog()

    impl_alg = AlgorithmSpec(
        (0, 1),
        (Binding("C", impl=mutex_wrapped(counter_spec())),),
        make_program,
        omega=(0, 1),
    )
    atomic_alg = AlgorithmSpec(
        (0, 1), (Binding("C", spec=counter_spec()),), make_program, omega=(0, 1)
    )
    for c in (0, 1):
        impl, atomic = (
            run(alg, drain_policy([1, 0]), VectorCoins([c]))
            for alg in (impl_alg, atomic_alg)
        )
        assert impl.returns == atomic.returns, c
        h = interpret(impl.history)
        assert linearize_one(h, default_specs(h.objects, h.processes)) is not None, c


def test_default_specs_cover_known_types_and_skip_internals():
    objects = {
        0: ObjectInfo("register", BASE, (("key", "R"),)),
        1: ObjectInfo("lock", BASE, (("owner", "C"),)),
        2: ObjectInfo("strong-counter", INTERPRETED, (("key", "C"),), "m"),
        3: ObjectInfo("coin", BASE, (("process", 0),)),
    }
    specs = default_specs(objects, (0, 1))
    assert set(specs) == {0, 2, 3}
    with pytest.raises(CheckerError):
        default_specs({0: ObjectInfo("widget", BASE, ())}, (0,))


# ---------------------------------------------------------------------------
# CAS from registers, end to end
# ---------------------------------------------------------------------------


def _cas_race_record():
    """Two CAS(0, .) calls race for the election while a third, expecting
    a stale value, fails against the current one."""
    calls = {0: (0, 5), 1: (0, 9), 2: (3, 7)}

    def make_program(pid):
        def prog():
            return (yield ("invoke", "K", "cas", calls[pid]))

        return prog()

    alg = AlgorithmSpec(
        (0, 1, 2),
        (Binding("K", impl=cas_from_registers(0)),),
        make_program,
        omega=(0, 1),
    )
    return run(alg, alternating_policy((0, 1, 2)), VectorCoins(()))


def _sketch_points(raw):
    """Per-process points read off the raw steps: an election winner sits
    at its write to the block pointer, each loser at its leader's point
    plus (pid + 1)/(n + 2), and a mismatch failure at the value read that
    produced its return."""
    n = len(raw.processes)
    kind = {oid: info.type_name for oid, info in raw.objects.items()}
    block_of = {
        oid: dict(info.params)["block"]
        for oid, info in raw.objects.items()
        if kind[oid] == "block-election"
    }
    points = {}
    leader_of = {}
    lost_in = {}
    value_read = {}
    for i, s in enumerate(raw.steps):
        if s.level != BASE or not s.is_rsp():
            continue
        if kind[s.obj] == "current-block" and s.op == "write":
            points[s.process] = Fraction(i)
        elif kind[s.obj] == "block-election":
            if s.payload:
                lost_in[s.process] = block_of[s.obj]
            else:
                leader_of[block_of[s.obj]] = s.process
        elif kind[s.obj] == "block-value" and s.op == "read":
            value_read[s.process] = Fraction(i)
    for p, b in lost_in.items():
        points[p] = points[leader_of[b]] + Fraction(p + 1, n + 2)
    for p in raw.processes:
        if p not in points:
            points[p] = value_read[p]
    return points


def test_cas_sketch_points_validate_as_a_linearization():
    rec = _cas_race_record()
    assert rec.returns == {0: 0, 1: 5, 2: 0}

    raw = rec.history
    pts = _sketch_points(raw)
    bounds = {}
    for i, s in enumerate(raw.steps):
        if s.level == INTERPRETED:
            bounds.setdefault(s.process, [None, None])[int(s.is_rsp())] = i
    for p, t in pts.items():
        lo, hi_i = bounds[p]
        assert lo < t < hi_i

    order = sorted(pts, key=pts.get)
    assert order == [2, 0, 1]  # mismatch, then winner, then its loser
    ranked = [pts[p] for p in order]
    assert all(a < b for a, b in zip(ranked, ranked[1:]))

    hi = interpret(raw)
    by_proc = {op.process: op for op in hi.operations()}
    image = tuple(by_proc[p] for p in order)
    specs = default_specs(hi.objects, hi.processes)
    assert validate_sequential(image_history(hi, image), specs)


def test_cas_from_registers_certified_on_a_small_tree():
    def make_program(pid):
        def prog():
            if pid == 0:
                c = yield ("flip",)
                return (yield ("invoke", "K", "cas", (0, 5 + c)))
            return (yield ("invoke", "K", "cas", (0, 9)))

        return prog()

    alg = AlgorithmSpec(
        (0, 1),
        (Binding("K", impl=cas_from_registers(0)),),
        make_program,
        omega=(0, 1),
    )
    runs = {
        (c,): interpret(run(alg, alternating_policy((0, 1)), VectorCoins((c,))).history)
        for c in (0, 1)
    }
    tree = HistoryTree.from_runs(runs, omega=(0, 1))
    specs = default_specs(tree.objects, tree.processes)
    w = check_strong_lin(tree, specs)
    assert w is not None
    assert witness_violations(tree, w, specs) == []
    # p0 returned 9, the value p1 installed, so p1's cas comes first
    for leaf in tree.leaves():
        assert [io.process for io in w[leaf] if io.op == "cas"] == [1, 0]

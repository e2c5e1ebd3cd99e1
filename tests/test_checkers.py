"""History trees, witness search and validation, normalization, locality,
and common linearizations of run pairs."""

import functools
import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from stronglin import checkers
from stronglin.cli import main as cli_main
from stronglin.checkers import (
    CheckerError,
    _candidates,
    _linearizations,
    _preds,
    HistoryTree,
    ImageOp,
    TreeError,
    check_locality,
    check_strong_lin,
    common_linearization,
    default_specs,
    image_history,
    linearize_one,
    normality_violations,
    normalize_witness,
    project_tree,
    validate_witness,
    witness_doc,
    witness_violations,
)
from stronglin.engine import (
    AdversaryPolicy,
    AlgorithmSpec,
    Binding,
    VectorCoins,
    run,
    scripted_policy,
)
from stronglin.experiments import (
    counter_race_tree,
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
        (c,): run(alg, scripted_policy("strong", [0, 0, 1, 0]), VectorCoins([c]))
        for c in (0, 1)
    }
    return HistoryTree.from_runs(runs, omega=(0, 1))


def finish_in_order(order):
    """A strong policy that drains each process to completion in turn."""

    def make_decide():
        queue = list(order)

        def decide(view):
            while queue and view.finished(queue[0]):
                queue.pop(0)
            return queue[0] if queue else None

        return decide

    return AdversaryPolicy("strong", make_decide=make_decide, name="in-order")


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
    with pytest.raises(TreeError):
        HistoryTree.from_runs({(0,): h1, (1,): h2})


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
    with pytest.raises(TreeError):  # branch on a non-flip step
        HistoryTree.from_json(doc([
            {"id": 0, "parent": None, "step": None},
            {"id": 1, "parent": 0, "step": step},
            {"id": 2, "parent": 0, "step": {**step, "payload": [2]}},
        ]))


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
        }),
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
    # The root check comes last, after every node and the branch rule.
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
        "node 1 branches on something other than a flip response",
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
        "node 0 branches on something other than a flip response",
    ),
    "duplicate-outcomes": (
        lambda: HistoryTree.from_json(_flip_branches(1, 1)),
        "node 1 has duplicate branch outcomes",
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
    # A flip response with a null payload is still a flip: it may branch.
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
    # check-strong-lin refuses this projection's JSON: it branches at a
    # dequeue response, which from_json allows only at a flip response.
    "queue-counter-tree-object-0": (
        _projection(queue_counter_tree, 0), ("46a0ff9980b94f25", "4a9b59e0f105dfa5"),
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


@st.composite
def small_histories(draw):
    """Interleaved register and queue traffic with adversarial responses.

    Responses are drawn freely from small pools, so a sizable fraction
    of draws is not linearizable; that is the point.
    """
    flavor = draw(st.sampled_from(["register", "queue"]))
    objs = {0: ObjectInfo(flavor, BASE, (("key", "X"),))}
    nproc = draw(st.integers(min_value=1, max_value=3))
    scripts = []
    total = 0
    for p in range(nproc):
        n = draw(st.integers(min_value=0, max_value=3))
        n = min(n, 6 - total)
        total += n
        ops = []
        for _ in range(n):
            if flavor == "register":
                if draw(st.booleans()):
                    ops.append(("write", (draw(st.integers(1, 2)),), None))
                else:
                    ops.append(("read", (), draw(st.integers(0, 2))))
            else:
                if draw(st.booleans()):
                    ops.append(("enqueue", (draw(st.integers(1, 2)),), None))
                else:
                    ops.append(
                        ("dequeue", (), draw(st.sampled_from([BOTTOM, 1, 2])))
                    )
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
            op, args, ret = scripts[p][cursor[p]]
            cursor[p] += 1
            steps.append(inv(p, 0, op, args))
            open_op[p] = (op, ret)
        else:
            op, ret = open_op[p]
            if draw(st.booleans()):
                steps.append(rsp(p, 0, op, ret))
            else:
                cursor[p] = len(scripts[p])  # abandon: stays pending forever
            open_op[p] = None
    spec = register_spec() if flavor == "register" else queue_spec()
    return History(tuple(steps), tuple(range(nproc)), objs), {0: spec}


@settings(max_examples=500, deadline=None)
@given(small_histories())
def test_linearize_one_matches_brute_force(case):
    h, specs = case
    got = linearize_one(h, specs)
    assert (got is not None) == brute_linearizable(h, specs)
    assert (
        common_linearization(h, h, {"X": specs[0]}) is not None
    ) == brute_linearizable(h, specs)
    if got is not None:
        assert got.is_sequential()
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


@settings(max_examples=300, deadline=None)
@given(small_histories())
def test_commit_search_yields_every_order_once_in_candidate_order(case):
    # The memo must never drop an order: compare with every permutation,
    # which itertools lists in the same candidate order.
    h, specs = case
    ops = sorted(h.operations(), key=lambda o: (o.process, o.inv_index))
    need = frozenset(o.inv_index for o in ops)
    orders = _linearizations(_candidates(ops), _preds(ops), need, specs.__getitem__, {})
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
            image.append(ImageOp(o.process, o.inv_index, o.obj, o.op, o.args, resp))
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


@settings(max_examples=200, deadline=None)
@given(small_histories())
def test_single_path_tree_agrees_with_linearize_one(case):
    h, specs = case
    tree = HistoryTree.from_runs({(0,): h})
    w = check_strong_lin(tree, specs)
    lin = linearize_one(h, specs)
    assert (w is None) == (lin is None)
    if w is not None:
        assert witness_violations(tree, w, specs) == []


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
    taken = {e.key for e in pimg}
    ops = [o for o in tree.ops_of(nid) if (o.process, o.inv_index) not in taken]
    done = [o for o in ops if o.complete]
    pend = [
        o for o in ops
        if not o.complete and tree.objects[o.obj].type_name != "coin"
    ]
    for r in range(len(pend) + 1):
        for extra in itertools.combinations(pend, r):
            for perm in itertools.permutations(done + list(extra)):
                states, img = {}, list(pimg)
                for o in list(pimg) + list(perm):
                    spec = specs[o.obj]
                    state = states.get(o.obj, spec.initial_state)
                    states[o.obj], resp = spec.transition(
                        state, o.op, o.args, o.process
                    )
                    if isinstance(o, ImageOp):
                        continue
                    ret = o.ret if o.complete else resp
                    img.append(ImageOp(o.process, o.inv_index, o.obj, o.op, o.args, ret))
                yield tuple(img)


def brute_strong_linearizable(tree, specs):
    """Try every candidate image at every node, subtree by subtree.

    A node keeps a candidate only where witness_violations finds nothing
    wrong with that node given its parent's image, and only when every
    child subtree can be completed under it.  The assembled assignment
    is accepted iff witness_violations is empty for the whole tree.
    """

    def solve(nid, pimg):
        pid = tree.parent(nid)
        for img in brute_images(tree, nid, pimg, specs):
            pair = {nid: img} if pid is None else {pid: pimg, nid: img}
            here = f"node {nid}:"
            if any(v.startswith(here) for v in witness_violations(tree, pair, specs)):
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
    return witness is not None and witness_violations(tree, witness, specs) == []


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
# Per-node operations, extended from the parent's, against re-pairing
# ---------------------------------------------------------------------------


def assert_ops_match_histories(tree):
    """ops_of equals history_of(nid).operations() on every node, leaves
    first (each call walks to an uncached ancestor) and again in id order
    (cached); a history that does not pair gives the same message."""
    for nid in tree.node_ids()[::-1] + tree.node_ids():
        try:
            want = tree.history_of(nid).operations()
        except MalformedHistoryError as exc:
            with pytest.raises(TreeError) as err:
                tree.ops_of(nid)
            assert str(err.value) == f"node {nid}: {exc}"
        else:
            assert tree.ops_of(nid) == want


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
    [lvl(inv(0, 0, "read"), INTERPRETED), inv(1, 0, "read"), inv(0, 0, "write", (1,)),
     rsp(0, 0, "write"), rsp(1, 0, "read", 0), lvl(rsp(0, 0, "read", 1), INTERPRETED),
     lvl(rsp(1, 0, "read", 1), INTERPRETED)],
], ids=["response-first", "double-invoke", "mismatch", "two-levels"])
def test_ops_of_rejects_what_history_operations_rejects(steps):
    # Read as JSON, which keeps base steps inside method calls.
    nodes = [{"id": 0, "parent": None, "step": None}] + [
        {"id": i + 1, "parent": i, "step": step_doc(s)} for i, s in enumerate(steps)
    ]
    doc = {"processes": [0, 1], "objects": objects_doc(REG_OBJS), "nodes": nodes}
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


@settings(max_examples=300, deadline=None)
@given(small_histories(), st.data())
def test_image_order_check_matches_pairwise_definition(case, data):
    # witness_violations checks the order in one pass; the definition
    # asks of every pair whether the later op happens before the earlier.
    h, specs = case
    tree = HistoryTree.from_runs({(0,): h})
    leaf = tree.leaves()[0]
    ops = data.draw(st.permutations(tree.ops_of(leaf)))
    image = tuple(ImageOp(o.process, o.inv_index, o.obj, o.op, o.args, o.ret) for o in ops)
    late = any(happens_before(b, a) for i, a in enumerate(ops) for b in ops[i + 1:])
    flagged = f"node {leaf}: image order violates happens-before"
    assert (flagged in witness_violations(tree, {leaf: image}, specs)) == late


def test_tampered_witnesses_are_rejected():
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    w = dict(check_strong_lin(tree, specs))
    leaf = tree.leaves()[0]

    bad = dict(w)
    e = bad[leaf][-1]
    bad[leaf] = bad[leaf][:-1] + (
        ImageOp(e.process, e.inv_index, e.obj, e.op, e.args, 99),
    )
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
    with pytest.raises(CheckerError):
        validate_witness(tree, bad, specs)


def test_search_guards():
    tree = write_flip_read_tree()
    specs = default_specs(tree.objects, tree.processes)
    with pytest.raises(TreeError):
        check_strong_lin(tree, specs, node_cap=3)
    h = History(
        tuple(inv(p, 0, "read") for p in range(3)), (0, 1, 2), REG_OBJS
    )
    small = HistoryTree.from_runs({(0,): h})
    with pytest.raises(TreeError):
        check_strong_lin(small, {0: register_spec()}, pending_cap=2)


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


def counter_race_fixture():
    """Three increments on one counter; the third client flips a coin
    right after its own increment returns, and the branch decides which
    of the two slower increments wins."""
    objs = {
        0: ObjectInfo("strong-counter", BASE, (("key", "X"),)),
        1: ObjectInfo("coin", BASE, (("process", 2),)),
    }
    common = (
        inv(0, 0, "fetch_inc"),
        inv(1, 0, "fetch_inc"),
        inv(2, 0, "fetch_inc"),
        rsp(2, 0, "fetch_inc", 0),
        inv(2, 1, "flip"),
    )
    h0 = common + (
        rsp(2, 1, "flip", 0),
        rsp(0, 0, "fetch_inc", 1),
        rsp(1, 0, "fetch_inc", 2),
    )
    h1 = common + (
        rsp(2, 1, "flip", 1),
        rsp(1, 0, "fetch_inc", 1),
        rsp(0, 0, "fetch_inc", 2),
    )
    runs = {
        (0,): History(h0, (0, 1, 2), objs),
        (1,): History(h1, (0, 1, 2), objs),
    }
    return HistoryTree.from_runs(runs, omega=(0, 1))


def test_normalize_pulls_flip_next_to_its_predecessor():
    tree = counter_race_fixture()
    specs = default_specs(tree.objects, tree.processes)
    op_r = ImageOp(2, 2, 0, "fetch_inc", (), 0)
    cf0 = ImageOp(2, 4, 1, "flip", (), 0)
    cf1 = ImageOp(2, 4, 1, "flip", (), 1)

    def p(ret):
        return ImageOp(0, 0, 0, "fetch_inc", (), ret)

    def q(ret):
        return ImageOp(1, 1, 0, "fetch_inc", (), ret)

    # a valid witness that parks both coin flips late in their images
    witness = {
        0: (), 1: (), 2: (), 3: (),
        4: (op_r,), 5: (op_r,),
        6: (op_r, p(1), q(2), cf0),
        7: (op_r, p(1), q(2), cf0),
        8: (op_r, p(1), q(2), cf0),
        9: (op_r, cf1, q(1), p(2)),
        10: (op_r, cf1, q(1), p(2)),
        11: (op_r, cf1, q(1), p(2)),
    }
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
    tree = counter_race_fixture()
    specs = default_specs(tree.objects, tree.processes)
    w = check_strong_lin(tree, specs)
    norm = normalize_witness(tree, w, specs)
    assert witness_violations(tree, norm, specs) == []
    assert normality_violations(tree, norm) == []
    with pytest.raises(CheckerError):
        normalize_witness(tree, {n: () for n in tree.node_ids()}, specs)


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


def test_locality_rejects_an_atomic_response_without_its_invocation():
    nodes = [
        {"id": 0, "parent": None, "step": None},
        {"id": 1, "parent": 0, "step": step_doc(rsp(0, 0, "read", 0))},
    ]
    doc = {"processes": [0], "objects": objects_doc(REG_OBJS), "nodes": nodes}
    tree = HistoryTree.from_json(json.dumps(doc))
    with pytest.raises(TreeError, match="not adjacent"):
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

    def make_decide():
        def decide(view):
            alive = [q for q in alg.processes if not view.finished(q)]
            return rng.choice(alive) if alive else None

        return decide

    adv = AdversaryPolicy("strong", make_decide=make_decide, name="random")
    rec = run(alg, adv, VectorCoins([]))
    tree = HistoryTree.from_runs({(): rec})
    specs = default_specs(tree.objects, tree.processes)
    verdict = check_locality(tree, specs)
    assert verdict.status == "witness"
    assert witness_violations(tree, verdict.witness, specs) == []


# ---------------------------------------------------------------------------
# Common linearizations of run pairs, coin vector by coin vector
# ---------------------------------------------------------------------------


def test_equivalence_of_identical_run_sets():
    key_specs = {"C1": counter_spec(), "C2": counter_spec()}
    for rec in mutex_counter_runs().values():
        h = interpret(rec.history)
        w = common_linearization(h, h, key_specs)
        assert w is not None and w.is_sequential()


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
            interpret(run(alg, finish_in_order([1, 0]), VectorCoins([c])).history)
            for alg in (impl_alg, atomic_alg)
        )
        assert common_linearization(impl, atomic, {"C": counter_spec()}) is not None, c


def test_inequivalence_shows_failing_coin_vector():
    objs1 = {0: ObjectInfo("register", BASE, (("key", "R"),))}
    h_read5 = History(
        (inv(0, 0, "write", (5,)), rsp(0, 0, "write"),
         inv(0, 0, "read"), rsp(0, 0, "read", 5)),
        (0,), objs1,
    )
    h_read0 = History(
        (inv(0, 0, "write", (5,)), rsp(0, 0, "write"),
         inv(0, 0, "read"), rsp(0, 0, "read", 0)),
        (0,), objs1,
    )
    key_specs = {"R": register_spec()}
    assert common_linearization(h_read5, h_read0, key_specs) is None
    assert common_linearization(h_read5, h_read5, key_specs) is not None


def test_common_linearization_tolerates_mismatched_pendings():
    objs = {0: ObjectInfo("register", BASE, (("key", "R"),))}
    h1 = History(
        (inv(0, 0, "read"), rsp(0, 0, "read", 0), inv(0, 0, "write", (1,))),
        (0,), objs,
    )
    h2 = History(
        (inv(0, 0, "read"), rsp(0, 0, "read", 0), inv(0, 0, "write", (2,))),
        (0,), objs,
    )
    got = common_linearization(h1, h2, {"R": register_spec()})
    assert got is not None
    assert [s.op for s in got.steps if s.is_inv()] == ["read"]
    # same shape, but the completed responses disagree
    h3 = h2.with_steps(
        h2.steps[:1] + (rsp(0, 0, "read", 1),) + h2.steps[2:]
    )
    assert common_linearization(h1, h3, {"R": register_spec()}) is None


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


def alternate(order):
    """A strong policy cycling over the given pids, skipping the halted."""

    def make_decide():
        ring = itertools.cycle(order)

        def decide(view):
            for _ in order:
                p = next(ring)
                if not view.finished(p):
                    return p
            return None

        return decide

    return AdversaryPolicy("strong", make_decide=make_decide, name="alternate")


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
    return run(alg, alternate((0, 1, 2)), VectorCoins(()))


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
    image = tuple(
        ImageOp(p, by_proc[p].inv_index, by_proc[p].obj, "cas",
                by_proc[p].args, by_proc[p].ret)
        for p in order
    )
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
        (c,): interpret(run(alg, alternate((0, 1)), VectorCoins((c,))).history)
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

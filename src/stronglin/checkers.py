"""Decision procedures over finite history trees.

A prefix-closed set of interpreted histories forms a tree: one node per
prefix, one appended step per edge.  The runs of one strong adversary
branch only where a coin flip response differs, and the tree readers
(``HistoryTree.from_runs`` and ``from_json``) enforce that; a projection
onto one object may branch at any step.  This module decides
linearizability of a single history, searches for prefix-preserving
linearization witnesses over whole trees, re-validates and normalizes
such witnesses, and composes per-object witnesses into one for a
multi-object tree (locality, stated as a claim of the checker suite).
``common_linearization`` is the matching oracle of the snapshot
reachability test.  Specifications come from registry entries alone
(``default_specs``).  Everything here is exhaustive by design and
guarded accordingly; these are desk-scale tools, not model checkers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from .histories import (
    ANY_RESPONSE,
    INTERPRETED,
    INV,
    RSP,
    History,
    ObjectInfo,
    OperationInstance,
    SeqSpec,
    Step,
    _dumps,
    _fields,
    _is_id,
    happens_before,
    interpret,
    objects_doc,
    objects_from_doc,
    processes_from_doc,
    step_doc,
    step_from_doc,
)
from .objects import coin_spec, spec_of_entry


class CheckerError(Exception):
    """Unusable checker input (as opposed to a NONE verdict)."""


class TreeError(CheckerError):
    """A history tree violating its structural invariants."""


def _is_flip_response(objects: Mapping[int, ObjectInfo], s: Step | None) -> bool:
    if s is None or not s.is_rsp():
        return False
    info = objects.get(s.obj)
    return info is not None and info.type_name == "coin"


def _coin_outcome(objects: Mapping[int, ObjectInfo], s: Step | None) -> Any:
    """The payload of a flip response, None for any other step."""
    return s.payload if _is_flip_response(objects, s) else None


# ---------------------------------------------------------------------------
# History trees
# ---------------------------------------------------------------------------


class HistoryTree:
    """A finite prefix-closed set of interpreted histories.

    One store: each node id maps to its parent and the step appended to
    the parent's history (the root, id 0, has neither), and to the tuple
    of its children.  Node ids ascend from the root and every parent id
    is smaller than its children's, so iterating ids in order visits
    parents first.  A flip's coin outcome is not stored: it is the
    payload of the flip response.

    ``from_runs`` and ``from_json`` read the runs of one strong
    adversary, which branch only where a flip response differs, and
    reject any other branching; a projection (``project_tree``) is the
    prefix tree of a plain set of histories and may branch at any step.
    """

    root = 0

    def __init__(self, processes: tuple[int, ...], objects: Mapping[int, ObjectInfo]):
        """The tree of the empty history alone."""
        self.processes = tuple(processes)
        self.objects = dict(objects)
        self._nodes: dict[int, tuple[int | None, Step | None]] = {0: (None, None)}
        self._children: dict[int, tuple[int, ...]] = {0: ()}
        self._frames: dict[int, tuple] = {0: ((), (), 0)}

    def _add(self, nid: int, parent: int | None, step: Step | None) -> None:
        self._nodes[nid] = (parent, step)
        self._children[nid] = ()
        if parent is not None:
            self._children[parent] += (nid,)

    def _child(self, cur: int, s: Step) -> int:
        """The node ``s`` leads to from ``cur``, added on first use.

        The new id is the node count, so only a tree grown from its root
        by this method alone (ids 0, 1, 2, ...) may call it.
        """
        for c in self._children[cur]:
            if self._nodes[c][1] == s:
                return c
        nxt = len(self._nodes)
        self._add(nxt, cur, s)
        return nxt

    def _check_branches(self) -> None:
        # Runs of one strong adversary diverge only at a flip response.
        for nid, kids in self._children.items():
            if len(kids) > 1:
                steps = [self._nodes[c][1] for c in kids]
                heads = {(s.process, s.obj, s.op, s.kind) for s in steps}
                if len(heads) != 1 or not all(
                    _is_flip_response(self.objects, s) for s in steps
                ):
                    raise TreeError(
                        f"node {nid} branches on something other than a flip response"
                    )
                if len({s.payload for s in steps}) != len(steps):
                    raise TreeError(f"node {nid} has duplicate branch outcomes")

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._nodes))

    def parent(self, nid: int) -> int | None:
        return self._nodes[nid][0]

    def step(self, nid: int) -> Step | None:
        return self._nodes[nid][1]

    def children(self, nid: int) -> tuple[int, ...]:
        return self._children.get(nid, ())

    def leaves(self) -> tuple[int, ...]:
        return tuple(n for n in self.node_ids() if not self.children(n))

    def history_of(self, nid: int) -> History:
        steps = []
        parent, step = self._nodes[nid]
        while parent is not None:
            steps.append(step)
            parent, step = self._nodes[parent]
        return History(tuple(reversed(steps)), self.processes, self.objects)

    def ops_of(self, nid: int) -> tuple[OperationInstance, ...]:
        """``history_of(nid).operations()``, built from the parent's.

        TreeError when the node's history does not pair.
        """
        return self._frame(nid)[0]

    def _frame(self, nid: int) -> tuple:
        """(operations, open operations, depth) of a node, cached.

        The open operations are ((process, level), position) pairs.
        Each step extends its parent's frame by one pairing move, so a
        node costs one step, not a re-pairing of its whole history.
        """
        frames = self._frames
        path = []
        cur = nid
        while cur not in frames:
            path.append(cur)
            cur = self._nodes[cur][0]
        ops, open_ops, i = frames[cur]
        for cur in reversed(path):
            s = self._nodes[cur][1]
            key = (s.process, s.level)
            pos = next((j for k, j in open_ops if k == key), None)
            if s.is_inv():
                if pos is not None:
                    raise TreeError(
                        f"node {nid}: process {s.process} invokes at step {i} "
                        f"with an open {s.level} operation"
                    )
                open_ops += ((key, len(ops)),)
                ops += (OperationInstance(i, None, s.process, s.obj, s.op, s.payload, None),)
            else:
                if pos is None:
                    raise TreeError(f"node {nid}: response at step {i} has no open invocation")
                inv = ops[pos]
                if inv.obj != s.obj or inv.op != s.op:
                    raise TreeError(
                        f"node {nid}: response at step {i} does not match "
                        f"invocation at {inv.inv_index}"
                    )
                open_ops = tuple(e for e in open_ops if e[0] != key)
                done = OperationInstance(
                    inv.inv_index, i, s.process, s.obj, s.op, inv.args, s.payload
                )
                ops = ops[:pos] + (done,) + ops[pos + 1:]
            i += 1
            frames[cur] = (ops, open_ops, i)
        return frames[nid]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_runs(
        cls, records: Mapping[tuple, Any], omega: tuple | None = None
    ) -> "HistoryTree":
        """Build the prefix tree of a set of runs keyed by coin vector.

        Values may be RunRecords or plain histories; each is reduced to
        its interpreted form first.  Divergence anywhere but at a flip
        response means the runs did not come from one strong adversary
        and is rejected; with ``omega``, every flip response's siblings
        must cover exactly its outcomes.
        """
        if not records:
            raise TreeError("no runs given")
        hists = [interpret(getattr(v, "history", v)) for _, v in sorted(records.items())]
        processes, objects = hists[0].processes, hists[0].objects
        for h in hists[1:]:
            if h.processes != processes or dict(h.objects) != dict(objects):
                raise TreeError("runs disagree on processes or objects")
        tree = cls(processes, objects)
        for h in hists:
            cur = tree.root
            for s in h.steps:
                cur = tree._child(cur, s)
        tree._check_branches()
        if omega is not None:
            want = sorted(omega)
            for nid in tree.node_ids():
                got = [_coin_outcome(objects, tree.step(c)) for c in tree.children(nid)]
                if len(got) > 1 or (got and got[0] is not None):
                    got.sort()
                    if got != want:
                        raise TreeError(
                            f"branch node {nid} covers outcomes {got}, not {want}"
                        )
        return tree

    @classmethod
    def from_json(cls, text: str) -> "HistoryTree":
        """Read ``to_json``'s document; TreeError unless every node follows
        its parent, the root comes first as id 0, and branching happens
        only at flip responses."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TreeError(f"bad tree JSON: {exc}") from None
        processes, objects, raw = _fields(doc, ("processes", "objects", "nodes"), "tree")
        tree = cls(processes_from_doc(processes), objects_from_doc(objects))
        if not isinstance(raw, list):
            raise TreeError("tree nodes must be a list")
        # a document without nodes is the root alone; one with nodes lists it
        if raw:
            tree._nodes, tree._children = {}, {}
        nodes, listed = tree._nodes, frozenset(tree.processes)
        for rec in raw:
            nid, parent, sd = _fields(rec, ("id", "parent", "step"), "tree node")
            if not (_is_id(nid) and (parent is None or _is_id(parent))):
                raise TreeError(f"node id {nid!r} and parent {parent!r} must be integers")
            if nid in nodes:
                raise TreeError(f"duplicate node id {nid}")
            if parent is None:
                step = None
                if sd is not None or nodes:
                    raise TreeError("root must come first and carry no step")
            else:
                if parent not in nodes or parent >= nid:
                    raise TreeError(f"node {nid}: tree is not prefix-closed")
                step = step_from_doc(sd, tree.objects, listed)
            # The field is optional and redundant with the step; compared
            # as JSON text, so neither true nor 1.0 passes for 1.
            if "coin_outcome" in rec and _dumps(rec["coin_outcome"]) != _dumps(
                _coin_outcome(tree.objects, step)
            ):
                raise TreeError(f"node {nid}: coin_outcome disagrees with its step")
            tree._add(nid, parent, step)
        tree._check_branches()
        if nodes.get(0) != (None, None):
            raise TreeError("tree has no root")
        return tree

    def to_json(self) -> str:
        nodes = []
        for nid in self.node_ids():
            parent, step = self._nodes[nid]
            rec = {"id": nid, "parent": parent, "step": step_doc(step) if step else None}
            outcome = _coin_outcome(self.objects, step)
            if outcome is not None:
                rec["coin_outcome"] = outcome
            nodes.append(rec)
        doc = {
            "processes": list(self.processes),
            "objects": objects_doc(self.objects),
            "nodes": nodes,
        }
        return _dumps(doc)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageOp:
    """One committed operation inside a witness image.

    ``inv_index`` names the operation by the position of its invocation
    in the node's history; ``ret`` is the actual response for completed
    operations and the replay-derived one for committed pending ops.
    """

    process: int
    inv_index: int
    obj: int
    op: str
    args: tuple
    ret: Any

    @property
    def key(self) -> tuple[int, int]:
        return (self.process, self.inv_index)


Witness = Mapping[int, tuple[ImageOp, ...]]


def witness_doc(tree: HistoryTree, witness: Witness) -> dict[str, list]:
    """Witness interchange: a JSON object mapping each node id to its
    image as a sequential step list."""
    return {
        str(nid): [
            step_doc(s) for s in image_history(tree.history_of(nid), witness[nid]).steps
        ]
        for nid in tree.node_ids()
    }


def _spec_for(specs: Mapping[int, SeqSpec], oid: int) -> SeqSpec:
    spec = specs.get(oid)
    if spec is None:
        raise CheckerError(f"no specification for object {oid}")
    return spec


def default_specs(
    objects: Mapping[int, ObjectInfo], processes: tuple[int, ...]
) -> dict[int, SeqSpec]:
    """The specification each registry entry names (objects.spec_of_entry),
    except for base objects an implementation owns, which no interpreted
    history shows.  CheckerError for an entry that names none."""
    out = {}
    for oid, info in objects.items():
        if any(k == "owner" for k, _v in info.params):
            continue
        try:
            out[oid] = spec_of_entry(info, processes)
        except ValueError as exc:
            raise CheckerError(f"object {oid}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Linearizability of one history
# ---------------------------------------------------------------------------


def image_history(h: History, image: tuple[ImageOp, ...]) -> History:
    """The image as a sequential history over ``h``'s registries.

    Each operation keeps the level of its invocation in ``h``.
    """
    steps: list[Step] = []
    for e in image:
        lvl = h.steps[e.inv_index].level
        steps.append(Step(INV, e.process, e.obj, e.op, e.args, lvl))
        steps.append(Step(RSP, e.process, e.obj, e.op, e.ret, lvl))
    return History(tuple(steps), h.processes, h.objects)


#: The response slot of a pending candidate: the replay supplies it.
_REPLAYED = object()


def _linearizations(
    ops: list[tuple[Any, Any, OperationInstance, Any]],
    preds: Mapping[Any, frozenset],
    need: frozenset,
    spec_of: Callable[[Any], SeqSpec],
    states0: Mapping[Any, Any],
) -> Iterator[tuple[tuple[ImageOp, ...], dict]]:
    """Every replay-valid commit order, with the object states it ends in.

    The one commit search: ``ops`` lists (key, spec key, operation,
    response) candidates, tried in that order at every position.  A
    candidate may commit once all of ``preds[key]`` has; stepping the
    spec of its spec key must then reproduce the response, or, for a
    pending candidate (response _REPLAYED), supplies it (ANY_RESPONSE
    rules the candidate out: a coin's outcome is not derivable).  Each
    order ends as soon as it covers ``need``.  A (committed, states)
    pair is recorded dead only when nothing below it yielded, so the
    memo changes neither what is yielded nor its order.  A spec that
    rejects an operation (ValueError) or cannot apply it to the values
    at hand (TypeError) raises CheckerError.
    """
    dead: set = set()

    def extend(committed: frozenset, states: dict, acc: tuple):
        if need <= committed:
            yield acc, states
            return
        sig = (committed, tuple(sorted(states.items())))
        if sig in dead:
            return
        found = False
        for key, skey, op, want in ops:
            if key in committed or not preds[key] <= committed:
                continue
            spec = spec_of(skey)
            state = states.get(skey, spec.initial_state)
            try:
                state2, resp = spec.transition(state, op.op, op.args, op.process)
            except (ValueError, TypeError) as exc:
                raise CheckerError(f"object {op.obj} rejects {op.op!r}: {exc}") from None
            if want is _REPLAYED:
                if resp is ANY_RESPONSE:
                    continue
                ret = resp
            elif resp is ANY_RESPONSE or resp == want:
                ret = want
            else:
                continue
            entry = ImageOp(op.process, op.inv_index, op.obj, op.op, op.args, ret)
            nstates = {**states, skey: state2}
            for got in extend(committed | {key}, nstates, acc + (entry,)):
                found = True
                yield got
        if not found:
            dead.add(sig)

    yield from extend(frozenset(), dict(states0), ())


def _candidates(ops: list[OperationInstance]) -> list[tuple]:
    # Operations of one history, keyed by the index of their invocation.
    return [(o.inv_index, o.obj, o, o.ret if o.complete else _REPLAYED) for o in ops]


def _preds(ops: list[OperationInstance]) -> dict[int, frozenset]:
    return {
        o.inv_index: frozenset(q.inv_index for q in ops if happens_before(q, o))
        for o in ops
    }


def linearize_one(h: History, specs: Mapping[int, SeqSpec]) -> History | None:
    """One linearization of an interpreted history, or None.

    All completed operations must appear; pending ones may be committed
    with replay-derived responses when that helps.  The first order the
    commit search yields, completed operations tried first; sound and
    complete at the sizes this artifact deals in.
    """
    ops = h.operations()
    eligible = [
        op
        for op in ops
        if op.complete or h.objects[op.obj].type_name != "coin"
    ]
    eligible.sort(key=lambda o: (o.complete is False, o.process, o.inv_index))
    need = frozenset(op.inv_index for op in ops if op.complete)
    orders = _linearizations(
        _candidates(eligible), _preds(eligible), need, partial(_spec_for, specs), {}
    )
    found = next(orders, None)
    return None if found is None else image_history(h, found[0])


# ---------------------------------------------------------------------------
# Strong linearization witnesses over trees
# ---------------------------------------------------------------------------


def _image_extensions(
    tree: HistoryTree,
    nid: int,
    parent_img: tuple[ImageOp, ...],
    parent_states: dict,
    specs: Mapping[int, SeqSpec],
) -> Iterator[tuple[tuple[ImageOp, ...], dict]]:
    """Legal images for a node, as extensions of its parent's image.

    Ordered by number of newly committed operations: completed-but-
    uncommitted ops are mandatory, pending ones optional (coins are
    never committed early, their outcome is not derivable).
    """
    committed = {e.key: e.ret for e in parent_img}
    must, may = [], []
    for op in tree.ops_of(nid):
        key = (op.process, op.inv_index)
        if key in committed:
            if op.complete and op.ret != committed[key]:
                return  # a guessed response for a pending op turned out wrong
        elif op.complete:
            must.append(op)
        elif tree.objects[op.obj].type_name != "coin":
            may.append(op)
    may.sort(key=lambda o: (o.process, o.inv_index))
    preds = _preds(must + may)
    spec_of = partial(_spec_for, specs)
    for size in range(len(may) + 1):
        for extra in itertools.combinations(may, size):
            chosen = sorted(must + list(extra), key=lambda o: (o.process, o.inv_index))
            need = frozenset(o.inv_index for o in chosen)
            for ext, states in _linearizations(
                _candidates(chosen), preds, need, spec_of, parent_states
            ):
                yield parent_img + ext, states


def _dead_key(nid: int, img: tuple[ImageOp, ...], states: dict) -> tuple:
    # What decides whether node ``nid``'s subtree completes under a parent
    # image: its committed (key, ret) pairs and object states, not their order.
    return (
        nid,
        frozenset((e.key, e.ret) for e in img),
        tuple(sorted(states.items())),
    )


class _Frame:
    __slots__ = ("nid", "dead_key", "exts", "img", "kids", "results")

    def __init__(self, nid, dead_key, exts):
        self.nid = nid
        self.dead_key = dead_key
        self.exts = exts
        self.img = None
        self.kids: Iterator[_Frame] = iter(())
        self.results: dict = {}


def check_strong_lin(
    tree: HistoryTree,
    specs: Mapping[int, SeqSpec],
    node_cap: int = 100_000,
    pending_cap: int = 8,
) -> dict[int, tuple[ImageOp, ...]] | None:
    """A prefix-preserving linearization witness for the tree, or None.

    Depth-first over the tree: each node picks an image extending its
    parent's, fewest new commitments first, and a choice is kept only
    while every child subtree can complete under it; exhausting a
    node's choices backtracks into the parent.  A child that ran out of
    images is remembered as dead under its parent image's committed
    (key, ret) pairs and object states, which are all its subtree
    depends on; a later parent image reaching the same triple is
    dropped at once.  That prunes only subtrees that would fail again,
    so the order of the search and the witness it finds are unchanged.
    Returned witnesses re-validate independently (see
    witness_violations).
    """
    if len(tree) > node_cap:
        raise TreeError(f"tree has {len(tree)} nodes, cap is {node_cap}")
    for nid in tree.node_ids():
        pending = sum(1 for op in tree.ops_of(nid) if not op.complete)
        if pending > pending_cap:
            raise TreeError(
                f"node {nid} has {pending} pending operations, cap is {pending_cap}"
            )

    dead: set = set()
    frames = [_Frame(tree.root, None, _image_extensions(tree, tree.root, (), {}, specs))]
    while frames:
        f = frames[-1]
        if f.img is None:
            for img, states in f.exts:
                # Keep each child's generator, with the image drawn to
                # probe it put back in front.
                kids = []
                for c in tree.children(f.nid):
                    key = _dead_key(c, img, states)
                    if key in dead:
                        break
                    exts = _image_extensions(tree, c, img, states, specs)
                    first = next(exts, None)
                    if first is None:
                        dead.add(key)
                        break
                    kids.append(_Frame(c, key, itertools.chain((first,), exts)))
                else:
                    f.img, f.kids, f.results = img, iter(kids), {}
                    break
            else:
                frames.pop()
                if not frames:
                    return None
                dead.add(f.dead_key)
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


def witness_violations(
    tree: HistoryTree, witness: Witness, specs: Mapping[int, SeqSpec]
) -> list[str]:
    """Re-validate (L) and (P) node by node, from first principles.

    Deliberately shares no machinery with the search: plain loops over
    the definition.  Returns human-readable violations, empty when the
    witness is good.
    """
    out = []
    for nid in tree.node_ids():
        img = witness.get(nid)
        if img is None:
            out.append(f"node {nid}: no image")
            continue
        by_key = {(o.process, o.inv_index): o for o in tree.ops_of(nid)}
        resolved = []
        bad = False
        for e in img:
            op = by_key.get((e.process, e.inv_index))
            if op is None or (op.obj, op.op, op.args) != (e.obj, e.op, e.args):
                out.append(f"node {nid}: image op {e} is not in the history")
                bad = True
                break
            if op.complete and op.ret != e.ret:
                out.append(f"node {nid}: image response differs from history")
                bad = True
                break
            resolved.append(op)
        if bad:
            continue
        keys = {(o.process, o.inv_index) for o in resolved}
        if len(keys) != len(resolved):
            out.append(f"node {nid}: duplicate operation in image")
            continue
        missing = [
            o
            for o in tree.ops_of(nid)
            if o.complete and (o.process, o.inv_index) not in keys
        ]
        if missing:
            out.append(f"node {nid}: completed operation missing from image")
            continue
        # An op happens before some op placed ahead of it iff it happens
        # before the one of those invoked last.
        order_ok = True
        latest = None
        for o in resolved:
            if latest is not None and happens_before(o, latest):
                out.append(f"node {nid}: image order violates happens-before")
                order_ok = False
                break
            if latest is None or o.inv_index > latest.inv_index:
                latest = o
        if not order_ok:
            continue
        states: dict = {}
        valid = True
        for e in img:
            spec = _spec_for(specs, e.obj)
            state = states.get(e.obj, spec.initial_state)
            state2, resp = spec.transition(state, e.op, e.args, e.process)
            states[e.obj] = state2
            if resp is not ANY_RESPONSE and resp != e.ret:
                out.append(f"node {nid}: image is not sequentially valid")
                valid = False
                break
        if not valid:
            continue
        pid = tree.parent(nid)
        if pid is not None:
            pimg = witness.get(pid, ())
            head = [(e.process, e.inv_index, e.ret) for e in img[: len(pimg)]]
            want = [(e.process, e.inv_index, e.ret) for e in pimg]
            if head != want:
                out.append(f"node {nid}: image does not extend its parent's")
    return out


def validate_witness(
    tree: HistoryTree, witness: Witness, specs: Mapping[int, SeqSpec]
) -> None:
    bad = witness_violations(tree, witness, specs)
    if bad:
        raise CheckerError("; ".join(bad[:3]))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normality_violations(tree: HistoryTree, witness: Witness) -> list[str]:
    """Nodes where a flip directly follows an op it is concurrent with."""
    out = []
    for nid in tree.node_ids():
        by_key = {(o.process, o.inv_index): o for o in tree.ops_of(nid)}
        img = witness[nid]
        for i in range(1, len(img)):
            e = img[i]
            if tree.objects[e.obj].type_name != "coin":
                continue
            before = by_key[img[i - 1].key]
            cf = by_key[e.key]
            if not happens_before(before, cf):
                out.append(
                    f"node {nid}: flip at image position {i} follows a "
                    f"concurrent operation"
                )
    return out


def normalize_witness(
    tree: HistoryTree, witness: Witness, specs: Mapping[int, SeqSpec]
) -> dict[int, tuple[ImageOp, ...]]:
    """Pull flips to their earliest order-respecting image positions.

    Per node: drop trailing still-pending ops, take the flips out, then
    reinsert each (in history order) at the first position compatible
    with happens-before.  The output satisfies the same witness
    properties plus normality, which is re-checked before returning.
    """
    validate_witness(tree, witness, specs)
    out: dict[int, tuple[ImageOp, ...]] = {}
    for nid in tree.node_ids():
        by_key = {(o.process, o.inv_index): o for o in tree.ops_of(nid)}
        img = list(witness[nid])
        while img and not by_key[img[-1].key].complete:
            img.pop()
        flips = [e for e in img if tree.objects[e.obj].type_name == "coin"]
        base = [e for e in img if tree.objects[e.obj].type_name != "coin"]
        base_ops = [by_key[e.key] for e in base]
        for cf in sorted(flips, key=lambda e: e.inv_index):
            cf_op = by_key[cf.key]
            lo = 0
            hi = len(base)
            for i, op in enumerate(base_ops):
                if happens_before(op, cf_op):
                    lo = i + 1
                if happens_before(cf_op, op):
                    hi = min(hi, i)
            if lo > hi:
                raise CheckerError(
                    f"node {nid}: no order-respecting slot for a flip"
                )
            base.insert(lo, cf)
            base_ops.insert(lo, cf_op)
        out[nid] = tuple(base)
    bad = witness_violations(tree, out, specs) + normality_violations(tree, out)
    if bad:
        raise CheckerError(f"normalization produced a bad witness: {bad[0]}")
    return out


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalityVerdict:
    """Outcome of composing per-object witnesses.

    ``witness`` holds the combined mapping when status is "witness";
    "not-applicable" means some per-object tree already has none (the
    composition theorem asserts nothing then); "counterexample" would
    falsify the implementation under test, not the theorem.
    """

    status: str
    witness: dict[int, tuple[ImageOp, ...]] | None
    detail: str = ""


def project_tree(tree: HistoryTree, oid: int) -> tuple[HistoryTree, dict[int, int]]:
    """The tree of per-object projections of every history in the tree,
    and the projected node each tree node lands on.

    Distinct branches whose projections coincide merge, so the result
    is the prefix tree of a plain set of histories and may branch at
    non-flip steps.
    """
    info = tree.objects.get(oid)
    if info is None:
        raise TreeError(f"unknown object {oid}")
    if info.level != INTERPRETED:
        raise TreeError(f"object {oid} is a base object")
    proj = HistoryTree(tree.processes, tree.objects)
    cursor = {tree.root: proj.root}
    for nid in tree.node_ids()[1:]:
        s = tree.step(nid)
        cur = cursor[tree.parent(nid)]
        cursor[nid] = proj._child(cur, s) if s.obj == oid else cur
    return proj, cursor


def check_locality(tree: HistoryTree, specs: Mapping[int, SeqSpec]) -> LocalityVerdict:
    """Compose per-object witnesses into one for the whole tree.

    Each implemented object O_j is projected out (project_tree) and
    searched alone.  The combined image then grows edge by edge: a step
    on O_j appends whatever O_j's own witness committed between the
    projected nodes the edge's two ends land on (translated back to
    tree indices); a top-level atomic or coin response appends that one
    op.  The result is re-validated against the tree, so a failure here
    is a counterexample report against the implementations.
    """
    impl = sorted(oid for oid, info in tree.objects.items() if info.level == INTERPRETED)
    images = {}
    for oid in impl:
        proj, lands = project_tree(tree, oid)
        w = check_strong_lin(proj, specs)
        if w is None:
            return LocalityVerdict(
                "not-applicable", None, f"object {oid} admits no witness"
            )
        images[oid] = {nid: w[pn] for nid, pn in lands.items()}

    comb: dict[int, tuple[ImageOp, ...]] = {tree.root: ()}
    depth = {tree.root: 0}
    posmap = {tree.root: {oid: () for oid in impl}}
    for nid in tree.node_ids()[1:]:
        pnid, s = tree.parent(nid), tree.step(nid)
        at = depth[pnid]
        depth[nid] = at + 1
        ppos, pimg = posmap[pnid], comb[pnid]
        if tree.objects[s.obj].level == INTERPRETED:
            oid = s.obj
            newpos = ppos[oid] + (at,)
            lam = images[oid][nid][len(images[oid][pnid]) :]
            comb[nid] = pimg + tuple(
                ImageOp(x.process, newpos[x.inv_index], x.obj, x.op, x.args, x.ret)
                for x in lam
            )
            posmap[nid] = {**ppos, oid: newpos}
        else:
            if s.is_rsp():
                prev = tree.step(pnid)
                if not (
                    prev is not None
                    and prev.is_inv()
                    and (prev.process, prev.obj, prev.op)
                    == (s.process, s.obj, s.op)
                ):
                    raise TreeError(
                        "atomic response is not adjacent to its invocation"
                    )
                comb[nid] = pimg + (
                    ImageOp(s.process, at - 1, s.obj, s.op, prev.payload, s.payload),
                )
            else:
                comb[nid] = pimg
            posmap[nid] = ppos
    bad = witness_violations(tree, comb, specs)
    if bad:
        return LocalityVerdict("counterexample", comb, bad[0])
    return LocalityVerdict("witness", comb, "")


# ---------------------------------------------------------------------------
# Common linearization of two runs
# ---------------------------------------------------------------------------


def _program_key(h: History, op: OperationInstance) -> tuple:
    info = h.objects[op.obj]
    params = dict(info.params)
    if info.type_name == "coin":
        return ("coin", params.get("process", op.process))
    if "key" in params:
        return ("obj", params["key"])
    raise CheckerError(f"object {op.obj} has no program-visible key")


def common_linearization(
    h1: History, h2: History, key_specs: Mapping[str, SeqSpec]
) -> History | None:
    """A sequential history linearizing both runs at once, or None.

    Operations are matched positionally per process and by the program
    key of their object; a completed op whose twin is missing, or whose
    recorded responses disagree, rules a common linearization out
    immediately.  Otherwise the same commit search as linearize_one
    runs against the union of both happens-before orders.  No report
    calls it: it is the oracle of
    ``test_snapshot_branch_pair_is_unreachable_atomically``, which asks
    whether an atomic run can match an implemented one.
    """
    cands, pairs = [], []
    for p in sorted(set(h1.processes) | set(h2.processes)):
        l1 = [o for o in h1.operations() if o.process == p]
        l2 = [o for o in h2.operations() if o.process == p]
        for j in range(max(len(l1), len(l2))):
            o1 = l1[j] if j < len(l1) else None
            o2 = l2[j] if j < len(l2) else None
            if o1 is None or o2 is None:
                present = o1 or o2
                if present.complete:
                    return None
                continue
            k1, k2 = _program_key(h1, o1), _program_key(h2, o2)
            if (k1, o1.op, o1.args) != (k2, o2.op, o2.args):
                if o1.complete or o2.complete:
                    return None
                continue
            rets = [o.ret for o in (o1, o2) if o.complete]
            if len(rets) == 2 and rets[0] != rets[1]:
                return None
            if not rets and k1[0] == "coin":
                continue
            cands.append((o1.inv_index, k1, o1, rets[0] if rets else _REPLAYED))
            pairs.append((o1, o2))

    def spec_of(key: tuple) -> SeqSpec:
        if key[0] == "coin":
            return coin_spec()
        spec = key_specs.get(key[1])
        if spec is None:
            raise CheckerError(f"no specification for program object {key[1]!r}")
        return spec

    preds = {
        o1.inv_index: frozenset(
            q1.inv_index
            for q1, q2 in pairs
            if happens_before(q1, o1) or happens_before(q2, o2)
        )
        for o1, o2 in pairs
    }
    need = frozenset(key for key, _k, _o, ret in cands if ret is not _REPLAYED)
    found = next(_linearizations(cands, preds, need, spec_of, {}), None)
    return None if found is None else image_history(h1, found[0])

"""Decision procedures over finite history trees.

A prefix-closed set of interpreted histories forms a tree: one node per
prefix, one appended step per edge, branching wherever two histories
part.  Any such set is a ``HistoryTree``.  Only
``HistoryTree.from_runs(..., omega)`` claims more: that its runs come
from one strong adversary, so they branch only where a coin flip
response differs, over exactly the outcomes ``omega``.  This module decides
linearizability of a single history, searches for prefix-preserving
linearization witnesses over whole trees, re-validates and normalizes
such witnesses, and composes per-object witnesses into one for a
multi-object tree (locality, stated as a claim of the checker suite).
Specifications come from registry entries alone (``default_specs``).
Everything here is exhaustive by design and guarded accordingly; these
are desk-scale tools, not model checkers.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from .histories import (
    ANY_RESPONSE,
    INTERPRETED,
    INV,
    RSP,
    History,
    MalformedHistoryError,
    ObjectInfo,
    OperationInstance,
    SeqSpec,
    Step,
    _dumps,
    _fields,
    _is_id,
    happens_before,
    interpret,
    is_flip_response,
    objects_doc,
    objects_from_doc,
    pair_steps,
    processes_from_doc,
    step_doc,
    step_from_doc,
    validate_sequential,
)
from .objects import spec_of_entry


class CheckerError(Exception):
    """Unusable checker input (as opposed to a NONE verdict)."""


class TreeError(CheckerError):
    """A history tree violating its structural invariants."""


# ---------------------------------------------------------------------------
# History trees
# ---------------------------------------------------------------------------


class HistoryTree:
    """A finite prefix-closed set of interpreted histories.

    One store: each node id maps to its parent and the step appended to
    the parent's history (the root, id 0, has neither), and to the tuple
    of its children.  Node ids ascend from the root and every parent id
    is smaller than its children's, so iterating ids in order visits
    parents first, and siblings carry different steps.  A flip's coin
    outcome is not stored: it is the payload of the flip response.

    Those are the only invariants: a tree may branch at any step, and
    every tree ``to_json`` writes reads back through ``from_json`` to
    the same bytes.  Whether the branching fits one strong adversary is
    checked once, by ``from_runs`` when it is given ``omega``.
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

        Each node extends its parent's frame by its one step
        (``pair_steps``), so a node costs one step, not a re-pairing of
        its whole history.
        """
        frames = self._frames
        path = []
        cur = nid
        while cur not in frames:
            path.append(cur)
            cur = self._nodes[cur][0]
        ops, open_ops, i = frames[cur]
        for cur in reversed(path):
            try:
                ops, open_ops = pair_steps((self._nodes[cur][1],), ops, open_ops, i)
            except MalformedHistoryError as exc:
                raise TreeError(f"node {nid}: {exc}") from None
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
        its interpreted form first.  Without ``omega`` any runs will do.
        With it, the runs must be those of one strong adversary: a node's
        children are the responses of one flip invocation, and their
        outcomes are exactly ``omega``, each once.
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
        if omega is not None:
            want = list(omega)
            for nid, kids in tree._children.items():
                flip = bool(kids) and is_flip_response(objects, tree._nodes[kids[0]][1])
                if len(kids) < 2 and not flip:
                    continue
                steps = [tree._nodes[c][1] for c in kids]
                if not flip or len({(s.kind, s.process, s.obj, s.op) for s in steps}) > 1:
                    raise TreeError(
                        f"node {nid} branches on something other than a flip response"
                    )
                got = [s.payload for s in steps]
                if len(got) != len(want) or set(got) != set(want):
                    raise TreeError(f"branch node {nid} covers outcomes {got}, not {want}")
        return tree

    @classmethod
    def from_json(cls, text: str) -> "HistoryTree":
        """Read ``to_json``'s document, whatever its branching; TreeError
        unless every node follows its parent, the root comes first as
        id 0, and siblings carry different steps."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TreeError(f"bad tree JSON: {exc}") from None
        except RecursionError:
            raise TreeError("bad tree JSON: nested too deeply") from None
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
                if step in [nodes[c][1] for c in tree._children[parent]]:
                    raise TreeError(f"node {nid} repeats a sibling's step")
            # The field is optional and redundant with the step; compared
            # as JSON text, so neither true nor 1.0 passes for 1.
            outcome = step.payload if is_flip_response(tree.objects, step) else None
            if "coin_outcome" in rec and _dumps(rec["coin_outcome"]) != _dumps(outcome):
                raise TreeError(f"node {nid}: coin_outcome disagrees with its step")
            tree._add(nid, parent, step)
        if nodes.get(0) != (None, None):
            raise TreeError("tree has no root")
        return tree

    def to_json(self) -> str:
        nodes = []
        for nid in self.node_ids():
            parent, step = self._nodes[nid]
            rec = {"id": nid, "parent": parent, "step": step_doc(step) if step else None}
            if is_flip_response(self.objects, step) and step.payload is not None:
                rec["coin_outcome"] = step.payload
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


#: A witness image: a node's own operations in commit order, each named
#: by its ``inv_index``.  A completed entry is the operation ``ops_of``
#: returned; a committed pending entry carries, as ``ret``, the response
#: its replay derived.
Image = tuple[OperationInstance, ...]
Witness = Mapping[int, Image]


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
        if info.label("owner") is not None:
            continue
        try:
            out[oid] = spec_of_entry(info, processes)
        except ValueError as exc:
            raise CheckerError(f"object {oid}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Linearizability of one history
# ---------------------------------------------------------------------------


def image_history(h: History, image: Image) -> History:
    """The image as a sequential history over ``h``'s registries.

    Each operation keeps the level of its invocation in ``h``.
    """
    steps: list[Step] = []
    for e in image:
        lvl = h.steps[e.inv_index].level
        steps.append(Step(INV, e.process, e.obj, e.op, e.args, lvl))
        steps.append(Step(RSP, e.process, e.obj, e.op, e.ret, lvl))
    return History(tuple(steps), h.processes, h.objects)


def _linearizations(
    ops: list[OperationInstance],
    preds: Mapping[int, frozenset],
    need: frozenset,
    specs: Mapping[int, SeqSpec],
    states0: Mapping[int, Any],
    by_class: bool = False,
) -> Iterator[tuple[Image, dict]]:
    """Every replay-valid commit order, with the object states it ends in.

    The one commit search: ``ops`` are tried in that order at every
    position and keyed by the index of their invocation.  An operation
    may commit once all of ``preds[key]`` has; stepping its object's
    spec must then reproduce a completed operation's response, or
    supplies a pending one's (ANY_RESPONSE rules a pending operation
    out: a coin's outcome is not derivable).  A committed completed
    operation is its own image entry; a pending one is entered as a
    copy carrying the derived response.  Each order ends as soon as it
    covers ``need``.  A (committed, states) pair is recorded dead only
    when nothing below it yielded, so the memo changes neither what is
    yielded nor its order.  A spec that rejects an operation
    (ValueError) or cannot apply it to the values at hand (TypeError)
    raises CheckerError.

    With ``by_class``, a position tries only the first enabled pending
    operation of each (object, op, args) class whose spec ignores the
    process.  Two such operations reach one state with one response,
    nothing happens after a pending operation, and one enabled now
    stays enabled, so an order that commits the later one here has a
    twin that commits the earlier one here and the later one where the
    earlier one was.  Every skipped subtree therefore holds a complete
    order only if the one tried first does, and the first order
    yielded is unchanged; later ones are not all yielded, so a search
    over a tree, whose pending operations must match their later
    responses, leaves it off.
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
        tried = set()
        for op in ops:
            key = op.inv_index
            if key in committed or not preds[key] <= committed:
                continue
            spec = _spec_for(specs, op.obj)
            if by_class and not op.complete and spec.ignores_process:
                cls = (op.obj, op.op, op.args)
                if cls in tried:
                    continue
                tried.add(cls)
            state = states.get(op.obj, spec.initial_state)
            try:
                state2, resp = spec.transition(state, op.op, op.args, op.process)
            except (ValueError, TypeError) as exc:
                raise CheckerError(f"object {op.obj} rejects {op.op!r}: {exc}") from None
            if op.complete:
                if resp is not ANY_RESPONSE and resp != op.ret:
                    continue
                entry = op
            elif resp is ANY_RESPONSE:
                continue
            else:
                entry = OperationInstance(
                    op.inv_index, None, op.process, op.obj, op.op, op.args, resp
                )
            nstates = {**states, op.obj: state2}
            for got in extend(committed | {key}, nstates, acc + (entry,)):
                found = True
                yield got
        if not found:
            dead.add(sig)

    yield from extend(frozenset(), dict(states0), ())


def _preds(ops: list[OperationInstance]) -> dict[int, frozenset]:
    return {
        o.inv_index: frozenset(q.inv_index for q in ops if happens_before(q, o))
        for o in ops
    }


def linearize_one(h: History, specs: Mapping[int, SeqSpec]) -> History | None:
    """One linearization of an interpreted history, or None.

    Linearizability is local (Herlihy & Wing, TOPLAS 1990), so each
    object is searched alone, in ascending object id: the commit search
    over that object's operations, completed ones tried first and then
    by (process, inv_index), must cover its completed operations.
    Pending ones may be committed with replay-derived responses when
    that helps, except flips, whose outcome no spec derives
    (_linearizations skips them).  Interchangeable pending operations
    are tried once per position (``by_class``), which leaves the order
    found as it was.  The answer is None as soon as one object has no
    order.

    The per-object orders are merged by always placing, of the entries
    each order has next, the one invoked first.  Real time always
    allows that entry, so the merge never waits and never fails: of
    the entries not yet placed, let f be the completed one that
    responds first.  Its object's next entry e is f itself, or comes
    before f in an order that respects real time; either way e was
    invoked before f responded.  The entry placed is invoked no later
    than e, so before every unplaced response, and no unplaced
    operation happens before it.  The merged image is replayed once
    more with ``validate_sequential``; CheckerError if that fails.
    """
    by_obj: dict[int, list[OperationInstance]] = {}
    for op in sorted(h.operations(), key=lambda o: (o.complete is False, o.process, o.inv_index)):
        by_obj.setdefault(op.obj, []).append(op)
    orders = []
    for oid in sorted(by_obj):
        ops = by_obj[oid]
        need = frozenset(op.inv_index for op in ops if op.complete)
        found = next(_linearizations(ops, _preds(ops), need, specs, {}, True), None)
        if found is None:
            return None
        orders.append(found[0])
    heads = [(order[0].inv_index, k, 0) for k, order in enumerate(orders) if order]
    heapq.heapify(heads)
    merged = []
    while heads:
        _, k, i = heapq.heappop(heads)
        merged.append(orders[k][i])
        if i + 1 < len(orders[k]):
            heapq.heappush(heads, (orders[k][i + 1].inv_index, k, i + 1))
    image = image_history(h, tuple(merged))
    if not validate_sequential(image, specs):
        raise CheckerError("merged image is not sequentially valid")
    return image


# ---------------------------------------------------------------------------
# Strong linearization witnesses over trees
# ---------------------------------------------------------------------------


def _image_extensions(
    tree: HistoryTree,
    nid: int,
    parent_img: Image,
    parent_states: dict,
    specs: Mapping[int, SeqSpec],
) -> Iterator[tuple[Image, dict]]:
    """Legal images for a node, as extensions of its parent's image.

    Ordered by number of newly committed operations: completed-but-
    uncommitted ops are mandatory, pending ones optional (coins are
    never committed early, their outcome is not derivable).
    """
    committed = {e.inv_index: e.ret for e in parent_img}
    must, may = [], []
    for op in tree.ops_of(nid):
        if op.inv_index in committed:
            if op.complete and op.ret != committed[op.inv_index]:
                return  # a guessed response for a pending op turned out wrong
        elif op.complete:
            must.append(op)
        elif not tree.objects[op.obj].is_coin:
            may.append(op)
    may.sort(key=lambda o: (o.process, o.inv_index))
    preds = _preds(must + may)
    for size in range(len(may) + 1):
        for extra in itertools.combinations(may, size):
            chosen = sorted(must + list(extra), key=lambda o: (o.process, o.inv_index))
            need = frozenset(o.inv_index for o in chosen)
            for ext, states in _linearizations(chosen, preds, need, specs, parent_states):
                yield parent_img + ext, states


def _dead_key(nid: int, img: Image, states: dict) -> tuple:
    # What decides whether node ``nid``'s subtree completes under a parent
    # image: its committed (inv_index, ret) pairs and object states, not
    # their order.
    return (
        nid,
        frozenset((e.inv_index, e.ret) for e in img),
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
) -> dict[int, Image] | None:
    """A prefix-preserving linearization witness for the tree, or None.

    Depth-first over the tree: each node picks an image extending its
    parent's, fewest new commitments first, and a choice is kept only
    while every child subtree can complete under it; exhausting a
    node's choices backtracks into the parent.  A child that ran out of
    images is remembered as dead under its parent image's committed
    (inv_index, ret) pairs and object states, which are all its subtree
    depends on; a later parent image reaching the same triple is
    dropped at once.  That prunes only subtrees that would fail again,
    so the order of the search and the witness it finds are unchanged.
    Returned witnesses re-validate independently (see
    witness_violations).
    """
    if len(tree) > node_cap:
        raise TreeError(f"tree has {len(tree)} nodes, cap is {node_cap}")
    for nid in tree.node_ids():
        pending = len(tree._frame(nid)[1])
        if pending > pending_cap:
            raise TreeError(
                f"node {nid} has {pending} pending operations, cap is {pending_cap}"
            )

    dead: set = set()
    frames = [_Frame(tree.root, None, _image_extensions(tree, tree.root, (), {}, specs))]
    while True:
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


def witness_violations(
    tree: HistoryTree, witness: Witness, specs: Mapping[int, SeqSpec]
) -> list[str]:
    """Re-validate (L) and (P) node by node, from first principles.

    A node's image must exist; each entry must be one of the node's
    operations, with that operation's response if it completed; no
    operation may appear twice and no completed one may be missing; no
    entry may happen before one placed ahead of it; the image must
    replay against the specs; and it must extend the parent's image.
    Returns human-readable violations, at most one per node (the first
    of those rules, in that order, that the node breaks) and in node
    order, empty when the witness is good.

    Node ids ascend from parents, so each node is checked after its
    parent.  A node that breaks no rule leaves a record until its last
    child is checked: its image, its committed {inv_index: ret} and its
    object states after the replay.  A child whose image starts with
    that image checks only what it adds: the operation its own step
    completes (its response against the committed entry, and that it
    is present), then its tail entries in image order (in the history,
    not committed twice, replayed from the parent's states).  That
    equals the check of the whole image.  The head entries are the
    parent's, with the same invocations, and the parent passed every
    rule on them.  The node's history adds one step, so it completes at
    most one operation, and that operation responds at the history's
    last step.  So the head replays as before, and no head entry
    happens before an earlier one.  A tail entry is not in the head,
    so it was pending in the parent (whose completed operations are all
    in the head) or is new; it has no response yet or responds last,
    and happens before no entry, so the tail needs no order check.
    Every other node is checked whole.

    Deliberately shares no machinery with the search: plain loops over
    the definition, and records built by its own replay, never the
    search's states or memo, so a witness the search builds wrongly is
    still caught.
    """
    out = []
    kept: dict[int, tuple] = {}
    for nid in tree.node_ids():
        pid = tree.parent(nid)
        img = witness.get(nid)
        base = kept.get(pid)
        if img is None:
            bad, rec = "no image", None
        elif base is not None and img[: len(base[0])] == base[0]:
            bad, rec = _image_violation(tree, nid, img, base, specs)
        else:
            bad, rec = _image_violation(tree, nid, img, None, specs)
            if bad is None and pid is not None:
                pimg = witness.get(pid, ())
                head = [(e.process, e.inv_index, e.ret) for e in img[: len(pimg)]]
                if head != [(e.process, e.inv_index, e.ret) for e in pimg]:
                    bad = "image does not extend its parent's"
        if bad is not None:
            out.append(f"node {nid}: {bad}")
        elif tree.children(nid):
            kept[nid] = rec
        if base is not None and nid == max(tree.children(pid)):
            del kept[pid]
    return out


def _image_violation(
    tree: HistoryTree,
    nid: int,
    img: Image,
    base: tuple | None,
    specs: Mapping[int, SeqSpec],
) -> tuple[str | None, tuple | None]:
    # The first rule but (P) that node ``nid``'s image breaks, or None
    # and the node's record.  ``base`` is the record of a parent whose
    # image ``img`` starts with, or None to check ``img`` whole.
    ops = tree.ops_of(nid)
    if base is None:
        start, committed, states = 0, {}, {}
        must = [o for o in ops if o.complete]
    else:
        pimg, committed, states = base
        start = len(pimg)
        done = _completed_by_step(tree, nid)
        must = [] if done is None else [done]
        if done is not None and committed.get(done.inv_index, done.ret) != done.ret:
            return "image response differs from history", None
    tail = img[start:]
    resolved = []
    for e in tail:
        op = _op_at(ops, e.inv_index)
        if op is None or (op.process, op.obj, op.op, op.args) != (
            e.process, e.obj, e.op, e.args
        ):
            return f"image op {e} is not in the history", None
        if op.complete and op.ret != e.ret:
            return "image response differs from history", None
        resolved.append(op)
    if tail:
        committed = dict(committed)
        for e in tail:
            if e.inv_index in committed:
                return "duplicate operation in image", None
            committed[e.inv_index] = e.ret
    if any(o.inv_index not in committed for o in must):
        return "completed operation missing from image", None
    if base is None:
        # An op happens before some op placed ahead of it iff it happens
        # before the one of those invoked last.
        latest = None
        for o in resolved:
            if latest is not None and happens_before(o, latest):
                return "image order violates happens-before", None
            if latest is None or o.inv_index > latest.inv_index:
                latest = o
    if tail:
        states = dict(states)
        for e in tail:
            spec = _spec_for(specs, e.obj)
            state = states.get(e.obj, spec.initial_state)
            states[e.obj], resp = spec.transition(state, e.op, e.args, e.process)
            if resp is not ANY_RESPONSE and resp != e.ret:
                return "image is not sequentially valid", None
    return None, (img, committed, states)


_INV_INDEX = operator.attrgetter("inv_index")


def _op_at(ops: tuple[OperationInstance, ...], key: int) -> OperationInstance | None:
    # ops are in invocation order, so ascending by inv_index
    i = bisect.bisect_left(ops, key, key=_INV_INDEX)
    return ops[i] if i < len(ops) and ops[i].inv_index == key else None


def _completed_by_step(tree: HistoryTree, nid: int) -> OperationInstance | None:
    # The operation node ``nid``'s step responds to, if it is a response:
    # the one its parent holds open for the step's process and level.
    s = tree.step(nid)
    if not s.is_rsp():
        return None
    for pos, _, first in tree._frame(tree.parent(nid))[1]:
        if (first.process, first.level) == (s.process, s.level):
            return tree.ops_of(nid)[pos]
    return None


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normality_violations(tree: HistoryTree, witness: Witness) -> list[str]:
    """Nodes where a flip directly follows an op it is concurrent with.

    A node whose image starts with its parent's keeps the parent's
    flagged positions and checks only the pairs its tail adds: the head
    pairs hold the same operations, and the one the node's step
    completes responds after every flip in the head was invoked, so
    each head pair keeps its verdict.
    """
    out = []
    kept: dict[int, tuple] = {}
    for nid in tree.node_ids():
        pid = tree.parent(nid)
        img = witness[nid]
        base = kept.get(pid)
        if base is not None and img[: len(base[0])] == base[0]:
            start, flagged = len(base[0]), list(base[1])
        else:
            start, flagged = 0, []
        by_key = None
        for i in range(max(start, 1), len(img)):
            e = img[i]
            if not tree.objects[e.obj].is_coin:
                continue
            if by_key is None:
                by_key = {o.inv_index: o for o in tree.ops_of(nid)}
            if not happens_before(by_key[img[i - 1].inv_index], by_key[e.inv_index]):
                flagged.append(i)
        out.extend(
            f"node {nid}: flip at image position {i} follows a concurrent operation"
            for i in flagged
        )
        if tree.children(nid):
            kept[nid] = (img, flagged)
        if base is not None and nid == max(tree.children(pid)):
            del kept[pid]
    return out


def normalize_witness(
    tree: HistoryTree, witness: Witness, specs: Mapping[int, SeqSpec]
) -> dict[int, Image]:
    """Pull flips to their earliest order-respecting image positions.

    Per node: drop trailing still-pending ops, take the flips out, then
    reinsert each (in history order) right after the last operation
    that happens before it, found by scanning back from the end over
    the response indices.  The input is not validated: a node without
    an image, or with an image op the history lacks, is passed through
    as it is, and base operations keep their order even where it breaks
    happens-before.  The output must satisfy witness_violations and
    normality, checked once before returning; CheckerError names the
    first violation otherwise.
    """
    coins = {oid for oid, info in tree.objects.items() if info.is_coin}
    out: dict[int, Image] = {}
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
        flips = [e for e in img if by_key[e.inv_index].obj in coins]
        base = [e for e in img if by_key[e.inv_index].obj not in coins]
        rsps = [by_key[e.inv_index].rsp_index for e in base]
        for cf in sorted(flips, key=lambda e: e.inv_index):
            # an entry happens before the flip iff it responded before
            # the flip was invoked
            lo = len(base)
            while lo and (rsps[lo - 1] is None or rsps[lo - 1] >= cf.inv_index):
                lo -= 1
            base.insert(lo, cf)
            rsps.insert(lo, by_key[cf.inv_index].rsp_index)
        out[nid] = tuple(base)
    bad = witness_violations(tree, out, specs) or normality_violations(tree, out)
    if bad:
        raise CheckerError(f"no valid normal witness: {bad[0]}")
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
    witness: dict[int, Image] | None
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

    Each top-level atomic response must directly follow its invocation,
    as engine runs write them; TreeError otherwise, for example on
    ``experiments.counter_race_tree()``, whose atomic operations overlap
    (``check_strong_lin`` still decides such a tree).
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

    comb: dict[int, Image] = {tree.root: ()}
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
                OperationInstance(
                    newpos[x.inv_index],
                    None if x.rsp_index is None else newpos[x.rsp_index],
                    x.process, x.obj, x.op, x.args, x.ret,
                )
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
                # the operation invoked last, at step at - 1
                comb[nid] = pimg + (tree.ops_of(nid)[-1],)
            else:
                comb[nid] = pimg
            posmap[nid] = ppos
    bad = witness_violations(tree, comb, specs)
    if bad:
        return LocalityVerdict("counterexample", comb, bad[0])
    return LocalityVerdict("witness", comb, "")

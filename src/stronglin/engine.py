"""Deterministic execution engine: algorithms, adversaries, runs.

A run interleaves per-process programs one scheduling grant at a time.
One grant executes one base-level atomic step of the chosen process;
method boundary steps of implemented objects ride along with the first
and last base step of the call.  Under a weak adversary a grant that
performs a coin flip atomically bundles the process's next operation
invocation (plus its response when the operation is on an atomic base
object), which realizes the flip-adjacency restriction mechanically.

Programs and method bodies are generators.  A program yields
("invoke", object_key, op, args) or ("flip",) and receives the
response; its return value becomes the process's result.  Everything
is deterministic given the algorithm, the adversary and the coin
source, and runs replay exactly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from .histories import (
    ANY_RESPONSE,
    BASE,
    COIN,
    FLIP,
    INTERPRETED,
    INV,
    RSP,
    History,
    ObjectInfo,
    SeqSpec,
    Step,
)
from .objects import ImplProgram, coin_spec


class EngineError(Exception):
    """Scheduling or class-constraint violation."""


class NeedCoinError(Exception):
    """The coin source ran out of outcomes."""


# ---------------------------------------------------------------------------
# Coin sources
# ---------------------------------------------------------------------------


class VectorCoins:
    """A single shared coin-flip vector, read in flip order."""

    def __init__(self, vector: Iterable[Any]):
        self.vector = tuple(vector)
        self._used = 0

    def next(self, process: int) -> Any:
        if self._used >= len(self.vector):
            raise NeedCoinError(f"coin vector of length {len(self.vector)} exhausted")
        v = self.vector[self._used]
        self._used += 1
        return v


class PerProcessCoins:
    """Pre-drawn outcomes per process (the coin-assignment view used by
    the load-balancing analysis).  The history still records the flips
    in global order."""

    def __init__(self, assignment: Mapping[int, Iterable[Any]]):
        self._queues = {p: list(v) for p, v in assignment.items()}

    def next(self, process: int) -> Any:
        q = self._queues.get(process)
        if not q:
            raise NeedCoinError(f"no coin left for process {process}")
        return q.pop(0)


# ---------------------------------------------------------------------------
# Algorithms and adversaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binding:
    """One program-visible object: atomic (spec) or implemented (impl)."""

    key: str
    spec: SeqSpec | None = None
    impl: ImplProgram | None = None

    def __post_init__(self):
        if (self.spec is None) == (self.impl is None):
            raise ValueError("binding needs exactly one of spec or impl")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Processes, their programs, the objects they run against, and the
    coin domain.  ``make_program(p)`` returns a fresh generator; the
    first action of each process is therefore fixed and the k-th
    invocation depends only on earlier responses."""

    processes: tuple[int, ...]
    bindings: tuple[Binding, ...]
    make_program: Callable[[int], Any]
    omega: tuple = (0, 1)


def _adversary_class(klass: str) -> str:
    if klass not in ("oblivious", "weak", "strong"):
        raise ValueError(f"unknown adversary class {klass!r}")
    return klass


@dataclass(frozen=True)
class AdversaryPolicy:
    """A scheduler of one of the three classes.

    For ``oblivious`` the constant ``schedule`` is the whole policy.
    Otherwise ``make_decide()`` builds a per-run decide function from
    observable prefixes (a RunView) to the next process id, or None to
    stop.  Every adaptive policy in this package is a plan turned into
    ``make_decide`` by ``plan_policy``.  A pinned adaptive schedule is
    a strategy, a decision tree over the revealed coins written as a map
    from coin vector to grants, and ``strategy_policy`` plays it.
    """

    klass: str
    make_decide: Callable[[], Callable[["RunView"], int | None]] | None = None
    schedule: tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        _adversary_class(self.klass)
        if self.klass == "oblivious":
            if self.make_decide is not None:
                raise ValueError("oblivious adversaries are a constant schedule")
        elif self.make_decide is None:
            raise ValueError(f"{self.klass} adversary needs a decide function")


@dataclass(frozen=True)
class MarkState:
    """Register ownership and information flow after some base steps.

    The last write or successful SC on a register marks it with its
    process.  A read or LL of a register marked by another process makes
    the reader see that process; so does an SC, successful or not, by a
    process that has LL'd the register before.  ``sees`` holds
    (observer, observed) pairs; ``lled`` lists, per register, the
    processes with an LL there.  ``after`` is the one definition of
    these rules; the engine keeps no copy, and the tests check it
    against a pairwise statement of the same rules.
    """

    marks: tuple[tuple[int, int], ...] = ()
    sees: frozenset = frozenset()
    lled: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def after(self, steps: Iterable[Step]) -> "MarkState":
        """The state once ``steps`` follow the ones already read, so
        ``MarkState().after(h.steps)`` reads a whole history and a
        state read up to a cut continues over the rest."""
        marks = dict(self.marks)
        lled = {oid: set(ps) for oid, ps in self.lled}
        sees = set(self.sees)
        for s in steps:
            if s.kind != RSP or s.level != BASE:
                continue
            p, oid, op = s.process, s.obj, s.op
            if op == "ll":
                lled.setdefault(oid, set()).add(p)
            if op in ("read", "ll") or (op == "sc" and p in lled.get(oid, ())):
                m = marks.get(oid)
                if m is not None and m != p:
                    sees.add((p, m))
            if op == "write" or (op == "sc" and s.payload == 1):
                marks[oid] = p
        return MarkState(
            tuple(sorted(marks.items())),
            frozenset(sees),
            tuple(sorted((oid, tuple(sorted(v))) for oid, v in lled.items())),
        )


@dataclass(frozen=True)
class RunRecord:
    history: History
    schedule: tuple[int, ...]
    returns: Mapping[int, Any]
    max_point_contention: int
    flags: frozenset


class RunView:
    """What an adversary may observe: the low-level history so far.

    The finished set is derived from that history plus knowledge of the
    algorithm, so exposing it adds convenience, not power.  Marks and
    sees are not kept here: an adversary that needs them reads
    ``MarkState().after(view.steps)``.
    """

    def __init__(self, sim: "Simulation"):
        self._sim = sim

    @property
    def steps(self) -> list[Step]:
        return self._sim.steps

    @property
    def objects(self) -> Mapping[int, ObjectInfo]:
        return self._sim.registry

    @property
    def coins(self) -> tuple:
        """The coin outcomes drawn so far, in the order drawn."""
        return tuple(self._sim.outcomes)

    def finished(self, p: int) -> bool:
        """True once ``p`` has returned; False for an unknown process,
        which ``grant`` rejects."""
        rt = self._sim.procs.get(p)
        return rt is not None and rt.finished


class _ProcState:
    __slots__ = ("gen", "pending", "method", "finished", "retval", "started")

    def __init__(self, gen):
        self.gen = gen
        self.pending = None
        self.method = None
        self.finished = False
        self.retval = None
        self.started = False


class _MethodState:
    __slots__ = ("body", "target", "op", "pending_base", "owned")

    def __init__(self, body, target, op, pending_base, owned):
        self.body = body
        self.target = target
        self.op = op
        self.pending_base = pending_base
        self.owned = owned


class Simulation:
    """Mutable state of one run; drive it with grant(pid).

    Point contention is kept incrementally: ``_active`` counts processes
    that have taken a grant and not finished, ``_unfinished`` those not
    finished, so a grant costs the same whatever the process count.
    """

    def __init__(self, alg: AlgorithmSpec, coins, klass: str = "strong"):
        self.alg = alg
        self.coins = coins
        self.klass = _adversary_class(klass)
        self.steps: list[Step] = []
        self.registry: dict[int, ObjectInfo] = {}
        self.base_spec: dict[int, SeqSpec] = {}
        self.base_state: dict[int, Any] = {}
        self.grants: list[int] = []
        self.flags: set = set()
        self.max_contention = 0
        self._active = 0
        self.outcomes: list = []
        self.targets: dict[str, tuple] = {}
        registry, base_spec, base_state = self.registry, self.base_spec, self.base_state
        sealed = False

        # The allocator closes over the run's tables, not over ``self``, so a
        # set-up that keeps it makes no cycle back to the Simulation.
        def alloc(spec, type_name, params, level=BASE, impl=None) -> int:
            if sealed:
                raise EngineError(f"allocation of {type_name!r} after set-up")
            oid = len(registry)
            registry[oid] = ObjectInfo(type_name, level, tuple(params), impl)
            base_spec[oid] = spec
            base_state[oid] = spec.initial_state
            return oid

        def owned_alloc(key, spec, type_name, params=()):
            return alloc(spec, type_name, tuple(params) + (("owner", key),))

        for b in alg.bindings:
            if b.spec is not None:
                params = (("key", b.key),) + b.spec.params
                oid = alloc(b.spec, b.spec.type_name, params)
                self.targets[b.key] = ("atomic", oid, None, None, None)
            else:
                impl, target = b.impl, b.impl.target_spec
                params = (("key", b.key),) + target.params
                toid = alloc(
                    target, target.type_name, params, INTERPRETED, impl=impl.impl_name
                )
                state = impl.setup(functools.partial(owned_alloc, b.key))
                owned = range(toid + 1, len(registry))
                self.targets[b.key] = ("impl", toid, impl, state, owned)
        coin = coin_spec()
        self.coin_oid = {p: alloc(coin, COIN, (("process", p),)) for p in alg.processes}
        sealed = True
        self.procs = {p: _ProcState(alg.make_program(p)) for p in alg.processes}
        self._unfinished = len(self.procs)
        for p in self.procs:
            self._advance_program(p, None)

    # -- stepping ------------------------------------------------------------

    def all_finished(self) -> bool:
        return self._unfinished == 0

    def live_pids(self) -> tuple[int, ...]:
        return tuple(p for p in self.alg.processes if not self.procs[p].finished)

    def flips_next(self, pid: int) -> bool:
        """True when the next grant of ``pid`` starts with a coin flip.

        Only such a grant draws from the coin source, and it draws once.
        """
        rt = self.procs[pid]
        return rt.method is None and rt.pending == ("flip",)

    def next_response(self, pid: int) -> tuple | None:
        """The base step the next grant of ``pid`` commits, read without
        granting.

        ``(oid, op, args, state, response)`` when that grant is one
        operation on a base object, a method's next base step or an
        invocation of an atomic object: the process receives
        ``response`` and base object ``oid`` is left in ``state``.
        ``grant`` commits exactly this tuple.  None when the grant starts
        with a flip, whose response is the coin's, or invokes an
        implemented object, whose first base operation its body names
        only once started.
        """
        rt = self.procs[pid]
        if rt.method is not None:
            _, oid, op, args = rt.method.pending_base
        else:
            act = rt.pending
            if act[0] != "invoke":
                return None
            target = self.targets.get(act[1])
            if target is None:
                raise EngineError(f"process {pid} invoked unknown object {act[1]!r}")
            if target[0] != "atomic":
                return None
            _, _key, op, args = act
            oid = target[1]
        args = tuple(args)
        state, resp = self.base_spec[oid].transition(self.base_state[oid], op, args, pid)
        if resp is ANY_RESPONSE:
            raise EngineError("coin objects are driven by the coin source")
        return oid, op, args, state, resp

    def grant(self, pid: int) -> None:
        rt = self.procs.get(pid)
        if rt is None:
            raise EngineError(f"unknown process {pid}")
        if rt.finished:
            raise EngineError(f"adversary scheduled halted process {pid}")
        self.grants.append(pid)
        if not rt.started:
            rt.started = True
            self._active += 1
            if self._active > self.max_contention:
                self.max_contention = self._active
        if self.flips_next(pid):
            self._flip_grant(pid)
        else:
            self._step(pid)

    def _step(self, pid: int, bundled: bool = False) -> None:
        """One base step of ``pid``: the one ``next_response`` previews.

        When there is none to preview, the pending action must invoke an
        implemented object: the grant emits its boundary step and starts
        its body, and a weak flip's ``bundled`` invocation stops there.
        The base step's response goes to the open method body, or else
        to the program; a body that returns emits the closing boundary
        step.
        """
        rt = self.procs[pid]
        nxt = self.next_response(pid)
        if nxt is None:
            act = rt.pending
            if act[0] != "invoke":
                raise EngineError(f"process {pid} yielded unknown action {act!r}")
            _, key, op, args = act
            _kind, toid, impl, state, owned = self.targets[key]
            args = tuple(args)
            body = impl.body(state, pid, op, args)
            try:
                first = self._check_base_action(body.send(None), owned)
            except StopIteration:
                raise EngineError(
                    f"method {op} of {impl.impl_name} issued no base operation"
                ) from None
            rt.method = _MethodState(body, toid, op, first, owned)
            self.steps.append(Step(INV, pid, toid, op, args, INTERPRETED))
            if bundled:
                return
            nxt = self.next_response(pid)
        oid, op, args, state, resp = nxt
        self.base_state[oid] = state
        self.steps.append(Step(INV, pid, oid, op, args, BASE))
        self.steps.append(Step(RSP, pid, oid, op, resp, BASE))
        m = rt.method
        if m is None:
            self._advance_program(pid, resp)
            return
        try:
            m.pending_base = self._check_base_action(m.body.send(resp), m.owned)
        except StopIteration as stop:
            self.steps.append(Step(RSP, pid, m.target, m.op, stop.value, INTERPRETED))
            rt.method = None
            self._advance_program(pid, stop.value)

    def _advance_program(self, pid: int, send) -> None:
        rt = self.procs[pid]
        try:
            rt.pending = rt.gen.send(send)
        except StopIteration as stop:
            rt.finished = True
            rt.retval = stop.value
            rt.pending = None
            self._unfinished -= 1
            # A program may return before its first grant.
            if rt.started:
                self._active -= 1

    @staticmethod
    def _check_base_action(act, owned):
        if not (isinstance(act, tuple) and len(act) == 4 and act[0] == "invoke"):
            raise EngineError(f"method body yielded unknown action {act!r}")
        if act[1] not in owned:
            raise EngineError(
                f"method body touched foreign base object {act[1]} (not natural)"
            )
        return act

    def _flip_grant(self, pid: int) -> None:
        outcome = self.coins.next(pid)
        self.outcomes.append(outcome)
        oid = self.coin_oid[pid]
        self.steps.append(Step(INV, pid, oid, FLIP, (), BASE))
        self.steps.append(Step(RSP, pid, oid, FLIP, outcome, BASE))
        self._advance_program(pid, outcome)
        if self.klass != "weak":
            return
        rt = self.procs[pid]
        if rt.finished:
            raise EngineError(
                f"weak-class violation: flip #{len(self.outcomes)} is process {pid}'s last action"
            )
        if rt.pending == ("flip",):
            raise EngineError(
                f"weak-class violation: flip #{len(self.outcomes)} chains into another flip"
            )
        self._step(pid, bundled=True)

    # -- results ---------------------------------------------------------

    def record(self) -> RunRecord:
        return RunRecord(
            history=History(tuple(self.steps), self.alg.processes, dict(self.registry)),
            schedule=tuple(self.grants),
            returns={p: rt.retval for p, rt in self.procs.items() if rt.finished},
            max_point_contention=self.max_contention,
            flags=frozenset(self.flags),
        )


DEFAULT_BUDGET = 10_000


def run(alg: AlgorithmSpec, adv: AdversaryPolicy, coins, budget: int = DEFAULT_BUDGET) -> RunRecord:
    """Execute the algorithm to completion (or adversary stop / budget).

    One grant loop serves every class: the decide function names the
    next process, and None ends the run.  An oblivious schedule is read
    as the plan that yields its entries in order, skipping those of
    finished processes (constant schedules cannot react to
    branch-dependent step counts).  Scheduling a halted or unknown
    process is an error.  A run stopped by the budget with processes
    left is flagged ``budget-exhausted``.  Deterministic in its
    arguments."""
    sim = Simulation(alg, coins, klass=adv.klass)
    view = RunView(sim)
    make = adv.make_decide or _decider(
        lambda v: (pid for pid in adv.schedule if not v.finished(pid))
    )
    decide = make()
    while not sim.all_finished():
        if len(sim.grants) >= budget:
            sim.flags.add("budget-exhausted")
            break
        pid = decide(view)
        if pid is None:
            break
        sim.grant(pid)
    return sim.record()


def plan_policy(
    klass: str, plan: Callable[[RunView], Iterator[int]], name: str = ""
) -> AdversaryPolicy:
    """An adaptive policy written as a plan.

    ``plan(view)`` is called once per run with the run's view and
    returns an iterator, usually a generator, of the pids to grant.  A
    generator reads the view again each time it resumes, which is after
    the previous grant; returning ends the run.
    """
    return AdversaryPolicy(klass, make_decide=_decider(plan), name=name)


def _decider(plan: Callable[[RunView], Iterator[int]]):
    # bench/tracing.py names decide spans after make_decide.__module__.
    @functools.wraps(plan)
    def make_decide():
        grants = None

        def decide(view: RunView) -> int | None:
            nonlocal grants
            if grants is None:
                grants = plan(view)
            return next(grants, None)

        return decide

    return make_decide


def rotation(view: RunView, ring: tuple[int, ...]) -> Iterator[int]:
    """Plan: the processes of ``ring`` take turns in order, skipping the
    finished, until all of them are done."""
    while not all(map(view.finished, ring)):
        for q in ring:
            if not view.finished(q):
                yield q


def strategy_policy(klass: str, strategy: Mapping, name: str = "") -> AdversaryPolicy:
    """An adaptive policy that plays a strategy: a map from coin vector
    to grant sequence, the shape ``search.exists_adversary`` returns.

    Before each grant the policy keeps the entries whose vector agrees
    with the coins revealed so far, one a prefix of the other, and
    grants what they name next; once they name no more grants, the run
    stops, so ``{(): grants}`` replays a fixed list.  Kept entries that
    disagree on the next grant, or on whether to stop, branch on a coin
    not yet revealed; revealed coins that no entry agrees with leave the
    strategy without a move.  Both raise EngineError, and so does
    scheduling a finished process, unlike an oblivious schedule.
    """

    def play(view: RunView) -> Iterator[int]:
        live = [(tuple(v), tuple(g)) for v, g in strategy.items()]
        for i in itertools.count():
            # Agreement only narrows as coins are revealed, so each grant
            # filters the entries the last one kept.
            revealed = view.coins
            live = [(v, g) for v, g in live if v[:len(revealed)] == revealed[:len(v)]]
            # The next grant of each kept entry; () once it has none left.
            moves = {g[i:i + 1] for _v, g in live}
            if len(moves) != 1:
                why = "branches on a coin not yet revealed after" if moves else "has no entry for"
                raise EngineError(f"strategy {name!r} {why} revealed coins {revealed}")
            if moves == {()}:
                return
            yield from moves.pop()

    return plan_policy(klass, play, name)

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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping

from .histories import (
    ANY_RESPONSE,
    BASE,
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
    """A single shared coin-flip vector consumed in flip order."""

    def __init__(self, vector: Iterable[Any]):
        self.vector = tuple(vector)
        self._used = 0

    def next(self, process: int) -> Any:
        if self._used >= len(self.vector):
            raise NeedCoinError(f"coin vector of length {len(self.vector)} exhausted")
        v = self.vector[self._used]
        self._used += 1
        return v

    def consumed(self) -> tuple:
        return self.vector[: self._used]


class PerProcessCoins:
    """Pre-drawn outcomes per process (the coin-assignment view used by
    the load-balancing analysis).  Consumption order is still recorded
    globally."""

    def __init__(self, assignment: Mapping[int, Iterable[Any]]):
        self._queues = {p: list(v) for p, v in assignment.items()}
        self._log: list[Any] = []

    def next(self, process: int) -> Any:
        q = self._queues.get(process)
        if not q:
            raise NeedCoinError(f"no coin left for process {process}")
        v = q.pop(0)
        self._log.append(v)
        return v

    def consumed(self) -> tuple:
        return tuple(self._log)


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


@dataclass(frozen=True)
class AdversaryPolicy:
    """A scheduler of one of the three classes.

    For ``oblivious`` the constant ``schedule`` is the whole policy.
    Otherwise ``make_decide()`` builds a per-run decide function from
    observable prefixes (a RunView) to the next process id, or None to
    stop; decide functions may keep internal state since each run gets
    a fresh one.
    """

    klass: str
    make_decide: Callable[[], Callable[["RunView"], int | None]] | None = None
    schedule: tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.klass not in ("oblivious", "weak", "strong"):
            raise ValueError(f"unknown adversary class {self.klass!r}")
        if self.klass == "oblivious":
            if self.make_decide is not None:
                raise ValueError("oblivious adversaries are a constant schedule")
        elif self.make_decide is None:
            raise ValueError(f"{self.klass} adversary needs a decide function")


@dataclass(frozen=True)
class MarkState:
    """Register ownership bookkeeping: last writer or SC winner marks a
    register; ``sees`` holds (observer, observed) pairs."""

    marks: tuple[tuple[int, int], ...]
    sees: frozenset
    lled: tuple[tuple[int, tuple[int, ...]], ...]

    def marked_by(self, p: int) -> tuple[int, ...]:
        return tuple(oid for oid, q in self.marks if q == p)


@dataclass(frozen=True)
class RunRecord:
    history: History
    coin_vector: tuple
    schedule: tuple[int, ...]
    returns: Mapping[int, Any]
    max_point_contention: int
    flags: frozenset
    mark_state: MarkState


class RunView:
    """What an adversary may observe: the low-level history so far.

    Everything else here (finished set, marks, sees) is derived from
    that history plus knowledge of the algorithm, so exposing it adds
    convenience, not power.
    """

    def __init__(self, sim: "Simulation"):
        self._sim = sim

    @property
    def steps(self) -> list[Step]:
        return self._sim.steps

    @property
    def objects(self) -> Mapping[int, ObjectInfo]:
        return self._sim.registry

    def finished(self, p: int) -> bool:
        return self._sim.procs[p].finished

    def started(self, p: int) -> bool:
        return self._sim.procs[p].started

    def live(self) -> tuple[int, ...]:
        return tuple(p for p in self._sim.alg.processes if not self.finished(p))

    @property
    def marks(self) -> Mapping[int, int]:
        return self._sim.marks

    @property
    def sees(self) -> set:
        return self._sim.sees

    def history(self) -> History:
        return self._sim.partial_history()


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
    __slots__ = ("body", "target", "op", "args", "boundary_emitted", "pending_base", "owned")

    def __init__(self, body, target, op, args, owned):
        self.body = body
        self.target = target
        self.op = op
        self.args = args
        self.boundary_emitted = False
        self.pending_base = None
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
        self.klass = klass
        self.steps: list[Step] = []
        self.registry: dict[int, ObjectInfo] = {}
        self.base_spec: dict[int, SeqSpec] = {}
        self.base_state: dict[int, Any] = {}
        self.marks: dict[int, int] = {}
        self.lled: dict[int, set] = {}
        self.sees: set = set()
        self.grants: list[int] = []
        self.flags: set = set()
        self.max_contention = 0
        self._active = 0
        self.flip_count = 0
        self._next_oid = 0
        self.targets: dict[str, tuple] = {}
        for b in alg.bindings:
            if b.spec is not None:
                oid = self._alloc(b.spec, b.spec.type_name, (("key", b.key),), BASE)
                self.targets[b.key] = ("atomic", oid, None, None, None)
            else:
                impl = b.impl
                toid = self._alloc(
                    impl.target_spec,
                    impl.type_name,
                    (("key", b.key),),
                    INTERPRETED,
                    impl=impl.impl_name,
                )
                owned: set = set()

                def make_alloc(owned_set, key):
                    def alloc(spec, type_name, params=()):
                        tagged = tuple(params) + (("owner", key),)
                        oid = self._alloc(spec, type_name, tagged, BASE)
                        owned_set.add(oid)
                        return oid

                    return alloc

                ialloc = make_alloc(owned, b.key)
                state = impl.setup(ialloc)
                self.targets[b.key] = ("impl", toid, impl, state, (ialloc, owned))
        self.coin_oid = {
            p: self._alloc(coin_spec(), "coin", (("process", p),), BASE)
            for p in alg.processes
        }
        self.procs = {p: _ProcState(alg.make_program(p)) for p in alg.processes}
        self._unfinished = len(self.procs)
        for p, rt in self.procs.items():
            self._advance_program(p, None, first=True)

    # -- construction helpers ------------------------------------------------

    def _alloc(self, spec, type_name, params, level, impl=None) -> int:
        oid = self._next_oid
        self._next_oid += 1
        self.registry[oid] = ObjectInfo(type_name, level, tuple(params), impl)
        self.base_spec[oid] = spec
        self.base_state[oid] = spec.initial_state
        return oid

    # -- stepping ------------------------------------------------------------

    def all_finished(self) -> bool:
        return self._unfinished == 0

    def live_pids(self) -> tuple[int, ...]:
        return tuple(p for p in self.alg.processes if not self.procs[p].finished)

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
        if rt.method is not None:
            self._method_step(pid)
            return
        act = rt.pending
        if act == ("flip",):
            self._flip_grant(pid)
        elif act[0] == "invoke":
            _, key, op, args = act
            kind, oid, impl, state, _extra = self.targets[key]
            if kind == "atomic":
                resp = self._base_op(pid, oid, op, tuple(args))
                self._advance_program(pid, resp)
            else:
                self._start_method(pid, key, op, tuple(args))
                self._method_step(pid)
        else:
            raise EngineError(f"process {pid} yielded unknown action {act!r}")

    def _advance_program(self, pid: int, send, first: bool = False) -> None:
        rt = self.procs[pid]
        try:
            rt.pending = rt.gen.send(None if first else send)
        except StopIteration as stop:
            rt.finished = True
            rt.retval = stop.value
            rt.pending = None
            self._unfinished -= 1
            # A program may return before its first grant.
            if rt.started:
                self._active -= 1

    def _start_method(self, pid: int, key: str, op: str, args: tuple) -> None:
        _kind, toid, impl, state, (ialloc, owned) = self.targets[key]
        body = impl.body(state, ialloc, pid, op, args)
        m = _MethodState(body, toid, op, args, owned)
        try:
            m.pending_base = self._check_base_action(body.send(None), owned)
        except StopIteration:
            raise EngineError(
                f"method {op} of {impl.impl_name} issued no base operation"
            ) from None
        self.procs[pid].method = m

    @staticmethod
    def _check_base_action(act, owned):
        if not (isinstance(act, tuple) and len(act) == 4 and act[0] == "invoke"):
            raise EngineError(f"method body yielded unknown action {act!r}")
        if act[1] not in owned:
            raise EngineError(
                f"method body touched foreign base object {act[1]} (not natural)"
            )
        return act

    def _method_step(self, pid: int) -> None:
        rt = self.procs[pid]
        m = rt.method
        if not m.boundary_emitted:
            self.steps.append(Step(INV, pid, m.target, m.op, m.args, INTERPRETED))
            m.boundary_emitted = True
        _, oid, bop, bargs = m.pending_base
        resp = self._base_op(pid, oid, bop, tuple(bargs))
        try:
            m.pending_base = self._check_base_action(m.body.send(resp), m.owned)
        except StopIteration as stop:
            self.steps.append(Step(RSP, pid, m.target, m.op, stop.value, INTERPRETED))
            rt.method = None
            self._advance_program(pid, stop.value)

    def _flip_grant(self, pid: int) -> None:
        outcome = self.coins.next(pid)
        self.flip_count += 1
        flip_no = self.flip_count
        oid = self.coin_oid[pid]
        self.steps.append(Step(INV, pid, oid, FLIP, (), BASE))
        self.steps.append(Step(RSP, pid, oid, FLIP, outcome, BASE))
        self._advance_program(pid, outcome)
        if self.klass != "weak":
            return
        rt = self.procs[pid]
        if rt.finished:
            raise EngineError(
                f"weak-class violation: flip #{flip_no} is process {pid}'s last action"
            )
        act = rt.pending
        if act == ("flip",):
            raise EngineError(
                f"weak-class violation: flip #{flip_no} chains into another flip"
            )
        _, key, op, args = act
        kind, oid2, impl, state, _extra = self.targets[key]
        if kind == "atomic":
            resp = self._base_op(pid, oid2, op, tuple(args))
            self._advance_program(pid, resp)
        else:
            self._start_method(pid, key, op, tuple(args))
            m = rt.method
            self.steps.append(Step(INV, pid, m.target, m.op, m.args, INTERPRETED))
            m.boundary_emitted = True

    def _base_op(self, pid: int, oid: int, op: str, args: tuple):
        state = self.base_state[oid]
        state2, resp = self.base_spec[oid].transition(state, op, args, pid)
        if resp is ANY_RESPONSE:
            raise EngineError("coin objects are driven by the coin source")
        self.base_state[oid] = state2
        self.steps.append(Step(INV, pid, oid, op, args, BASE))
        self.steps.append(Step(RSP, pid, oid, op, resp, BASE))
        self._track_marks(pid, oid, op, resp)
        return resp

    def _track_marks(self, pid: int, oid: int, op: str, resp) -> None:
        if op in ("read", "ll"):
            m = self.marks.get(oid)
            if m is not None and m != pid:
                self.sees.add((pid, m))
            if op == "ll":
                self.lled.setdefault(oid, set()).add(pid)
        elif op == "sc":
            m = self.marks.get(oid)
            if m is not None and m != pid and pid in self.lled.get(oid, ()):
                self.sees.add((pid, m))
            if resp == 1:
                self.marks[oid] = pid
        elif op == "write":
            self.marks[oid] = pid

    # -- results ---------------------------------------------------------

    def partial_history(self) -> History:
        return History(tuple(self.steps), self.alg.processes, dict(self.registry))

    def mark_state(self) -> MarkState:
        return MarkState(
            tuple(sorted(self.marks.items())),
            frozenset(self.sees),
            tuple(sorted((oid, tuple(sorted(s))) for oid, s in self.lled.items())),
        )

    def record(self) -> RunRecord:
        return RunRecord(
            history=self.partial_history(),
            coin_vector=self.coins.consumed(),
            schedule=tuple(self.grants),
            returns={p: rt.retval for p, rt in self.procs.items() if rt.finished},
            max_point_contention=self.max_contention,
            flags=frozenset(self.flags),
            mark_state=self.mark_state(),
        )


def _assert_weak_adjacency(steps: list[Step]) -> None:
    flip_no = 0
    for i, s in enumerate(steps):
        if s.op == FLIP and s.kind == RSP:
            flip_no += 1
            nxt = steps[i + 1] if i + 1 < len(steps) else None
            if nxt is None or nxt.kind != INV or nxt.process != s.process:
                raise EngineError(
                    f"weak-class violation at flip #{flip_no}: response not "
                    "immediately followed by an invocation of the same process"
                )


DEFAULT_BUDGET = 10_000


def run(alg: AlgorithmSpec, adv: AdversaryPolicy, coins, budget: int = DEFAULT_BUDGET) -> RunRecord:
    """Execute the algorithm to completion (or adversary stop / budget).

    Deterministic in its arguments.  Scheduling a halted process is an
    error, except under oblivious schedules where entries for finished
    processes are skipped (constant schedules cannot react to
    branch-dependent step counts)."""
    sim = Simulation(alg, coins, klass=adv.klass)
    if adv.klass == "oblivious":
        for pid in adv.schedule:
            if sim.all_finished():
                break
            if len(sim.grants) >= budget:
                sim.flags.add("budget-exhausted")
                break
            if sim.procs[pid].finished:
                continue
            sim.grant(pid)
    else:
        decide = adv.make_decide()
        view = RunView(sim)
        while not sim.all_finished():
            if len(sim.grants) >= budget:
                sim.flags.add("budget-exhausted")
                break
            pid = decide(view)
            if pid is None:
                break
            sim.grant(pid)
    if adv.klass == "weak":
        _assert_weak_adjacency(sim.steps)
    return sim.record()


def derive_mark_state(h: History) -> MarkState:
    """Recompute marks and the sees relation from a recorded history.

    Independent of the engine's online bookkeeping; used as an oracle.
    """
    marks: dict[int, int] = {}
    lled: dict[int, set] = {}
    sees: set = set()
    for s in h.steps:
        if s.level != BASE or s.kind != RSP:
            continue
        p, oid, op = s.process, s.obj, s.op
        if op in ("read", "ll"):
            m = marks.get(oid)
            if m is not None and m != p:
                sees.add((p, m))
            if op == "ll":
                lled.setdefault(oid, set()).add(p)
        elif op == "sc":
            m = marks.get(oid)
            if m is not None and m != p and p in lled.get(oid, ()):
                sees.add((p, m))
            if s.payload == 1:
                marks[oid] = p
        elif op == "write":
            marks[oid] = p
    return MarkState(
        tuple(sorted(marks.items())),
        frozenset(sees),
        tuple(sorted((oid, tuple(sorted(v))) for oid, v in lled.items())),
    )


def enumerate_expectation(
    alg: AlgorithmSpec,
    adv: AdversaryPolicy,
    omega: tuple,
    horizon: int,
    payoff: Callable[[RunRecord], Any],
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Exact expectation of payoff over uniform coin vectors omega^horizon."""
    total = len(omega) ** horizon
    if total > 10**6:
        raise EngineError(f"|omega|^horizon = {total} exceeds the enumeration guard")
    acc = Fraction(0)
    for c in itertools.product(omega, repeat=horizon):
        try:
            rec = run(alg, adv, VectorCoins(c), budget=budget)
        except NeedCoinError:
            raise EngineError(
                f"run consumed more than horizon={horizon} flips"
            ) from None
        if "budget-exhausted" in rec.flags:
            raise EngineError("budget exhausted during exact enumeration")
        acc += Fraction(payoff(rec))
    return acc / total


def scripted_policy(klass: str, grants: Iterable[int], name: str = "") -> AdversaryPolicy:
    """An adaptive-class policy that replays a fixed grant list then stops.

    Unlike an oblivious schedule, exhausting the list ends the run and
    scheduling a finished process is an error (the script is expected
    to know what it is doing)."""
    seq = tuple(grants)

    def make_decide():
        it = iter(seq)

        def decide(view):
            return next(it, None)

        return decide

    return AdversaryPolicy(klass, make_decide=make_decide, name=name)

"""Named experiments over the adversary-gap examples.

Each worked example races one randomized program against two routes to
the same object: an atomic oracle and a linearizable implementation of
it.  The adversary class that schedules the run decides whether the two
routes are distinguishable, and every claim here is settled either by
exact enumeration over coin vectors or by exhaustive game search at the
example's tiny size.  The load-balance experiment covers the sampled
regime, and the checker suite replays the strong-linearizability
fixtures, locality among them.  The EXPECTED table is the one list of
exact claims: the example reports and the suite emit exactly its rows,
in table order, and take the expected column from it, so a regression
surfaces as a verdict flip rather than a silently recomputed constant.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from math import isfinite
from typing import Any, Callable, Iterator, Mapping, Sequence

from .checkers import (
    HistoryTree,
    check_locality,
    check_strong_lin,
    default_specs,
    image_history,
    normality_violations,
    normalize_witness,
    witness_violations,
)
from .engine import (
    DEFAULT_BUDGET,
    AdversaryPolicy,
    AlgorithmSpec,
    Binding,
    EngineError,
    NeedCoinError,
    RunRecord,
    RunView,
    VectorCoins,
    plan_policy,
    rotation,
    run,
    strategy_policy,
)
from .histories import (
    BASE,
    COIN,
    INTERPRETED,
    INV,
    RSP,
    History,
    ObjectInfo,
    Step,
    interpret,
)
from .loadbalance import (
    adversary_ap,
    counter_count,
    estimate_phi,
    k_max_for,
    loadbalance_algorithm,
    scripted_weak_families,
)
from .objects import (
    BOTTOM,
    CATALOG,
    ImplProgram,
    aadgms_snapshot,
    counter_spec,
    herlihy_wing_queue,
    vidyasankar_register,
    vitanyi_awerbuch_mrsw,
)
from .search import exists_adversary, optimal_expectation


class ExperimentError(Exception):
    """A named experiment was misconfigured."""


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def drain_policy(order: Sequence[int]) -> AdversaryPolicy:
    """Strong adversary that runs each process to completion, in order."""
    fixed = tuple(order)

    def drain(view: RunView) -> Iterator[int]:
        for p in fixed:
            while not view.finished(p):
                yield p

    return plan_policy("strong", drain, "drain")


def alternating_policy(procs: Sequence[int]) -> AdversaryPolicy:
    """Strong adversary cycling over the given processes, skipping the done."""
    ring = tuple(procs)
    return plan_policy("strong", lambda view: rotation(view, ring), "alternate")


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


# A payoff's whole input: each finished process's return value.
Returns = Mapping[int, Any]


@dataclass(frozen=True)
class Example:
    """One adversary-gap fixture: a program, two object routes, a schedule.

    ``payoff`` scores a finished run from its returns alone, as the game
    search requires.  ``goal`` says which direction the atomic-side game
    search optimizes ("min" for the register/snapshot races, "max" for
    the queue goals).
    """

    name: str
    omega: tuple[int, ...]
    atomic: AlgorithmSpec
    implemented: AlgorithmSpec
    schedule: AdversaryPolicy
    payoff: Callable[[Returns], Fraction]
    goal: str


def implemented_value(ex: Example, budget: int = DEFAULT_BUDGET) -> Fraction | None:
    """Exact expectation of the example's payoff under its pinned
    schedule: one run per outcome of its one flip, in ``omega`` order.
    None when a run exhausts ``budget``; EngineError when a run flips
    more than once."""
    total = Fraction(0)
    for c in ex.omega:
        try:
            rec = run(ex.implemented, ex.schedule, VectorCoins((c,)), budget=budget)
        except NeedCoinError:
            raise EngineError(f"example {ex.name}: a run flips more than once") from None
        if "budget-exhausted" in rec.flags:
            return None
        total += Fraction(ex.payoff(rec.returns))
    return total / len(ex.omega)


def atomic_value(ex: Example, klass: str = "strong") -> Fraction:
    """Game value of the atomic variant against the given adversary class."""
    return optimal_expectation(
        ex.atomic, ex.omega, ex.payoff, klass=klass, maximize=(ex.goal == "max")
    )


def _example(
    name: str,
    procs: tuple[int, ...],
    key: str,
    impl: ImplProgram,
    make_program: Callable[[int], Any],
    omega: tuple[int, ...],
    schedule: AdversaryPolicy,
    payoff: Callable[[Returns], Fraction],
    goal: str,
) -> Example:
    """One program run against ``key`` bound to ``impl`` and to its spec."""

    def alg(binding: Binding) -> AlgorithmSpec:
        return AlgorithmSpec(procs, (binding,), make_program, omega)

    return Example(
        name,
        omega,
        alg(Binding(key, spec=impl.target_spec)),
        alg(Binding(key, impl=impl)),
        schedule,
        payoff,
        goal,
    )


def _snapshot_payoff(returns: Returns) -> Fraction:
    return Fraction(sum(returns[0]))


def snapshot_example() -> Example:
    """Scanner races two updaters; the second update's sign is a coin.

    p scans; q updates 6, flips, then updates 8c; r updates 2 then 0.
    The double-collect implementation lets a weak adversary park r's
    second low-level write and feed p either a borrowed embedded view
    (sum 2) or a direct collect of -8 and 2 (sum -6).
    """

    def make_program(pid: int) -> Any:
        def scanner() -> Any:
            view = yield ("invoke", "S", "scan", ())
            return view

        def flipper() -> Any:
            yield ("invoke", "S", "update", (6,))
            c = yield ("flip",)
            yield ("invoke", "S", "update", (8 * c,))
            return c

        def steady() -> Any:
            yield ("invoke", "S", "update", (2,))
            yield ("invoke", "S", "update", (0,))
            return None

        return (scanner, flipper, steady)[pid]()

    common = (0,) * 3 + (2,) * 7 + (2,) * 6 + (1,) * 7 + (1,) * 1 + (1,) * 7 + (0,) * 3
    schedule = strategy_policy("weak", {
        (1,): common + (2,) * 1 + (0,) * 3, (-1,): common + (0,) * 3 + (2,) * 1
    }, "steal-embedded-view")
    return _example(
        "snapshot", (0, 1, 2), "S", aadgms_snapshot(3),
        make_program, (-1, 1), schedule, _snapshot_payoff, "min",
    )


def _reader_payoff(returns: Returns) -> Fraction:
    return Fraction(returns[1])


def _register_program(first: int) -> Callable[[int], Any]:
    """Process 0 writes ``first``, flips, then writes the coin; every
    other process reads once."""

    def make_program(pid: int) -> Any:
        def writer() -> Any:
            yield ("invoke", "R", "write", (first,))
            c = yield ("flip",)
            yield ("invoke", "R", "write", (c,))
            return c

        def reader() -> Any:
            got = yield ("invoke", "R", "read", ())
            return got

        return writer() if pid == 0 else reader()

    return make_program


def srsw_register_example() -> Example:
    """Reader vs. writer on a four-valued register initialized to 1.

    The writer writes 2 and then a coin value from {0, 2}.  Against the
    bit-array implementation, a fixed oblivious schedule catches the
    reader's downward re-check between the two writes, so the read
    averages 1/2 even though every atomic schedule yields at least 1.
    """
    schedule = AdversaryPolicy(
        "oblivious", schedule=(1, 1) + (0,) * 7 + (1,), name="up-down-race"
    )
    return _example(
        "srsw-register", (0, 1), "R", vidyasankar_register(3, 1),
        _register_program(2), (0, 2), schedule, _reader_payoff, "min",
    )


def mrsw_register_example() -> Example:
    """Two readers watch a writer whose second write is a coin in {-1, 1}.

    The relay construction forwards values between readers through
    per-pair registers.  A weak adversary lets r1 sample the writer's
    cell before either write, then decides, after seeing the coin,
    whether r2 runs first and relays -1 into r1's remaining reads.
    """
    common = (1,) * 1 + (0,) * 2 + (0,) * 1 + (0,) * 2
    schedule = strategy_policy("weak", {
        (1,): common + (1,) * 4 + (2,) * 5, (-1,): common + (2,) * 5 + (1,) * 4
    }, "relay-steal")
    return _example(
        "mrsw-register", (0, 1, 2), "R", vitanyi_awerbuch_mrsw(),
        _register_program(1), (-1, 1), schedule, _reader_payoff, "min",
    )


def _queue_goals(returns: Returns) -> tuple[bool, bool, bool]:
    c, d1, d2, d3 = returns[2]
    deqs = (d1, d2, d3)
    emptied = BOTTOM not in deqs
    ordered = 1 in deqs and 2 in deqs and deqs.index(1) < deqs.index(2)
    return emptied, ordered, d1 == c


def _queue_payoff(returns: Returns) -> Fraction:
    emptied, ordered, matched = _queue_goals(returns)
    return Fraction(int(emptied and ordered and matched))


def _queue_payoff_unordered(returns: Returns) -> Fraction:
    emptied, _ordered, matched = _queue_goals(returns)
    return Fraction(int(emptied and matched))


def hw_queue_example() -> Example:
    """Three enqueuers, then one flips a coin and drains the queue.

    Success means the three dequeues empty the queue, the dequeue
    returning 1 precedes the one returning 2, and the first dequeue
    equals the flip.  Holding back q0's array write until after the
    flip lets a weak adversary steer the first dequeue to 0 or 1 at
    will, which no strong adversary can do against the atomic queue:
    there the front is fixed before the flip.
    """

    def make_program(pid: int) -> Any:
        def enqueuer() -> Any:
            yield ("invoke", "Q", "enqueue", (pid,))
            return None

        def racer() -> Any:
            yield ("invoke", "Q", "enqueue", (2,))
            c = yield ("flip",)
            d1 = yield ("invoke", "Q", "dequeue", ())
            d2 = yield ("invoke", "Q", "dequeue", ())
            d3 = yield ("invoke", "Q", "dequeue", ())
            return (c, d1, d2, d3)

        return racer() if pid == 2 else enqueuer()

    common = (0,) * 1 + (1,) * 2 + (2,) * 2 + (2,) * 1
    schedule = strategy_policy("weak", {
        (0,): common + (0,) * 1 + (2,) * 2 + (2,) * 3 + (2,) * 4,
        (1,): common + (2,) * 3 + (0,) * 1 + (2,) * 2 + (2,) * 4,
    }, "held-write")
    return _example(
        "hw-queue", (0, 1, 2), "Q", herlihy_wing_queue(),
        make_program, (0, 1), schedule, _queue_payoff, "max",
    )


# A claim whose metric scores something other than its example's own
# payoff.  The unordered queue goal drops 1-before-2; it does not help
# the atomic adversary, because the racer's own enqueue still pins the
# queue front before the flip.
_METRIC_PAYOFFS: dict[str, Callable[[Returns], Fraction]] = {
    "max-success-probability-unordered": _queue_payoff_unordered,
}


EXAMPLES: dict[str, Callable[[], Example]] = {
    "snapshot": snapshot_example,
    "srsw-register": srsw_register_example,
    "mrsw-register": mrsw_register_example,
    "hw-queue": hw_queue_example,
}


# ---------------------------------------------------------------------------
# Checker-suite fixtures
# ---------------------------------------------------------------------------


def _flip_tree(
    objs: Mapping[int, ObjectInfo],
    procs: tuple[int, ...],
    common: Sequence[tuple],
    tails: Mapping[int, Sequence[tuple]],
) -> HistoryTree:
    """Tree of one run per coin outcome: ``common``, then that outcome's tail.

    Steps are written (kind, process, object, op, payload); each takes
    its level from its object's registry entry.
    """

    def steps(rows: Sequence[tuple]) -> tuple[Step, ...]:
        return tuple(Step(*row, objs[row[2]].level) for row in rows)

    runs = {
        (c,): History(steps(common) + steps(tail), procs, objs)
        for c, tail in tails.items()
    }
    return HistoryTree.from_runs(runs, omega=(0, 1))


# Processes 1 and 2 enqueue 1 and 2 on queue 0 concurrently; both
# complete, then process 0 invokes its flip on coin 1.
_ENQUEUES_THEN_FLIP = (
    (INV, 1, 0, "enqueue", (1,)),
    (INV, 2, 0, "enqueue", (2,)),
    (RSP, 1, 0, "enqueue", None),
    (RSP, 2, 0, "enqueue", None),
    (INV, 0, 1, "flip", ()),
)

# Per coin outcome, process 0's flip response and its drain of queue 0:
# on 0 the drain meets 1 first, on 1 it meets 2 and then 1.
_DRAIN_TAILS = {
    0: (
        (RSP, 0, 1, "flip", 0),
        (INV, 0, 0, "dequeue", ()),
        (RSP, 0, 0, "dequeue", 1),
    ),
    1: (
        (RSP, 0, 1, "flip", 1),
        (INV, 0, 0, "dequeue", ()),
        (RSP, 0, 0, "dequeue", 2),
        (INV, 0, 0, "dequeue", ()),
        (RSP, 0, 0, "dequeue", 1),
    ),
}


def _mutex_counter_runs(
    first: str, second: str, policy: AdversaryPolicy
) -> dict[tuple, RunRecord]:
    """Runs of two clients over lock-based counters, one per coin.

    Client 0 increments ``first``, flips, and increments ``second``;
    client 1 increments ``second`` once.  Equal keys name one counter.
    """

    def make_program(pid: int) -> Any:
        def flipper() -> Any:
            yield ("invoke", first, "fetch_inc", ())
            yield ("flip",)
            yield ("invoke", second, "fetch_inc", ())

        def bumper() -> Any:
            yield ("invoke", second, "fetch_inc", ())

        return flipper() if pid == 0 else bumper()

    counter = CATALOG["mutex-wrapped-counter"]
    bindings = tuple(Binding(k, impl=counter()) for k in dict.fromkeys((first, second)))
    alg = AlgorithmSpec((0, 1), bindings, make_program, (0, 1))
    return {(c,): run(alg, policy, VectorCoins((c,))) for c in (0, 1)}


def mutex_counter_tree() -> HistoryTree:
    """Tree of real runs: two clients share a lock-based counter.

    Client 0 increments, flips, and increments again; client 1
    increments once.  An alternating strong schedule keeps the
    interpreted operations overlapping, so the checker has to commit
    genuinely pending increments.
    """
    runs = _mutex_counter_runs("C", "C", alternating_policy((0, 1)))
    return HistoryTree.from_runs(runs, omega=(0, 1))


def mutex_counter_runs() -> dict[tuple, RunRecord]:
    """Runs of two clients over two lock-based counters, one per coin.

    Client 0 increments C1, flips, and increments C2; client 1
    increments C2 once.  Each client runs to completion in pid order,
    so C1 is done before the flip and only C2 sees both clients.
    """
    return _mutex_counter_runs("C1", "C2", drain_policy((0, 1)))


def queue_counter_tree() -> HistoryTree:
    """An implemented queue beside an unrelated implemented counter.

    The queue's projection repeats the obstruction of
    hw_atomic_dequeue_tree: two overlapping enqueues complete, then the
    flip decides which value the drain meets first.  The counter is
    touched on one branch only.
    """
    objs = {
        0: ObjectInfo("queue", INTERPRETED, (("key", "Q"),), impl="demo"),
        1: ObjectInfo(COIN, BASE, (("process", 0),)),
        2: ObjectInfo("strong-counter", INTERPRETED, (("key", "C"),), impl="demo"),
    }
    bump = ((INV, 0, 2, "fetch_inc", ()), (RSP, 0, 2, "fetch_inc", 0))
    return _flip_tree(objs, (0, 1, 2), _ENQUEUES_THEN_FLIP, {
        0: _DRAIN_TAILS[0] + bump,
        1: _DRAIN_TAILS[1],
    })


def hw_atomic_dequeue_tree() -> HistoryTree:
    """Queue tree with overlapping enqueues and branch-dependent dequeues.

    Both enqueues complete while concurrent, then a flip decides whether
    the drain starts with 1 or with 2.  Every leaf linearizes, but any
    shared-prefix image commits one enqueue order and dies on the other
    branch.
    """
    objs = {
        0: ObjectInfo("queue", BASE, (("key", "Q"),)),
        1: ObjectInfo(COIN, BASE, (("process", 0),)),
    }
    return _flip_tree(objs, (0, 1, 2), _ENQUEUES_THEN_FLIP, _DRAIN_TAILS)


def counter_race_tree() -> HistoryTree:
    """Three racing increments; the flip decides which slow one wins."""
    objs = {
        0: ObjectInfo("strong-counter", BASE, (("key", "X"),)),
        1: ObjectInfo(COIN, BASE, (("process", 2),)),
    }
    common = (
        (INV, 0, 0, "fetch_inc", ()),
        (INV, 1, 0, "fetch_inc", ()),
        (INV, 2, 0, "fetch_inc", ()),
        (RSP, 2, 0, "fetch_inc", 0),
        (INV, 2, 1, "flip", ()),
    )
    return _flip_tree(objs, (0, 1, 2), common, {
        0: (
            (RSP, 2, 1, "flip", 0),
            (RSP, 0, 0, "fetch_inc", 1),
            (RSP, 1, 0, "fetch_inc", 2),
        ),
        1: (
            (RSP, 2, 1, "flip", 1),
            (RSP, 1, 0, "fetch_inc", 1),
            (RSP, 0, 0, "fetch_inc", 2),
        ),
    })


# Completion-order signatures (process, op, ret) for the counter race.
# The early-flip images are the normalized ones; the late-flip images
# place the coin after both slow increments, which forces the branches
# to disagree before any flip resolves.
RACE_LATE_FLIP = {
    0: (
        (2, "fetch_inc", 0),
        (0, "fetch_inc", 1),
        (1, "fetch_inc", 2),
        (2, "flip", 0),
    ),
    1: (
        (2, "fetch_inc", 0),
        (1, "fetch_inc", 1),
        (0, "fetch_inc", 2),
        (2, "flip", 1),
    ),
}
RACE_EARLY_FLIP = {
    0: (
        (2, "fetch_inc", 0),
        (2, "flip", 0),
        (0, "fetch_inc", 1),
        (1, "fetch_inc", 2),
    ),
    1: (
        (2, "fetch_inc", 0),
        (2, "flip", 1),
        (1, "fetch_inc", 1),
        (0, "fetch_inc", 2),
    ),
}


def race_program() -> AlgorithmSpec:
    """Atomic counterpart of the counter race, for schedulability search."""

    def make_program(pid: int) -> Any:
        def racer() -> Any:
            yield ("invoke", "X", "fetch_inc", ())
            yield ("flip",)
            return None

        def one() -> Any:
            yield ("invoke", "X", "fetch_inc", ())
            return None

        return racer() if pid == 2 else one()

    return AlgorithmSpec(
        (0, 1, 2), (Binding("X", spec=counter_spec(0)),), make_program, (0, 1)
    )


def completion_signature(h: History) -> tuple[tuple[int, str, Any], ...]:
    """(process, op, ret) triples in response order, coins included."""
    return tuple(
        (s.process, s.op, s.payload) for s in h.steps if s.is_rsp()
    )


def coschedulable(targets: Mapping[int, tuple]) -> bool:
    """Can one strong adversary realize every target image on its branch?

    Each grant of ``race_program`` is one whole atomic operation, so a
    target fixes its branch's grants, and playing them would decide this
    too; the tests check that on every target pair.  The search stays
    because bench's traced ``strong-lin-suite`` report expects its spans.
    """
    alg = race_program()

    def leaf_ok(rec: RunRecord, coins: tuple) -> bool:
        return completion_signature(interpret(rec.history)) == targets[coins[0]]

    found = exists_adversary(alg, (0, 1), leaf_ok, klass="strong")
    return found is not None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    experiment: str
    variant: str
    metric: str
    value: str
    ci95: str
    expected: str
    citation: str
    verdict: str


CSV_COLUMNS = tuple(f.name for f in fields(Row))


@dataclass(frozen=True)
class Report:
    experiment: str
    config: tuple[tuple[str, Any], ...]
    rows: tuple[Row, ...]

    @property
    def ok(self) -> bool:
        return all(r.verdict == "ok" for r in self.rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in self.rows:
            w.writerow([getattr(r, c) for c in CSV_COLUMNS])
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "config": dict(self.config),
            "rows": [
                {c: getattr(r, c) for c in CSV_COLUMNS} for r in self.rows
            ],
            "ok": self.ok,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Every exact claim, keyed (experiment, variant, metric), in report row
# order: a report emits one row per key of its experiment.  The
# citation says why the number is what it is; the runners never
# recompute an expected value inline.
EXPECTED: dict[tuple[str, str, str], tuple[str, str]] = {
    ("snapshot", "atomic-strong", "min-expected-scan-sum"): (
        "-1",
        "after the flip a strong scheduler reads 6 or -8 at will: (6-8)/2",
    ),
    ("snapshot", "atomic-weak", "min-expected-scan-sum"): (
        "0",
        "the flip grant carries q's next update with it, so the scan "
        "lands on 8c or on a coin-independent prefix; both average 0",
    ),
    ("snapshot", "implemented-weak", "expected-scan-sum"): (
        "-2",
        "double-collect scan borrows r's embedded view on one branch "
        "and directly collects -8 and 2 on the other: (2-6)/2",
    ),
    ("srsw-register", "atomic-strong", "min-expected-read"): (
        "1",
        "the read commits before, between, or after whole writes; the "
        "initial 1 and the coin average 1 are the cheapest options",
    ),
    ("srsw-register", "implemented-oblivious", "expected-read"): (
        "1/2",
        "a fixed schedule catches the downward re-check between the two "
        "writes: the read returns 0 or 1 with equal probability",
    ),
    ("mrsw-register", "atomic-strong", "min-expected-read"): (
        "0",
        "pinning r1's read before the first write returns the initial 0 "
        "on every branch; any later slot averages at least 0",
    ),
    ("mrsw-register", "implemented-weak", "expected-read"): (
        "-1/2",
        "r1 samples the writer's cell early; r2 relays -1 into r1's "
        "remaining reads on one branch only: (0-1)/2",
    ),
    ("hw-queue", "implemented-weak", "success-probability"): (
        "1",
        "holding q0's array write back lets the first dequeue return "
        "whichever of 0 and 1 matches the flip",
    ),
    ("hw-queue", "atomic-strong", "max-success-probability"): (
        "1/2",
        "the queue front is fixed before the flip, so the first dequeue "
        "matches the coin half the time at best",
    ),
    ("hw-queue", "atomic-strong", "max-success-probability-unordered"): (
        "1/2",
        "dropping the 1-before-2 goal does not unpin the front: the "
        "racer's own enqueue precedes its flip",
    ),
    ("strong-lin-suite", "mutex-counter", "witness"): (
        "witness",
        "lock-based operations take effect at the acquire, which is "
        "forward-stable under extension",
    ),
    ("strong-lin-suite", "hw-atomic-dequeues", "witness"): (
        "none",
        "overlapping enqueues force a dequeue order to commit before "
        "the flip, and each branch demands the opposite order",
    ),
    ("strong-lin-suite", "counter-race", "normalized-images"): (
        "match",
        "pulling each flip to its earliest order-respecting slot yields "
        "the early-flip images on both branches",
    ),
    ("strong-lin-suite", "counter-race", "schedulability-split"): (
        "split",
        "one strong adversary replays both early-flip images but no "
        "strong adversary replays the late-flip pair",
    ),
    ("strong-lin-suite", "composed-mutex-counters", "locality"): (
        "witness",
        "each counter's projection has a witness; composing them step by "
        "step gives one for both counters, as the direct search confirms",
    ),
    ("strong-lin-suite", "composed-queue-counter", "locality"): (
        "none",
        "the queue's projection has no witness, so locality predicts none "
        "for the composed tree, and the direct search finds none",
    ),
}


def _row(key: tuple[str, str, str], value: str | None) -> Row:
    """The report row of one claim; a value of None (budget hit) is
    ``inconclusive``."""
    expected, citation = EXPECTED[key]
    if value is None:
        return Row(*key, "", "", expected, citation, "inconclusive")
    verdict = "ok" if value == expected else "fail"
    return Row(*key, value, "", expected, citation, verdict)


def _claim_rows(
    experiment: str, value_of: Callable[[str, str], str | None]
) -> tuple[Row, ...]:
    """One row per EXPECTED claim of the experiment, in table order."""
    return tuple(
        _row(key, value_of(key[1], key[2])) for key in EXPECTED if key[0] == experiment
    )


# ---------------------------------------------------------------------------
# Named experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    n: int = 16
    delta: float = 0.5
    trials: int = 200
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    def echo(self) -> tuple[tuple[str, Any], ...]:
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


def _example_report(cfg: ExperimentConfig) -> Report:
    """The example's claims.  The variant names the route: an
    ``implemented-<class>`` claim enumerates the pinned schedule of that
    class, an ``atomic-<class>`` claim is the atomic game value against
    that adversary class."""
    ex = EXAMPLES[cfg.name]()

    def value_of(variant: str, metric: str) -> str | None:
        route, klass = variant.split("-", 1)
        if route == "atomic":
            payoff = _METRIC_PAYOFFS.get(metric, ex.payoff)
            return str(atomic_value(replace(ex, payoff=payoff), klass))
        value = implemented_value(ex, cfg.budget)
        return None if value is None else str(value)

    return Report(cfg.name, cfg.echo(), _claim_rows(cfg.name, value_of))


# Why each side of the load-balance bound holds, keyed by the side.
_PHI_CITATIONS = {
    "below": "with atomic counters no weak adversary pushes the mean return "
    "past (k_max-1)/sqrt(n)",
    "above": "against these strongly linearizable counters the two-phase "
    "adversary drives the target's return past the atomic bound",
}


def _phi_row(variant: str, est: Any, bound: Fraction, side: str) -> Row:
    value = f"{est.mean:.6f}"
    ci = f"{est.ci95:.6f}"
    if est.flags or est.trials < 2:
        # one trial has no spread, so its ci95 of 0 supports nothing
        verdict = "inconclusive"
    elif side == "below":
        verdict = "ok" if est.mean <= float(bound) + 3 * est.ci95 else "fail"
    else:
        verdict = "ok" if est.mean - est.ci95 > float(bound) else "fail"
    return Row(
        "loadbalance", variant, "phi-estimate", value, ci, str(bound),
        _PHI_CITATIONS[side], verdict,
    )


def _loadbalance_report(cfg: ExperimentConfig) -> Report:
    n = cfg.n
    try:
        m = counter_count(n)
    except ValueError:
        raise ExperimentError(
            f"loadbalance needs a positive square process count, got {n}"
        ) from None
    if cfg.trials < 1:
        raise ExperimentError(
            f"loadbalance needs at least one trial, got {cfg.trials}"
        )
    try:
        k_max = k_max_for(n, cfg.delta)
    except ValueError:
        raise ExperimentError(
            "loadbalance needs a delta with (1 + delta) * sqrt(n) finite and "
            f"positive, got {cfg.delta}"
        ) from None
    bound = Fraction(k_max - 1, m)
    two_phase = lambda p: adversary_ap(p, n)
    families = {"two-phase": two_phase, **scripted_weak_families(n, k_max)}
    atomic = loadbalance_algorithm(n, "atomic")
    estimates = [
        (f"atomic-{fam}", atomic, families[fam], "below") for fam in sorted(families)
    ] + [
        (f"{kind}-two-phase", loadbalance_algorithm(n, kind), two_phase, "above")
        for kind in ("llsc", "writefirst")
    ]
    rows = []
    for variant, alg, family, side in estimates:
        est = estimate_phi(alg, family, k_max, cfg.trials, cfg.seed, cfg.budget)
        rows.append(_phi_row(variant, est, bound, side))
    return Report("loadbalance", cfg.echo(), tuple(rows))


def _witness_flag(tree: HistoryTree) -> str:
    """``witness`` when the checker finds one that re-validates."""
    specs = default_specs(tree.objects, tree.processes)
    witness = check_strong_lin(tree, specs)
    if witness is None or witness_violations(tree, witness, specs):
        return "none"
    return "witness"


def _locality_flag(tree: HistoryTree) -> str:
    """The witness flag by two routes, or ``disagree`` when they differ.

    One route composes witnesses of the objects' projections
    (check_locality), and reads ``none`` when some projection has none;
    the other searches the whole tree (_witness_flag).
    """
    status = check_locality(tree, default_specs(tree.objects, tree.processes)).status
    composed = {"witness": "witness", "not-applicable": "none"}.get(status, status)
    direct = _witness_flag(tree)
    return direct if composed == direct else "disagree"


def _normalized_race_images() -> str:
    race = counter_race_tree()
    specs = default_specs(race.objects, race.processes)
    witness = check_strong_lin(race, specs)
    if witness is None:
        return "mismatch"
    norm = normalize_witness(race, witness, specs)
    if normality_violations(race, norm):
        return "mismatch"
    images = {}
    for leaf in race.leaves():
        sig = completion_signature(image_history(race.history_of(leaf), norm[leaf]))
        flips = [r for p, o, r in sig if o == "flip"]
        images[flips[0]] = sig
    return "match" if images == dict(RACE_EARLY_FLIP) else "mismatch"


def _suite_report(cfg: ExperimentConfig) -> Report:
    split = not coschedulable(RACE_LATE_FLIP) and coschedulable(RACE_EARLY_FLIP)
    values = {
        ("mutex-counter", "witness"): _witness_flag(mutex_counter_tree()),
        ("hw-atomic-dequeues", "witness"): _witness_flag(hw_atomic_dequeue_tree()),
        ("counter-race", "normalized-images"): _normalized_race_images(),
        ("counter-race", "schedulability-split"): "split" if split else "no-split",
        ("composed-mutex-counters", "locality"): _locality_flag(
            HistoryTree.from_runs(mutex_counter_runs(), omega=(0, 1))
        ),
        ("composed-queue-counter", "locality"): _locality_flag(queue_counter_tree()),
    }
    rows = _claim_rows(cfg.name, lambda variant, metric: values[variant, metric])
    return Report(cfg.name, cfg.echo(), rows)


_RUNNERS: dict[str, Callable[[ExperimentConfig], Report]] = {
    **{name: _example_report for name in EXAMPLES},
    "loadbalance": _loadbalance_report,
    "strong-lin-suite": _suite_report,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)


def run_named_experiment(cfg: ExperimentConfig) -> Report:
    """Execute one named experiment and attach verdicts to every row.

    Every experiment echoes ``delta`` in its config, read or not, so a
    non-finite one is an error for all of them: JSON has no NaN."""
    runner = _RUNNERS.get(cfg.name)
    if runner is None:
        raise ExperimentError(
            f"unknown experiment {cfg.name!r}; names: {', '.join(EXPERIMENT_NAMES)}"
        )
    if not isfinite(cfg.delta):
        raise ExperimentError(f"{cfg.name} needs a finite delta, got {cfg.delta}")
    return runner(cfg)

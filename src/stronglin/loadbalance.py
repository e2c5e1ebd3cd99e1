"""Load balancing over randomly chosen counters, and the schedules that skew it.

Each of n processes picks one of sqrt(n) shared strong counters uniformly at
random, increments it, reads the prior value, and decrements again.  With
atomic counters no weak adversary can push the expected increment result of
any process above (k_max - 1) / sqrt(n) once runs whose point contention
exceeds k_max are discarded.  With counters implemented from registers and
LL/SC, the hand-built two-phase adversary built here drives the same
expectation to the order of sqrt(n).

The estimator in this module reports the averaged quantity E[X] over a
uniformly random target process and coin assignment, which lower-bounds the
max-over-processes definition; the atomic upper bound holds per process, so
the averaged estimate is comparable against it on both sides.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, isfinite, isqrt, sqrt
from typing import Callable, Iterator, Mapping

from .engine import (
    DEFAULT_BUDGET,
    AdversaryPolicy,
    AlgorithmSpec,
    Binding,
    EngineError,
    MarkState,
    PerProcessCoins,
    RunRecord,
    RunView,
    plan_policy,
    rotation,
    run,
)
from .histories import BASE, RSP
from .objects import counter_spec, llsc_strong_counter, writefirst_strong_counter

COUNTER_KINDS = ("atomic", "llsc", "writefirst")


def counter_key(i: int) -> str:
    return f"F{i}"


def counter_count(n: int) -> int:
    """sqrt(n), the number of counters n processes balance over.

    ValueError unless n is a positive square.
    """
    if n < 1 or isqrt(n) ** 2 != n:
        raise ValueError(f"process count must be a positive square, got {n}")
    return isqrt(n)


def loadbalance_algorithm(n: int, counters: str = "atomic") -> AlgorithmSpec:
    """The balancing algorithm over sqrt(n) strong counters.

    ``counters`` picks the counter flavour: "atomic" (a plain sequential
    spec), "llsc" (lock-free, LL is the first shared access of every
    operation) or "writefirst" (announces into a shared pool before the
    LL/SC loop, so the first shared access is a write).
    """
    m = counter_count(n)
    if counters not in COUNTER_KINDS:
        raise ValueError(f"unknown counter kind {counters!r}")

    def make_binding(i: int) -> Binding:
        key = counter_key(i)
        if counters == "atomic":
            return Binding(key, spec=counter_spec(0))
        if counters == "llsc":
            return Binding(key, impl=llsc_strong_counter())
        return Binding(key, impl=writefirst_strong_counter(n))

    def program(p: int):
        i = yield ("flip",)
        x = yield ("invoke", counter_key(i), "fetch_inc", ())
        yield ("invoke", counter_key(i), "fetch_dec", ())
        return x

    return AlgorithmSpec(
        processes=tuple(range(n)),
        bindings=tuple(make_binding(i) for i in range(m)),
        make_program=lambda p: program(p),
        omega=tuple(range(m)),
    )


# ---------------------------------------------------------------------------
# Reading runs back
# ---------------------------------------------------------------------------


def _shared_owners(objects) -> dict[int, int | None]:
    """Owner counter index of every non-coin object, None when unowned.

    A shared access is a base-level response on one of these objects.
    """
    owners = {}
    for oid, info in objects.items():
        if not info.is_coin:
            key = info.label("owner") or info.label("key")
            owners[oid] = None if key is None else int(key[1:])
    return owners


def fai_return(rec: RunRecord, q: int) -> int | None:
    """Return value of q's fetch&inc, or None if it never completed."""
    for s in rec.history.steps:
        if s.process == q and s.op == "fetch_inc" and s.kind == RSP:
            return s.payload
    return None


@dataclass(frozen=True)
class ApReport:
    """What the two-phase adversary saw, reconstructed from the history.

    ``bound`` is the helper bound's pair (the target's fetch&inc return,
    |P|), or None when the bound does not apply to the run.
    """

    i_star: int
    counter_of: Mapping[int, int]
    config_index: int
    case: int
    writers: frozenset
    accesses_at_config: Mapping[int, int]
    bound: tuple[int, int] | None

    @property
    def stalled_group(self) -> frozenset:
        return frozenset(
            q for q, i in self.counter_of.items() if i == self.i_star
        )


_REGISTER_OPS = frozenset({"read", "write", "ll", "sc"})


def ap_run_report(rec: RunRecord, p: int) -> ApReport:
    """Reconstruct configuration C of a run scheduled by the two-phase
    adversary: the earliest point where every process on the target's
    counter has taken its first shared step and everyone else is done.

    One scan of the history collects each process's shared accesses
    (by step index), its counter, the end of its fetch&dec and its first
    fetch&inc return, the counters that get a fetch&dec invocation, and
    whether some owned base step is not a register operation.  Marks
    are read up to C, and continued over the rest of the run only while
    the helper bound (see ``assert_ap_invariants``) can still apply:
    every owned base step is a register operation (the sees relation
    tracks information flow through registers only), nobody invokes
    fetch&dec on the target's counter, and the target's fetch&inc
    completed.
    """
    steps = rec.history.steps
    owners = _shared_owners(rec.history.objects)
    counter_of: dict[int, int] = {}
    first_op: dict[int, str] = {}
    accesses: dict[int, list[int]] = {}
    dec_done: dict[int, int] = {}
    fai: dict[int, int] = {}
    dec_counters: set = set()
    registers_only = True
    for k, s in enumerate(steps):
        q, op = s.process, s.op
        if s.level == BASE and op not in _REGISTER_OPS and s.obj in owners:
            registers_only = False
        if s.kind != RSP:
            if op == "fetch_dec":
                dec_counters.add(owners.get(s.obj))
            continue
        if s.level == BASE and s.obj in owners:
            at = accesses.get(q)
            if at is not None:
                at.append(k)
            else:
                idx = owners[s.obj]
                if idx is None:
                    raise EngineError(f"shared access on unowned object {s.obj}")
                accesses[q] = [k]
                counter_of[q] = idx
                first_op[q] = op
        if op == "fetch_dec":
            dec_done.setdefault(q, k)
        elif op == "fetch_inc":
            fai.setdefault(q, s.payload)
    if p not in counter_of:
        raise EngineError(f"target process {p} never accessed shared memory")
    i_star = counter_of[p]
    group = {q for q, i in counter_of.items() if i == i_star}
    outside = [q for q in rec.history.processes if counter_of.get(q) != i_star]
    if any(q not in dec_done for q in outside):
        raise EngineError("phase 1 never completed")
    config_index = max(
        [accesses[q][0] for q in group] + [dec_done[q] for q in outside]
    )
    at_c = MarkState().after(steps[: config_index + 1])
    bound = None
    if registers_only and i_star not in dec_counters and p in fai:
        finishers = {q for q in group if q in fai and q != p}
        sees = at_c.after(steps[config_index + 1 :]).sees
        if not any(q in finishers and x not in finishers for (q, x) in sees):
            bound = (fai[p], len(finishers))
    return ApReport(
        i_star=i_star,
        counter_of=counter_of,
        config_index=config_index,
        case=1 if p in dict(at_c.marks).values() else 2,
        writers=frozenset(q for q in group if first_op[q] == "write"),
        accesses_at_config={
            q: bisect_right(accesses[q], config_index) for q in group
        },
        bound=bound,
    )


def assert_ap_invariants(rec: RunRecord, p: int) -> ApReport:
    """Certify the two-phase adversary's guarantees on one run.

    Checks the phase-1 postcondition (at configuration C every process in
    the target's counter group has made exactly one shared access and
    everyone else has finished), the contention cap |group| + 1, the
    case-1 sanity condition that a visible target was a writer, and the
    helper bound: whenever every process of a set P other than the target
    completes its fetch&inc on the target's counter, nobody ever invokes
    fetch&dec there, and no member of P sees a process outside P, then
    the target's fetch&inc must return at least |P|.
    """
    report = ap_run_report(rec, p)
    group = report.stalled_group
    for q in group:
        if report.accesses_at_config[q] != 1:
            raise EngineError(
                f"process {q} made {report.accesses_at_config[q]} shared "
                "accesses before configuration C"
            )
    if rec.max_point_contention > len(group) + 1:
        raise EngineError(
            f"contention {rec.max_point_contention} exceeds {len(group) + 1}"
        )
    if report.case == 1 and p not in report.writers:
        raise EngineError("target visible at C but its first access was no write")
    if report.bound is not None and report.bound[0] < report.bound[1]:
        got, size = report.bound
        raise EngineError(f"certified run returned {got} < |P| = {size}")
    return report


# ---------------------------------------------------------------------------
# The two-phase adversary
# ---------------------------------------------------------------------------


def adversary_ap(p: int, n: int) -> AdversaryPolicy:
    """Weak adversary targeting process p in the n-process algorithm.

    Phase 1: p runs to its first shared access (revealing its counter
    i*), then each other process in ID order runs to its first shared
    access and either continues solo to completion (different counter) or
    stalls (same counter).  Phase 2 branches on whether p is visible at
    the resulting configuration: if so, the first-step writers of the
    group round-robin to the end of their fetch&inc calls; if not, the
    group minus everyone who saw p round-robins to the end of fetch&inc,
    and finally p itself finishes its fetch&inc.  Nobody the adversary
    stops ever starts a fetch&dec.
    """
    if not 0 <= p < n:
        raise ValueError(f"target process {p} out of range for n={n}")
    others = tuple(q for q in range(n) if q != p)

    def two_phase(view: RunView) -> Iterator[int]:
        # The registry is complete once the run is built.
        owners = _shared_owners(view.objects)
        first: dict[int, tuple[int, str]] = {}
        fai_done: set[int] = set()

        def ingest(seen: int) -> int:
            """Read the steps from index ``seen`` on; return the new end."""
            steps = view.steps
            for s in steps[seen:]:
                if s.kind != RSP:
                    continue
                if s.op == "fetch_inc":
                    fai_done.add(s.process)
                if s.level == BASE and s.process not in first:
                    idx = owners.get(s.obj)
                    if idx is not None:
                        first[s.process] = (idx, s.op)
            return len(steps)

        seen = 0
        while p not in first:
            yield p
            seen = ingest(seen)
        i_star = first[p][0]
        for q in others:
            while q not in first or (first[q][0] != i_star and not view.finished(q)):
                yield q
                seen = ingest(seen)
        # Configuration C: phase 2 reads marks and sees once.
        group = [q for q in range(n) if q in first and first[q][0] == i_star]
        state = MarkState().after(view.steps)
        visible = p in dict(state.marks).values()
        if visible:
            rr = sorted(q for q in group if first[q][1] == "write")
        else:
            saw_p = {q for (q, x) in state.sees if x == p}
            rr = sorted(set(group) - saw_p - {p})
        while any(q not in fai_done for q in rr):
            for q in rr:
                if q not in fai_done:
                    yield q
                    seen = ingest(seen)
        while not visible and p not in fai_done:
            yield p
            seen = ingest(seen)

    return plan_policy("weak", two_phase, f"A_p[{p}]")


# ---------------------------------------------------------------------------
# Scripted weak schedules
# ---------------------------------------------------------------------------


def round_robin_policy(n: int) -> AdversaryPolicy:
    """Everyone takes turns in ID order until all are done."""
    ring = tuple(range(n))
    return plan_policy("weak", lambda view: rotation(view, ring), "round-robin")


def stagger_policy(n: int, batch: int) -> AdversaryPolicy:
    """Round-robin within ID-ordered batches of the given size; a batch
    must finish before the next one starts, capping contention at the
    batch size."""
    if batch < 1:
        raise ValueError("batch size must be positive")

    def stagger(view: RunView) -> Iterator[int]:
        turn = itertools.count(1)
        for start in range(0, n, batch):
            members = range(start, min(start + batch, n))
            while alive := [q for q in members if not view.finished(q)]:
                yield alive[next(turn) % len(alive)]

    return plan_policy("weak", stagger, f"stagger[{batch}]")


def scripted_weak_families(n: int, k_max: int) -> dict[str, Callable[[int], AdversaryPolicy]]:
    """Three fixed weak schedules, packaged as (target-independent)
    per-process families for the estimator."""
    return {
        "round-robin": lambda p: round_robin_policy(n),
        # A batch of one runs the processes one after the other.
        "solo-sequential": lambda p: stagger_policy(n, 1),
        "stagger": lambda p: stagger_policy(n, k_max),
    }


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiEstimate:
    mean: float
    variance: float
    ci95: float
    trials: int
    flags: tuple[str, ...]
    histogram: tuple[tuple[int, int], ...]


def estimate_phi(
    alg: AlgorithmSpec,
    adv_family: Callable[[int], AdversaryPolicy],
    k_max: int,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> PhiEstimate:
    """Monte Carlo estimate of the expected balanced-load score.

    Per trial: draw one coin per process and a target process uniformly
    (seeded; trial streams are independent), run under the family's
    policy for that target, and score the target's fetch&inc return, or
    0 when contention exceeded k_max or the call never finished.  Runs
    under the two-phase adversary are additionally certified against its
    structural invariants, unless the run exhausted its budget (the
    estimate is then flagged and the truncated run proves nothing).
    Deterministic given (alg, family, seed).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = len(alg.processes)
    m = len(alg.omega)
    xs: list[int] = []
    flags: set[str] = set()
    hist: dict[int, int] = {}
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        coins = PerProcessCoins(
            {q: (rng.randrange(m),) for q in alg.processes}
        )
        target = rng.randrange(n)
        adv = adv_family(target)
        rec = run(alg, adv, coins, budget=budget)
        cont = rec.max_point_contention
        hist[cont] = hist.get(cont, 0) + 1
        x = fai_return(rec, target)
        if "budget-exhausted" in rec.flags:
            flags.add("budget-exhausted")
            x = 0
        elif x is None:
            flags.add("fai-incomplete")
            x = 0
        elif cont > k_max:
            x = 0
        if adv.name.startswith("A_p") and "budget-exhausted" not in rec.flags:
            assert_ap_invariants(rec, target)
        xs.append(x)
    mean = sum(xs) / trials
    var = (
        sum((x - mean) ** 2 for x in xs) / (trials - 1) if trials > 1 else 0.0
    )
    return PhiEstimate(
        mean=mean,
        variance=var,
        ci95=1.96 * sqrt(var / trials),
        trials=trials,
        flags=tuple(sorted(flags)),
        histogram=tuple(sorted(hist.items())),
    )


def k_max_for(n: int, delta: float = 0.5) -> int:
    """Contention cap: smallest integer at least (1 + delta) * sqrt(n).

    ValueError unless n is a positive square and the cap is a finite
    integer of at least 1.
    """
    scale = (1 + delta) * counter_count(n)
    if not (isfinite(scale) and scale > 0):
        raise ValueError(f"(1 + delta) * sqrt(n) must be finite and positive, got {scale}")
    return ceil(scale)

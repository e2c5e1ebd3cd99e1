"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload is built from a loaded module namespace (see
``load_stronglin``) and a seed; building it is the set-up the harness
times.  ``run_pass(j, checks, clock)`` does one pass of work, numbered
``j``, times each unit of it under a stage name with ``clock.unit`` (see
clock.py) and records every output check in ``checks``.  A pass is
deterministic in (seed, j).  All calls go through module attributes
(``m.loadbalance.estimate_phi``, never a copied name) so the traced pass
sees them.

Why these three (see README.md for the full map):

* ``mc-sweep`` puts all the work in the engine's per-grant path and the
  two-phase adversary and certifier; search and checkers do nothing.
* ``exact-games`` puts it in exhaustive search over 2 or 3 processes, so
  engine changes that scale with n should leave it unchanged.
* ``tree-check`` puts it in the checkers and the history codecs; the
  engine only builds inputs during set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import traceback
from fractions import Fraction
from math import isqrt, sqrt
from pathlib import Path
from statistics import median
from types import SimpleNamespace

MODULES = (
    "histories",
    "engine",
    "objects",
    "search",
    "checkers",
    "loadbalance",
    "experiments",
    "cli",
)


def load_stronglin(src: Path) -> SimpleNamespace:
    """Import every stronglin module afresh from ``src``.

    Earlier imports are dropped first, so calling this again times a
    cold import of the package (the interpreter and third-party modules
    stay loaded).
    """
    for name in [k for k in sys.modules if k == "stronglin" or k.startswith("stronglin.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"stronglin.{name}") for name in MODULES}
    origin = Path(mods["engine"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"stronglin was imported from {origin}, not from {src}")
    return SimpleNamespace(all=tuple(mods.values()), **mods)


class Checks:
    """Counts checked outputs; a failed or crashing check is logged, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"check crashed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# mc-sweep
# ---------------------------------------------------------------------------

KINDS = ("atomic", "llsc", "writefirst")

# (n, trials per counter kind per pass).  Trials fall with n so that each
# n takes a similar share of a pass (about a second each on a 2-core
# x86-64 box with Python 3.11).
SWEEP = ((64, 36), (256, 7), (1024, 1))

# sha256 prefix of the nine estimates of pass 0 under seed 0 at SWEEP.
SWEEP_DIGEST = "f5e503f5325d3f54"


def estimates_digest(rows) -> str:
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class McSweep:
    """``estimate_phi`` under the two-phase adversary at several n.

    Pass ``j`` draws its trials from estimator seed ``seed * 1000 + j``,
    so no two passes repeat an input.  Every estimate must carry no flag;
    over the whole run the pooled estimate of each (n, kind) must keep the
    paper's verdict: atomic counters at most the bound (k_max - 1)/sqrt(n)
    plus three half-widths, ll/sc and write-first counters above it by
    more than one half-width.
    """

    name = "mc-sweep"

    def __init__(self, m, seed: int, sweep=SWEEP) -> None:
        self.m = m
        self.seed = seed
        self.sweep = tuple(sweep)
        lb = m.loadbalance
        self.algs = {
            (n, kind): (lb.loadbalance_algorithm(n, kind), lb.k_max_for(n))
            for n, _trials in self.sweep
            for kind in KINDS
        }
        # (trials, mean, sum of squared deviations) per (n, kind)
        self.pooled = {key: (0, 0.0, 0.0) for key in self.algs}

    def run_pass(self, j: int, checks: Checks, clock) -> None:
        lb = self.m.loadbalance
        seed = self.seed * 1000 + j
        rows = []
        for n, trials in self.sweep:
            done = []
            with clock.unit(f"n{n}"):
                for kind in KINDS:
                    alg, k_max = self.algs[(n, kind)]
                    try:
                        done.append((kind, lb.estimate_phi(
                            alg, lambda p: lb.adversary_ap(p, n), k_max, trials, seed
                        )))
                    except Exception:
                        checks.crashed(f"estimate n={n} {kind} seed={seed}")
            for kind, est in done:
                checks.expect(not est.flags, f"n={n} {kind} seed={seed} flags {est.flags}")
                self._pool((n, kind), est)
                rows.append([n, kind, est.mean, est.variance, est.histogram])
        if (self.seed, j, self.sweep) == (0, 0, SWEEP):
            got = estimates_digest(rows)
            checks.expect(got == SWEEP_DIGEST, f"seed-0 digest {got} != {SWEEP_DIGEST}")

    def _pool(self, key, est) -> None:
        n0, mean0, ss0 = self.pooled[key]
        n1, mean1, ss1 = est.trials, est.mean, est.variance * (est.trials - 1)
        total = n0 + n1
        delta = mean1 - mean0
        self.pooled[key] = (
            total,
            mean0 + delta * n1 / total,
            ss0 + ss1 + delta * delta * n0 * n1 / total,
        )

    def finish(self, checks: Checks) -> None:
        for (n, kind), (trials, mean, ss) in sorted(self.pooled.items()):
            if trials == 0:
                continue
            var = ss / (trials - 1) if trials > 1 else 0.0
            ci95 = 1.96 * sqrt(var / trials)
            bound = (self.algs[(n, kind)][1] - 1) / isqrt(n)
            if kind == "atomic":
                ok = mean <= bound + 3 * ci95
            else:
                ok = mean - ci95 > bound
            checks.expect(
                ok, f"verdict n={n} {kind}: mean {mean} ci95 {ci95} bound {bound}"
            )

    def stage_metrics(self, stages: list[dict[str, float]]) -> dict[str, float]:
        return {
            f"ms_per_trial.n{n}": median(
                [1000 * s[f"n{n}"] / (trials * len(KINDS)) for s in stages]
            )
            for n, trials in self.sweep
        }


# ---------------------------------------------------------------------------
# exact-games
# ---------------------------------------------------------------------------

REPORTS = ("snapshot", "srsw-register", "mrsw-register", "hw-queue", "strong-lin-suite")
SRSW_CLASSES = ("weak", "strong")


class ExactGames:
    """Named experiment reports plus the srsw-register implemented game.

    Exhaustive, so the seed is unused.  Every report row must carry the
    value in ``experiments.EXPECTED`` and verdict ``ok``; the implemented
    srsw-register game must be worth exactly 1/2 to the best adversary of
    each class.
    """

    name = "exact-games"

    def __init__(self, m, seed: int, reports=REPORTS, srsw_classes=SRSW_CLASSES) -> None:
        self.m = m
        self.configs = [m.experiments.ExperimentConfig(name=r) for r in reports]
        self.srsw = m.experiments.srsw_register_example()
        self.srsw_classes = tuple(srsw_classes)

    def run_pass(self, j: int, checks: Checks, clock) -> None:
        ex, search = self.m.experiments, self.m.search
        reports = []
        with clock.unit("reports"):
            for cfg in self.configs:
                try:
                    reports.append(ex.run_named_experiment(cfg))
                except Exception:
                    checks.crashed(f"experiment {cfg.name}")
        for report in reports:
            for row in report.rows:
                want = ex.EXPECTED[(row.experiment, row.variant, row.metric)][0]
                checks.expect(
                    row.value == want and row.verdict == "ok",
                    f"{row.experiment}/{row.variant}/{row.metric}: "
                    f"{row.value} ({row.verdict}), expected {want}",
                )
        g = self.srsw
        for klass in self.srsw_classes:
            with clock.unit(f"srsw-implemented-{klass}"):
                try:
                    value = search.optimal_expectation(
                        g.implemented, g.omega, g.payoff, klass=klass
                    )
                except Exception:
                    checks.crashed(f"srsw implemented game ({klass})")
                    continue
            checks.expect(
                value == Fraction(1, 2), f"srsw implemented {klass}: {value} != 1/2"
            )

    def finish(self, checks: Checks) -> None:
        pass

    def stage_metrics(self, stages: list[dict[str, float]]) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# tree-check
# ---------------------------------------------------------------------------


def counter_tree(m, flips: int, clients: int):
    """History tree of real runs over one ll/sc counter.

    Client 0 flips ``flips`` times and increments or decrements on each
    outcome; the other clients increment twice.  A round-robin
    strong schedule keeps the operations overlapping, and one run per
    coin vector gives 2**flips leaves.  A witness exists: the ll/sc
    counter is strongly linearizable.
    """
    eng = m.engine

    def make_program(pid):
        def flipper():
            for _ in range(flips):
                c = yield ("flip",)
                yield ("invoke", "C", "fetch_inc" if c else "fetch_dec", ())
            return None

        def bumper():
            for _ in range(2):
                yield ("invoke", "C", "fetch_inc", ())
            return None

        return flipper() if pid == 0 else bumper()

    procs = tuple(range(clients))
    alg = eng.AlgorithmSpec(
        procs, (eng.Binding("C", impl=m.objects.llsc_strong_counter()),), make_program, (0, 1)
    )
    policy = m.experiments.alternating_policy(procs)
    runs = {}
    for bits in range(2**flips):
        coins = tuple((bits >> k) & 1 for k in range(flips))
        rec = eng.run(alg, policy, eng.VectorCoins(coins))
        runs[coins] = m.histories.interpret(rec.history)
    return m.checkers.HistoryTree.from_runs(runs, omega=(0, 1))


def dequeue_tree(m, enqueues: int):
    """``hw_atomic_dequeue_tree`` with ``enqueues`` concurrent enqueues.

    Processes 1..k enqueue 1..k, all overlapping and all complete, then
    process 0 flips: one branch dequeues 1, the other dequeues 2 then 1.
    No witness exists, and the checker only learns that after trying
    every order of the enqueues.
    """
    h = m.histories

    def inv(p, o, op, args=()):
        return h.Step(h.INV, p, o, op, args, h.BASE)

    def rsp(p, o, op, ret=None):
        return h.Step(h.RSP, p, o, op, ret, h.BASE)

    objs = {
        0: h.ObjectInfo("queue", h.BASE, (("key", "Q"),)),
        1: h.ObjectInfo("coin", h.BASE, (("process", 0),)),
    }
    ks = range(1, enqueues + 1)
    common = (
        tuple(inv(i, 0, "enqueue", (i,)) for i in ks)
        + tuple(rsp(i, 0, "enqueue") for i in ks)
        + (inv(0, 1, "flip"),)
    )

    def drain(values):
        return sum(((inv(0, 0, "dequeue"), rsp(0, 0, "dequeue", v)) for v in values), ())

    procs = tuple(range(enqueues + 1))
    runs = {
        (0,): h.History(common + (rsp(0, 1, "flip", 0),) + drain([1]), procs, objs),
        (1,): h.History(common + (rsp(0, 1, "flip", 1),) + drain([2, 1]), procs, objs),
    }
    return m.checkers.HistoryTree.from_runs(runs, omega=(0, 1))


# (n, histories) for the codec round trips.
CODEC = ((16, 4), (64, 4))


class TreeCheck:
    """Witness search, refutation search and codec round trips.

    The witness tree (ll/sc counter runs) must yield a witness with zero
    ``witness_violations`` that ``normalize_witness`` accepts; the
    dequeue tree must yield None.  Each ll/sc load-balance history, run
    round-robin on coins drawn from the seed, must survive
    ``to_jsonl``/``from_jsonl`` unchanged, and the ``linearize_one``
    image of its interpretation must pass ``validate_sequential``.
    """

    name = "tree-check"

    def __init__(self, m, seed: int, flips: int = 8, clients: int = 6,
                 enqueues: int = 4, codec=CODEC) -> None:
        self.m = m
        ck, lb, eng = m.checkers, m.loadbalance, m.engine
        self.witness_tree = counter_tree(m, flips, clients)
        self.witness_specs = ck.default_specs(
            self.witness_tree.objects, self.witness_tree.processes
        )
        self.refute_tree = dequeue_tree(m, enqueues)
        self.refute_specs = ck.default_specs(
            self.refute_tree.objects, self.refute_tree.processes
        )
        self.histories = []
        for n, count in codec:
            alg = lb.loadbalance_algorithm(n, "llsc")
            for i in range(count):
                rng = random.Random(f"{seed}:{n}:{i}")
                coins = eng.PerProcessCoins(
                    {q: (rng.randrange(len(alg.omega)),) for q in alg.processes}
                )
                rec = eng.run(alg, lb.round_robin_policy(n), coins)
                h = rec.history
                self.histories.append((h, ck.default_specs(h.objects, h.processes)))

    def run_pass(self, j: int, checks: Checks, clock) -> None:
        ck, hs = self.m.checkers, self.m.histories
        tree, specs = self.witness_tree, self.witness_specs
        with clock.unit("witness"):
            try:
                witness = ck.check_strong_lin(tree, specs)
                bad = ["no witness"] if witness is None else ck.witness_violations(tree, witness, specs)
                checks.expect(not bad, f"witness tree: {bad[:1]}")
                if witness is not None:
                    normal = ck.normalize_witness(tree, witness, specs)
                    checks.expect(len(normal) == len(tree), "normalized witness misses nodes")
            except Exception:
                checks.crashed("witness tree")

        with clock.unit("refute"):
            try:
                found = ck.check_strong_lin(self.refute_tree, self.refute_specs)
                checks.expect(found is None, "refutation tree got a witness")
            except Exception:
                checks.crashed("refutation tree")

        with clock.unit("check_lin"):
            for h, specs in self.histories:
                try:
                    back = hs.from_jsonl(hs.to_jsonl(h))
                    checks.expect(back == h, f"codec round trip changed a {len(h)}-step history")
                    image = ck.linearize_one(hs.interpret(back), specs)
                    checks.expect(
                        image is not None and hs.validate_sequential(image, specs),
                        f"linearize_one image of a {len(h)}-step history is not valid",
                    )
                except Exception:
                    checks.crashed(f"codec/linearize on a {len(h)}-step history")

    def finish(self, checks: Checks) -> None:
        pass

    def stage_metrics(self, stages: list[dict[str, float]]) -> dict[str, float]:
        return {
            "witness_tree_s": median([s["witness"] for s in stages]),
            "refute_tree_s": median([s["refute"] for s in stages]),
            "check_lin_s": median([s["check_lin"] for s in stages]),
        }


WORKLOADS = {w.name: w for w in (McSweep, ExactGames, TreeCheck)}

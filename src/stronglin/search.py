"""Exhaustive games over adversary decision trees at desk scale.

The optimal-value search treats scheduling as a game: the adversary
picks the next grant, coin flips are uniform chance moves, and the
value of a finished run is a caller-supplied rational payoff.  Because
decisions may depend on everything scheduled and flipped so far (and on
nothing more), the searched space is exactly the strong adversaries;
with weak-style flip bundling it is exactly the weak ones.

The existence search walks the same tree but asks for one decision tree
whose every completed branch satisfies a predicate, for example "the
interpreted history equals this target image".

Both searches go depth first, and a node holds a live ``Simulation`` at
its own state: the grants and coins on the path to it.  A node's
children are taken in pid order.  The last live process's child keeps
the parent's simulation and is granted in place; every other child is
a fork, replayed from the root with ``replay_grants`` from the parent's
grants and coins, so each fork is taken before the parent is mutated.
A grant that flips past the path's coins raises ``NeedCoinError`` after
the engine has logged the grant, which leaves that simulation unusable:
it is dropped, and each coin outcome is replayed from the root.

``node_cap`` counts game nodes: the root, one per grant decision
(whether or not the grant needs a coin) and one per coin outcome.
Inputs are tiny by design and guarded by it and by ``grant_cap``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Mapping

from .engine import AlgorithmSpec, EngineError, NeedCoinError, Simulation, VectorCoins
from .histories import Step


def replay_grants(alg: AlgorithmSpec, grants: tuple, coins: tuple, klass: str):
    """Replay a grant list against a coin prefix.

    Returns ("need_coin", steps_before_failed_grant) when a grant tries
    to flip past the end of the prefix, else ("ok", simulation).
    """
    sim = Simulation(alg, VectorCoins(coins), klass=klass)
    for pid in grants:
        before = len(sim.steps)
        try:
            sim.grant(pid)
        except NeedCoinError:
            return ("need_coin", tuple(sim.steps[:before]))
    return ("ok", sim)


class _Walk:
    """Node count, caps and the one fork/handoff rule of both searches."""

    def __init__(self, alg: AlgorithmSpec, omega: tuple, klass: str, what: str, node_cap: int):
        self.alg, self.omega, self.klass = alg, omega, klass
        self.what, self.node_cap = what, node_cap
        self.nodes = self.forks = self.deepest = 0

    def _visit(self, depth: int) -> None:
        self.nodes += 1
        self.deepest = max(self.deepest, depth)
        if self.nodes > self.node_cap:
            raise EngineError(
                f"{self.what} search exceeded {self.node_cap} nodes "
                f"({self.forks} forks, deepest run {self.deepest} grants)"
            )

    def _fork(self, grants: tuple, coins: tuple) -> Simulation:
        # A grant flips at most once, so a replay to a visited node, or to
        # one coin past it, never runs out of coins.
        self.forks += 1
        return replay_grants(self.alg, grants, coins, self.klass)[1]

    def root(self) -> Simulation:
        self._visit(0)
        return replay_grants(self.alg, (), (), self.klass)[1]

    def children(self, sim: Simulation):
        """Yield the children of the node ``sim`` holds, in pid order:
        ("ok", child) or ("need_coin", steps_before_failed_grant, nodes),
        where ``nodes`` lazily yields one node per outcome in omega."""
        live = sim.live_pids()
        for i, q in enumerate(live):
            grants, coins = tuple(sim.grants), sim.coins.vector
            self._visit(len(grants) + 1)
            child = sim if i == len(live) - 1 else self._fork(grants, coins)
            before = len(child.steps)
            try:
                child.grant(q)
            except NeedCoinError:
                steps = tuple(child.steps[:before])
                yield ("need_coin", steps, self._flips(grants + (q,), coins))
            else:
                yield ("ok", child)

    def _flips(self, grants: tuple, coins: tuple):
        for w in self.omega:
            self._visit(len(grants))
            yield self._fork(grants, coins + (w,))


def optimal_expectation(
    alg: AlgorithmSpec,
    omega: tuple,
    payoff: Callable,
    klass: str = "strong",
    maximize: bool = False,
    node_cap: int = 2_000_000,
    grant_cap: int = 200,
) -> Fraction:
    """Exact min/max expected payoff over all adversaries of the class.

    Runs must complete every process (programs here are finite); the
    payoff is averaged uniformly over omega at every flip.
    """
    walk = _Walk(alg, omega, klass, "optimal", node_cap)

    def value(sim: Simulation) -> Fraction:
        if sim.all_finished():
            return Fraction(payoff(sim.record()))
        if len(sim.grants) >= grant_cap:
            raise EngineError(
                f"optimal search exceeded {grant_cap} grants per run "
                f"(processes {list(sim.live_pids())} still live)"
            )
        best = None
        for res in walk.children(sim):
            if res[0] == "need_coin":
                v = Fraction(sum(value(s) for s in res[2]), len(omega))
            else:
                v = value(res[1])
            if best is None or (v > best if maximize else v < best):
                best = v
        return best

    return value(walk.root())


def exists_adversary(
    alg: AlgorithmSpec,
    omega: tuple,
    leaf_ok: Callable[[Any, tuple], bool],
    prefix_ok: Callable[[tuple[Step, ...], tuple], bool] | None = None,
    klass: str = "strong",
    node_cap: int = 2_000_000,
    grant_cap: int = 200,
) -> Mapping[tuple, tuple] | None:
    """Search for one adversary decision tree whose branches all satisfy
    leaf_ok(record, coin_vector).

    Returns a map from consumed coin vector to the grant sequence of
    that branch (branches share their pre-flip grant prefixes by
    construction), or None.  ``prefix_ok(steps, coins)`` prunes partial
    runs; it must be monotone (False stays False under extension).
    """
    walk = _Walk(alg, omega, klass, "existence", node_cap)

    def search(sim: Simulation):
        coins = sim.coins.vector
        if prefix_ok is not None and not prefix_ok(tuple(sim.steps), coins):
            return None
        if sim.all_finished():
            return {coins: tuple(sim.grants)} if leaf_ok(sim.record(), coins) else None
        if len(sim.grants) >= grant_cap:
            return None
        for res in walk.children(sim):
            # A need-coin child's steps and coins are this node's, which
            # prefix_ok has already accepted.
            sub = search(res[1]) if res[0] == "ok" else every_flip(res[2])
            if sub is not None:
                return sub
        return None

    def every_flip(nodes) -> dict | None:
        branches: dict = {}
        for sim in nodes:
            sub = search(sim)
            if sub is None:
                return None
            branches.update(sub)
        return branches

    return search(walk.root())

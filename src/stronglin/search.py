"""Exhaustive games over adversary decision trees at desk scale.

The optimal-value search treats scheduling as a game: the adversary
picks the next grant, coin flips are uniform chance moves, and the
value of a finished run is a caller-supplied rational payoff.  Because
decisions may depend on everything scheduled and flipped so far (and on
nothing more), the searched space is exactly the strong adversaries;
with weak-style flip bundling it is exactly the weak ones.

The existence search walks the same tree but asks for one decision tree
whose every completed branch satisfies a predicate, for example "the
interpreted history equals this target image".  Nodes are replayed from
scratch; inputs are tiny by design and guarded.
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
    nodes = 0

    def value(grants: tuple, coins: tuple) -> Fraction:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise EngineError(f"optimal search exceeded {node_cap} nodes")
        res = replay_grants(alg, grants, coins, klass)
        if res[0] == "need_coin":
            total = sum(value(grants, coins + (w,)) for w in omega)
            return Fraction(total, len(omega))
        sim = res[1]
        if sim.all_finished():
            return Fraction(payoff(sim.record()))
        if len(grants) >= grant_cap:
            raise EngineError(f"optimal search exceeded {grant_cap} grants per run")
        best = None
        for q in sim.live_pids():
            v = value(grants + (q,), coins)
            if best is None or (v > best if maximize else v < best):
                best = v
        return best

    return value((), ())


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
    nodes = 0

    def search(grants: tuple, coins: tuple):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise EngineError(f"existence search exceeded {node_cap} nodes")
        res = replay_grants(alg, grants, coins, klass)
        if res[0] == "need_coin":
            if prefix_ok is not None and not prefix_ok(res[1], coins):
                return None
            branches: dict = {}
            for w in omega:
                sub = search(grants, coins + (w,))
                if sub is None:
                    return None
                branches.update(sub)
            return branches
        sim = res[1]
        if prefix_ok is not None and not prefix_ok(tuple(sim.steps), coins):
            return None
        if sim.all_finished():
            return {coins: grants} if leaf_ok(sim.record(), coins) else None
        if len(grants) >= grant_cap:
            return None
        for q in sim.live_pids():
            sub = search(grants + (q,), coins)
            if sub is not None:
                return sub
        return None

    return search((), ())


"""Exhaustive games over adversary decision trees at desk scale.

The optimal-value search treats scheduling as a game: the adversary
picks the next grant, coin flips are uniform chance moves, and the
value of a finished run is a caller-supplied rational payoff of the
run's returns.  Because decisions may depend on everything scheduled
and flipped so far (and on nothing more), the searched space is exactly
the strong adversaries; with weak-style flip bundling it is exactly the
weak ones.  No search covers the oblivious class yet: both raise
ValueError for it.

The existence search walks the same tree but asks for one decision tree
whose every completed branch satisfies a predicate, for example "the
interpreted history equals this target image".

Both searches go depth first, and a node holds a live ``Simulation`` at
its own state: the grants and coins on the path to it.  A node's
children are taken in pid order, one per live process, and each child
is the list of equally likely successors that one grant of that process
leads to: one, or one per outcome in omega when
``Simulation.flips_next`` says the grant starts with a flip.  The
node's last successor keeps the node's simulation and is granted in
place, its coin vector first extended by the outcome when the grant
flips; every other successor is a fork, replayed from the root with
``replay_grants`` from the path's grants and coins, so each fork is
taken before the node is mutated.  A grant flips at most once, so no
fork runs out of coins.

The optimal-value search solves each game state once.  A per-call
transposition table maps ``_state_key`` (each process's base-level
responses in order, flip outcomes included, then the base-object states
in registry order) to the value below it.  Programs and method bodies
are deterministic in the responses they receive.  The one state a body
keeps across calls, the writer's sequence number in
``vitanyi_awerbuch_mrsw``, is fixed by the writer's own responses.  So
the responses fix every process's local state and its own steps; with
the base states they fix every sub-game, and the payoff, which sees only
the returns, fixes the value.

Successors are looked up before they are built.  A successor's state is
its parent's with one process's responses extended and at most one base
state changed, so it is derived from the parent's live simulation
without granting: a strong-class flip appends its outcome, and a
method's next base step or an atomic invocation is one pure
``SeqSpec.transition`` (``Simulation.next_response``), whose tuple is
exactly what the grant then commits.  A successor
whose derived state is solved is answered from the table and never
built, in place or by a fork.  Two grants cannot be derived, because
only running the process's generators tells what they respond: a weak
flip, which also runs the next invocation, and an invocation of an
implemented object, whose body names its first base operation only once
started.  Those are built as before, and their state is read off the
steps their grant made.  The existence search keeps no table: its
predicate may score the cross-process order of the interpreted
responses, which the key does not fix.

``node_cap`` counts game nodes: the root, one per grant decision
(whether or not the grant flips) and one per coin outcome; a node whose
state is in the table counts, built or not, and its subtree does not.
Inputs are tiny by design and guarded by it and by ``grant_cap``, the
longest run either search follows; both caps raise ``EngineError``.
Equal keys mean equal per-process grant counts, so a table hit never
hides a grant-cap error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Mapping

from .engine import AlgorithmSpec, EngineError, NeedCoinError, Simulation, VectorCoins
from .histories import BASE, RSP


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
    """Node count, caps and the one successor/handoff rule of both searches.

    Given a transposition table, the walk keys every successor and
    answers a solved one from the table: before building it when its
    state can be derived, else once built.  A successor is then a triple
    (simulation, state, key) whose simulation is None when the table
    holds its value.  Without a table a successor is its simulation.
    """

    def __init__(self, alg: AlgorithmSpec, omega: tuple, klass: str, what: str,
                 node_cap: int, grant_cap: int, table: dict | None = None):
        if klass == "oblivious":
            raise ValueError("the searches cover the weak and strong classes, not oblivious")
        self.alg, self.omega, self.klass = alg, omega, klass
        self.what, self.node_cap, self.grant_cap = what, node_cap, grant_cap
        self.table = table
        self.nodes = self.forks = self.skipped = self.deepest = 0

    def _visit(self, depth: int) -> None:
        self.nodes += 1
        self.deepest = max(self.deepest, depth)
        if self.nodes > self.node_cap:
            raise EngineError(
                f"{self.what} search exceeded {self.node_cap} nodes ({self.forks} "
                f"forks, {self.skipped} skipped, deepest run {self.deepest} grants)"
            )

    def root(self) -> Simulation:
        self._visit(0)
        return replay_grants(self.alg, (), (), self.klass)[1]

    def children(self, sim: Simulation, state: tuple | None = None):
        """Yield, per live pid in pid order, an iterator over the equally
        likely successors that one grant of it leads to.  ``state`` is
        ``sim``'s state when the walk keeps a table.  Raises at the grant
        cap."""
        grants, coins = tuple(sim.grants), sim.coins.vector
        if len(grants) >= self.grant_cap:
            raise EngineError(
                f"{self.what} search exceeded {self.grant_cap} grants per run "
                f"(processes {list(sim.live_pids())} still live)"
            )
        live = sim.live_pids()
        for q in live:
            yield self._successors(sim, state, grants + (q,), coins, q == live[-1])

    def _successors(self, sim: Simulation, state, grants: tuple, coins: tuple,
                    in_place: bool):
        q = grants[-1]
        self._visit(len(grants))
        flips = sim.flips_next(q)
        outcomes = self.omega if flips else (None,)
        for k, w in enumerate(outcomes, 1):
            if flips:
                self._visit(len(grants))
            child = None if state is None else _derive(sim, state, q, w)
            if child is not None:
                key = _state_key(*child)
                if key in self.table:
                    self.skipped += 1
                    yield None, child, key
                    continue
            vector = coins + (w,) if flips else coins
            before = len(sim.steps)
            if in_place and k == len(outcomes):
                sim.coins.vector = vector
                sim.grant(q)
                built = sim
            else:
                self.forks += 1
                built = replay_grants(self.alg, grants, vector, self.klass)[1]
            if state is None:
                yield built
                continue
            if child is None:
                child = _grown(state, q, built, before)
                key = _state_key(*child)
            yield (None if key in self.table else built), child, key


def _state_key(responses: tuple, base: tuple) -> tuple:
    """The table key of a game state: each process's base-level
    responses in order, flip outcomes included, then the base-object
    states in registry order.  Every key the search looks up is made
    here."""
    return responses, base


def _extend(responses: tuple, sim: Simulation, q: int, more: tuple) -> tuple:
    i = sim.alg.processes.index(q)
    return responses[:i] + (responses[i] + more,) + responses[i + 1:]


def _derive(sim: Simulation, state: tuple, q: int, outcome) -> tuple | None:
    """The state one grant of ``q`` leads to from ``sim``, read without
    granting: ``outcome`` is the coin's when the grant flips.  None when
    only the grant can tell: a weak flip also runs ``q``'s next
    invocation, and an implemented invocation's first base operation is
    known only once its body starts."""
    responses, base = state
    if sim.flips_next(q):
        if sim.klass == "weak":
            return None
        return _extend(responses, sim, q, (outcome,)), base
    nxt = sim.next_response(q)
    if nxt is None:
        return None
    oid, _op, _args, after, resp = nxt
    return _extend(responses, sim, q, (resp,)), base[:oid] + (after,) + base[oid + 1:]


def _grown(state: tuple, q: int, sim: Simulation, before: int) -> tuple:
    """The state of ``sim`` once ``q``'s grant, which made the steps from
    position ``before`` on, has moved it on from ``state``."""
    more = tuple(s.payload for s in sim.steps[before:] if s.kind == RSP and s.level == BASE)
    return _extend(state[0], sim, q, more), tuple(sim.base_state.values())


def optimal_expectation(
    alg: AlgorithmSpec,
    omega: tuple,
    payoff: Callable[[Mapping[int, Any]], Any],
    klass: str = "strong",
    maximize: bool = False,
    node_cap: int = 2_000_000,
    grant_cap: int = 200,
) -> Fraction:
    """Exact min/max expected payoff over all adversaries of the class.

    Runs must complete every process (programs here are finite);
    ``payoff`` receives a finished run's returns, process to return
    value, and is averaged uniformly over omega at every flip.  Each
    game state, keyed on each process's base-level responses plus the
    base states, is solved once (see the module docstring), which is
    sound because the payoff sees nothing of the path but those returns.
    A successor's key is derived and looked up before its simulation is
    built, and a solved one is never built; a weak flip or an invocation
    of an implemented object cannot be derived, so it is built as before
    and looked up after.
    """
    table: dict[tuple, Fraction] = {}
    walk = _Walk(alg, omega, klass, "optimal", node_cap, grant_cap, table)

    def value(sim: Simulation, state: tuple, key: tuple) -> Fraction:
        if sim.all_finished():
            best = Fraction(payoff(sim.record().returns))
        else:
            best = None
            for successors in walk.children(sim, state):
                vals = [table[k] if c is None else value(c, st, k) for c, st, k in successors]
                v = vals[0] if len(vals) == 1 else Fraction(sum(vals), len(vals))
                if best is None or (v > best if maximize else v < best):
                    best = v
        table[key] = best
        return best

    sim = walk.root()
    state = tuple(() for _ in alg.processes), tuple(sim.base_state.values())
    return value(sim, state, _state_key(*state))


def exists_adversary(
    alg: AlgorithmSpec,
    omega: tuple,
    leaf_ok: Callable[[Any, tuple], bool],
    klass: str = "strong",
    node_cap: int = 2_000_000,
    grant_cap: int = 200,
) -> Mapping[tuple, tuple] | None:
    """Search for one adversary decision tree whose branches all satisfy
    leaf_ok(record, coin_vector).

    Returns a map from consumed coin vector to the grant sequence of
    that branch (branches share their pre-flip grant prefixes by
    construction), or None.  ``engine.strategy_policy`` plays the map
    through ``engine.run``: each branch's run replays its grants.
    """
    walk = _Walk(alg, omega, klass, "existence", node_cap, grant_cap)

    def search(sim: Simulation) -> dict | None:
        coins = sim.coins.vector
        if sim.all_finished():
            return {coins: tuple(sim.grants)} if leaf_ok(sim.record(), coins) else None
        for successors in walk.children(sim):
            # A decision tree must cover every successor of its grant.
            branches: dict = {}
            for s in successors:
                sub = search(s)
                if sub is None:
                    break
                branches.update(sub)
            else:
                return branches
        return None

    return search(walk.root())

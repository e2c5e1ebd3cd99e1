"""Shared fixtures."""

import pytest

from stronglin.engine import VectorCoins, run, strategy_policy


@pytest.fixture
def assert_replays():
    """The second route for a strategy found by ``search.exists_adversary``:
    play it with ``engine.strategy_policy`` through ``engine.run``, one run
    per coin vector, and check that each run makes its branch's grants and
    passes the search's leaf predicate."""

    def check(alg, strategy, leaf_ok, klass="strong"):
        assert strategy
        policy = strategy_policy(klass, strategy)
        for coins, grants in strategy.items():
            rec = run(alg, policy, VectorCoins(coins))
            assert rec.schedule == grants
            assert leaf_ok(rec, coins)

    return check

"""The balancing algorithm, the two-phase adversary, and the estimator."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stronglin import loadbalance
from stronglin.engine import (
    AdversaryPolicy,
    EngineError,
    MarkState,
    PerProcessCoins,
    run,
)
from stronglin.histories import BASE, FLIP, INV, RSP
from stronglin.loadbalance import (
    COUNTER_KINDS,
    ApReport,
    adversary_ap,
    ap_run_report,
    assert_ap_invariants,
    estimate_phi,
    fai_return,
    k_max_for,
    loadbalance_algorithm,
    round_robin_policy,
    scripted_weak_families,
    stagger_policy,
)


def lb_run(n, kind, flips, p):
    alg = loadbalance_algorithm(n, kind)
    coins = PerProcessCoins({q: (flips[q],) for q in range(n)})
    return run(alg, adversary_ap(p, n), coins)


def test_single_process_returns_zero():
    rec = lb_run(1, "atomic", {0: 0}, p=0)
    assert fai_return(rec, 0) == 0
    assert rec.max_point_contention == 1


@pytest.mark.parametrize("n", [0, 3, 5, 12, 50])
def test_non_square_process_count_rejected(n):
    with pytest.raises(ValueError):
        loadbalance_algorithm(n)


def test_unknown_counter_kind_rejected():
    with pytest.raises(ValueError):
        loadbalance_algorithm(4, "mutex")


@pytest.mark.parametrize("p", [-1, 4, 99])
def test_invalid_target_rejected(p):
    with pytest.raises(ValueError):
        adversary_ap(p, 4)


def test_solo_counter_returns_zero_under_any_weak_schedule():
    # Process 0 is alone on counter 0, so nothing can inflate its result.
    flips = {0: 0, 1: 1, 2: 1, 3: 1}
    alg = loadbalance_algorithm(4, "atomic")
    policies = [
        adversary_ap(0, 4),
        round_robin_policy(4),
        stagger_policy(4, 1),
        stagger_policy(4, 2),
    ]
    for adv in policies:
        rec = run(alg, adv, PerProcessCoins({q: (flips[q],) for q in range(4)}))
        assert fai_return(rec, 0) == 0, adv.name


def test_llsc_case2_exact_lower_bound():
    # Four processes share counter 0; the target LLs first, stays
    # invisible, and collects the other three increments.
    flips = {q: (0 if q < 4 else 1 + q % 3) for q in range(16)}
    rec = lb_run(16, "llsc", flips, p=0)
    report = assert_ap_invariants(rec, 0)
    assert report.case == 2
    assert report.stalled_group == {0, 1, 2, 3}
    at_c = MarkState().after(rec.history.steps[: report.config_index + 1])
    assert {q for (q, x) in at_c.sees if x == 0} == set()  # nobody sees the target
    assert fai_return(rec, 0) == 3
    rec.history.operations()  # raises on a malformed history


def test_writefirst_case1_distinct_values():
    # Announce cells 0..3 are hit by exactly one process each, so all
    # four group members stay visible and round-robin to completion.
    flips = {q: (0 if q < 4 else 1 + q % 3) for q in range(16)}
    rec = lb_run(16, "writefirst", flips, p=0)
    report = assert_ap_invariants(rec, 0)
    assert report.case == 1
    assert report.writers == {0, 1, 2, 3}
    got = {fai_return(rec, q) for q in range(4)}
    assert got == {0, 1, 2, 3}


def test_writefirst_case2_overwritten_target():
    # Processes 0, 4, 8, 12 all announce into pool cell 0; the target's
    # mark is gone by configuration C, so case 2 applies.
    group = {0, 4, 8, 12}
    flips = {q: (0 if q in group else 1 + q % 3) for q in range(16)}
    rec = lb_run(16, "writefirst", flips, p=0)
    report = assert_ap_invariants(rec, 0)
    assert report.case == 2
    assert report.stalled_group == group
    assert fai_return(rec, 0) == 3


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["atomic", "llsc", "writefirst"]),
    flips=st.lists(st.integers(0, 3), min_size=16, max_size=16),
    p=st.integers(0, 15),
)
def test_ap_invariants_hold_on_random_runs(kind, flips, p):
    rec = lb_run(16, kind, dict(enumerate(flips)), p)
    report = assert_ap_invariants(rec, p)
    assert rec.max_point_contention <= len(report.stalled_group) + 1
    assert fai_return(rec, p) is not None
    # Brute-force recount of shared accesses up to configuration C.
    objects = rec.history.objects
    prefix = rec.history.steps[: report.config_index + 1]
    recount = {
        q: sum(
            1
            for s in prefix
            if s.process == q
            and s.kind == RSP
            and s.level == BASE
            and objects[s.obj].type_name != "coin"
        )
        for q in report.stalled_group
    }
    assert report.accesses_at_config == recount


def rescanning_solo_sequential(n):
    """Reference schedule: scan every process on every decide."""

    def make_decide():
        def decide(view):
            return next((q for q in range(n) if not view.finished(q)), None)

        return decide

    return AdversaryPolicy("weak", make_decide=make_decide)


def rescanning_stagger(n, batch):
    """Reference schedule: scan every batch on every decide."""

    def make_decide():
        pos = 0

        def decide(view):
            nonlocal pos
            for start in range(0, n, batch):
                alive = [
                    q for q in range(start, min(start + batch, n))
                    if not view.finished(q)
                ]
                if alive:
                    pos += 1
                    return alive[pos % len(alive)]
            return None

        return decide

    return AdversaryPolicy("weak", make_decide=make_decide)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["atomic", "llsc", "writefirst"]),
    flips=st.lists(st.integers(0, 3), min_size=16, max_size=16),
    batch=st.integers(1, 7),
)
def test_cursor_schedules_match_rescanning_reference(kind, flips, batch):
    alg = loadbalance_algorithm(16, kind)
    pairs = [
        (stagger_policy(16, 1), rescanning_solo_sequential(16)),
        (stagger_policy(16, batch), rescanning_stagger(16, batch)),
    ]
    for fast, ref in pairs:
        a = run(alg, fast, PerProcessCoins({q: (flips[q],) for q in range(16)}))
        b = run(alg, ref, PerProcessCoins({q: (flips[q],) for q in range(16)}))
        assert a == b, fast.name


def _seeded_coins(alg, seed):
    rng = random.Random(seed)
    return {q: (rng.choice(alg.omega),) for q in alg.processes}


@pytest.mark.parametrize("n", [4, 16, 64])
def test_solo_sequential_family_is_a_batch_of_one(n):
    # The estimator's solo-sequential family is stagger_policy(n, 1); a
    # batch of one must play exactly the grants of running each process
    # to completion in pid order.
    for kind in ("atomic", "llsc", "writefirst"):
        alg = loadbalance_algorithm(n, kind)
        family = scripted_weak_families(n, k_max_for(n))["solo-sequential"]
        for seed in range(3):
            flips = _seeded_coins(alg, seed)
            ref = run(alg, rescanning_solo_sequential(n), PerProcessCoins(flips))
            got = run(alg, family(0), PerProcessCoins(flips))
            assert got.history == ref.history
            assert got.schedule == ref.schedule


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", ["llsc", "writefirst"])
def test_two_phase_runs_keep_weak_flip_adjacency(kind, n):
    # Every flip response is followed at once by an invocation of the
    # same process: the weak-class restriction, read off the history.
    alg = loadbalance_algorithm(n, kind)
    for seed in range(8):
        flips = _seeded_coins(alg, seed)
        rec = run(alg, adversary_ap(seed % n, n), PerProcessCoins(flips))
        steps = rec.history.steps
        flip_rsps = [i for i, s in enumerate(steps) if s.op == FLIP and s.kind == RSP]
        assert len(flip_rsps) == n
        for i in flip_rsps:
            nxt = steps[i + 1]
            assert nxt.kind == INV and nxt.process == steps[i].process


def test_ap_report_matches_flip_assignment():
    flips = {q: q % 4 for q in range(16)}
    rec = lb_run(16, "llsc", flips, p=5)
    report = ap_run_report(rec, 5)
    assert report.i_star == 1
    assert report.counter_of == flips
    assert report.stalled_group == {1, 5, 9, 13}


def test_estimate_phi_rejects_zero_trials():
    alg = loadbalance_algorithm(4, "atomic")
    with pytest.raises(ValueError):
        estimate_phi(alg, lambda p: adversary_ap(p, 4), 3, 0, 1)


def test_estimate_phi_deterministic():
    alg = loadbalance_algorithm(16, "atomic")
    fam = scripted_weak_families(16, 6)["stagger"]
    a = estimate_phi(alg, fam, 6, 40, seed=7)
    b = estimate_phi(alg, fam, 6, 40, seed=7)
    assert a == b
    c = estimate_phi(alg, fam, 6, 40, seed=8)
    assert c != a


def test_atomic_estimates_respect_upper_bound():
    n, k_max = 16, k_max_for(16)
    alg = loadbalance_algorithm(n, "atomic")
    bound = (k_max - 1) / 4
    families = dict(scripted_weak_families(n, k_max))
    families["two-phase"] = lambda p: adversary_ap(p, n)
    for name, fam in families.items():
        est = estimate_phi(alg, fam, k_max, 150, seed=11)
        assert est.mean <= bound + 3 * est.ci95, name
        assert not est.flags, name


def test_llsc_estimate_clears_atomic_bound():
    n, k_max = 16, k_max_for(16)
    alg = loadbalance_algorithm(n, "llsc")
    est = estimate_phi(alg, lambda p: adversary_ap(p, n), k_max, 200, seed=3)
    assert est.mean - 3 * est.ci95 > (k_max - 1) / 4


def test_kmax_rounding():
    assert k_max_for(16) == 6
    assert k_max_for(64) == 12
    assert k_max_for(256) == 24
    assert k_max_for(16, delta=0.25) == 5
    with pytest.raises(ValueError):
        k_max_for(8)


def test_scripted_families_are_weak():
    fams = scripted_weak_families(16, 6)
    assert set(fams) == {"round-robin", "solo-sequential", "stagger"}
    for fam in fams.values():
        assert fam(0).klass == "weak"


# ---------------------------------------------------------------------------
# The one-scan certifier against the multi-scan reference
# ---------------------------------------------------------------------------


def reference_owner_index(info):
    if info.type_name == "coin":
        return None
    params = dict(info.params)
    key = params.get("owner", params.get("key"))
    if key is None:
        return None
    return int(key[1:])


def reference_is_shared_access(step, objects):
    return (
        step.kind == RSP
        and step.level == BASE
        and objects[step.obj].type_name != "coin"
    )


def reference_ap_run_report(rec, p):
    """The certifier's report as first written: one scan per question."""
    steps = rec.history.steps
    objects = rec.history.objects
    first = {}
    counter_of = {}
    dec_done = {}
    for k, s in enumerate(steps):
        if reference_is_shared_access(s, objects) and s.process not in first:
            first[s.process] = (k, s)
            idx = reference_owner_index(objects[s.obj])
            if idx is None:
                raise EngineError(f"shared access on unowned object {s.obj}")
            counter_of[s.process] = idx
        if s.kind == RSP and s.op == "fetch_dec" and s.process not in dec_done:
            dec_done[s.process] = k
    if p not in counter_of:
        raise EngineError(f"target process {p} never accessed shared memory")
    i_star = counter_of[p]
    group = {q for q, i in counter_of.items() if i == i_star}
    outside = [q for q in rec.history.processes if counter_of.get(q) != i_star]
    marker_events = [first[q][0] for q in group]
    marker_events += [dec_done[q] for q in outside if q in dec_done]
    if any(q not in dec_done for q in outside) or any(
        q not in first for q in group
    ):
        raise EngineError("phase 1 never completed")
    config_index = max(marker_events)
    prefix = rec.history.prefix(config_index + 1)
    state = MarkState().after(prefix.steps)
    visible = p in dict(state.marks).values()
    writers = frozenset(q for q in group if first[q][1].op == "write")
    accesses = dict.fromkeys(group, 0)
    for s in prefix.steps:
        if s.process in accesses and reference_is_shared_access(s, objects):
            accesses[s.process] += 1
    return ApReport(
        target=p,
        i_star=i_star,
        counter_of=counter_of,
        config_index=config_index,
        case=1 if visible else 2,
        writers=writers,
        accesses_at_config=accesses,
        bound=reference_helper_bound(rec, p, i_star, group),
    )


def reference_helper_bound(rec, p, i_star, group):
    steps = rec.history.steps
    objects = rec.history.objects
    register_ops = {"read", "write", "ll", "sc"}
    for s in steps:
        if (
            s.level == BASE
            and objects[s.obj].type_name != "coin"
            and s.op not in register_ops
        ):
            return None
    fai = {}
    for s in steps:
        if s.kind == RSP and s.op == "fetch_inc" and s.process not in fai:
            fai[s.process] = s.payload
    finishers = {q for q in group if q in fai and q != p}
    if p not in fai:
        return None
    dec_invoked = any(
        s.op == "fetch_dec"
        and s.kind == INV
        and reference_owner_index(objects[s.obj]) == i_star
        for s in steps
    )
    if dec_invoked:
        return None
    outside_seen = any(
        q in finishers and x not in finishers
        for (q, x) in MarkState().after(steps).sees
    )
    if outside_seen:
        return None
    return fai[p], len(finishers)


def reference_assert_ap_invariants(rec, p):
    report = reference_ap_run_report(rec, p)
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
    if report.bound is not None:
        got, size = report.bound
        if got < size:
            raise EngineError(f"certified run returned {got} < |P| = {size}")
    return report


def outcome(certify, rec, p):
    try:
        return "returns", certify(rec, p)
    except EngineError as exc:
        return "raises", str(exc)


def assert_certifiers_agree(rec, p):
    assert outcome(ap_run_report, rec, p) == outcome(reference_ap_run_report, rec, p)
    got = outcome(assert_ap_invariants, rec, p)
    assert got == outcome(reference_assert_ap_invariants, rec, p)
    return got


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", COUNTER_KINDS)
def test_one_scan_certifier_matches_multi_scan_reference(kind, n):
    # Two-phase runs certify; round-robin runs of the same coins reach
    # the certifier's failure paths too, and must fail the same way.
    alg = loadbalance_algorithm(n, kind)
    verdicts = set()
    for seed in range(6):
        rng = random.Random(f"certify:{kind}:{n}:{seed}")
        coins = {q: (rng.randrange(len(alg.omega)),) for q in alg.processes}
        p = rng.randrange(n)
        rec = run(alg, adversary_ap(p, n), PerProcessCoins(coins))
        assert assert_certifiers_agree(rec, p)[0] == "returns"
        rec = run(alg, round_robin_policy(n), PerProcessCoins(coins))
        verdicts.add(assert_certifiers_agree(rec, p)[0])
    assert "raises" in verdicts


def test_lowered_target_return_fails_both_certifiers():
    # The llsc case-2 run of test_llsc_case2_exact_lower_bound: P is the
    # other three members of counter 0, and the target returned 3 = |P|.
    flips = {q: (0 if q < 4 else 1 + q % 3) for q in range(16)}
    rec = lb_run(16, "llsc", flips, p=0)
    assert assert_certifiers_agree(rec, 0)[0] == "returns"
    steps = tuple(
        s._replace(payload=2)
        if s.process == 0 and s.op == "fetch_inc" and s.kind == RSP
        else s
        for s in rec.history.steps
    )
    tampered = dataclasses.replace(rec, history=rec.history.with_steps(steps))
    assert assert_certifiers_agree(tampered, 0) == (
        "raises", "certified run returned 2 < |P| = 3"
    )


def test_helper_bound_reads_sees_at_the_end_of_the_run():
    # Write-first, seed 0, target 12: P = {9, 10, 15}, and 15 first sees
    # the target after C.  The bound does not apply, so a target return
    # below |P| must not fail either certifier.
    alg = loadbalance_algorithm(16, "writefirst")
    rec = run(alg, adversary_ap(12, 16), PerProcessCoins(_seeded_coins(alg, 0)))
    verdict, report = assert_certifiers_agree(rec, 12)
    assert verdict == "returns" and report.bound is None
    assert report.stalled_group == {9, 10, 12, 15}
    at_c = MarkState().after(rec.history.steps[: report.config_index + 1])
    assert (15, 12) not in at_c.sees
    assert (15, 12) in MarkState().after(rec.history.steps).sees
    steps = tuple(
        s._replace(payload=0)
        if s.process == 12 and s.op == "fetch_inc" and s.kind == RSP
        else s
        for s in rec.history.steps
    )
    tampered = dataclasses.replace(rec, history=rec.history.with_steps(steps))
    assert assert_certifiers_agree(tampered, 12)[0] == "returns"


def test_estimator_reaches_the_traced_functions_through_module_globals(monkeypatch):
    # bench/tracing.py times certification and the fai scan by rebinding
    # these module attributes; a call that bypassed them would read 0.
    calls = dict.fromkeys(("assert_ap_invariants", "fai_return"), 0)
    for name in calls:

        def counting(*args, _name=name, _inner=getattr(loadbalance, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(loadbalance, name, counting)
    trials = 5
    for kind in COUNTER_KINDS:
        before = dict(calls)
        alg = loadbalance_algorithm(16, kind)
        estimate_phi(alg, lambda p: adversary_ap(p, 16), k_max_for(16), trials, seed=2)
        for name, count in calls.items():
            assert count - before[name] >= trials, (kind, name)

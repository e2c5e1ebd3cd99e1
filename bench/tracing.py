"""Spans and counters recorded from outside the stronglin modules.

The traced pass rebinds public functions of the loaded ``stronglin``
modules to timing wrappers for the life of one ``Instrumented`` block and
restores them afterwards.  Nothing under ``src/`` knows about tracing:
every span is recorded here, around a call into a module's public
function, and every count is read from that call's arguments or result.

A span is ``(name, start, end, parent, task)``.  ``parent`` is the index
of the span that was open when this one started (-1 at top level) and
``task`` is the work item the harness was running.  Self time of a span
is its duration minus the durations of its direct children; a module's
self time is the sum over the spans named after it.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.task = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self) -> str | None:
        if not self.stack:
            return None
        return self.names[self.spans[self.stack[-1]][0]]

    def wrap(self, name, fn, after=None):
        """Return ``fn`` timed as a span.

        ``name`` is a string or a callable of the call's arguments.
        ``after(args, kwargs, result)`` records counts once the span has
        closed, so counting is not charged to the span.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        fixed = self.name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((nid, 0.0, 0.0, parent, self.task))
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.task)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _task in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (nid, t0, t1, _parent, _task) in enumerate(self.spans):
            row = out.setdefault(
                self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "columns": ["name", "start", "end", "parent", "task"],
            "names": self.names,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _module_layer(fn) -> str:
    """Module short name of a decide factory, e.g. ``loadbalance``."""
    return fn.__module__.rpartition(".")[2]


class Instrumented:
    """Rebind stronglin functions to ``tracer`` wrappers inside a ``with``.

    Every module attribute that is the original function object is
    replaced, so ``from .engine import run`` copies in other modules are
    traced too.
    """

    def __init__(self, mods, tracer: Tracer) -> None:
        self.mods = mods
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        m, tr = self.mods, self.tracer
        c = tr.counts
        base, rsp = m.histories.BASE, m.histories.RSP

        def after_run(args, kwargs, rec):
            steps = rec.history.steps
            objects = rec.history.objects
            c["engine.runs"] += 1
            c["engine.grants"] += len(rec.schedule)
            c["engine.steps"] += len(steps)
            c["objects.base_steps"] += sum(
                1
                for s in steps
                if s.kind == rsp
                and s.level == base
                and objects[s.obj].type_name != "coin"
            )

        run_span = tr.wrap("engine.run", m.engine.run, after_run)

        def traced_run(*args, **kwargs):
            # Each run builds a fresh decide function; time every call of
            # it as a child span named after the adversary's module.
            adv = _arg(args, kwargs, 1, "adv")
            make = adv.make_decide
            if make is not None:
                name = f"{_module_layer(make)}.decide"
                adv = dataclasses.replace(
                    adv, make_decide=lambda: tr.wrap(name, make())
                )
                if len(args) > 1:
                    args = args[:1] + (adv,) + args[2:]
                else:
                    kwargs = dict(kwargs, adv=adv)
            return run_span(*args, **kwargs)

        def after_construct(args, kwargs, sim):
            c["engine.sim_constructions"] += 1

        def after_replay(args, kwargs, res):
            c["search.nodes"] += 1
            c["search.replayed_grants"] += len(_arg(args, kwargs, 1, "grants"))
            if res[0] == "need_coin":
                c["search.need_coin"] += 1

        def after_game(args, kwargs, out):
            c["search.games"] += 1

        def after_estimate(args, kwargs, est):
            c["loadbalance.trials"] += est.trials

        def after_fai(args, kwargs, got):
            # estimate_phi scores a trial 0 when the run was flagged or the
            # target's fetch&inc never finished; certification calls
            # fai_return too, so count only calls made by the estimator.
            if tr.parent_name() == "loadbalance.estimate" and (
                got is None or _arg(args, kwargs, 0, "rec").flags
            ):
                c["loadbalance.flagged_trials"] += 1

        def after_check(args, kwargs, out):
            c["checkers.tree_nodes"] += len(_arg(args, kwargs, 0, "tree"))

        def after_encode(args, kwargs, text):
            c["histories.encode_steps"] += len(_arg(args, kwargs, 0, "h").steps)
            c["histories.jsonl_bytes"] += len(text.encode())

        def after_decode(args, kwargs, h):
            c["histories.decode_steps"] += len(h.steps)

        def report_name(args, kwargs):
            return "experiments.report." + _arg(args, kwargs, 0, "cfg").name

        plan = [
            (m.engine, "run", traced_run),
            (m.engine, "Simulation",
             tr.wrap("engine.construct", m.engine.Simulation, after_construct)),
            (m.search, "replay_grants",
             tr.wrap("search.replay", m.search.replay_grants, after_replay)),
            (m.search, "optimal_expectation",
             tr.wrap("search.game", m.search.optimal_expectation, after_game)),
            (m.search, "exists_adversary",
             tr.wrap("search.game", m.search.exists_adversary, after_game)),
            (m.loadbalance, "estimate_phi",
             tr.wrap("loadbalance.estimate", m.loadbalance.estimate_phi, after_estimate)),
            (m.loadbalance, "assert_ap_invariants",
             tr.wrap("loadbalance.certify", m.loadbalance.assert_ap_invariants)),
            (m.loadbalance, "fai_return",
             tr.wrap("loadbalance.fai_scan", m.loadbalance.fai_return, after_fai)),
            (m.checkers, "check_strong_lin",
             tr.wrap("checkers.check", m.checkers.check_strong_lin, after_check)),
            (m.checkers, "witness_violations",
             tr.wrap("checkers.validate", m.checkers.witness_violations)),
            (m.checkers, "normalize_witness",
             tr.wrap("checkers.normalize", m.checkers.normalize_witness)),
            (m.checkers, "linearize_one",
             tr.wrap("checkers.linearize", m.checkers.linearize_one)),
            (m.histories, "to_jsonl",
             tr.wrap("histories.encode", m.histories.to_jsonl, after_encode)),
            (m.histories, "from_jsonl",
             tr.wrap("histories.decode", m.histories.from_jsonl, after_decode)),
            (m.histories, "interpret",
             tr.wrap("histories.interpret", m.histories.interpret)),
            (m.experiments, "run_named_experiment",
             tr.wrap(report_name, m.experiments.run_named_experiment)),
        ]
        for owner, attr, wrapper in plan:
            original = getattr(owner, attr)
            for mod in m.all:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, value))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()


# Metrics that are ratios of block totals; every other figure is a
# count or a time and is reported per pass.
RATIOS = frozenset({
    "engine.grants_per_s",
    "objects.base_steps_per_grant",
    "loadbalance.certify_share",
    "search.useful_grant_frac",
    "search.need_coin_frac",
    "search.nodes_per_s",
    "histories.encode_steps_per_s",
    "histories.decode_steps_per_s",
})


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures from one traced block of ``passes`` passes.

    Counts and seconds are per pass; rates and shares are ratios of the
    block totals.
    """
    t = tracer.totals()
    c = tracer.counts

    def total(name: str) -> float:
        return t.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return t.get(name, {}).get("calls", 0)

    def self_of(layer: str) -> float:
        return sum(v["self_s"] for k, v in t.items() if k.split(".", 1)[0] == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    decide_in_run = sum(
        t1 - t0
        for nid, t0, t1, parent, _task in tracer.spans
        if parent >= 0
        and tracer.names[nid].endswith(".decide")
        and tracer.names[tracer.spans[parent][0]] == "engine.run"
    )
    run_s = total("engine.run")
    engine_self = run_s - decide_in_run
    game_s = total("search.game")
    estimate_s = total("loadbalance.estimate")
    totals = {
        "engine.runs": c["engine.runs"],
        "engine.grants": c["engine.grants"],
        "engine.steps": c["engine.steps"],
        "engine.run_s": run_s,
        "engine.self_s": engine_self,
        "engine.grants_per_s": ratio(c["engine.grants"], engine_self),
        "engine.sim_constructions": c["engine.sim_constructions"],
        "engine.construct_s": total("engine.construct"),
        "objects.base_steps": c["objects.base_steps"],
        "objects.base_steps_per_grant": ratio(c["objects.base_steps"], c["engine.grants"]),
        "loadbalance.trials": c["loadbalance.trials"],
        "loadbalance.decides": calls("loadbalance.decide"),
        "loadbalance.decide_s": total("loadbalance.decide"),
        "loadbalance.certify_s": total("loadbalance.certify"),
        "loadbalance.fai_scan_s": total("loadbalance.fai_scan"),
        "loadbalance.certify_share": ratio(total("loadbalance.certify"), estimate_s),
        "loadbalance.flagged_trials": c["loadbalance.flagged_trials"],
        "loadbalance.self_s": self_of("loadbalance"),
        "search.games": c["search.games"],
        "search.nodes": c["search.nodes"],
        "search.replayed_grants": c["search.replayed_grants"],
        "search.useful_grant_frac": ratio(c["search.nodes"], c["search.replayed_grants"]),
        "search.need_coin_frac": ratio(c["search.need_coin"], c["search.nodes"]),
        "search.replay_s": total("search.replay"),
        "search.nodes_per_s": ratio(c["search.nodes"], game_s),
        "search.self_s": self_of("search"),
        "checkers.tree_nodes": c["checkers.tree_nodes"],
        "checkers.check_s": total("checkers.check"),
        "checkers.validate_s": total("checkers.validate"),
        "checkers.normalize_s": total("checkers.normalize"),
        "checkers.linearize_s": total("checkers.linearize"),
        "checkers.self_s": self_of("checkers"),
        "histories.encode_steps_per_s": ratio(
            c["histories.encode_steps"], total("histories.encode")
        ),
        "histories.decode_steps_per_s": ratio(
            c["histories.decode_steps"], total("histories.decode")
        ),
        "histories.jsonl_bytes": c["histories.jsonl_bytes"],
        "histories.interpret_s": total("histories.interpret"),
        "histories.self_s": self_of("histories"),
        "experiments.self_s": self_of("experiments"),
    }
    for name, row in t.items():
        if name.startswith("experiments.report."):
            totals["experiments.report_s." + name.split(".", 2)[2]] = row["total_s"]
    return {
        k: (v if k in RATIOS else v / passes) for k, v in totals.items()
    }

"""Compare two sets of benchmark results, or summarise one.

    python3 bench/compare.py BASE.jsonl NEW.jsonl
    python3 bench/compare.py RESULTS.jsonl

Each file holds one JSON object per run, as written by ``sweep.py``:
``{"workload", "seed", "trace", "result"}`` where ``result`` is the last
stdout line of ``run.py``.  Runs of the two sets are paired by
(workload, trace, seed).

For every workload and metric the comparison prints each side's median
and quartiles, the share of pairs the new set won (ties count for
neither side) and a verdict:

* ``improved``: there are at least ten pairs, the new set won at least 9
  in 10 of them, its median is better than the base median by more than
  the base's quartile spread, and it failed no more output checks than
  the base on that workload;
* ``worse``: the new median is worse than the base median by more than
  the metric's bound in BENCHMARK.json (per-layer metrics have no bound:
  for them, the mirror image of ``improved``);
* ``unresolved``: fewer than ten pairs; or a gain by the rule above from
  a new set that failed more checks than the base; or the base's own
  quartile spread is wider than the bound, unless every new run beats
  every base run;
* ``unchanged``: otherwise.

After each workload's rows it prints both sides' failed checks.  It exits
with 1 if an end-to-end metric is ``worse`` or the new set failed more
checks than the base on some workload, else with 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pairs needed before any verdict but ``unresolved``.
MIN_PAIRS = 10


def load(path: str) -> dict[tuple, dict]:
    """Map (workload, trace, seed) to that run's result object."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"], rec["seed"])] = rec["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(runs: dict, workload: str, trace: int, metric: str) -> dict[int, float]:
    return {
        seed: res["metrics"][metric]["value"]
        for (w, t, seed), res in runs.items()
        if w == workload and t == trace and metric in res["metrics"]
    }


def verdict(base: dict, new: dict, better: str, bound: float | None, failed_more=False):
    """``failed_more``: the new set failed more output checks than the base."""
    sign = 1 if better == "higher" else -1
    pairs = sorted(set(base) & set(new))
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) > 0)
    won = wins / len(pairs) if pairs else 0.0
    if len(pairs) < MIN_PAIRS:
        return won, "unresolved"
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, nmed, _ = quartiles(list(new.values()))
    gain = sign * (nmed - bmed)
    spread = bq3 - bq1
    if won >= 0.9 and gain > spread:
        return won, "unresolved" if failed_more else "improved"
    if bound is None:
        losses = sum(1 for s in pairs if sign * (new[s] - base[s]) < 0)
        lost = losses / len(pairs) if pairs else 0.0
        return won, ("worse" if lost >= 0.9 and -gain > spread else "unchanged")
    if -gain > bound * abs(bmed):
        return won, "worse"
    all_better = all(sign * (n - b) > 0 for n in new.values() for b in base.values())
    if spread > bound * abs(bmed) and not all_better:
        return won, "unresolved"
    return won, "unchanged"


def groups(spec: dict):
    yield 0, spec["end_to_end"]
    yield 1, spec["per_layer"]


def summarise(runs: dict, spec: dict) -> None:
    print(f"{'workload':12s} {'metric':36s} {'runs':>4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in (x["name"] for x in spec["workloads"]):
        for trace, metrics in groups(spec):
            for m in metrics:
                vals = list(series(runs, w, trace, m["name"]).values())
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                share = (q3 - q1) / med if med else 0.0
                bound = m.get("bound")
                print(f"{w:12s} {m['name']:36s} {len(vals):4d} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {share:8.4f} "
                      f"{'' if bound is None else bound:>6}")
    failed = {k: r["failed"] for k, r in runs.items() if r["failed"] or not r["correct"]}
    print(f"runs with failed checks: {failed or 'none'}")


def failed_checks(runs: dict, workload: str) -> int:
    return sum(r["failed"] for (w, _t, _s), r in runs.items() if w == workload)


def compare(base: dict, new: dict, spec: dict) -> int:
    print(f"{'workload':12s} {'metric':36s} {'base median [q1, q3]':>38s} "
          f"{'new median [q1, q3]':>38s} {'pairs':>5s} {'won':>5s}  verdict")
    worse = 0
    for w in (x["name"] for x in spec["workloads"]):
        bfail, nfail = failed_checks(base, w), failed_checks(new, w)
        worse += nfail > bfail
        for trace, metrics in groups(spec):
            for m in metrics:
                b = series(base, w, trace, m["name"])
                n = series(new, w, trace, m["name"])
                if not b or not n:
                    continue
                won, word = verdict(b, n, m["better"], m.get("bound"), nfail > bfail)
                worse += word == "worse" and trace == 0
                bq = quartiles(list(b.values()))
                nq = quartiles(list(n.values()))
                print(f"{w:12s} {m['name']:36s} "
                      f"{bq[1]:12.6g} [{bq[0]:10.4g}, {bq[2]:10.4g}] "
                      f"{nq[1]:12.6g} [{nq[0]:10.4g}, {nq[2]:10.4g}] "
                      f"{len(set(b) & set(n)):5d} {won:5.2f}  {word}")
        print(f"{w:12s} failed checks: base {bfail}, new {nfail}"
              + ("  (new failed more: no gain is claimed)" if nfail > bfail else ""))
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summarise(load(argv[0]), spec)
        return 0
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]), spec)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

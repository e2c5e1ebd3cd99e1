"""Benchmark entry point: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload mc-sweep --seed 0 --seconds 20 --trace 0

Run from the repository root; stronglin is imported from ``src/``.
Set-up (a cold import of every stronglin module plus building the
workload's inputs) is repeated ``SETUPS`` times and its median is
``setup_s``.  The workload then runs whole passes until ``--seconds``
have elapsed and checks every output; ``wall_s`` is the median pass.
Times are rescaled to a reference host speed (see clock.py); the raw
medians are printed beside them.  ``peak_rss_mb`` is the process's peak
resident memory above what it held before the first stronglin import
(interpreter, harness and calibration pool).

With ``--trace 0`` the last stdout line carries the end-to-end metrics
listed in BENCHMARK.json.  With ``--trace 1`` the time is split: untraced
passes for half of it, then the same passes again with every layer
wrapped (see tracing.py); the last line carries the per-layer metrics,
and the spans are written to ``.bench_out/``.  Lines before the last one
are for people and print every figure with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7


def run_passes(workload, checks, clock, until=None, count=0, tracer=None):
    """Run passes 0, 1, ... for ``until`` seconds, or ``count`` passes.

    Returns each pass's rescaled stage times and its raw seconds.  Spans
    recorded by ``tracer`` carry the pass number as their task.  Each
    pass starts from a collected heap, untimed, so that cyclic garbage
    left by earlier passes does not raise ``peak_rss_mb`` by an amount
    that depends on how many passes ran and when the collector fired.
    """
    stages, raws = [], []
    start = time.perf_counter()
    while (
        len(stages) < count
        if until is None
        else not stages or time.perf_counter() - start < until
    ):
        gc.collect()
        clock.reset()
        if tracer is not None:
            tracer.task = len(stages)
        workload.run_pass(len(stages), checks, clock)
        stages.append(dict(clock.scaled))
        raws.append(sum(clock.raw.values()))
    return stages, raws


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux VmHWM).

    Not ``ru_maxrss``: Linux carries that over from the parent process
    across fork and exec, so a larger parent would hide this run's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stronglin" / "__init__.py").is_file():
        print(f"error: no stronglin package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from clock import Clock
    from tracing import Instrumented, Tracer, layer_metrics
    from workloads import WORKLOADS, Checks, load_stronglin

    kind = WORKLOADS[args.workload]
    clock = Clock()
    # The interpreter, the harness and the calibration pool: peak_rss_mb
    # is the peak above this, so it counts stronglin and its inputs only.
    rss_floor = peak_rss_mb()
    setups, setups_raw = [], []
    mods = workload = None
    for _ in range(SETUPS):
        # Drop the previous set-up's modules and inputs (they hold
        # reference cycles) so that only one copy is ever live.
        mods = workload = None
        gc.collect()
        clock.reset()
        with clock.unit("setup"):
            mods = load_stronglin(src)
            workload = kind(mods, args.seed)
        setups.append(clock.scaled["setup"])
        setups_raw.append(clock.raw["setup"])

    checks = Checks()
    if args.trace == 0:
        stages, raws = run_passes(workload, checks, clock, until=args.seconds)
        figures = {
            "wall_s": median(sum(s.values()) for s in stages),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb() - rss_floor,
        }
        group = spec["end_to_end"]
    else:
        stages, raws = run_passes(workload, checks, clock, until=args.seconds / 2)
        tracer = Tracer()
        with Instrumented(mods, tracer):
            traced, _raws = run_passes(
                workload, checks, clock, count=len(stages), tracer=tracer
            )
        figures = layer_metrics(tracer, len(traced))
        figures["trace.overhead_frac"] = (
            sum(sum(s.values()) for s in traced) / sum(sum(s.values()) for s in stages) - 1
        )
        figures["trace.spans"] = len(tracer.spans) / len(traced)
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz")
        group = spec["per_layer"]
    figures.update(workload.stage_metrics(stages))
    workload.finish(checks)
    figures["failed_frac"] = checks.failed / max(checks.attempted, 1)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(stages)} "
          f"setups={SETUPS} checks={checks.attempted} failed={checks.failed} "
          f"raw median pass {median(raws):.4g} s, raw median setup {median(setups_raw):.4g} s")
    for name in sorted(figures):
        print(f"  {name:40s} {figures[name]:14.6g} {units.get(name, '')}")
    metrics = {}
    for m in group:
        metrics[m["name"]] = {"value": figures.get(m["name"], 0.0), "unit": m["unit"]}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

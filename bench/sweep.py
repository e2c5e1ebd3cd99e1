"""Run the benchmark over several seeds and collect the results.

    python3 bench/sweep.py --out .bench_out/base.jsonl --seeds 0-9
    python3 bench/sweep.py --out .bench_out/base.jsonl --workloads mc-sweep --trace 1

Runs ``run.py`` once per (workload, seed), one after another, from the
repository root, for BENCHMARK.json's ``run_seconds`` each, and appends
``{"workload", "seed", "trace", "result"}`` per run to ``--out``.  A run that exits non-zero stops the sweep.  At the
end it prints the per-metric median, quartiles and spread of the file
(see compare.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rec = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
            with out.open("a") as f:
                f.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from compare import load, summarise

    summarise(load(str(out)), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Exit codes: 0 when every claim checks out (or the input linearizes),
1 when any row is not ``ok`` (``fail`` or ``inconclusive``) or no
linearization/witness exists, 2 on usage errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from typing import Any, Callable

import click

from .checkers import (
    CheckerError,
    HistoryTree,
    TreeError,
    check_strong_lin,
    default_specs,
    linearize_one,
    witness_doc,
)
from .engine import EngineError, VectorCoins, run
from .experiments import (
    EXAMPLES,
    ExperimentConfig,
    ExperimentError,
    drain_policy,
    run_named_experiment,
)
from .histories import HistoryError, from_jsonl, interpret, is_flip_response, step_doc, to_jsonl


def _write(out: str, text: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _shared(fn: Callable) -> Callable:
    default = {f.name: f.default for f in fields(ExperimentConfig)}
    opts = [
        click.option("--seed", type=int, default=default["seed"], show_default=True,
                      help="RNG seed for sampled experiments."),
        click.option("--trials", type=int, default=default["trials"], show_default=True,
                      help="Monte Carlo trials per sampled estimate."),
        click.option("--n", type=int, default=default["n"], show_default=True,
                      help="Process count for the load-balance experiment."),
        click.option("--delta", type=float, default=default["delta"], show_default=True,
                      help="Contention-cutoff slack in k_max."),
        click.option("--budget", type=click.IntRange(min=1), default=default["budget"],
                      show_default=True, help="Step budget per run."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                      default="csv", show_default=True),
        click.option("--out", default="-", show_default=True,
                      help="Output path, '-' for stdout."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Adversary-gap experiments and linearizability checkers."""


@main.command()
@click.argument("name")
@_shared
def experiment(name: str, seed: int, trials: int, n: int, delta: float,
               budget: int, fmt: str, out: str) -> None:
    """Run a named experiment and emit its report."""
    cfg = ExperimentConfig(
        name, n=n, delta=delta, trials=trials, seed=seed, budget=budget
    )
    try:
        report = run_named_experiment(cfg)
    except (ExperimentError, EngineError) as err:
        raise click.UsageError(str(err)) from err
    _write(out, report.to_csv() if fmt == "csv" else report.to_json())
    if not report.ok:
        sys.exit(1)


@main.command()
@click.option("--alg", required=True,
              help=f"Example program: one of {', '.join(sorted(EXAMPLES))}.")
@click.option("--variant", type=click.Choice(["implemented", "atomic"]),
              default="implemented", show_default=True)
@click.option("--coins", required=True,
              help="Comma-separated coin vector, e.g. '1' or '-1'.")
@click.option("--policy", type=click.Choice(["pinned", "drain"]),
              default="pinned", show_default=True,
              help="pinned = the example's schedule (implemented only); "
                   "drain = run each process to completion in pid order.")
@click.option("--out", default="-", show_default=True)
def simulate(alg: str, variant: str, coins: str, policy: str, out: str) -> None:
    """Run one example once and emit the raw history as JSON lines."""
    if alg not in EXAMPLES:
        raise click.UsageError(
            f"unknown algorithm {alg!r}; names: {', '.join(sorted(EXAMPLES))}"
        )
    ex = EXAMPLES[alg]()
    try:
        vector = tuple(int(c) for c in coins.split(","))
    except ValueError as err:
        raise click.UsageError(f"bad coin vector {coins!r}") from err
    for c in vector:
        if c not in ex.omega:
            raise click.UsageError(f"coin {c} outside outcome set {ex.omega}")
    spec = ex.implemented if variant == "implemented" else ex.atomic
    if policy == "pinned":
        if variant != "implemented":
            raise click.UsageError("the pinned schedule targets --variant implemented")
        adv = ex.schedule
    else:
        adv = drain_policy(spec.processes)
    try:
        rec = run(spec, adv, VectorCoins(vector))
    except EngineError as err:
        raise click.UsageError(str(err)) from err
    drawn = sum(is_flip_response(rec.history.objects, s) for s in rec.history.steps)
    if drawn < len(vector):
        raise click.UsageError(f"coin vector has {len(vector)} outcomes; the run drew {drawn}")
    _write(out, to_jsonl(rec.history))


def _load(path: str, parse: Callable[[str], Any]) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as err:
        raise click.UsageError(str(err)) from err
    except (HistoryError, TreeError, CheckerError, ValueError) as err:
        raise click.UsageError(f"{path}: {err}") from err


@main.command("check-lin")
@click.argument("history_file", type=click.Path())
@click.option("--out", default="-", show_default=True)
def check_lin(history_file: str, out: str) -> None:
    """Decide linearizability of one history (JSON-lines file)."""
    h = _load(history_file, from_jsonl)
    hi = interpret(h)
    try:
        specs = default_specs(hi.objects, hi.processes)
        image = linearize_one(hi, specs)
    except (CheckerError, HistoryError) as err:
        raise click.UsageError(str(err)) from err
    if image is None:
        _write(out, json.dumps({"linearizable": False}) + "\n")
        sys.exit(1)
    doc = {"linearizable": True, "image": [step_doc(s) for s in image.steps]}
    _write(out, json.dumps(doc, sort_keys=True) + "\n")


@main.command("check-strong-lin")
@click.argument("tree_file", type=click.Path())
@click.option("--out", default="-", show_default=True)
def check_strong_lin_cmd(tree_file: str, out: str) -> None:
    """Search a history tree for a strong linearization witness."""
    tree = _load(tree_file, HistoryTree.from_json)
    try:
        specs = default_specs(tree.objects, tree.processes)
        witness = check_strong_lin(tree, specs)
    except (TreeError, CheckerError) as err:
        raise click.UsageError(str(err)) from err
    if witness is None:
        _write(out, json.dumps({"witness": None}) + "\n")
        sys.exit(1)
    doc = {"witness": witness_doc(tree, witness)}
    _write(out, json.dumps(doc, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

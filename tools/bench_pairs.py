"""Run alternating base/change pairs of the benchmark and compare them.

    python tools/bench_pairs.py --workload chains --seed 30001
        [--base HEAD~1] [--change HEAD]

It runs ten pairs, the fewest the claim rule below can judge.  Each side
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``, with
``T`` the ``run_seconds`` of ``BENCHMARK.json``, from a ``git archive`` copy
of its revision in a temporary directory, with ``PYTHONDONTWRITEBYTECODE=1``,
one run at a time.  Pair ``i`` runs both sides on seed ``--seed + i``, so
pick seeds no earlier comparison used; even pairs run the base first, odd
pairs the change first.

For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, the pairs the change won (ties count for neither),
whether a gain may be claimed (the change wins at least nine pairs in ten
and the medians differ, in the better direction, by more than the base's
quartile spread) and whether the change's median stays within the metric's
regression bound.  A bound is ``unresolved`` when the base's quartile
spread is wider than it and the change is not better on every run.  Each
run's result line is printed as it finishes, with its failed and attempted
operation counts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(base: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """Compare one metric's runs; ``base[i]`` and ``change[i]`` form pair
    ``i``.  ``better`` is ``"lower"`` or ``"higher"``, ``bound`` the largest
    allowed relative worsening of the change's median."""
    sign = 1 if better == "lower" else -1
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    spread = b3 - b1
    every_run_better = max(sign * c for c in change) < min(sign * b for b in base)
    if sign * (cmed - bmed) > bound * bmed:
        verdict = "worse"
    elif spread > bound * bmed and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"base": (b1, bmed, b3), "change": (c1, cmed, c3), "wins": wins,
            "pairs": len(base),
            "claim": wins * 10 >= 9 * len(base) and sign * (bmed - cmed) > spread,
            "bound": verdict}


def checkout(rev: str, into: Path) -> Path:
    """Extract the committed files of ``rev`` into ``into``."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no result from {tree} (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: checkout(getattr(args, side), Path(tmp) / side)
                 for side in results}
        for i in range(PAIRS):
            seed = args.seed + i
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                result = run_once(trees[side], args.workload, seed,
                                  spec["run_seconds"])
                results[side].append(result)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(json.dumps({"pair": i, "side": side, "seed": seed,
                                  "correct": result["correct"], "failed": result["failed"],
                                  "attempted": result["attempted"], "metrics": values}),
                      flush=True)
    for side, runs in results.items():
        print(f"{side}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed, "
              f"{sum(r['correct'] for r in runs)} of {len(runs)} runs correct")
    if not all(r["correct"] for runs in results.values() for r in runs):
        return 1
    print(f"{'metric':<20} {'base q1 / median / q3':>34} {'change q1 / median / q3':>34}"
          f"  wins  claim  bound")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarise([r["metrics"][name]["value"] for r in results["base"]],
                      [r["metrics"][name]["value"] for r in results["change"]],
                      metric["better"], metric["bound"])
        cells = ["%10.5g %10.5g %10.5g" % s[side] for side in ("base", "change")]
        print(f"{name:<20} {cells[0]:>34} {cells[1]:>34}  {s['wins']:>2}/{s['pairs']:<2}"
              f" {'yes' if s['claim'] else 'no':>5}  {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: time to a checked verdict, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload chains --seed 1 --seconds 50 --trace 0

One process, one thread, closed loop: the next formula starts only when the
previous verdict is checked.  Each run

1. sets up several times in fresh processes (``import ipldecide`` plus
   generating the workload's formula texts) and reports the median as
   ``setup_s`` (untraced runs only);
2. decides a valid and a non-valid canary formula, so that both certificate
   paths are exercised on every workload;
3. repeats passes over the workload for ``--seconds`` seconds (``--trace 0``),
   deciding small formulas up to MAX_REPEATS times in a pass, or makes one
   untraced and one traced pass, one decision per formula (``--trace 1``);
4. runs one ``ipldecide decide`` batch through ``ipldecide.cli.main`` and
   requires its exit code and per-line verdicts to match the library path;
5. runs the backward oracle on every formula, which supplies the expected
   verdicts of random-mixed;
6. gates every decision, prints a detail line, and prints the result as the
   last line of standard output.  Any failed decision exits 1.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from pipeline import Budget, Overrun, decide, library_steps, problems
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FORMULA_BUDGET_S = 30.0
# Within a timed pass a formula is decided again, back to back, until its
# decisions have taken REPEAT_BUDGET_S / (number of formulas) or it has been
# decided MAX_REPEATS times.  Small formulas, which set decide_ms.p50 and
# decide_ms.geomean on the family workloads, then get enough samples for a
# steady median, while repeats add at most about REPEAT_BUDGET_S to a pass.
REPEAT_BUDGET_S = 2.0
MAX_REPEATS = 4
CLI_BUDGET_S = 120.0
SETUP_PROBES = 5
CANARY = (("p -> p", True), ("p | ~p", False))


class SetupError(Exception):
    """The checkout does not hold the package this benchmark measures."""


def import_package():
    """Import ipldecide from this checkout's ``src``, and only from there."""
    if not (SRC / "ipldecide" / "__init__.py").is_file():
        raise SetupError(f"no ipldecide package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ipldecide
    if Path(ipldecide.__file__).resolve().parent != SRC / "ipldecide":
        raise SetupError(f"imported ipldecide from {ipldecide.__file__}")


# -- set-up ------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> float:
    """One fresh-process set-up: import the package and generate the texts."""
    t0 = perf_counter()
    import_package()
    workloads.make(name, seed)
    return perf_counter() - t0


def setup_seconds(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = head.stdout.strip() if head.returncode == 0 else None
    except OSError:
        commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "seed": seed,
            "loadavg": os.getloadavg()}


# -- passes ------------------------------------------------------------------

def settle() -> None:
    """Collect garbage, then move every survivor out of the collector's view,
    so that the collection before each formula only visits that formula's
    leftovers and costs no more in the fifth pass than in the first."""
    gc.collect()
    gc.freeze()


def run_one(text: str, steps: dict, min_height: bool, collect_stats: bool):
    """A Decision, or the reason there is none."""
    gc.collect()  # free the previous formula's cyclic search state first
    try:
        with Budget(FORMULA_BUDGET_S):
            return decide(text, steps, min_height=min_height,
                          collect_stats=collect_stats)
    except Overrun:
        return f"over the {FORMULA_BUDGET_S:g} s per-formula budget"
    except Exception as exc:  # a crash is a failed decision, not a dead run
        traceback.print_exc(file=sys.stderr)
        return f"raised {exc!r}"


def run_pass(wl: workloads.Workload, steps: dict, tracer: Tracer | None = None,
             repeat: bool = False) -> list[list]:
    """Per formula, the list of its decisions (or failure reasons) in this pass."""
    sample_s = REPEAT_BUDGET_S / len(wl.texts) if repeat else 0.0
    out = []
    for label, text in zip(wl.labels, wl.texts):
        frame = tracer.open_span("formula", formula=label) if tracer else None
        try:
            results = [run_one(text, steps, wl.min_height, tracer is not None)]
            while (len(results) < MAX_REPEATS and not isinstance(results[-1], str)
                   and sum(d.seconds for d in results) < sample_s):
                results.append(run_one(text, steps, wl.min_height, False))
            out.append(results)
        finally:
            if frame:
                tracer.close_span(frame)
    return out


def failed_any(results: list[list]) -> bool:
    return any(isinstance(d, str) for ds in results for d in ds)


def formula_seconds(passes: list[list]) -> list[float]:
    """Each formula's median time over all its decisions in the run."""
    return [statistics.median(d.seconds for ds in col for d in ds)
            for col in zip(*passes)]


def run_canary(steps: dict, tracer: Tracer | None = None):
    wl = workloads.Workload("canary", [t for t, _ in CANARY],
                            [v for _, v in CANARY], [None] * len(CANARY),
                            False, [f"canary{i}" for i in range(len(CANARY))],
                            list(range(len(CANARY))))
    return wl, run_pass(wl, steps, tracer)


# -- the CLI cross-check -----------------------------------------------------

def cli_check(wl: workloads.Workload, verdicts: list[bool | None]):
    """One ``decide`` batch through ``cli.main``: (seconds, reports, problems)."""
    from ipldecide import cli
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-input-{os.getpid()}.txt"
    path.write_text("\n".join(wl.texts) + "\n")
    argv = ["decide", str(path), "--format", "structured", "--stats"]
    if wl.min_height:
        argv.append("--minimal-height")
    stdout, stderr = io.StringIO(), io.StringIO()
    settle()
    t0 = perf_counter()
    try:
        with Budget(CLI_BUDGET_S), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
    except Overrun:
        return perf_counter() - t0, [], [f"cli: over the {CLI_BUDGET_S:g} s budget"]
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - t0, [], [f"cli: raised {exc!r}"]
    finally:
        path.unlink()
    seconds = perf_counter() - t0
    reports = [json.loads(line) for line in stdout.getvalue().splitlines()]
    bad = []
    want = 0 if all(verdicts) else 1
    if code != want:
        bad.append(f"cli: exit code {code}, library path implies {want}: "
                   f"{stderr.getvalue().strip()}")
    if len(reports) != len(verdicts):
        bad.append(f"cli: {len(reports)} report lines for {len(verdicts)} formulas")
    for label, report, valid in zip(wl.labels, reports, verdicts):
        if report.get("verdict") != ("valid" if valid else "non-valid"):
            bad.append(f"{label}: cli says {report.get('verdict')}")
    return seconds, reports, bad


# -- the oracle and the gate -------------------------------------------------

def oracle(wl: workloads.Workload):
    """Per formula: (oracle verdict or None, seconds)."""
    from ipldecide import backward, formula
    settle()
    out = []
    for text in wl.texts:
        gc.collect()
        t0 = perf_counter()
        try:
            with Budget(FORMULA_BUDGET_S):
                verdict = backward.oracle_decide(formula.parse(text))
        except Overrun:
            verdict = None
        except Exception:
            traceback.print_exc(file=sys.stderr)
            verdict = None
        out.append((verdict, perf_counter() - t0))
    return out


def gate(wl: workloads.Workload, results: list[list], expected: list[bool | None]):
    """(decisions checked, failure messages) for one pass."""
    attempted, bad = 0, []
    for i, d in ((i, d) for i, ds in enumerate(results) for d in ds):
        attempted += 1
        if isinstance(d, str):
            reasons = [d]
        elif expected[i] is None:
            reasons = ["the oracle gave no verdict"]
        else:
            reasons = problems(d, expected[i], wl.heights[i])
        if reasons:
            bad.append(f"{wl.labels[i]}: {'; '.join(reasons)}")
    return attempted, bad


# -- metrics -----------------------------------------------------------------

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(per_formula: list[float], setup: list[float],
               peak_rss_mb: float) -> dict:
    """Distribution statistics over formulas, one sample per formula."""
    p99 = statistics.quantiles(per_formula, n=100, method="inclusive")[98]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "total_s": (sum(per_formula), "s"),
        "decide_ms.p50": (statistics.median(per_formula) * 1e3, "ms"),
        "decide_ms.p99": (p99 * 1e3, "ms"),
        "decide_ms.geomean": (math.exp(statistics.fmean(
            math.log(t) for t in per_formula)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, traced: list, overhead_s: float, oracle_s: float,
              cli_s: float, failed_frac: float) -> dict:
    from ipldecide import search
    rule_names = {search.AX_REG: "axiom_regular", search.AX_IRR: "axiom_irregular",
                  search.RULE_AND: "and", search.RULE_OR: "or",
                  search.RULE_IMP_IN: "imp_in", search.RULE_IMP_NOTIN: "imp_notin",
                  search.JOIN_AT: "join_at", search.JOIN_OR: "join_or"}
    c = tracer.counters
    by_rule = sum((d.stored_by_rule for d in traced), start=Counter())
    rows = [row for d in traced for row in d.stats]
    generated = sum(r["generated"] for r in rows)
    forward_subsumed = sum(r["forward_subsumed"] for r in rows)
    shift_results = c["minimal_shifts"][3] + c["maximal_avoiding"][3]
    joins = sum(by_rule[label] for label in search.JOIN_RULES)
    certs = [d for d in traced if d.valid]
    models = [d for d in traced if not d.valid]
    m = {
        "formula.parse_s": (tracer.span_seconds("parse"), "s"),
        "formula.universe_s": (tracer.span_seconds("build_universe"), "s"),
        "formula.subformulas": (sum(d.subformulas for d in traced), "count"),
        "formula.closure_calls": (c["closure"][0], "count"),
        "formula.closure_s": (c["closure"][1], "s"),
        "formula.closure_hit_ratio": (
            1 - ratio(tracer.distinct_masks, c["closure"][0]), "ratio"),
    }
    for name in ("minimal_shifts", "maximal_avoiding"):
        m[f"rules.{name}_calls"] = (c[name][0], "count")
        m[f"rules.{name}_s"] = (c[name][1], "s")
        m[f"rules.{name}_results"] = (c[name][3], "count")
    m.update({
        "rules.shift_closure_calls": (tracer.shift_closure_calls, "count"),
        "rules.shift_yield": (ratio(shift_results, tracer.shift_closure_calls),
                              "ratio"),
        "rules.subsumes_calls": (c["subsumes"][0], "count"),
        "rules.subsumes_s": (c["subsumes"][1], "s"),
        "search.fsearch_s": (tracer.span_seconds("fsearch"), "s"),
        "search.self_s": (tracer.span_seconds("fsearch", "self"), "s"),
        "search.iterations": (sum(d.iterations for d in traced), "count"),
        "search.generated": (generated, "count"),
        "search.forward_subsumed": (forward_subsumed, "count"),
        "search.backward_removed": (sum(r["backward_removed"] for r in rows),
                                    "count"),
        "search.insert_yield": (1 - ratio(forward_subsumed, generated), "ratio"),
        "search.stored": (sum(d.stored for d in traced), "count"),
        "search.db_final": (sum(d.db_final for d in traced), "count"),
    })
    for label, name in rule_names.items():
        m[f"search.stored_by_rule.{name}"] = (by_rule[label], "count")
    m.update({
        "search.candidate_sets_peak": (
            max((r["candidate_sets"] for r in rows), default=0), "count"),
        "search.candidate_sets_built": (c["JoinCandidateSet"][0], "count"),
        "search.candidate_build_s": (c["JoinCandidateSet"][1], "s"),
        "search.join_yield": (ratio(joins, c["JoinCandidateSet"][0]), "ratio"),
        "countermodel.extract_s": (tracer.span_seconds("extract_model"), "s"),
        "countermodel.worlds": (sum(d.worlds for d in models), "count"),
        "countermodel.height": (sum(d.height for d in models), "count"),
        "kripke.check_s": (tracer.span_seconds("check_countermodel"), "s"),
        "backward.bsearch_s": (tracer.span_seconds("bsearch"), "s"),
        "backward.to_g3i_s": (tracer.span_seconds("to_g3i"), "s"),
        "backward.check_g3i_s": (tracer.span_seconds("check_g3i"), "s"),
        "backward.certificate_nodes": (sum(d.certificate_nodes for d in certs),
                                       "count"),
        "backward.critical_choices": (sum(d.critical_choices for d in certs),
                                      "count"),
        "backward.backtracks": (sum(d.backtracks for d in certs), "count"),
        "backward.oracle_s": (oracle_s, "s"),
        "cli.batch_s": (cli_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "failed_frac": (failed_frac, "ratio"),
    })
    return m


# -- one run -----------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, *,
            smoke: bool = False):
    """One benchmark run: returns (result, detail)."""
    import_package()
    env = environment(seed)
    setup = [] if trace else setup_seconds(name, seed)
    wl = workloads.make(name, seed, smoke=smoke)
    steps = library_steps()
    settle()

    canary_wl, canary = run_canary(steps)
    checked = [(canary_wl, canary)]
    passes = []
    t0 = perf_counter()
    while not passes or (not trace and perf_counter() - t0 < seconds):
        passes.append(run_pass(wl, steps, repeat=not trace))
        settle()
        if failed_any(passes[-1]):
            break
    tracer = None
    if trace and not failed_any(passes[-1]):
        tracer = Tracer()
        tracer.install()
        try:
            traced_canary = run_canary(tracer.span_steps(steps), tracer)[1]
            traced = run_pass(wl, tracer.span_steps(steps), tracer)
        finally:
            tracer.uninstall()
        settle()
        checked += [(canary_wl, traced_canary), (wl, traced)]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked += [(wl, p) for p in passes]

    first = [ds[0] for ds in passes[0]]
    verdicts = [None if isinstance(d, str) else d.valid for d in first]
    cli_s, reports, bad = cli_check(wl, verdicts)
    attempted = len(wl.texts)
    oracle_rows = oracle(wl)
    expected = [known if known is not None else verdict
                for known, (verdict, _) in zip(wl.expected, oracle_rows)]
    for w, results in checked:
        n, more = gate(w, results, w.expected if w is canary_wl else expected)
        attempted += n
        bad += more
    failed = len(bad)

    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, "passes": len(passes),
              "formulas": len(wl.texts), "decisions": attempted,
              "cli_s": cli_s, "problems": bad[:20]}
    metrics = {}
    if not failed:
        per_formula = formula_seconds(passes)
        if trace:
            flat = [ds[0] for ds in traced_canary + traced]
            overhead = (sum(ds[0].seconds for ds in traced)
                        - sum(ds[0].seconds for ds in passes[0]))
            metrics = per_layer(tracer, flat, overhead,
                                sum(s for _, s in oracle_rows), cli_s,
                                failed / attempted)
        else:
            metrics = end_to_end(per_formula, setup, peak_rss)
            detail["setup_samples_s"] = setup
        if name != "random-mixed":
            detail["rows"] = rows(wl, first, per_formula, reports, oracle_rows)
    if tracer:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({"detail": detail, "metrics": metrics,
                                    **tracer.dump()}))
        detail["trace_file"] = str(path.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, detail


def rows(wl, first, per_formula, reports, oracle_rows) -> list[dict]:
    """Per-formula growth rows of a family workload, in family order."""
    out = []
    for i in sorted(range(len(wl.texts)), key=lambda i: wl.positions[i]):
        d = first[i]
        row = {"formula": wl.labels[i], "seconds": per_formula[i],
               "search.stored": d.stored,
               "search.candidate_sets_peak": max(
                   (r["candidate_sets"] for r in reports[i].get("stats", [])),
                   default=0),
               "backward.oracle_s": oracle_rows[i][1]}
        if d.valid:
            row["backward.certificate_nodes"] = d.certificate_nodes
        else:
            row["countermodel.height"] = d.height
            row["countermodel.worlds"] = d.worlds
        out.append(row)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (SetupError, subprocess.CalledProcessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at smoke size.

    python3 -m pytest perfbench -q

Smoke size is chains n <= 6, ladder i <= 8 and 50 random formulas.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from pipeline import decide, library_steps, problems  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Valid formulas whose G3i certificate check_g3i rejects ("left implication:
# consequent premise mismatch").  Random corpora other than the fixed one
# random-mixed uses contain formulas like these; the gate would fail them.
G3I_DEFECT = [
    "~~(~(p1 -> p4) -> p2 | p4 | (p4 & p2 & p1 | p3 -> p3))",
    "~(p2 | (p2 -> p3 | (~p4 | p2))) | p4 & ~p4 -> ~~p4",
]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(name, trace):
    result, detail = run.measure(name, 7, 0.0, trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0


def test_planted_wrong_verdict_trips_the_gate(monkeypatch, capsys):
    planted = workloads.make("chains", 7, smoke=True)
    planted.expected[0] = not planted.expected[0]
    monkeypatch.setattr(workloads, "make", lambda *args, **kwargs: planted)
    code = run.main(["--workload", "chains", "--seed", "7", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "chains", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("text", G3I_DEFECT)
def test_g3i_defect_reproducer_is_valid(text):
    run.import_package()
    from ipldecide import backward, formula
    assert backward.oracle_decide(formula.parse(text)) is True


@pytest.mark.xfail(strict=True, reason="to_g3i builds a certificate that "
                   "check_g3i rejects; remove this mark once that is fixed")
@pytest.mark.parametrize("text", G3I_DEFECT)
def test_g3i_defect_reproducer_passes_the_gate(text):
    run.import_package()
    assert problems(decide(text, library_steps(), min_height=False),
                    True, None) == []

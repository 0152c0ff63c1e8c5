import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ipldecide
from ipldecide.cli import main

from conftest import G3I_CONSUMED_ANTECEDENT, KP, SCOTT, VALID_E


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_valid_formula(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(VALID_E + "\n")
    code, out, _ = run(capsys, "decide", str(src))
    assert code == 0
    assert out.startswith("valid")


def test_decide_certifies_goals_that_consume_a_closed_antecedent(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("".join(text + "\n" for text in G3I_CONSUMED_ANTECEDENT[:2]))
    code, out, err = run(capsys, "decide", str(src))
    assert code == 0 and err == ""
    assert [line.split()[0] for line in out.splitlines()] == ["valid", "valid"]


def test_decide_non_valid_formula_reports_model(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(SCOTT + "\n")
    code, out, _ = run(capsys, "decide", str(src), "--minimal-height")
    assert code == 1
    assert "non-valid" in out and "4 worlds" in out and "height 2" in out


def test_decide_parse_error(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("p -> (\n")
    code, _, err = run(capsys, "decide", str(src))
    assert code == 2
    assert "parse error" in err


def test_decide_batch_with_bad_lines_decides_the_rest(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("p -> p\np -> (\n\n" + SCOTT + "\n  q &\n")
    code, out, err = run(capsys, "decide", str(src))
    assert code == 2
    assert [line.split()[0] for line in out.splitlines()] == ["valid", "non-valid"]
    assert err.splitlines() == [
        "parse error: line 2: expected a formula, found 'end of input' at column 7",
        "parse error: line 5: expected a formula, found 'end of input' at column 6"]


def test_non_ascii_atoms_are_a_parse_error_and_the_batch_goes_on(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("p² -> p²\np -> p\npé\nq\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", str(src))
    assert code == 2
    assert [line.split()[0] for line in out.splitlines()] == ["valid", "non-valid"]
    assert err.splitlines() == [
        "parse error: line 1: unexpected character '²' at column 2",
        "parse error: line 3: unexpected character 'é' at column 2"]


def test_deep_nesting_is_a_parse_error_and_the_batch_goes_on(tmp_path, capsys):
    # Parentheses nested 600 deep, and 3,000 negations and right-nested
    # implications, every one followed by a valid line.  A parenthesis is
    # rejected 101 deep; a negation or an implication where it makes the
    # formula 101 high.
    deep = ["(" * 600 + "p" + ")" * 600, "~" * 3000 + "p", "p -> " * 3000 + "p"]
    src = tmp_path / "f.txt"
    src.write_text("".join(line + "\np -> p\n" for line in deep))
    for command in ("decide", "audit"):
        code, out, err = run(capsys, command, str(src))
        assert code == 2
        assert err.splitlines() == [
            f"parse error: line {n}: formula nested deeper than 100 levels at column {c}"
            for n, c in ((1, 102), (3, 2900), (5, 5 * 2899 + 3))]
        decided = [line for line in out.splitlines() if not line.startswith(" ")]
        assert [line.split(None, 1)[1] for line in decided] == ["p -> p"] * 3


def test_long_chains_are_a_parse_error_and_the_batch_goes_on(tmp_path, capsys):
    # 3,000-operand conjunction and disjunction chains, each followed by a
    # valid line; the 101st operator makes the chain 101 high.
    src = tmp_path / "f.txt"
    src.write_text("".join(f"{op.join(['p'] * 3000)}\np -> p\n" for op in (" & ", " | ")))
    for command in ("decide", "audit"):
        code, out, err = run(capsys, command, str(src))
        assert code == 2
        assert err.splitlines() == [
            f"parse error: line {n}: formula nested deeper than 100 levels at column 403"
            for n in (1, 3)]
        decided = [line for line in out.splitlines() if not line.startswith(" ")]
        assert [line.split(None, 1)[1] for line in decided] == ["p -> p"] * 2


def _fail_the_first_certificate(monkeypatch, tmp_path):
    """Make the first G3i check fail; returns a file of two valid formulas."""
    from ipldecide import backward
    check_g3i = backward.check_g3i
    calls = []

    def failing_once(tree, u):
        calls.append(u)
        return "the root" if len(calls) == 1 else check_g3i(tree, u)

    monkeypatch.setattr(backward, "check_g3i", failing_once)
    src = tmp_path / "f.txt"
    src.write_text("p -> p\n" + VALID_E + "\n")
    return src


def test_internal_error_is_reported_and_the_batch_goes_on(tmp_path, capsys, monkeypatch):
    src = _fail_the_first_certificate(monkeypatch, tmp_path)
    code, out, err = run(capsys, "decide", str(src))
    assert code == 3
    assert [line.split()[0] for line in out.splitlines()] == ["error", "valid"]
    assert err == "internal error: certificate failed at the root\n"


def test_internal_error_is_reported_in_the_structured_format(tmp_path, capsys,
                                                             monkeypatch):
    src = _fail_the_first_certificate(monkeypatch, tmp_path)
    code, out, err = run(capsys, "decide", str(src), "--format", "structured")
    assert code == 3
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["verdict"] for r in reports] == ["error", "valid"]
    assert reports[0]["formula"] == "p -> p"
    assert err == "internal error: certificate failed at the root\n"


def test_audit_checks_order_independence_only_on_saturated_databases(tmp_path, capsys):
    # The search for a non-valid goal stops at its first goal sequent, so its
    # database depends on the application order; a valid goal's does not.
    src = tmp_path / "f.txt"
    src.write_text("(~(p3 | p4) | p3) & ~(p2 -> p4)\n" + VALID_E + "\n")
    code, out, _ = run(capsys, "audit", str(src))
    assert code == 0 and "FAIL" not in out
    assert out.count("compact database independent of application order") == 1


def test_audit_batch_with_a_bad_line_audits_the_rest(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("p) \n" + "p -> p\n")
    code, out, err = run(capsys, "audit", str(src))
    assert code == 2
    assert "FAIL" not in out and out.count("audit ") == 1
    assert err == "parse error: line 1: unexpected trailing input ')' at column 2\n"


def test_input_that_is_not_utf8_cannot_be_read(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_bytes(b"p -> p\n\xff\xfe bad\n")
    for command in ("decide", "audit"):
        code, out, err = run(capsys, command, str(src))
        assert code == 2 and out == ""
        assert err.startswith("cannot read input: 'utf-8' codec can't decode byte 0xff")


def test_output_file_that_cannot_be_opened_ends_the_run_before_deciding(tmp_path,
                                                                        capsys):
    src = tmp_path / "f.txt"
    src.write_text("p | ~p\np -> p\n")
    for option in ("--countermodel", "--derivation", "--db-dump"):
        missing = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "decide", str(src), option, str(missing))
        assert code == 2 and out == ""
        assert err.startswith("cannot write output: [Errno 2] No such file or directory")
        assert not missing.parent.exists()


def test_module_runs_the_command_line_from_a_checkout():
    src = Path(ipldecide.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "ipldecide", "decide", "-"],
                          input="p -> p\n", capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("valid")


@pytest.mark.parametrize("flags", [["--format", "structured", "--stats"],
                                   ["--db-dump", "-"]])
def test_closed_stdout_exits_2_without_a_traceback(flags):
    src = Path(ipldecide.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c",
         "import subprocess, sys\n"
         "p = subprocess.Popen(sys.argv[1:], stdin=subprocess.PIPE,\n"
         "                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
         "p.stdout.close()  # the reader is gone before anything is written\n"
         "_out, err = p.communicate(sys.stdin.read().encode())\n"
         "sys.stderr.write(err.decode())\n"
         "sys.exit(p.returncode)\n",
         sys.executable, "-m", "ipldecide", "decide", "-", *flags],
        input=f"{VALID_E}\n" * 3, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""


def test_output_files_hold_every_formula_in_input_order(tmp_path, capsys):
    # Each named file is truncated once per run and then gets what "-"
    # prints on stdout, verdict lines aside.
    src = tmp_path / "f.txt"
    src.write_text("p | ~p\np -> p\nq | ~q\n")
    for option in ("--countermodel", "--derivation", "--db-dump"):
        dest = tmp_path / f"{option[2:]}.txt"
        dest.write_text("stale\n")
        assert run(capsys, "decide", str(src), option, str(dest))[0] == 1
        _, out, _ = run(capsys, "decide", str(src), option, "-")
        printed = [line for line in out.splitlines(keepends=True)
                   if not line.startswith(("valid ", "non-valid "))]
        assert dest.read_text() == "".join(printed)
    models = (tmp_path / "countermodel.txt").read_text()
    assert models.index("world 0: p") < models.index("world 0: q")


def test_decide_without_backward_subsumption_gives_the_same_verdicts(tmp_path, capsys):
    # The stored derivations, and so the extracted models, may differ; the
    # verdicts may not, nor under --minimal-height the model heights.
    src = tmp_path / "f.txt"
    src.write_text("\n".join([SCOTT, VALID_E, KP, "p -> p", "p | ~p", "~~(p | ~p)"]))
    for flags, drop in (((), r"  countermodel: .*"),
                        (("--minimal-height",), r"\d+ worlds, ")):
        runs = []
        for extra in ((), ("--no-backward-subsumption",)):
            code, out, _ = run(capsys, "decide", str(src), *flags, *extra)
            runs.append((code, [re.sub(drop, "", line) for line in out.splitlines()]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and len(runs[0][1]) == 6


def test_decide_writes_artifacts(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(KP + "\n")
    model_out = tmp_path / "model.txt"
    deriv_out = tmp_path / "deriv.txt"
    db_out = tmp_path / "db.txt"
    code, _, _ = run(capsys, "decide", str(src), "--minimal-height",
                     "--countermodel", str(model_out),
                     "--derivation", str(deriv_out),
                     "--db-dump", str(db_out))
    assert code == 1
    assert "(root)" in model_out.read_text()
    assert "join" in deriv_out.read_text()
    assert "[" in db_out.read_text()


def test_decide_structured_format(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(VALID_E + "\n")
    code, out, _ = run(capsys, "decide", str(src), "--format", "structured")
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["verdict"] == "valid" and report["certificate_nodes"] > 0


def test_decide_graph_format_countermodel(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(SCOTT + "\n")
    code, out, _ = run(capsys, "decide", str(src), "--format", "graph",
                       "--countermodel", "-")
    assert code == 1
    assert "digraph model" in out


def test_decide_typeset_derivation(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("p -> p\n")
    code, out, _ = run(capsys, "decide", str(src), "--format", "typeset",
                       "--derivation", "-")
    assert code == 0
    assert "\\begin{prooftree}" in out


def test_decide_batch_exit_code(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("p -> p\n" + SCOTT + "\n")
    code, out, _ = run(capsys, "decide", str(src))
    assert code == 1
    assert "valid" in out and "non-valid" in out


def test_gen_nishimura(capsys):
    code, out, _ = run(capsys, "gen", "nishimura", "3")
    assert code == 0 and out.strip() == "p | ~p"
    code, out, _ = run(capsys, "gen", "nishimura", "4")
    assert code == 0 and out.strip() == "p | ~p -> p"


def test_gen_nishimura_rejects_indices_below_one(capsys):
    for index in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "nishimura", index])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "from 1 to 30" in err


def test_gen_nishimura_takes_indices_up_to_thirty(capsys):
    code, out, _ = run(capsys, "gen", "nishimura", "30")
    assert code == 0 and len(out) > 10**6
    with pytest.raises(SystemExit) as exc:
        main(["gen", "nishimura", "31"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "from 1 to 30, got '31'" in err


def test_gen_random_is_deterministic(capsys):
    args = ("gen", "random", "--vars", "3", "--size", "12", "--count", "5",
            "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second and len(first.splitlines()) == 5


def test_gen_random_rejects_sizes_below_one_and_negative_counts(capsys):
    for option, value, low in (("--vars", "0", 1), ("--vars", "-2", 1), ("--size", "0", 1),
                               ("--size", "-5", 1), ("--count", "-3", 0)):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"{option}: expected a whole number of at least {low}, got '{value}'" in err
    code, out, _ = run(capsys, "gen", "random", "--vars", "1", "--size", "1", "--count", "0")
    assert code == 0 and out == ""


def test_audit_passes_on_principals(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(SCOTT + "\n" + KP + "\n" + "p -> p\n")
    code, out, _ = run(capsys, "audit", str(src))
    assert code == 0
    assert "FAIL" not in out
    assert sum(line.startswith("audit ") for line in out.splitlines()) == 3


def test_decide_stats_flag(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text(SCOTT + "\n")
    code, out, _ = run(capsys, "decide", str(src), "--stats")
    assert code == 1
    assert "db_size" in out

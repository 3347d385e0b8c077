"""CLI tests: report formats, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nccanon.cli import (
    Report,
    Scenario,
    CheckRecord,
    main,
    run,
)


# -- report rendering --------------------------------------------------------------


def test_report_verdicts():
    report = Report(
        [
            CheckRecord("a", "1", "1", "pass"),
            CheckRecord("b", "-", "seen", "recorded"),
        ]
    )
    assert report.passed
    report = Report((*report.records, CheckRecord("c", "1", "2", "fail")))
    assert not report.passed
    structured = report.render_structured()
    lines = structured.strip().split("\n")
    assert all(len(line.split("\t")) == 4 for line in lines)
    assert lines[-1].startswith("summary\t")
    assert lines[-1].endswith("fail")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(task="nonsense")
    with pytest.raises(ValueError):
        Scenario(task="all", max_degree=0)
    # the new-generator table needs weight 3; rees-report needs a family
    with pytest.raises(ValueError):
        Scenario(task="rees-report", max_degree=2, family="x^m")
    with pytest.raises(ValueError):
        Scenario(task="all", max_degree=2)
    with pytest.raises(ValueError):
        Scenario(task="rees-report")
    # a family that no suite of the task reads is refused, not ignored
    with pytest.raises(ValueError, match="--task gluing-ideal runs no suite that reads --family"):
        Scenario(task="gluing-ideal", family="x^m")
    Scenario(task="all", family="x^m")


# -- runner ------------------------------------------------------------------------


def test_run_each_task_passes():
    for task in (
        "gluing-ideal",
        "glue-check",
        "cone-restrict",
        "pole-bounds",
        "embed-search",
        "example1-checks",
        "example2-checks",
    ):
        report, code = run(Scenario(task=task, max_degree=4))
        assert code == 0, task
        assert report.passed, task


def test_run_rees_report():
    report, code = run(Scenario(task="rees-report", max_degree=6, family="x*y, x^m, y^m"))
    assert code == 0
    by_name = {r.name: r for r in report.records}
    assert by_name["rees/m=2/new-gens(deg<=6)"].computed == "{}"
    assert by_name["rees/m=5/new-gens(deg<=6)"].computed == "{x*y}"
    assert by_name["rees/witness-flag"].computed == "True"


def test_main_exit_codes(capsys, tmp_path):
    assert main(["--task", "gluing-ideal", "--max-degree", "3"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--task", "rees-report"])  # family missing
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--task", "all", "--unknown-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--task", "all", "--format", "json"])
    assert exc.value.code == 2
    assert "argument --format" in capsys.readouterr().err
    assert main(["--task", "rees-report", "--family", "x^(m-2)", "--max-degree", "5"]) == 2
    err = capsys.readouterr().err
    assert "family error" in err
    with pytest.raises(SystemExit) as exc:
        main(["--task", "gluing-ideal", "--max-degree", "2", "--family", "@@@"])
    assert exc.value.code == 2
    assert "runs no suite that reads --family" in capsys.readouterr().err


def test_python_m_nccanon(capsys):
    # ``python -m nccanon`` from a source checkout, as a separate interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "nccanon", *argv], env=env,
                              capture_output=True, text=True, check=False)

    argv = ["--task", "gluing-ideal", "--max-degree", "3", "--format", "structured"]
    done = python_m(*argv)
    assert done.returncode == main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    refused = python_m("--task", "all", "--max-degree", "0")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert "--max-degree must be >= 1" in refused.stderr


def test_import_loads_no_code_generating_modules():
    # the value classes are written out, so importing the CLI in a bare
    # interpreter (no site) loads neither dataclasses nor what it pulls in
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = ("import sys, nccanon.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_exit_code_one_on_failing_check(monkeypatch, capsys):
    import nccanon.cli as cli

    monkeypatch.setattr(
        cli,
        "_suite_gluing_ideal",
        lambda n: [cli.CheckRecord("forced", "1", "2", "fail")],
    )
    assert cli.main(["--task", "gluing-ideal", "--max-degree", "1"]) == 1
    out = capsys.readouterr().out
    assert "summary: fail" in out


def test_failing_pole_bound_rows_name_their_monomial(monkeypatch):
    import nccanon.cli as cli

    passing = [(r.verdict, r.computed) for r in cli._suite_pole_bounds(3)]
    assert passing == [("pass", v) for m in (1, 2, 3) for v in (str(m), "0")]
    # the cone-side bound is the pole of the coefficient 1, the glued one
    # that of u^rise, and CONE_GLUING.rise(m) is m
    monkeypatch.setattr(cli, "pole_bound_s2", lambda m: m + 1)
    monkeypatch.setattr(cli, "glued_pole_bound", lambda m: 7)
    rows = {r.name: r for r in cli._suite_pole_bounds(3)}
    for m, named in ((1, "u"), (2, "u^2"), (3, "u^3")):
        cone, glued = rows[f"poles/m={m}/cone-side"], rows[f"poles/m={m}/glued"]
        assert (cone.verdict, cone.expected, cone.computed) == ("fail", str(m), f"{m + 1} from 1")
        assert (glued.verdict, glued.expected, glued.computed) == ("fail", "0", f"7 from {named}")


def test_main_out_file(tmp_path, capsys):
    out = tmp_path / "report.tsv"
    code = main(
        [
            "--task",
            "gluing-ideal",
            "--max-degree",
            "3",
            "--format",
            "structured",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert "gluing-ideal/m=3" in text
    assert text.strip().split("\n")[-1].endswith("pass")


def test_structured_output_is_deterministic(capsys):
    main(["--task", "all", "--max-degree", "6", "--format", "structured"])
    first = capsys.readouterr().out
    main(["--task", "all", "--max-degree", "6", "--format", "structured"])
    second = capsys.readouterr().out
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


# -- golden reports --------------------------------------------------------------
#
# Every pinned report, with its line count and the sha256 of its stdout.  Each
# sha was taken before a change to the code behind the report (noted per
# row), so the report stays byte-identical across refactors, on every
# supported version: the polynomial printer and the monomial substitution
# both feed it.

THREE_VAR = "x*y, y*z, x*z, x^m, y^m, z^m"

GOLDEN_REPORTS = [
    # taken before the box scans moved onto the integer monomial kernel
    pytest.param(
        ["--task", "all", "--max-degree", "20", "--format", "structured"], 194,
        "35bae79742317ba8720d4892af3a96d12b7ccc556f9440d96484998290ccb992",
        id="all-n20",
    ),
    # taken before the pullback along SIGMA became a renaming
    pytest.param(
        ["--task", "all", "--max-degree", "20", "--format", "table"], 196,
        "6c2cb5221eac5b26520b0cfe4ca8cf5befbc400067f64b57053e3bd6a756a4da",
        id="all-n20-table",
    ),
    # taken before the gluing ideal and the pole bounds were read off the
    # branch data
    pytest.param(
        ["--task", "all", "--max-degree", "80", "--format", "structured"], 674,
        "3fc476047af1136206646131f950f72a58b0a9cc69034acf3fa291341e4f5a07",
        id="all-n80",
    ),
    # the scaling path, taken before the gluing ideal and the pole bounds
    # left their box scans
    pytest.param(
        ["--task", "all", "--max-degree", "160", "--format", "structured"], 1314,
        "40f8ceccee3d06b063b29c6b061d087ce3a5eb2e1e127dbaa4a431ce42f3ff28",
        id="all-n160",
    ),
    # the pole bounds far past the weights the oracles reach, taken while
    # the bounds were still scanned monomial by monomial
    pytest.param(
        ["--task", "pole-bounds", "--max-degree", "1000", "--format", "structured"], 2001,
        "c50162f7e3ba9be37a5b86303ac332b6d9f190d893f094083272394d9b0eb02c",
        id="pole-bounds-n1000",
    ),
    # glue-check far past the weights the oracle reaches, taken while each
    # non-member was decided by its own partner_sections call
    pytest.param(
        ["--task", "glue-check", "--max-degree", "320", "--format", "structured"], 641,
        "190a04fbc2a1013a10d0621b26490395d1283bb0bc047c138c4100729b7b088f",
        id="glue-check-n320",
    ),
    # the benchmark's rees-3var-n80 run, taken before the per-weight pass
    pytest.param(
        ["--task", "rees-report", "--family", THREE_VAR, "--max-degree", "80",
         "--format", "structured"], 83,
        "31b6295fd03e32cd748c81cd8b94bb4d9f8ff6a986866223c62f220bd14c95b6",
        id="rees-3var-n80",
    ),
    # taken before J_m and the oracle were pruned along template lines
    pytest.param(
        ["--task", "rees-report", "--family", THREE_VAR, "--max-degree", "160",
         "--format", "structured"], 163,
        "e5bc56725fb9db317f1a4b96fc6dbde04ff3dab34412f7521c50ec794f46baa3",
        id="rees-3var-n160",
    ),
    # a family with one mixed template line, which its endpoint products
    # cover from weight 3 on, and a cyclic three-variable family; both taken
    # before mixed lines were cut by intervals
    pytest.param(
        ["--task", "rees-report", "--family", "x*y, x^m, y^m", "--max-degree", "160",
         "--format", "structured"], 163,
        "f0cb33f09c3280f2ddc7d29144915b9f59c1a99afdabac85593e10f5c8e43d4c",
        id="rees-xy-n160",
    ),
    pytest.param(
        ["--task", "rees-report", "--family", "x^m*y, y^m*z, z^m*x, x*y*z",
         "--max-degree", "160", "--format", "structured"], 318,
        "654967a6e3271a768cae2ac6efe4580c94c349505ba5a82b038ab066ff8e6542",
        id="rees-cyclic-n160",
    ),
]


@pytest.mark.parametrize("argv, lines, sha256", GOLDEN_REPORTS)
def test_golden_report(capsys, argv, lines, sha256):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def test_empty_family_is_a_family_error(capsys):
    # an empty --family is an input error, not a request for the default
    for task in ("rees-report", "all"):
        assert main(["--task", task, "--family", "", "--max-degree", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("nccanon: family error: empty family")


def test_table_output_is_deterministic(capsys):
    main(["--task", "example1-checks"])
    first = capsys.readouterr().out
    main(["--task", "example1-checks"])
    assert capsys.readouterr().out == first


def test_out_to_missing_directory(capsys, tmp_path):
    code = main(
        [
            "--task",
            "cone-restrict",
            "--max-degree",
            "1",
            "--out",
            str(tmp_path / "no" / "such" / "dir" / "r.txt"),
        ]
    )
    assert code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_rees_cli_three_variable_family(capsys):
    code = main(
        ["--task", "rees-report", "--family", "x*y, z^m", "--max-degree", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "{x*y}" in out


def test_rees_cli_generators_above_oracle_bound(capsys):
    # x*y^7 has degree 8: invisible to the degree-6 oracle rows, reported
    # separately as a recorded fact
    code = main(
        ["--task", "rees-report", "--family", "x*y^7, x^m", "--max-degree", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "new-gens(deg>6)" in out
    assert "{x*y^7}" in out
    assert "rees/m=1/new-gens(deg<=6)" in out


def test_table_output_shape(capsys):
    main(["--task", "cone-restrict", "--max-degree", "2"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("check")
    assert lines[-1].startswith("summary: pass")
